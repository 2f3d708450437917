//! Derived relations and execution analysis.
//!
//! [`Execution::analyze`] validates the placement rules of §III–§IV and
//! materializes every relation of the paper's Table I (plus the auxiliary
//! relations used by the `x86t_elt` axioms) as a bit matrix of
//! [`crate::rel`], one row per event. The result, an [`Analysis`], is what
//! MTM predicates are evaluated against.

use crate::event::{Event, EventKind};
use crate::exec::{Execution, PairSet};
use crate::ids::{EventId, Location, Mapping, ThreadId};
use crate::rel::{bits, Rel, MAX_EVENTS};
use crate::wellformed::WellformedError;
use std::collections::BTreeMap;

/// The base relations of the MTM vocabulary (Table I of the paper, plus
/// the derived helpers used by the `x86t_elt` axioms).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BaseRel {
    /// Program order (transitive, per thread, non-ghost events).
    Po,
    /// Program order lifted to ghosts: a ghost is anchored at its invoker's
    /// slot (walk before the access, dirty-bit write after).
    Apo,
    /// `apo` restricted to same-physical-location memory events.
    PoLoc,
    /// Preserved program order under TSO: `apo` over memory events minus
    /// write→read pairs (store buffering).
    Ppo,
    /// Pairs of memory events separated by an `MFENCE`.
    Fence,
    /// Reads-from.
    Rf,
    /// Reads-from external (different threads).
    Rfe,
    /// Coherence order.
    Co,
    /// From-reads.
    Fr,
    /// `rf ∪ co ∪ fr`.
    Com,
    /// User-facing instruction → the ghosts it invokes.
    Ghost,
    /// PT walk → the user-facing accesses reading the TLB entry it loaded.
    RfPtw,
    /// PTE write → the user-facing accesses using its mapping.
    RfPa,
    /// Alias-creation order on PTE writes mapping to one PA.
    CoPa,
    /// User access → `co_pa`-successors of the PTE write it read.
    FrPa,
    /// User access → later PTE writes remapping its effective VA.
    FrVa,
    /// PTE write → the INVLPGs it invokes.
    Remap,
    /// Read → write of a read-modify-write.
    Rmw,
    /// Invoker of a walk → other accesses sourced by that walk.
    PtwSource,
}

impl BaseRel {
    /// All base relations, in declaration order: `ALL[r as usize] == r`.
    const ALL: [BaseRel; 19] = {
        use BaseRel::*;
        [
            Po, Apo, PoLoc, Ppo, Fence, Rf, Rfe, Co, Fr, Com, Ghost, RfPtw, RfPa, CoPa, FrPa, FrVa,
            Remap, Rmw, PtwSource,
        ]
    };

    /// All base relations.
    pub fn all() -> &'static [BaseRel] {
        &BaseRel::ALL
    }

    /// The spelling used by the MTM spec DSL and the paper.
    pub fn name(self) -> &'static str {
        use BaseRel::*;
        match self {
            Po => "po",
            Apo => "apo",
            PoLoc => "po_loc",
            Ppo => "ppo",
            Fence => "fence",
            Rf => "rf",
            Rfe => "rfe",
            Co => "co",
            Fr => "fr",
            Com => "com",
            Ghost => "ghost",
            RfPtw => "rf_ptw",
            RfPa => "rf_pa",
            CoPa => "co_pa",
            FrPa => "fr_pa",
            FrVa => "fr_va",
            Remap => "remap",
            Rmw => "rmw",
            PtwSource => "ptw_source",
        }
    }

    /// Parses a relation name as used in the spec DSL.
    pub fn parse(s: &str) -> Option<BaseRel> {
        BaseRel::all().iter().copied().find(|r| r.name() == s)
    }
}

/// Fully derived view of a well-formed candidate execution.
#[derive(Clone, Debug)]
pub struct Analysis<'x> {
    exec: &'x Execution,
    /// (thread, slot, rank) anchor per event.
    anchor: Vec<(usize, usize, u8)>,
    /// Mapping used (memory events) or written (PTE/dirty-bit writes).
    mapping: Vec<Option<Mapping>>,
    /// PTE-write origin of that mapping; `None` = initial mapping.
    origin: Vec<Option<EventId>>,
    /// Physical location of each memory event.
    location: Vec<Option<Location>>,
    /// The walk whose TLB entry each user memory event reads.
    tlb_src: Vec<Option<EventId>>,
    /// Every base relation as a bit matrix, indexed by `BaseRel as usize`.
    rels: [Rel; BaseRel::ALL.len()],
}

impl Execution {
    /// Validates the execution against the placement rules and derives all
    /// relations.
    ///
    /// # Errors
    ///
    /// Returns the first [`WellformedError`] encountered; see that type for
    /// the complete rule list.
    pub fn analyze(&self) -> Result<Analysis<'_>, WellformedError> {
        Analysis::build(self)
    }

    /// `true` when the execution satisfies every placement rule.
    pub fn is_well_formed(&self) -> bool {
        self.analyze().is_ok()
    }
}

impl<'x> Analysis<'x> {
    /// The underlying execution.
    pub fn exec(&self) -> &'x Execution {
        self.exec
    }

    /// The concrete pairs of a base relation, for printing and tests
    /// (axioms evaluate the bit matrices directly).
    pub fn relation(&self, r: BaseRel) -> PairSet {
        self.rels[r as usize].pairs()
    }

    /// A base relation as a bit matrix.
    pub(crate) fn matrix(&self, r: BaseRel) -> &Rel {
        &self.rels[r as usize]
    }

    /// The mapping used by (or written by) a memory event.
    pub fn mapping(&self, e: EventId) -> Option<Mapping> {
        self.mapping[e.index()]
    }

    /// The PTE write a memory event's mapping originates from (`None` =
    /// initial mapping or not a memory event).
    pub fn mapping_origin(&self, e: EventId) -> Option<EventId> {
        self.origin[e.index()]
    }

    /// The physical location a memory event accesses.
    pub fn location(&self, e: EventId) -> Option<Location> {
        self.location[e.index()]
    }

    /// The walk sourcing a user access's translation.
    pub fn tlb_source(&self, e: EventId) -> Option<EventId> {
        self.tlb_src[e.index()]
    }

    /// The `(thread, slot, rank)` anchor used for `apo`.
    pub fn anchor(&self, e: EventId) -> (usize, usize, u8) {
        self.anchor[e.index()]
    }

    fn build(x: &'x Execution) -> Result<Analysis<'x>, WellformedError> {
        let n = x.events.len();
        // --- structural checks ---
        if n > MAX_EVENTS {
            return Err(WellformedError::TooManyEvents(n));
        }
        for (i, e) in x.events.iter().enumerate() {
            if e.id.index() != i {
                return Err(WellformedError::CorruptEventTable);
            }
            let needs_va = !matches!(e.kind, EventKind::Fence | EventKind::TlbFlush);
            if e.va.is_some() != needs_va {
                return Err(WellformedError::BadVa(e.id));
            }
            if e.thread.0 >= x.num_threads {
                return Err(WellformedError::CorruptEventTable);
            }
        }

        // Program order covers exactly the non-ghost events of each thread.
        let mut slot = vec![usize::MAX; n];
        for (t, list) in x.po.iter().enumerate() {
            for (s, &e) in list.iter().enumerate() {
                let ev = x
                    .events
                    .get(e.index())
                    .ok_or(WellformedError::CorruptProgramOrder(ThreadId(t)))?;
                if ev.thread.0 != t || ev.kind.is_ghost() || slot[e.index()] != usize::MAX {
                    return Err(WellformedError::CorruptProgramOrder(ThreadId(t)));
                }
                slot[e.index()] = s;
            }
        }
        for e in &x.events {
            if !e.kind.is_ghost() && slot[e.id.index()] == usize::MAX {
                return Err(WellformedError::CorruptProgramOrder(e.thread));
            }
        }

        // Ghost bookkeeping.
        for e in &x.events {
            let inv = x.ghost_invoker.get(&e.id);
            match (e.kind.is_ghost(), inv) {
                (true, Some(&invoker)) => {
                    let iv = x
                        .events
                        .get(invoker.index())
                        .ok_or(WellformedError::OrphanGhost(e.id))?;
                    let ok = !iv.kind.is_ghost()
                        && iv.thread == e.thread
                        && iv.va == e.va
                        && match e.kind {
                            EventKind::Ptw => iv.kind.is_user_memory(),
                            EventKind::DirtyBitWrite => iv.kind == EventKind::Write,
                            _ => false,
                        };
                    if !ok {
                        return Err(WellformedError::BadInvoker {
                            ghost: e.id,
                            invoker,
                        });
                    }
                }
                (true, None) | (false, Some(_)) => return Err(WellformedError::OrphanGhost(e.id)),
                (false, None) => {}
            }
        }
        if let Some(&g) = x.ghost_invoker.keys().find(|g| g.index() >= n) {
            return Err(WellformedError::OrphanGhost(g));
        }
        // Every write has exactly one dirty-bit update; ≤ 1 walk per access.
        for e in &x.events {
            if e.kind == EventKind::Write {
                let dbs = x
                    .ghost_invoker
                    .iter()
                    .filter(|&(&g, &i)| {
                        i == e.id && x.events[g.index()].kind == EventKind::DirtyBitWrite
                    })
                    .count();
                if dbs != 1 {
                    return Err(WellformedError::DirtyBitCount(e.id));
                }
            }
            if e.kind.is_user_memory() {
                let walks = x
                    .ghost_invoker
                    .iter()
                    .filter(|&(&g, &i)| i == e.id && x.events[g.index()].kind == EventKind::Ptw)
                    .count();
                if walks > 1 {
                    return Err(WellformedError::WalkCount(e.id));
                }
            }
        }

        // Anchors: ghosts take the invoker's slot; walks sort before it,
        // dirty-bit updates after.
        let mut anchor = vec![(0usize, 0usize, 1u8); n];
        for e in &x.events {
            let (s, rank) = match e.kind {
                EventKind::Ptw => (slot[x.ghost_invoker[&e.id].index()], 0),
                EventKind::DirtyBitWrite => (slot[x.ghost_invoker[&e.id].index()], 2),
                _ => (slot[e.id.index()], 1),
            };
            anchor[e.id.index()] = (e.thread.0, s, rank);
        }

        // RMW pairs: adjacent same-VA read/write on one thread.
        for &(r, w) in &x.rmw {
            let (re, we) = match (x.events.get(r.index()), x.events.get(w.index())) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(WellformedError::BadRmw(r, w)),
            };
            let ok = re.kind == EventKind::Read
                && we.kind == EventKind::Write
                && re.thread == we.thread
                && re.va == we.va
                && slot[w.index()] == slot[r.index()] + 1;
            if !ok {
                return Err(WellformedError::BadRmw(r, w));
            }
        }

        // --- TLB sourcing (rf_ptw) ---
        // A user access reads its own walk if it has one; otherwise the
        // latest same-VA walk earlier on its core, provided no INVLPG for
        // that VA intervenes (§III-A1, §III-B2).
        let mut tlb_src: Vec<Option<EventId>> = vec![None; n];
        for e in &x.events {
            if !e.kind.is_user_memory() {
                continue;
            }
            let own = x
                .ghost_invoker
                .iter()
                .find(|&(&g, &i)| i == e.id && x.events[g.index()].kind == EventKind::Ptw)
                .map(|(&g, _)| g);
            let src = match own {
                Some(p) => p,
                None => {
                    let e_slot = slot[e.id.index()];
                    let best = x
                        .events
                        .iter()
                        .filter(|p| {
                            p.kind == EventKind::Ptw
                                && p.thread == e.thread
                                && p.va == e.va
                                && slot[x.ghost_invoker[&p.id].index()] < e_slot
                        })
                        .max_by_key(|p| slot[x.ghost_invoker[&p.id].index()]);
                    match best {
                        Some(p) => p.id,
                        None => return Err(WellformedError::MissingPtWalk(e.id)),
                    }
                }
            };
            // No eviction of this VA's entry strictly between the walk and
            // the use: neither an INVLPG for the VA nor a full TLB flush.
            let w_slot = slot[x.ghost_invoker[&src].index()];
            let e_slot = slot[e.id.index()];
            if let Some(inv) = x.events.iter().find(|i| {
                (i.kind == EventKind::Invlpg && i.va == e.va || i.kind == EventKind::TlbFlush)
                    && i.thread == e.thread
                    && slot[i.id.index()] > w_slot
                    && slot[i.id.index()] < e_slot
            }) {
                return Err(WellformedError::StaleTlbEntry {
                    event: e.id,
                    invlpg: inv.id,
                });
            }
            tlb_src[e.id.index()] = Some(src);
        }

        // --- mapping provenance ---
        let mut mapping: Vec<Option<Mapping>> = vec![None; n];
        let mut origin: Vec<Option<EventId>> = vec![None; n];
        {
            #[derive(Clone, Copy, PartialEq)]
            enum Mark {
                White,
                Grey,
                Black,
            }
            let mut mark = vec![Mark::White; n];

            fn resolve(
                x: &Execution,
                tlb_src: &[Option<EventId>],
                mapping: &mut Vec<Option<Mapping>>,
                origin: &mut Vec<Option<EventId>>,
                mark: &mut Vec<Mark>,
                e: EventId,
            ) -> Result<(), WellformedError> {
                match mark[e.index()] {
                    Mark::Black => return Ok(()),
                    Mark::Grey => return Err(WellformedError::CyclicProvenance(e)),
                    Mark::White => {}
                }
                mark[e.index()] = Mark::Grey;
                let ev = x.events[e.index()];
                let (m, o) = match ev.kind {
                    EventKind::PteWrite { new_pa } => (
                        Some(Mapping {
                            va: ev.va_unwrap(),
                            pa: new_pa,
                        }),
                        Some(e),
                    ),
                    EventKind::Ptw => match x.rf.get(&e) {
                        None => (
                            Some(Mapping {
                                va: ev.va_unwrap(),
                                pa: x.initial_pa(ev.va_unwrap()),
                            }),
                            None,
                        ),
                        Some(&w) => {
                            let wk = x.events.get(w.index()).map(|w| w.kind);
                            if !matches!(
                                wk,
                                Some(EventKind::PteWrite { .. } | EventKind::DirtyBitWrite)
                            ) {
                                return Err(WellformedError::RfKindMismatch(w, e));
                            }
                            resolve(x, tlb_src, mapping, origin, mark, w)?;
                            (mapping[w.index()], origin[w.index()])
                        }
                    },
                    EventKind::Read | EventKind::Write => {
                        let p = tlb_src[e.index()].expect("tlb sources resolved above");
                        resolve(x, tlb_src, mapping, origin, mark, p)?;
                        (mapping[p.index()], origin[p.index()])
                    }
                    EventKind::DirtyBitWrite => {
                        let inv = x.ghost_invoker[&e];
                        resolve(x, tlb_src, mapping, origin, mark, inv)?;
                        (mapping[inv.index()], origin[inv.index()])
                    }
                    EventKind::Fence | EventKind::Invlpg | EventKind::TlbFlush => (None, None),
                };
                mapping[e.index()] = m;
                origin[e.index()] = o;
                mark[e.index()] = Mark::Black;
                Ok(())
            }

            for e in &x.events {
                resolve(x, &tlb_src, &mut mapping, &mut origin, &mut mark, e.id)?;
            }
        }

        // --- physical locations ---
        let mut location: Vec<Option<Location>> = vec![None; n];
        for e in &x.events {
            location[e.id.index()] = match e.kind {
                EventKind::Read | EventKind::Write => {
                    Some(Location::Data(mapping[e.id.index()].expect("mapped").pa))
                }
                EventKind::Ptw | EventKind::DirtyBitWrite | EventKind::PteWrite { .. } => {
                    Some(Location::Pte(e.va_unwrap()))
                }
                EventKind::Fence | EventKind::Invlpg | EventKind::TlbFlush => None,
            };
        }

        // --- rf validation ---
        for (&r, &w) in &x.rf {
            let (re, we) = match (x.events.get(r.index()), x.events.get(w.index())) {
                (Some(a), Some(b)) => (*a, *b),
                _ => return Err(WellformedError::RfKindMismatch(w, r)),
            };
            let strata_ok = match re.kind {
                EventKind::Read => we.kind == EventKind::Write,
                EventKind::Ptw => matches!(
                    we.kind,
                    EventKind::PteWrite { .. } | EventKind::DirtyBitWrite
                ),
                _ => false,
            };
            if !strata_ok {
                return Err(WellformedError::RfKindMismatch(w, r));
            }
            if location[r.index()] != location[w.index()] {
                return Err(WellformedError::RfLocationMismatch(w, r));
            }
        }

        // --- co validation: strict total order per location ---
        for &(a, b) in &x.co {
            let ok = a != b
                && x.events.get(a.index()).is_some_and(|e| e.kind.is_write())
                && x.events.get(b.index()).is_some_and(|e| e.kind.is_write())
                && location[a.index()] == location[b.index()];
            if !ok {
                return Err(WellformedError::BadCoPair(a, b));
            }
        }
        let co = Rel::from_pairs(n, &x.co);
        let writes: Vec<EventId> = x
            .events
            .iter()
            .filter(|e| e.kind.is_write())
            .map(|e| e.id)
            .collect();
        check_total_order_per_group(
            &writes,
            |e| location[e.index()],
            &co,
            WellformedError::CoNotTotalOrder,
        )?;

        // --- co_pa: explicit or derived alias-creation order ---
        let pte_writes: Vec<EventId> = x
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PteWrite { .. }))
            .map(|e| e.id)
            .collect();
        let target_pa = |e: EventId| match x.events.get(e.index())?.kind {
            EventKind::PteWrite { new_pa } => Some(new_pa),
            _ => None,
        };
        let co_pa = match &x.co_pa {
            Some(explicit) => {
                for &(a, b) in explicit {
                    let ok = a != b && target_pa(a).is_some() && target_pa(a) == target_pa(b);
                    if !ok {
                        return Err(WellformedError::BadCoPaPair(a, b));
                    }
                }
                let co_pa = Rel::from_pairs(n, explicit);
                check_total_order_per_group(
                    &pte_writes,
                    target_pa,
                    &co_pa,
                    WellformedError::CoPaNotTotalOrder,
                )?;
                co_pa
            }
            None => {
                // Default linearization: event-creation order.
                let mut out = Rel::empty(n);
                for (i, &a) in pte_writes.iter().enumerate() {
                    for &b in &pte_writes[i + 1..] {
                        if target_pa(a) == target_pa(b) {
                            out.insert(a, b);
                        }
                    }
                }
                out
            }
        };

        // --- remap validation ---
        let mut invlpg_owner: BTreeMap<EventId, EventId> = BTreeMap::new();
        for &(w, i) in &x.remap {
            let (we, ie) = match (x.events.get(w.index()), x.events.get(i.index())) {
                (Some(a), Some(b)) => (*a, *b),
                _ => return Err(WellformedError::BadRemap(w, i)),
            };
            let ok = matches!(we.kind, EventKind::PteWrite { .. })
                && match ie.kind {
                    EventKind::Invlpg => we.va == ie.va,
                    // A full flush invalidates every entry, so it may stand
                    // in for the per-VA invalidation of any PTE write.
                    EventKind::TlbFlush => true,
                    _ => false,
                };
            if !ok {
                return Err(WellformedError::BadRemap(w, i));
            }
            if invlpg_owner.insert(i, w).is_some() {
                return Err(WellformedError::SharedInvlpg(i));
            }
            if ie.thread == we.thread && slot[i.index()] <= slot[w.index()] {
                return Err(WellformedError::RemapOrder(w, i));
            }
        }
        for &w in &pte_writes {
            for t in 0..x.num_threads {
                let count = x
                    .remap
                    .iter()
                    .filter(|&&(rw, ri)| rw == w && x.events[ri.index()].thread.0 == t)
                    .count();
                if count != 1 {
                    return Err(WellformedError::RemapCoverage(w, ThreadId(t)));
                }
            }
        }

        // --- relation materialization, one row per event ---
        let bit = |e: EventId| 1u64 << e.index();
        let mask = |pred: &dyn Fn(&Event) -> bool| {
            x.events
                .iter()
                .filter(|e| pred(e))
                .fold(0u64, |m, e| m | bit(e.id))
        };
        // Ghost instructions are never fetched or issued (§III-A), so the
        // architecture promises them no program-order guarantees: they are
        // excluded from ppo and fence. (Hardware page walkers may read
        // stale PTEs — that is exactly what the invlpg axiom polices.)
        // They do participate in po_loc: coherence is per location,
        // whatever the stratum of the access.
        let issued_mem = mask(&|e| e.kind.is_memory() && !e.kind.is_ghost());
        let reads = mask(&|e| e.kind.is_read());
        let write_mask = mask(&|e| e.kind.is_write());
        let ptes = mask(&|e| matches!(e.kind, EventKind::PteWrite { .. }));
        // Events on each event's thread.
        let same_thread: Vec<u64> = x
            .events
            .iter()
            .map(|a| mask(&|e| e.thread == a.thread))
            .collect();
        // Memory events at each event's physical location.
        let same_loc: Vec<u64> = location
            .iter()
            .map(|l| match l {
                Some(_) => mask(&|e| location[e.id.index()] == *l),
                None => 0,
            })
            .collect();
        let mut rels: [Rel; BaseRel::ALL.len()] = std::array::from_fn(|_| Rel::empty(n));
        let [po, apo, po_loc, ppo, fence, rf, rfe, co_rel, fr, com, ghost, rf_ptw, rf_pa, co_pa_rel, fr_pa, fr_va, remap, rmw, ptw_source] =
            &mut rels;

        // po: transitive order on non-ghost events per thread.
        for list in &x.po {
            let mut later = 0u64;
            for &e in list.iter().rev() {
                *po.row_mut(e.index()) = later;
                later |= bit(e);
            }
        }

        // apo: anchored program order over all events.
        for a in 0..n {
            *apo.row_mut(a) = (0..n)
                .filter(|&b| anchor[a].0 == anchor[b].0 && anchor[a] < anchor[b])
                .fold(0, |m, b| m | 1 << b);
        }

        for (a, ev) in x.events.iter().enumerate() {
            let row = apo.row(a);
            *po_loc.row_mut(a) = row & same_loc[a];
            if issued_mem >> a & 1 == 1 {
                // TSO relaxes write → read order (store buffering).
                let relaxed = if ev.kind.is_write() { reads } else { 0 };
                *ppo.row_mut(a) = row & issued_mem & !relaxed;
            }
        }

        // fence: issued memory events separated by an MFENCE in apo.
        for f in x.events.iter().filter(|e| e.kind == EventKind::Fence) {
            let after = apo.row(f.id.index()) & issued_mem;
            for a in bits(issued_mem).filter(|&a| apo.row(a) & bit(f.id) != 0) {
                *fence.row_mut(a) |= after;
            }
        }

        for (&r, &w) in &x.rf {
            *rf.row_mut(w.index()) |= bit(r);
        }
        for (w, &local) in same_thread.iter().enumerate() {
            *rfe.row_mut(w) = rf.row(w) & !local;
        }
        *co_rel = co;

        // fr: reads before the writes that overwrite what they read.
        for r in x.events.iter().filter(|e| e.kind.is_read()) {
            *fr.row_mut(r.id.index()) = match x.rf.get(&r.id) {
                Some(&w0) => co_rel.row(w0.index()),
                // Reads the initial state: before every write there.
                None => write_mask & same_loc[r.id.index()],
            };
        }

        for a in 0..n {
            *com.row_mut(a) = rf.row(a) | co_rel.row(a) | fr.row(a);
        }

        for (&g, &i) in &x.ghost_invoker {
            *ghost.row_mut(i.index()) |= bit(g);
        }
        for (e, src) in tlb_src.iter().enumerate() {
            if let Some(p) = src {
                *rf_ptw.row_mut(p.index()) |= 1 << e;
            }
        }

        // rf_pa / fr_pa / fr_va over user-facing memory events.
        *co_pa_rel = co_pa;
        for e in x.events.iter().filter(|e| e.kind.is_user_memory()) {
            let i = e.id.index();
            let m = mapping[i].expect("user access is mapped");
            match origin[i] {
                Some(w0) => {
                    *rf_pa.row_mut(w0.index()) |= bit(e.id);
                    *fr_pa.row_mut(i) = co_pa_rel.row(w0.index());
                    *fr_va.row_mut(i) = co_rel.row(w0.index()) & ptes;
                }
                None => {
                    for &w in &pte_writes {
                        if target_pa(w) == Some(m.pa) {
                            *fr_pa.row_mut(i) |= bit(w);
                        }
                        if x.events[w.index()].va == e.va {
                            *fr_va.row_mut(i) |= bit(w);
                        }
                    }
                }
            }
        }

        *remap = Rel::from_pairs(n, &x.remap);
        *rmw = Rel::from_pairs(n, &x.rmw);

        // ptw_source: walk invoker → other accesses using that walk.
        for e in x.events.iter().filter(|e| e.kind.is_user_memory()) {
            let Some(p) = tlb_src[e.id.index()] else {
                continue;
            };
            if x.ghost_invoker[&p] == e.id {
                *ptw_source.row_mut(e.id.index()) = rf_ptw.row(p.index()) & !bit(e.id);
            }
        }

        Ok(Analysis {
            exec: x,
            anchor,
            mapping,
            origin,
            location,
            tlb_src,
            rels,
        })
    }
}

/// Checks that `order` restricted to each group (events with equal
/// non-None keys) forms a strict total order covering every pair.
fn check_total_order_per_group<K: PartialEq + Copy>(
    events: &[EventId],
    key: impl Fn(EventId) -> Option<K>,
    order: &Rel,
    err: impl Fn(EventId, EventId) -> WellformedError,
) -> Result<(), WellformedError> {
    for (i, &a) in events.iter().enumerate() {
        let Some(ka) = key(a) else { continue };
        for &b in &events[i + 1..] {
            let Some(kb) = key(b) else { continue };
            if ka != kb {
                continue;
            }
            if order.contains(a, b) == order.contains(b, a) {
                return Err(err(a, b));
            }
        }
    }
    // Totality plus asymmetry on a finite set guarantees a tournament; we
    // additionally demand transitivity so the order is linear. The first
    // missing pair in `(a, b, d)` order is reported.
    for a in 0..order.events() {
        for b in bits(order.row(a)) {
            let missing = order.row(b) & !order.row(a) & !(1 << a);
            if let Some(d) = bits(missing).next() {
                return Err(err(EventId(a as u32), EventId(d as u32)));
            }
        }
    }
    Ok(())
}

/// Computes the walk each user access reads its translation from, using
/// only the program structure (placement of walks and INVLPGs) — the
/// communication relations play no role. Used by the synthesis engine to
/// derive `rf_ptw` for program skeletons before any `rf`/`co` choice is
/// made.
///
/// # Errors
///
/// Fails with [`WellformedError::MissingPtWalk`] or
/// [`WellformedError::StaleTlbEntry`] when the placement rules of §III-A1
/// and §III-B2 are violated.
pub fn static_tlb_sources(x: &Execution) -> Result<Vec<Option<EventId>>, WellformedError> {
    let n = x.events().len();
    let mut slot = vec![usize::MAX; n];
    for t in 0..x.num_threads() {
        for (s, &e) in x.po_of(ThreadId(t)).iter().enumerate() {
            slot[e.index()] = s;
        }
    }
    let ghost_slot = |g: EventId| {
        let inv = x.invoker(g).expect("ghost has invoker");
        slot[inv.index()]
    };
    let mut out = vec![None; n];
    for e in x.events() {
        if !e.kind.is_user_memory() {
            continue;
        }
        let own = x
            .ghosts_of(e.id)
            .into_iter()
            .find(|&g| x.event(g).kind == EventKind::Ptw);
        let src = match own {
            Some(p) => p,
            None => {
                let e_slot = slot[e.id.index()];
                let best = x
                    .events()
                    .iter()
                    .filter(|p| {
                        p.kind == EventKind::Ptw
                            && p.thread == e.thread
                            && p.va == e.va
                            && ghost_slot(p.id) < e_slot
                    })
                    .max_by_key(|p| ghost_slot(p.id));
                match best {
                    Some(p) => p.id,
                    None => return Err(WellformedError::MissingPtWalk(e.id)),
                }
            }
        };
        let w_slot = ghost_slot(src);
        let e_slot = slot[e.id.index()];
        if let Some(inv) = x.events().iter().find(|i| {
            (i.kind == EventKind::Invlpg && i.va == e.va || i.kind == EventKind::TlbFlush)
                && i.thread == e.thread
                && slot[i.id.index()] > w_slot
                && slot[i.id.index()] < e_slot
        }) {
            return Err(WellformedError::StaleTlbEntry {
                event: e.id,
                invlpg: inv.id,
            });
        }
        out[e.id.index()] = Some(src);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EltBuilder;
    use crate::ids::{Pa, Va};

    #[test]
    fn single_write_read_derives_rf_ptw_and_locations() {
        // Fig. 3b style: W x (+wdb, +ptw); then a same-VA read hits the TLB.
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w, d, p) = b.write_walk(t, Va(0));
        let r = b.read(t, Va(0));
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        assert_eq!(a.tlb_source(r), Some(p));
        assert_eq!(a.tlb_source(w), Some(p));
        assert_eq!(a.location(w), Some(Location::Data(Pa(0))));
        assert_eq!(a.location(d), Some(Location::Pte(Va(0))));
        assert!(a.relation(BaseRel::RfPtw).contains(&(p, r)));
        assert!(a.relation(BaseRel::Ghost).contains(&(w, d)));
        // ptw_source: w invoked the walk that r reads.
        assert!(a.relation(BaseRel::PtwSource).contains(&(w, r)));
    }

    #[test]
    fn missing_walk_is_rejected() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.read(t, Va(0)); // no walk anywhere: TLB starts empty
        let x = b.build();
        assert_eq!(
            x.analyze().unwrap_err(),
            WellformedError::MissingPtWalk(EventId(0))
        );
    }

    #[test]
    fn invlpg_between_walk_and_use_is_rejected() {
        // Fig. 5b without the second walk: illegal.
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.read_walk(t, Va(0));
        let i = b.invlpg(t, Va(0));
        let r2 = b.read(t, Va(0));
        let x = b.build();
        assert_eq!(
            x.analyze().unwrap_err(),
            WellformedError::StaleTlbEntry {
                event: r2,
                invlpg: i
            }
        );
    }

    #[test]
    fn invlpg_with_new_walk_is_accepted() {
        // Fig. 5b: the second read re-walks.
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (_, p0) = b.read_walk(t, Va(0));
        b.invlpg(t, Va(0));
        let (r2, p2) = b.read_walk(t, Va(0));
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        assert_eq!(a.tlb_source(r2), Some(p2));
        assert_ne!(a.tlb_source(r2), Some(p0));
    }

    #[test]
    fn remap_must_cover_every_core() {
        let mut b = EltBuilder::new();
        let t0 = b.thread();
        let t1 = b.thread();
        let w = b.pte_write(t0, Va(0), Pa(1));
        let i0 = b.invlpg(t0, Va(0));
        b.remap(w, i0);
        // No INVLPG on t1 → ill-formed.
        let x = b.build();
        assert_eq!(
            x.analyze().unwrap_err(),
            WellformedError::RemapCoverage(w, t1)
        );
    }

    #[test]
    fn remapped_access_changes_location() {
        // WPTE x → PA b; INVLPG; R x via new mapping reads PA b.
        let mut b = EltBuilder::new();
        let t = b.thread();
        let w = b.pte_write(t, Va(0), Pa(1));
        let i = b.invlpg(t, Va(0));
        b.remap(w, i);
        let (r, p) = b.read_walk(t, Va(0));
        b.rf(w, p); // the walk reads the new PTE value
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        assert_eq!(a.location(r), Some(Location::Data(Pa(1))));
        assert!(a.relation(BaseRel::RfPa).contains(&(w, r)));
        assert!(a.relation(BaseRel::FrVa).is_empty());
    }

    #[test]
    fn stale_read_after_remap_has_fr_va() {
        // Fig. 10a (ptwalk2): the walk reads the *initial* mapping.
        let mut b = EltBuilder::new();
        let t = b.thread();
        let w = b.pte_write(t, Va(0), Pa(1));
        let i = b.invlpg(t, Va(0));
        b.remap(w, i);
        let (r, _p) = b.read_walk(t, Va(0));
        // No rf for the walk: it reads the initial PTE.
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        assert_eq!(a.location(r), Some(Location::Data(Pa(0))));
        assert!(a.relation(BaseRel::FrVa).contains(&(r, w)));
        // The walk reads-before the PTE write on the PTE location.
        let ptw = x.ghosts_of(r)[0];
        assert!(a.relation(BaseRel::Fr).contains(&(ptw, w)));
    }

    #[test]
    fn co_must_be_total() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w1, _, _) = b.write_walk(t, Va(0));
        let (w2, _) = b.write(t, Va(0));
        // Two same-location writes with no co order.
        let x = b.build();
        assert!(matches!(
            x.analyze().unwrap_err(),
            WellformedError::CoNotTotalOrder(_, _)
        ));
        let _ = (w1, w2);
    }

    #[test]
    fn dirty_bit_writes_are_coherence_ordered_with_pte_writes() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w, d, p) = b.write_walk(t, Va(0));
        let wp = b.pte_write(t, Va(0), Pa(1));
        let i = b.invlpg(t, Va(0));
        b.remap(wp, i);
        b.co([d, wp]);
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        assert!(a.relation(BaseRel::Co).contains(&(d, wp)));
        // The walk read the initial PTE, so it reads-before both PTE-loc
        // writes.
        assert!(a.relation(BaseRel::Fr).contains(&(p, d)));
        assert!(a.relation(BaseRel::Fr).contains(&(p, wp)));
        let _ = w;
    }

    #[test]
    fn acyclicity_helper() {
        let mut s = Rel::empty(3);
        s.insert(EventId(0), EventId(1));
        s.insert(EventId(1), EventId(2));
        assert!(s.clone().is_acyclic());
        s.insert(EventId(2), EventId(0));
        assert!(!s.is_acyclic());
    }

    #[test]
    fn a_decoded_thread_count_costs_no_memory() {
        // Decoders take the thread count from their input; analysis
        // sizes its tables by events, never by that count.
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.write_walk(t, Va(0));
        let mut parts = b.build().to_parts();
        parts.num_threads = usize::MAX;
        assert!(Execution::from_parts(parts).analyze().is_ok());
    }

    #[test]
    fn more_events_than_a_row_is_an_error() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.write_walk(t, Va(0));
        while b.clone().build().size() < MAX_EVENTS {
            b.read(t, Va(0));
        }
        let full = b.clone().build();
        let a = full.analyze().expect("a full row is fine");
        let last = EventId(MAX_EVENTS as u32 - 1);
        assert!(a.relation(BaseRel::Po).contains(&(EventId(0), last)));
        b.read(t, Va(0));
        assert_eq!(
            b.build().analyze().unwrap_err(),
            WellformedError::TooManyEvents(MAX_EVENTS + 1)
        );
    }

    #[test]
    fn ppo_relaxes_write_to_read() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w, _, _) = b.write_walk(t, Va(0));
        let (r, _) = b.read_walk(t, Va(1));
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        assert!(!a.relation(BaseRel::Ppo).contains(&(w, r)));
        assert!(a.relation(BaseRel::Apo).contains(&(w, r)));
    }

    #[test]
    fn fence_restores_order() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w, _, _) = b.write_walk(t, Va(0));
        b.fence(t);
        let (r, _) = b.read_walk(t, Va(1));
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        assert!(a.relation(BaseRel::Fence).contains(&(w, r)));
    }

    #[test]
    fn rmw_must_be_adjacent() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (r, _) = b.read_walk(t, Va(0));
        b.fence(t);
        let (w, _) = b.write(t, Va(0));
        b.rmw(r, w);
        let x = b.build();
        assert!(matches!(
            x.analyze().unwrap_err(),
            WellformedError::BadRmw(_, _)
        ));
    }
}
