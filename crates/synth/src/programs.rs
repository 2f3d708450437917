//! Bounded enumeration of ELT programs (§IV-A).
//!
//! A *program* is an execution skeleton: instructions placed on threads
//! with ghost attachments, remap assignments, and rmw dependencies — but
//! no communication choices yet. Enumeration respects the paper's
//! placement rules:
//!
//! * the first same-VA access on a core must walk (TLBs start empty);
//! * an access after an `INVLPG` of its VA must walk (Fig. 5b);
//! * other accesses may hit or miss freely (capacity evictions, §III-B2);
//!   a PTE write leaves its core's TLB untouched;
//! * every user write carries a dirty-bit update (§III-A2);
//! * every PTE write invokes exactly one `INVLPG` per core (§III-B2): of
//!   the PTE write's VA, strictly later in po on the PTE write's own core,
//!   and each `INVLPG` serves at most one PTE write;
//! * a PTE write targets either another VA's initial page or a page no VA
//!   initially maps; re-installing its own VA's initial page (an
//!   identity remap) needs [`EnumOptions::allow_identity_remap`];
//! * spurious `INVLPG`s appear only where they can affect the thread's
//!   execution (a later same-VA user read or write on the same core);
//! * the two rules above, read on one thread, decide which thread shapes
//!   can occur at all: every PTE write of a shape needs its own later
//!   same-VA `INVLPG` on its thread, and `u` `INVLPG`s left unclaimed
//!   with no later same-VA access need `u` PTE writes on another thread,
//!   which the bound must afford ([`EnumSpace`] keeps no other shape);
//! * fences appear only between two instructions of their thread, and
//!   never directly after another fence;
//! * an RMW is a read immediately followed by a write of the same VA on
//!   one thread; the write reuses the read's translation, so it never
//!   walks;
//! * `TlbFlush` is never generated (it exists for hand-written ELTs);
//! * every thread has at least one instruction, and there are at most
//!   [`EnumOptions::max_threads`] threads (default: the bound).
//!
//! The instruction bound counts *every* event, ghosts included — the
//! paper's Fig. 10a is a four-instruction ELT.
//!
//! # Enumeration order
//!
//! Per-thread *shapes* (the TLB, fence and RMW rules, with thread-local
//! VA and PA names) are built first, and only shapes that meet their own
//! remap obligations are kept: a prefix is dropped as soon as its PTE
//! writes still waiting for an `INVLPG` outnumber the events left in the
//! bound. `combine` then visits every non-decreasing multiset of kept
//! shapes, one *node* per multiset, and each node is labelled in this
//! order, cheapest filter first:
//!
//! 1. **INVLPG feasibility.** Every PTE write needs its own `INVLPG` on
//!    every core, so a node where some shape has fewer `INVLPG`s than
//!    the node has PTE writes emits nothing and stops here.
//! 2. **VA maps.** Each thread's local VAs map injectively to global
//!    VAs, numbered by first use.
//! 3. **Remaps, per VA map.** The remap assignments and the
//!    spurious-`INVLPG` rule read only VAs and slot positions, so they
//!    are computed once per VA map; a map with no surviving remap never
//!    reaches the PA product.
//! 4. **PA assignments.** Each PTE write's page is chosen with identity
//!    remaps pruned as they are generated, and every surviving
//!    assignment is emitted once per surviving remap, in that order.
//!
//! [`EnumSpace`] cuts this order at the root shapes: partition `i` holds
//! every node whose first thread has shape `i`. That is the only
//! partitioning; how a pool schedules the partitions never changes the
//! enumerated sequence. [`EnumSpace::masses`] counts each partition's
//! nodes on request, for the fleet's range plan.

use crate::canon::canonical_key;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use transform_core::exec::{EltBuilder, Execution};
use transform_core::ids::{Pa, Va};

/// How a PTE write's target PA relates to the rest of the test.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum PaRef {
    /// The initial physical page of VA *i* (aliasing an existing page).
    Initial(usize),
    /// A page not initially mapped by any VA in the test.
    Fresh(usize),
}

/// One program-order slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum SlotOp {
    /// User read; `walk` marks a TLB miss.
    Read {
        /// VA index.
        va: usize,
        /// Whether the read invokes a PT walk.
        walk: bool,
    },
    /// User write (always carries a dirty-bit update).
    Write {
        /// VA index.
        va: usize,
        /// Whether the write invokes a PT walk.
        walk: bool,
    },
    /// `MFENCE`.
    Fence,
    /// Support PTE write remapping `va` to `pa`.
    PteWrite {
        /// VA index.
        va: usize,
        /// Target page.
        pa: PaRef,
    },
    /// Support TLB invalidation.
    Invlpg {
        /// VA index.
        va: usize,
    },
    /// Support full TLB flush (the extended IPI type, §III-B2 future
    /// work): evicts every entry of the issuing core's TLB.
    TlbFlush,
}

impl SlotOp {
    /// Event cost of the slot, ghosts included.
    pub fn cost(self) -> usize {
        match self {
            SlotOp::Read { walk, .. } => 1 + usize::from(walk),
            SlotOp::Write { walk, .. } => 2 + usize::from(walk),
            SlotOp::Fence | SlotOp::Invlpg { .. } | SlotOp::TlbFlush | SlotOp::PteWrite { .. } => 1,
        }
    }

    /// The VA the op touches, if any.
    pub fn va(self) -> Option<usize> {
        match self {
            SlotOp::Read { va, .. }
            | SlotOp::Write { va, .. }
            | SlotOp::PteWrite { va, .. }
            | SlotOp::Invlpg { va } => Some(va),
            SlotOp::Fence | SlotOp::TlbFlush => None,
        }
    }
}

/// An ELT program: threads of slots plus remap/rmw structure.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Program {
    /// Instruction sequences, one per core.
    pub threads: Vec<Vec<SlotOp>>,
    /// `(wpte, invlpg)` pairs as `(thread, slot)` positions.
    pub remap: Vec<((usize, usize), (usize, usize))>,
    /// RMW dependencies as `(thread, read-slot)`; the write is the next
    /// slot.
    pub rmw: Vec<(usize, usize)>,
}

impl Program {
    /// Total event count, ghosts included.
    pub fn size(&self) -> usize {
        self.threads.iter().flatten().map(|op| op.cost()).sum()
    }

    /// Whether the program contains any write (user or PTE) — the
    /// spanning-set criterion 1: only write-bearing programs can have a
    /// forbidden outcome.
    pub fn has_write(&self) -> bool {
        self.threads
            .iter()
            .flatten()
            .any(|op| matches!(op, SlotOp::Write { .. } | SlotOp::PteWrite { .. }))
    }

    /// Number of distinct VAs (they are first-use numbered).
    pub fn num_vas(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .filter_map(|op| op.va())
            .max()
            .map_or(0, |v| v + 1)
    }

    /// Extracts the program of an execution (discarding communication) —
    /// the inverse of [`Program::to_skeleton`]. Used by the COATCheck
    /// comparison tool, whose unit of comparison is the ELT *program*.
    pub fn from_execution(x: &Execution) -> Program {
        use transform_core::event::EventKind;
        use transform_core::ids::ThreadId;
        let num_vas = x.num_vas();
        let mut threads = Vec::new();
        let mut slot_of = std::collections::BTreeMap::new();
        for t in 0..x.num_threads() {
            let mut row = Vec::new();
            for (s, &e) in x.po_of(ThreadId(t)).iter().enumerate() {
                slot_of.insert(e, (t, s));
                let ev = x.event(e);
                let walk = x
                    .ghosts_of(e)
                    .iter()
                    .any(|&g| x.event(g).kind == EventKind::Ptw);
                let op = match ev.kind {
                    EventKind::Read => SlotOp::Read {
                        va: ev.va_unwrap().0,
                        walk,
                    },
                    EventKind::Write => SlotOp::Write {
                        va: ev.va_unwrap().0,
                        walk,
                    },
                    EventKind::Fence => SlotOp::Fence,
                    EventKind::PteWrite { new_pa } => SlotOp::PteWrite {
                        va: ev.va_unwrap().0,
                        pa: if new_pa.0 < num_vas {
                            PaRef::Initial(new_pa.0)
                        } else {
                            PaRef::Fresh(new_pa.0 - num_vas)
                        },
                    },
                    EventKind::Invlpg => SlotOp::Invlpg {
                        va: ev.va_unwrap().0,
                    },
                    EventKind::TlbFlush => SlotOp::TlbFlush,
                    EventKind::Ptw | EventKind::DirtyBitWrite => {
                        unreachable!("ghosts are not in po")
                    }
                };
                row.push(op);
            }
            threads.push(row);
        }
        let remap = x
            .remap_pairs()
            .iter()
            .map(|&(w, i)| (slot_of[&w], slot_of[&i]))
            .collect();
        let rmw = x.rmw_pairs().iter().map(|&(r, _)| slot_of[&r]).collect();
        Program {
            threads,
            remap,
            rmw,
        }
    }

    /// Lowers the program to an execution skeleton (events, ghosts, po,
    /// remap, rmw — no communication).
    pub fn to_skeleton(&self) -> Execution {
        let num_vas = self.num_vas();
        let mut b = EltBuilder::new();
        let mut ids = Vec::new();
        for (t, slots) in self.threads.iter().enumerate() {
            let tid = b.thread();
            debug_assert_eq!(tid.0, t);
            let mut row = Vec::new();
            for &op in slots {
                let id = match op {
                    SlotOp::Read { va, walk: true } => b.read_walk(tid, Va(va)).0,
                    SlotOp::Read { va, walk: false } => b.read(tid, Va(va)),
                    SlotOp::Write { va, walk: true } => b.write_walk(tid, Va(va)).0,
                    SlotOp::Write { va, walk: false } => b.write(tid, Va(va)).0,
                    SlotOp::Fence => b.fence(tid),
                    SlotOp::PteWrite { va, pa } => {
                        let pa = match pa {
                            PaRef::Initial(v) => Pa(v),
                            PaRef::Fresh(k) => Pa(num_vas + k),
                        };
                        b.pte_write(tid, Va(va), pa)
                    }
                    SlotOp::Invlpg { va } => b.invlpg(tid, Va(va)),
                    SlotOp::TlbFlush => b.tlb_flush(tid),
                };
                row.push(id);
            }
            ids.push(row);
        }
        for &((wt, ws), (it, is)) in &self.remap {
            b.remap(ids[wt][ws], ids[it][is]);
        }
        for &(t, s) in &self.rmw {
            b.rmw(ids[t][s], ids[t][s + 1]);
        }
        b.build()
    }
}

/// Knobs for bounded program enumeration.
#[derive(Clone, Debug)]
pub struct EnumOptions {
    /// Maximum total event count (the paper's instruction bound).
    pub bound: usize,
    /// Maximum number of threads (`None` ⇒ derived from the bound).
    pub max_threads: Option<usize>,
    /// Allow `MFENCE` instructions.
    pub allow_fences: bool,
    /// Allow RMW (read-modify-write) pairs.
    pub allow_rmw: bool,
    /// Allow PTE writes that re-install a VA's initial mapping.
    pub allow_identity_remap: bool,
    /// Apply canonical-form symmetry reduction during enumeration
    /// (§VI-A); turning this off is an ablation.
    pub symmetry_reduction: bool,
}

impl EnumOptions {
    /// Defaults for a given instruction bound.
    pub fn new(bound: usize) -> EnumOptions {
        EnumOptions {
            bound,
            max_threads: None,
            allow_fences: true,
            allow_rmw: true,
            allow_identity_remap: false,
            symmetry_reduction: true,
        }
    }
}

/// A per-thread instruction sequence with locally-numbered VAs and PA
/// symbols, produced by the first enumeration stage.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Shape {
    ops: Vec<SlotOp>, // va = local index; PteWrite.pa = Fresh(local symbol)
    cost: usize,
    num_vas: usize,
    num_pa_syms: usize,
    rmw: Vec<usize>,
}

/// Enumerates every thread shape of cost ≤ `opts.bound` that can occur
/// in an emitted program.
///
/// A shape's own PTE writes and `INVLPG`s decide most of its remap
/// obligations, so [`ShapeBuilder`] checks them while it grows the shape
/// and keeps only shapes that can meet them: exactly the shapes that
/// occur in some emitted program.
fn shapes(opts: &EnumOptions) -> Vec<Shape> {
    let mut builder = ShapeBuilder {
        opts,
        cur: Shape {
            ops: Vec::new(),
            cost: 0,
            num_vas: 0,
            num_pa_syms: 0,
            rmw: Vec::new(),
        },
        vas: Vec::new(),
        unmatched: 0,
        out: Vec::new(),
    };
    builder.extend();
    builder.out
}

/// What the shape builder tracks per local VA.
#[derive(Clone, Copy, Default)]
struct VaState {
    /// The core's TLB holds the VA's translation.
    cached: bool,
    /// PTE writes of the VA not yet matched, greedily, to a later
    /// same-VA `INVLPG`.
    pending: usize,
}

/// The depth-first shape generator: the TLB, fence and RMW rules build
/// each shape, and the remap rules prune it.
struct ShapeBuilder<'a> {
    opts: &'a EnumOptions,
    cur: Shape,
    /// Per local VA, in first-use order.
    vas: Vec<VaState>,
    /// PTE writes still waiting for their own `INVLPG`, over all VAs.
    unmatched: usize,
    out: Vec<Shape>,
}

impl ShapeBuilder<'_> {
    /// Keeps the current shape if it can emit, then tries every next
    /// instruction, in a fixed order.
    fn extend(&mut self) {
        // A trailing fence orders nothing: skip such shapes.
        let last = self.cur.ops.last().copied();
        if last.is_some_and(|op| op != SlotOp::Fence)
            && self.unmatched == 0
            && can_emit(&self.cur, self.opts)
        {
            self.out.push(self.cur.clone());
        }
        if self.cur.cost == self.opts.bound {
            return;
        }
        for va in 0..=self.cur.num_vas {
            // Reads and writes, with forced walk on a cold TLB.
            let walks: &[bool] = if self.vas.get(va).is_some_and(|s| s.cached) {
                &[false, true]
            } else {
                &[true]
            };
            for &walk in walks {
                self.descend(&[SlotOp::Read { va, walk }]);
            }
            for &walk in walks {
                self.descend(&[SlotOp::Write { va, walk }]);
            }
            // RMW: adjacent read+write to one VA; the write reuses the
            // read's translation and adds the dirty-bit update.
            if self.opts.allow_rmw {
                for &walk in walks {
                    let pair = [SlotOp::Read { va, walk }, SlotOp::Write { va, walk: false }];
                    self.descend(&pair);
                }
            }
            // PTE write: PA meaning (alias vs fresh page) is resolved when
            // threads are combined; locally we only number the symbols.
            let pa = PaRef::Fresh(self.cur.num_pa_syms);
            self.descend(&[SlotOp::PteWrite { va, pa }]);
            // INVLPG: evicts the TLB entry.
            self.descend(&[SlotOp::Invlpg { va }]);
        }
        // Fence, only after a non-fence instruction.
        if self.opts.allow_fences && last.is_some_and(|op| op != SlotOp::Fence) {
            self.descend(&[SlotOp::Fence]);
        }
    }

    /// Appends `ops` (one instruction, or an RMW pair), extends the
    /// shape from there, and takes them off again. A prefix is dropped
    /// when its PTE writes still waiting for an `INVLPG` outnumber the
    /// events left in the bound: each needs one of its own.
    fn descend(&mut self, ops: &[SlotOp]) {
        let rmw = ops.len() == 2;
        let cost: usize = ops.iter().map(|op| op.cost()).sum();
        if self.cur.cost + cost > self.opts.bound {
            return;
        }
        let saved = (self.cur.num_vas, self.cur.num_pa_syms, self.unmatched);
        let va = ops[0].va();
        let saved_va = va.and_then(|v| self.vas.get(v).copied());
        if rmw {
            self.cur.rmw.push(self.cur.ops.len());
        }
        for &op in ops {
            self.push(op);
        }
        self.cur.cost += cost;
        if self.unmatched <= self.opts.bound - self.cur.cost {
            self.extend();
        }
        self.cur.cost -= cost;
        self.cur.ops.truncate(self.cur.ops.len() - ops.len());
        if rmw {
            self.cur.rmw.pop();
        }
        (self.cur.num_vas, self.cur.num_pa_syms, self.unmatched) = saved;
        self.vas.truncate(saved.0);
        if let (Some(v), Some(state)) = (va, saved_va) {
            self.vas[v] = state;
        }
    }

    fn push(&mut self, op: SlotOp) {
        self.cur.ops.push(op);
        let Some(va) = op.va() else { return };
        if va == self.vas.len() {
            self.vas.push(VaState::default());
            self.cur.num_vas += 1;
        }
        let state = &mut self.vas[va];
        match op {
            SlotOp::Read { .. } | SlotOp::Write { .. } => state.cached = true,
            SlotOp::PteWrite { .. } => {
                state.pending += 1;
                self.unmatched += 1;
                self.cur.num_pa_syms += 1;
            }
            SlotOp::Invlpg { .. } => {
                state.cached = false;
                if state.pending > 0 {
                    state.pending -= 1;
                    self.unmatched -= 1;
                }
            }
            SlotOp::Fence | SlotOp::TlbFlush => {}
        }
    }
}

/// Whether a shape whose every PTE write has its own later `INVLPG`
/// ([`ShapeBuilder`]'s greedy match) can occur in an emitted program.
///
/// An `INVLPG` must be claimed by a PTE write or be followed by a
/// same-VA access on its thread ([`spurious_invlpgs_useful`]). Matching
/// each VA's PTE writes to its latest `INVLPG`s claims the most of those
/// with no later access, and leaves `u` of them unclaimed. If `u > 0`,
/// other threads must hold at least `u` PTE writes, and each of them
/// then needs one `INVLPG` for every PTE write of the program: at least
/// `own + 2u` events beyond this shape, where `own` counts the shape's
/// PTE writes. Two threads meet that exactly, so the rule loses no
/// shape.
fn can_emit(shape: &Shape, opts: &EnumOptions) -> bool {
    // Per VA: PTE writes, INVLPGs with no later same-VA access, and
    // whether the reverse scan has passed an access yet.
    let mut per_va = vec![(0usize, 0usize, false); shape.num_vas];
    for op in shape.ops.iter().rev() {
        match *op {
            SlotOp::Read { va, .. } | SlotOp::Write { va, .. } => per_va[va].2 = true,
            SlotOp::PteWrite { va, .. } => per_va[va].0 += 1,
            SlotOp::Invlpg { va } if !per_va[va].2 => per_va[va].1 += 1,
            _ => {}
        }
    }
    let u: usize = per_va
        .iter()
        .map(|&(writes, useless, _)| useless.saturating_sub(writes))
        .sum();
    u == 0
        || (opts.max_threads.unwrap_or(opts.bound) >= 2
            && shape.cost + shape.num_pa_syms + 2 * u <= opts.bound)
}

/// A program together with the facts the planner reuses: its canonical
/// key (computed once, during enumeration) and whether it contains a
/// write. Streamed out of [`EnumSpace::enumerate_keyed`] so downstream
/// stages never recompute [`canonical_key`].
#[derive(Clone, Debug)]
pub struct KeyedProgram {
    /// The enumerated program.
    pub program: Program,
    /// Canonical key ([`canonical_key`]) — present whenever enumeration
    /// needed it (symmetry reduction on) or the planner will (the
    /// program has a write); `None` only for write-free programs with
    /// symmetry reduction off.
    pub key: Option<Vec<u64>>,
    /// [`Program::has_write`], precomputed.
    pub has_write: bool,
}

/// Where one partition's programs land: applies symmetry-reduction
/// dedup inside the partition, and keys every program the dedup or
/// the planner needs a key for.
struct EmitSink<'a> {
    opts: &'a EnumOptions,
    seen: BTreeSet<Vec<u64>>,
    out: Vec<KeyedProgram>,
}

impl<'a> EmitSink<'a> {
    fn new(opts: &'a EnumOptions) -> EmitSink<'a> {
        EmitSink {
            opts,
            seen: BTreeSet::new(),
            out: Vec::new(),
        }
    }

    fn emit(&mut self, program: Program) {
        let has_write = program.has_write();
        // Write-bearing programs keep their key even without symmetry
        // reduction: the planner reuses it as the plan key.
        let needs_key = self.opts.symmetry_reduction || has_write;
        let key = needs_key.then(|| canonical_key(&program));
        if self.opts.symmetry_reduction {
            let k = key.as_ref().expect("symmetry reduction keys every program");
            if self.seen.contains(k) {
                return;
            }
            self.seen.insert(k.clone());
        }
        self.out.push(KeyedProgram {
            program,
            key,
            has_write,
        });
    }
}

/// Enumerates all programs of size ≤ `opts.bound`, canonically
/// deduplicated when `opts.symmetry_reduction` is on: the partitions of
/// an [`EnumSpace`], concatenated in ordinal order.
pub fn programs(opts: &EnumOptions) -> Vec<Program> {
    let space = EnumSpace::new(opts);
    (0..space.partition_count())
        .flat_map(|p| space.enumerate_keyed(p))
        .map(|kp| kp.program)
        .collect()
}

fn combine(
    shapes: &[Shape],
    from: usize,
    budget_left: usize,
    threads_left: usize,
    chosen: &mut Vec<usize>,
    deadline: &Option<std::time::Instant>,
    sink: &mut EmitSink<'_>,
) {
    if let Some(d) = deadline {
        if std::time::Instant::now() > *d {
            return;
        }
    }
    if !chosen.is_empty() {
        assign_and_emit(shapes, chosen, sink);
    }
    if threads_left == 0 {
        return;
    }
    for i in from..shapes.len() {
        if shapes[i].cost > budget_left {
            break; // shapes are sorted by cost
        }
        chosen.push(i);
        combine(
            shapes,
            i, // allow repeats; non-decreasing order breaks permutations
            budget_left - shapes[i].cost,
            threads_left - 1,
            chosen,
            deadline,
            sink,
        );
        chosen.pop();
    }
}

/// The bounded program space split by *root shape* into independently
/// enumerable partitions.
///
/// Partition `i` is the subtree of the shape-combination recursion whose
/// first thread has shape `i` of the cost-sorted shape list, and no
/// canonical key occurs in two partitions: isomorphism (thread
/// permutation plus VA/page renaming) keeps every thread's
/// first-use-numbered shape, so isomorphic programs come from the same
/// shape multiset — one `combine` node under one root shape. Each
/// partition therefore applies symmetry reduction by itself,
/// [`programs`] is the partitions' outputs concatenated in ordinal
/// order, and each partition plans its share of the synthesis plan by
/// itself ([`EnumSpace::plan_partition`]). That makes each partition an
/// independent work unit for a parallel pool *and* gives every
/// enumerated program a stable position `(ordinal, offset)` that no
/// scheduling decision can move.
pub struct EnumSpace {
    shapes: Vec<Shape>,
    opts: EnumOptions,
    max_threads: usize,
}

/// The node count of every root shape's subtree, in shape order.
///
/// A *node* is one chosen shape multiset — one [`assign_and_emit`]
/// call. `N(f, b, t)` counts the nodes below a node that continues with
/// shape indices `>= f` under `b` remaining cost and `t` remaining
/// thread slots. The recurrence mirrors [`combine`] — skip shape `f`
/// entirely, or choose it and continue from it:
///
/// `N(f,b,t) = N(f+1,b,t) + [cost_f ≤ b] · (1 + N(f, b−cost_f, t−1))`
///
/// Sweeping `f` in reverse keeps only one `(bound+1) × (threads+1)` row:
/// updating `b` in ascending order overwrites `N(f+1, ·, ·)` with
/// `N(f, ·, ·)` in place, because `N(f, b−cost_f, ·)` (every shape
/// costs ≥ 1) is already updated when `b` is reached. Root shape `f`'s
/// partition is its own node plus `N(f, bound−cost_f, threads−1)`.
fn root_masses(shapes: &[Shape], bound: usize, max_threads: usize) -> Vec<u64> {
    let maxt = max_threads.min(bound);
    if maxt == 0 {
        return Vec::new();
    }
    let tdim = maxt + 1;
    let mut row = vec![0u64; (bound + 1) * tdim];
    let mut masses = vec![0u64; shapes.len()];
    for (f, shape) in shapes.iter().enumerate().rev() {
        let cost = shape.cost;
        for b in cost..=bound {
            for t in 1..tdim {
                let chosen = 1u64.saturating_add(row[(b - cost) * tdim + t - 1]);
                row[b * tdim + t] = row[b * tdim + t].saturating_add(chosen);
            }
        }
        let t = (max_threads - 1).min(maxt);
        masses[f] = 1u64.saturating_add(row[(bound - cost) * tdim + t]);
    }
    masses
}

impl EnumSpace {
    /// Builds the space with one partition per first-thread shape. A
    /// space where no thread fits (`max_threads` or the bound is 0) has
    /// no partition.
    pub fn new(opts: &EnumOptions) -> EnumSpace {
        let mut shapes = shapes(opts);
        shapes.sort_by_key(|s| s.cost); // enables early cut-off in combine
        let max_threads = opts.max_threads.unwrap_or(opts.bound);
        if max_threads.min(opts.bound) == 0 {
            shapes.clear();
        }
        EnumSpace {
            shapes,
            opts: opts.clone(),
            max_threads,
        }
    }

    /// The mass of every partition, in ordinal order: the exact
    /// shape-combination node count each work unit covers. Counted on
    /// each call; only the fleet's range plan asks for it.
    pub fn masses(&self) -> Vec<u64> {
        root_masses(&self.shapes, self.opts.bound, self.max_threads)
    }

    /// The enumeration options the space was built for.
    pub fn options(&self) -> &EnumOptions {
        &self.opts
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.shapes.len()
    }

    /// Enumerates one partition, canonical keys included, with symmetry
    /// dedup inside the partition. No key occurs in two partitions, so
    /// that is the dedup of the whole space; [`programs`] concatenates
    /// all partitions in ordinal order.
    pub fn enumerate_keyed(&self, ordinal: usize) -> Vec<KeyedProgram> {
        self.enumerate_keyed_within(ordinal, None)
    }

    /// Like [`EnumSpace::enumerate_keyed`], aborting early once
    /// `deadline` passes. An aborted partition's output is *partial* —
    /// callers that need the reproducible-prefix guarantee must check
    /// the deadline after the call and discard the result (treating the
    /// partition as cut) if it struck, which is what the streaming
    /// pipeline does.
    pub fn enumerate_keyed_within(
        &self,
        ordinal: usize,
        deadline: Option<std::time::Instant>,
    ) -> Vec<KeyedProgram> {
        let mut sink = EmitSink::new(&self.opts);
        combine(
            &self.shapes,
            ordinal,
            self.opts.bound - self.shapes[ordinal].cost,
            self.max_threads - 1,
            &mut vec![ordinal],
            &deadline,
            &mut sink,
        );
        sink.out
    }

    /// Plans one partition by itself: its program count and its plan
    /// items — the write-bearing programs, keeping the first occurrence
    /// of each canonical key, in enumeration order. With symmetry
    /// reduction every key already occurs once; without it, the
    /// partition keeps every program in its count but only the first of
    /// each key as an item. Since no key occurs in two partitions, the
    /// partitions' items in ordinal order are what a dedup over the
    /// whole enumeration keeps ([`crate::engine::plan_from_keyed`]).
    /// Partial when `deadline` strikes, like
    /// [`EnumSpace::enumerate_keyed_within`].
    pub fn plan_partition(
        &self,
        ordinal: usize,
        deadline: Option<std::time::Instant>,
    ) -> PartitionPlan {
        let keyed = self.enumerate_keyed_within(ordinal, deadline);
        let programs = keyed.len();
        let symmetry = self.opts.symmetry_reduction;
        let mut seen = BTreeSet::new();
        let items = keyed
            .into_iter()
            .filter_map(|kp| {
                let key = kp.key.filter(|_| kp.has_write)?;
                (symmetry || seen.insert(key)).then_some(kp.program)
            })
            .collect();
        PartitionPlan { programs, items }
    }
}

/// One root partition's share of the synthesis plan
/// ([`EnumSpace::plan_partition`]).
#[derive(Clone, Debug)]
pub struct PartitionPlan {
    /// Programs the partition enumerates, after symmetry reduction —
    /// its share of the run's program count.
    pub programs: usize,
    /// Its plan items, in enumeration order.
    pub items: Vec<Program>,
}

/// Resolves local VA numbers and PA symbols to global meanings, assigns
/// remaps, validates spurious INVLPGs, and emits canonical programs.
///
/// The remap and spurious-INVLPG filters read only VAs and slot
/// positions, so they run once per VA map, before any PA is assigned;
/// a VA map with no surviving remap never builds its PA product.
fn assign_and_emit(shapes: &[Shape], chosen: &[usize], sink: &mut EmitSink<'_>) {
    let opts = sink.opts;
    let ts: Vec<&Shape> = chosen.iter().map(|&i| &shapes[i]).collect();

    // Every PTE write needs its own same-VA INVLPG on every core, so a
    // core with fewer INVLPGs than the node has PTE writes leaves no
    // remap assignment under any VA map.
    let pte_writes: usize = ts.iter().map(|s| s.num_pa_syms).sum();
    let invlpgs = |s: &Shape| {
        s.ops
            .iter()
            .filter(|op| matches!(op, SlotOp::Invlpg { .. }))
            .count()
    };
    if ts.iter().any(|s| invlpgs(s) < pte_writes) {
        return;
    }

    // Enumerate injective per-thread maps local VA → global VA with
    // canonical (first-use) numbering of fresh globals.
    let mut va_maps: Vec<Vec<Vec<usize>>> = vec![Vec::new()]; // per thread: map
    let mut globals_so_far = vec![0usize];
    for t in &ts {
        let mut next_maps = Vec::new();
        let mut next_globals = Vec::new();
        for (maps, &g) in va_maps.iter().zip(&globals_so_far) {
            // Build all injective maps of t.num_vas locals into globals,
            // where locals in order may reuse existing or take the next
            // fresh id.
            let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), g)];
            for _local in 0..t.num_vas {
                let mut grown = Vec::new();
                for (m, gg) in stack {
                    for cand in 0..=gg {
                        if m.contains(&cand) {
                            continue; // injective within the thread
                        }
                        let mut m2 = m.clone();
                        m2.push(cand);
                        grown.push((m2, gg.max(cand + 1)));
                    }
                }
                stack = grown;
            }
            for (m, gg) in stack {
                let mut full = maps.clone();
                full.push(m);
                next_maps.push(full);
                next_globals.push(gg);
            }
        }
        va_maps = next_maps;
        globals_so_far = next_globals;
    }

    let rmw: Vec<(usize, usize)> = ts
        .iter()
        .enumerate()
        .flat_map(|(t, s)| s.rmw.iter().map(move |&slot| (t, slot)))
        .collect();

    for (vmap, &num_vas) in va_maps.iter().zip(&globals_so_far) {
        // Global threads with every PTE write's PA still unassigned
        // (a placeholder the PA product below overwrites).
        let va_threads: Vec<Vec<SlotOp>> = ts
            .iter()
            .enumerate()
            .map(|(t, shape)| {
                shape
                    .ops
                    .iter()
                    .map(|&op| match op {
                        SlotOp::Read { va, walk } => SlotOp::Read {
                            va: vmap[t][va],
                            walk,
                        },
                        SlotOp::Write { va, walk } => SlotOp::Write {
                            va: vmap[t][va],
                            walk,
                        },
                        SlotOp::Fence => SlotOp::Fence,
                        SlotOp::TlbFlush => SlotOp::TlbFlush,
                        SlotOp::Invlpg { va } => SlotOp::Invlpg { va: vmap[t][va] },
                        SlotOp::PteWrite { va, pa } => SlotOp::PteWrite {
                            va: vmap[t][va],
                            pa,
                        },
                    })
                    .collect()
            })
            .collect();
        let remaps: Vec<Vec<RemapPair>> = remap_assignments(&va_threads)
            .into_iter()
            .filter(|remap| spurious_invlpgs_useful(&va_threads, remap))
            .collect();
        if remaps.is_empty() {
            continue;
        }

        // The global VA of each PTE write, in (thread, slot) order — the
        // order PA symbols are assigned in.
        let pte_vas: Vec<usize> = va_threads
            .iter()
            .flatten()
            .filter_map(|op| match op {
                SlotOp::PteWrite { va, .. } => Some(*va),
                _ => None,
            })
            .collect();
        // Each symbol maps to Initial(v) for v < num_vas or Fresh(j) with
        // first-use numbering. Identity remaps are pruned as they are
        // generated: a pruned prefix extends only to candidates the rule
        // rejects, so the survivors keep their order.
        let mut assignments: Vec<Vec<PaRef>> = vec![Vec::new()];
        for &va in &pte_vas {
            let mut grown = Vec::new();
            for a in &assignments {
                let fresh_used = a
                    .iter()
                    .filter_map(|p| match p {
                        PaRef::Fresh(j) => Some(*j + 1),
                        PaRef::Initial(_) => None,
                    })
                    .max()
                    .unwrap_or(0);
                for v in 0..num_vas {
                    if v == va && !opts.allow_identity_remap {
                        continue;
                    }
                    let mut a2 = a.clone();
                    a2.push(PaRef::Initial(v));
                    grown.push(a2);
                }
                for j in 0..=fresh_used {
                    let mut a2 = a.clone();
                    a2.push(PaRef::Fresh(j));
                    grown.push(a2);
                }
            }
            assignments = grown;
        }

        for assignment in &assignments {
            let mut threads = va_threads.clone();
            let mut pas = assignment.iter();
            for op in threads.iter_mut().flatten() {
                if let SlotOp::PteWrite { pa, .. } = op {
                    *pa = *pas.next().expect("one symbol per PTE write");
                }
            }
            for remap in &remaps {
                sink.emit(Program {
                    threads: threads.clone(),
                    remap: remap.clone(),
                    rmw: rmw.clone(),
                });
            }
        }
    }
}

/// One `(wpte, invlpg)` remap pair as `(thread, slot)` positions.
type RemapPair = ((usize, usize), (usize, usize));

/// All ways to give every PTE write exactly one same-VA `INVLPG` per core
/// (same-core one strictly later in po), each `INVLPG` serving at most one
/// PTE write.
fn remap_assignments(threads: &[Vec<SlotOp>]) -> Vec<Vec<RemapPair>> {
    let wptes: Vec<(usize, usize, usize)> = threads
        .iter()
        .enumerate()
        .flat_map(|(t, row)| {
            row.iter().enumerate().filter_map(move |(s, op)| match op {
                SlotOp::PteWrite { va, .. } => Some((t, s, *va)),
                _ => None,
            })
        })
        .collect();
    let invlpgs: Vec<(usize, usize, usize)> = threads
        .iter()
        .enumerate()
        .flat_map(|(t, row)| {
            row.iter().enumerate().filter_map(move |(s, op)| match op {
                SlotOp::Invlpg { va } => Some((t, s, *va)),
                _ => None,
            })
        })
        .collect();
    let num_threads = threads.len();
    let mut results = Vec::new();
    let mut partial: Vec<RemapPair> = Vec::new();
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        wptes: &[(usize, usize, usize)],
        invlpgs: &[(usize, usize, usize)],
        num_threads: usize,
        wi: usize,
        target_thread: usize,
        partial: &mut Vec<RemapPair>,
        used: &mut BTreeSet<(usize, usize)>,
        results: &mut Vec<Vec<RemapPair>>,
    ) {
        if wi == wptes.len() {
            results.push(partial.clone());
            return;
        }
        if target_thread == num_threads {
            recurse(
                wptes,
                invlpgs,
                num_threads,
                wi + 1,
                0,
                partial,
                used,
                results,
            );
            return;
        }
        let (wt, ws, wva) = wptes[wi];
        for &(it, is, iva) in invlpgs {
            if it != target_thread || iva != wva || used.contains(&(it, is)) {
                continue;
            }
            if it == wt && is <= ws {
                continue; // same-core INVLPG must follow the PTE write
            }
            used.insert((it, is));
            partial.push(((wt, ws), (it, is)));
            recurse(
                wptes,
                invlpgs,
                num_threads,
                wi,
                target_thread + 1,
                partial,
                used,
                results,
            );
            partial.pop();
            used.remove(&(it, is));
        }
    }

    recurse(
        &wptes,
        &invlpgs,
        num_threads,
        0,
        0,
        &mut partial,
        &mut used,
        &mut results,
    );
    results
}

/// Spurious (un-remapped) INVLPGs must be able to affect the execution: a
/// later same-VA access on the same core.
fn spurious_invlpgs_useful(threads: &[Vec<SlotOp>], remap: &[RemapPair]) -> bool {
    let remapped: BTreeSet<(usize, usize)> = remap.iter().map(|&(_, i)| i).collect();
    for (t, row) in threads.iter().enumerate() {
        for (s, op) in row.iter().enumerate() {
            let SlotOp::Invlpg { va } = op else { continue };
            if remapped.contains(&(t, s)) {
                continue;
            }
            let useful = row[s + 1..].iter().any(|later| {
                matches!(later, SlotOp::Read { va: v, .. } | SlotOp::Write { va: v, .. } if v == va)
            });
            if !useful {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masses_cover_every_partition() {
        let space = EnumSpace::new(&EnumOptions::new(4));
        let masses = space.masses();
        assert_eq!(masses.len(), space.partition_count());
        assert!(masses.iter().all(|&m| m > 0));
    }

    #[test]
    fn skeletons_are_well_formed_program_shapes() {
        let opts = EnumOptions::new(4);
        let progs = programs(&opts);
        assert!(!progs.is_empty());
        for p in &progs {
            assert!(p.size() <= 4, "{p:?}");
            let skel = p.to_skeleton();
            // The skeleton may still need communication choices, but its
            // TLB structure must be sound.
            transform_core::derive::static_tlb_sources(&skel)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
        }
    }

    #[test]
    fn smallest_read_program_exists() {
        let opts = EnumOptions::new(2);
        let progs = programs(&opts);
        // R x with its walk.
        assert!(progs
            .iter()
            .any(|p| { p.threads == vec![vec![SlotOp::Read { va: 0, walk: true }]] }));
        // No program exceeds the bound.
        assert!(progs.iter().all(|p| p.size() <= 2));
    }

    #[test]
    fn first_access_always_walks() {
        for p in programs(&EnumOptions::new(5)) {
            for row in &p.threads {
                let mut tlb = BTreeSet::new();
                for op in row {
                    match *op {
                        SlotOp::Read { va, walk } | SlotOp::Write { va, walk } => {
                            assert!(
                                walk || tlb.contains(&va),
                                "cold access without walk in {p:?}"
                            );
                            if walk {
                                tlb.insert(va);
                            }
                        }
                        SlotOp::Invlpg { va } => {
                            tlb.remove(&va);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn ptwalk2_shape_is_enumerated_at_bound_4() {
        // Fig. 10a: WPTE x→b; INVLPG x; R x (+walk) — 4 events.
        let opts = EnumOptions::new(4);
        let progs = programs(&opts);
        let found = progs.iter().any(|p| {
            p.threads.len() == 1
                && p.threads[0]
                    == vec![
                        SlotOp::PteWrite {
                            va: 0,
                            pa: PaRef::Fresh(0),
                        },
                        SlotOp::Invlpg { va: 0 },
                        SlotOp::Read { va: 0, walk: true },
                    ]
                && p.remap == vec![((0, 0), (0, 1))]
        });
        assert!(found, "ptwalk2 program missing from bound-4 enumeration");
    }

    #[test]
    fn pte_writes_are_fully_remapped() {
        // Every PTE write carries exactly one INVLPG per core.
        let opts = EnumOptions::new(4);
        for p in programs(&opts) {
            let wptes: Vec<(usize, usize)> = p
                .threads
                .iter()
                .enumerate()
                .flat_map(|(t, row)| {
                    row.iter().enumerate().filter_map(move |(s, op)| {
                        matches!(op, SlotOp::PteWrite { .. }).then_some((t, s))
                    })
                })
                .collect();
            for w in wptes {
                let covered: BTreeSet<usize> = p
                    .remap
                    .iter()
                    .filter(|&&(wp, _)| wp == w)
                    .map(|&(_, (it, _))| it)
                    .collect();
                assert_eq!(covered.len(), p.threads.len(), "{p:?}");
            }
        }
    }

    #[test]
    fn symmetry_reduction_shrinks_the_set() {
        let mut with = EnumOptions::new(4);
        with.allow_fences = false;
        with.allow_rmw = false;
        let mut without = with.clone();
        without.symmetry_reduction = false;
        let n_with = programs(&with).len();
        let n_without = programs(&without).len();
        assert!(n_with <= n_without);
        assert!(n_with > 0);
    }

    /// Brute-force node count of the shape-combination recursion:
    /// every non-empty chosen multiset is one node, exactly what
    /// `root_masses` claims to count with one rolling row.
    fn count_nodes(shapes: &[Shape], from: usize, budget: usize, threads: usize) -> u64 {
        if threads == 0 {
            return 0;
        }
        let mut total = 0u64;
        for (j, shape) in shapes.iter().enumerate().skip(from) {
            if shape.cost > budget {
                break; // sorted by cost
            }
            total += 1 + count_nodes(shapes, j, budget - shape.cost, threads - 1);
        }
        total
    }

    #[test]
    fn root_masses_count_the_recursion_exactly() {
        for bound in 0usize..=5 {
            for (fences, rmw) in [(false, false), (true, false), (false, true), (true, true)] {
                for max_threads in [None, Some(1), Some(2), Some(3)] {
                    let mut opts = EnumOptions::new(bound);
                    opts.allow_fences = fences;
                    opts.allow_rmw = rmw;
                    opts.max_threads = max_threads;
                    let space = EnumSpace::new(&opts);
                    let threads = max_threads.unwrap_or(bound);
                    let expected: Vec<u64> = space
                        .shapes
                        .iter()
                        .enumerate()
                        .map(|(i, shape)| {
                            1 + count_nodes(&space.shapes, i, bound - shape.cost, threads - 1)
                        })
                        .collect();
                    assert_eq!(
                        space.masses(),
                        expected.as_slice(),
                        "bound {bound} fences {fences} rmw {rmw} max_threads {max_threads:?}"
                    );
                }
            }
        }
    }

    /// The shape a program thread was built from: VAs renumbered by
    /// first use and PTE-write pages by occurrence, as the shape builder
    /// numbers them, with the thread's RMW read slots.
    fn shape_of(program: &Program, t: usize) -> (Vec<SlotOp>, Vec<usize>) {
        let mut vas: Vec<usize> = Vec::new();
        let mut local = |va: usize| match vas.iter().position(|&v| v == va) {
            Some(i) => i,
            None => {
                vas.push(va);
                vas.len() - 1
            }
        };
        let mut syms = 0;
        let ops = program.threads[t]
            .iter()
            .map(|&op| match op {
                SlotOp::Read { va, walk } => SlotOp::Read {
                    va: local(va),
                    walk,
                },
                SlotOp::Write { va, walk } => SlotOp::Write {
                    va: local(va),
                    walk,
                },
                SlotOp::Invlpg { va } => SlotOp::Invlpg { va: local(va) },
                SlotOp::PteWrite { va, .. } => {
                    syms += 1;
                    SlotOp::PteWrite {
                        va: local(va),
                        pa: PaRef::Fresh(syms - 1),
                    }
                }
                op => op,
            })
            .collect();
        let rmw = program
            .rmw
            .iter()
            .filter(|&&(rt, _)| rt == t)
            .map(|&(_, slot)| slot)
            .collect();
        (ops, rmw)
    }

    /// The space keeps exactly the shapes that occur in an emitted
    /// program: the shape rules drop no shape a program uses, and keep
    /// none that no program uses. Bounds 2–5 cover every fence/RMW mix
    /// with and without identity remaps under several thread caps;
    /// bound 6 runs with fences and RMW.
    #[test]
    fn every_kept_shape_occurs_in_an_emitted_program() {
        let mut cases = Vec::new();
        for bound in 2usize..=5 {
            for (fences, rmw) in [(false, false), (true, false), (false, true), (true, true)] {
                for identity in [false, true] {
                    for max_threads in [None, Some(1), Some(2)] {
                        let mut opts = EnumOptions::new(bound);
                        opts.allow_fences = fences;
                        opts.allow_rmw = rmw;
                        opts.allow_identity_remap = identity;
                        opts.max_threads = max_threads;
                        cases.push(opts);
                    }
                }
            }
        }
        cases.push(EnumOptions::new(6));
        for opts in cases {
            let kept: BTreeSet<(Vec<SlotOp>, Vec<usize>)> = shapes(&opts)
                .into_iter()
                .map(|shape| (shape.ops, shape.rmw))
                .collect();
            let used: BTreeSet<(Vec<SlotOp>, Vec<usize>)> = programs(&opts)
                .iter()
                .flat_map(|p| (0..p.threads.len()).map(move |t| shape_of(p, t)))
                .collect();
            assert!(!kept.is_empty(), "{opts:?}");
            assert_eq!(kept, used, "{opts:?}");
        }
    }

    #[test]
    fn keyed_enumeration_keys_every_write_bearing_program() {
        let mut opts = EnumOptions::new(4);
        opts.symmetry_reduction = false; // keys still required for planning
        let space = EnumSpace::new(&opts);
        for p in 0..space.partition_count() {
            for kp in space.enumerate_keyed(p) {
                assert_eq!(kp.has_write, kp.program.has_write());
                if kp.has_write {
                    assert_eq!(
                        kp.key.as_deref(),
                        Some(canonical_key(&kp.program).as_slice())
                    );
                } else {
                    assert!(kp.key.is_none());
                }
            }
        }
    }

    #[test]
    fn max_threads_zero_enumerates_nothing() {
        let mut opts = EnumOptions::new(4);
        opts.max_threads = Some(0);
        assert!(programs(&opts).is_empty());
        assert_eq!(EnumSpace::new(&opts).partition_count(), 0);
    }

    #[test]
    fn fences_never_dangle() {
        for p in programs(&EnumOptions::new(4)) {
            for row in &p.threads {
                if let Some(SlotOp::Fence) = row.last() {
                    panic!("trailing fence in {p:?}");
                }
                if let Some(SlotOp::Fence) = row.first() {
                    panic!("leading fence in {p:?}");
                }
            }
        }
    }
}
