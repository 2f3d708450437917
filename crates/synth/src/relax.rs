//! Relaxation rules (§IV-B) — the moves used to test minimality.
//!
//! A relaxation removes one event or dependency from an ELT. The paper's
//! restrictions apply: ghosts go with their invoker; remap-invoked
//! `INVLPG`s go with their PTE write; spurious `INVLPG`s, fences, and `rmw`
//! dependencies relax in isolation.
//!
//! Applying a relaxation *repairs* the remaining execution: reads whose
//! source vanished read the initial state, coherence is restricted and —
//! where a remap removal merges locations — deterministically completed.
//! Relaxations that cannot yield a well-formed ELT (e.g. removing the only
//! walk a later access depends on) are reported as [`None`] and do not
//! count against minimality.

use std::collections::{BTreeMap, BTreeSet};
use transform_core::derive::Analysis;
use transform_core::event::EventKind;
use transform_core::exec::{Execution, PairSet};
use transform_core::ids::EventId;
use transform_core::wellformed::WellformedError;

/// One relaxation move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relaxation {
    /// Remove a user-facing read or write together with its ghosts.
    RemoveUserAccess(EventId),
    /// Remove a PTE write together with every `INVLPG` it remap-invokes.
    RemovePteWrite(EventId),
    /// Remove a spurious (not remap-invoked) `INVLPG` or full TLB flush
    /// in isolation.
    RemoveSpuriousInvlpg(EventId),
    /// Remove an `MFENCE` in isolation.
    RemoveFence(EventId),
    /// Drop an `rmw` dependency, keeping both accesses.
    DropRmw(EventId, EventId),
}

/// All legal relaxations of an execution.
pub fn relaxations(x: &Execution) -> Vec<Relaxation> {
    let remapped: BTreeSet<EventId> = x.remap_pairs().iter().map(|&(_, i)| i).collect();
    let mut out = Vec::new();
    for e in x.events() {
        match e.kind {
            EventKind::Read | EventKind::Write => out.push(Relaxation::RemoveUserAccess(e.id)),
            EventKind::PteWrite { .. } => out.push(Relaxation::RemovePteWrite(e.id)),
            EventKind::Invlpg | EventKind::TlbFlush if !remapped.contains(&e.id) => {
                out.push(Relaxation::RemoveSpuriousInvlpg(e.id))
            }
            EventKind::Fence => out.push(Relaxation::RemoveFence(e.id)),
            _ => {}
        }
    }
    for &(r, w) in x.rmw_pairs() {
        out.push(Relaxation::DropRmw(r, w));
    }
    out
}

/// Applies a relaxation, repairing the result. `None` when no well-formed
/// ELT can result.
pub fn apply(x: &Execution, r: &Relaxation) -> Option<Execution> {
    repair(rebuild(x, r), |_| ()).map(|(relaxed, ())| relaxed)
}

/// [`apply`], handing `f` the analysis that showed the repaired execution
/// well-formed instead of the execution, so callers that evaluate the
/// relaxed ELT do not analyze it a second time.
pub(crate) fn apply_analyzed<T>(
    x: &Execution,
    r: &Relaxation,
    f: impl FnOnce(&Analysis<'_>) -> T,
) -> Option<T> {
    repair(rebuild(x, r), f).map(|(_, t)| t)
}

/// The execution without the relaxed events or dependency, not yet
/// repaired.
fn rebuild(x: &Execution, r: &Relaxation) -> Execution {
    let mut removed: BTreeSet<EventId> = BTreeSet::new();
    let mut parts = x.to_parts();
    match *r {
        Relaxation::RemoveUserAccess(e) => {
            removed.insert(e);
            removed.extend(x.ghosts_of(e));
        }
        Relaxation::RemovePteWrite(e) => {
            removed.insert(e);
            removed.extend(
                x.remap_pairs()
                    .iter()
                    .filter(|&&(w, _)| w == e)
                    .map(|&(_, i)| i),
            );
        }
        Relaxation::RemoveSpuriousInvlpg(e) | Relaxation::RemoveFence(e) => {
            removed.insert(e);
        }
        Relaxation::DropRmw(r, w) => {
            parts.rmw.remove(&(r, w));
            return Execution::from_parts(parts);
        }
    }

    // Renumber the surviving events densely, and compact VA/PA names: a
    // page whose VA no longer appears in the program is indistinguishable
    // from a fresh page, so the relaxed program must not remember it
    // (otherwise reduced programs would never match synthesized ones).
    let survivors: Vec<_> = x
        .events()
        .iter()
        .filter(|e| !removed.contains(&e.id))
        .collect();
    let mut va_map: BTreeMap<usize, usize> = BTreeMap::new();
    for e in &survivors {
        if let Some(va) = e.va {
            let next = va_map.len();
            va_map.entry(va.0).or_insert(next);
        }
    }
    let new_num_vas = va_map.len();
    let mut fresh_pa: BTreeMap<usize, usize> = BTreeMap::new();
    let mut map_pa = |pa: transform_core::ids::Pa| -> transform_core::ids::Pa {
        // Initial page of a surviving VA: follow the VA's new name.
        if pa.0 < x.num_vas() {
            if let Some(&v) = va_map.get(&pa.0) {
                return transform_core::ids::Pa(v);
            }
        }
        // Fresh page, or the orphaned initial page of a removed VA.
        let next = fresh_pa.len();
        let idx = *fresh_pa.entry(pa.0).or_insert(next);
        transform_core::ids::Pa(new_num_vas + idx)
    };

    let mut new_id: BTreeMap<EventId, EventId> = BTreeMap::new();
    let mut events = Vec::new();
    for e in &survivors {
        let id = EventId(events.len() as u32);
        new_id.insert(e.id, id);
        let mut e2 = **e;
        e2.id = id;
        if let Some(va) = e2.va {
            e2.va = Some(transform_core::ids::Va(va_map[&va.0]));
        }
        if let transform_core::event::EventKind::PteWrite { new_pa } = e2.kind {
            e2.kind = transform_core::event::EventKind::PteWrite {
                new_pa: map_pa(new_pa),
            };
        }
        events.push(e2);
    }
    let new_num_pas = (new_num_vas + fresh_pa.len()).max(new_num_vas);
    let map = |e: EventId| new_id.get(&e).copied();
    let map_pairs = |ps: &PairSet| -> PairSet {
        ps.iter()
            .filter_map(|&(a, b)| Some((map(a)?, map(b)?)))
            .collect()
    };

    Execution::from_parts(transform_core::exec::ExecParts {
        events,
        num_threads: parts.num_threads,
        num_vas: new_num_vas,
        num_pas: new_num_pas,
        po: parts
            .po
            .iter()
            .map(|row| row.iter().filter_map(|&e| map(e)).collect())
            .collect(),
        ghost_invoker: parts
            .ghost_invoker
            .iter()
            .filter_map(|(&g, &i)| Some((map(g)?, map(i)?)))
            .collect(),
        rf: parts
            .rf
            .iter()
            .filter_map(|(&r, &w)| Some((map(r)?, map(w)?)))
            .collect(),
        co: map_pairs(&parts.co),
        rmw: map_pairs(&parts.rmw),
        remap: map_pairs(&parts.remap),
        co_pa: parts.co_pa.as_ref().map(map_pairs),
    })
}

/// Drives the execution to well-formedness by dropping now-invalid
/// communication edges and completing coherence where locations merged,
/// and returns it with `f` of its analysis. Structural failures (a use
/// without a walk) are unrepairable.
fn repair<T>(mut x: Execution, f: impl FnOnce(&Analysis<'_>) -> T) -> Option<(Execution, T)> {
    for _ in 0..128 {
        let err = match x.analyze() {
            Ok(a) => {
                let t = f(&a);
                return Some((x, t));
            }
            Err(e) => e,
        };
        let mut parts = x.to_parts();
        match err {
            WellformedError::RfLocationMismatch(_, r) | WellformedError::RfKindMismatch(_, r) => {
                parts.rf.remove(&r);
            }
            WellformedError::BadCoPair(a, b) => {
                parts.co.remove(&(a, b));
            }
            WellformedError::CoNotTotalOrder(a, b) => {
                let pair = if a < b { (a, b) } else { (b, a) };
                parts.co.insert(pair);
            }
            WellformedError::BadCoPaPair(a, b) => {
                if let Some(s) = parts.co_pa.as_mut() {
                    s.remove(&(a, b));
                }
            }
            WellformedError::CoPaNotTotalOrder(a, b) => {
                let pair = if a < b { (a, b) } else { (b, a) };
                parts.co_pa.get_or_insert_with(PairSet::new).insert(pair);
            }
            _ => return None,
        }
        x = Execution::from_parts(parts);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_core::exec::EltBuilder;
    use transform_core::figures;
    use transform_core::ids::Va;

    #[test]
    fn removing_a_write_drops_its_ghosts_and_rf() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w, _, _) = b.write_walk(t, Va(0));
        let r = b.read(t, Va(0));
        b.rf(w, r);
        let x = b.build();
        // Removing R leaves W(+ghosts).
        let x2 = apply(&x, &Relaxation::RemoveUserAccess(r)).expect("repairable");
        assert_eq!(x2.size(), 3);
        assert!(x2.is_well_formed());
        // Removing W would leave R with no walk: unrepairable.
        assert_eq!(apply(&x, &Relaxation::RemoveUserAccess(w)), None);
    }

    #[test]
    fn removing_pte_write_takes_its_invlpgs() {
        let x = figures::fig11_cross_core_invlpg();
        let wpte = x
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::PteWrite { .. }))
            .expect("has a PTE write")
            .id;
        let x2 = apply(&x, &Relaxation::RemovePteWrite(wpte)).expect("repairable");
        // WPTE0 and both INVLPGs vanish; the read and its walk survive.
        assert_eq!(x2.size(), 2);
        assert!(x2.is_well_formed());
    }

    #[test]
    fn spurious_invlpg_removal_can_break_walk_placement() {
        // Fig. 5b: removing the INVLPG leaves two walks for the same VA
        // with no eviction between them — still legal (capacity eviction).
        let x = figures::fig5b_spurious_invlpg();
        let inv = x
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Invlpg)
            .expect("has INVLPG")
            .id;
        let x2 = apply(&x, &Relaxation::RemoveSpuriousInvlpg(inv)).expect("repairable");
        assert!(x2.is_well_formed());
        assert_eq!(x2.size(), 4);
    }

    #[test]
    fn relaxation_inventory_matches_structure() {
        let x = figures::fig10a_ptwalk2();
        let rs = relaxations(&x);
        // One user access + one PTE write; the INVLPG is remap-invoked and
        // cannot relax alone.
        assert_eq!(rs.len(), 2);
        assert!(rs
            .iter()
            .all(|r| !matches!(r, Relaxation::RemoveSpuriousInvlpg(_))));
    }

    #[test]
    fn dropping_rmw_keeps_events() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (r, p) = b.read_walk(t, Va(0));
        let (w, _) = b.write(t, Va(0));
        b.rmw(r, w);
        let _ = p;
        let x = b.build();
        let rs = relaxations(&x);
        assert!(rs.contains(&Relaxation::DropRmw(r, w)));
        let x2 = apply(&x, &Relaxation::DropRmw(r, w)).expect("repairable");
        assert_eq!(x2.size(), x.size());
        assert!(x2.rmw_pairs().is_empty());
    }

    #[test]
    fn repair_completes_merged_coherence() {
        // Two writes via different VAs to different PAs, plus a remap that
        // aliased them; removing other events can merge locations — here we
        // exercise the simpler direction: removing a PTE write un-aliases.
        let x = figures::fig2c_sb_elt_aliased();
        let wpte = x
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::PteWrite { .. }))
            .expect("has PTE write")
            .id;
        let x2 = apply(&x, &Relaxation::RemovePteWrite(wpte)).expect("repairable");
        assert!(x2.is_well_formed(), "{:?}", x2.analyze().err());
    }
}
