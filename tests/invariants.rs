//! Structural invariants of the MTM semantics, checked over the entire
//! bound-4 synthesis space (every program × every candidate execution) and
//! over randomized samples at bound 5.

use proptest::prelude::*;
use transform::core::derive::BaseRel;
use transform::core::{EventKind, Execution};
use transform::synth::execs::executions;
use transform::synth::programs::{programs, EnumOptions};

fn space(bound: usize) -> Vec<Execution> {
    let mut opts = EnumOptions::new(bound);
    opts.allow_fences = false;
    opts.allow_rmw = false;
    programs(&opts)
        .into_iter()
        .flat_map(|p| executions(&p.to_skeleton(), false))
        .collect()
}

fn check_invariants(x: &Execution) {
    let a = x.analyze().expect("enumerated executions are well-formed");
    let rf = &a.relation(BaseRel::Rf);
    let co = &a.relation(BaseRel::Co);
    let fr = &a.relation(BaseRel::Fr);
    let apo = &a.relation(BaseRel::Apo);
    let po = &a.relation(BaseRel::Po);
    let po_loc = &a.relation(BaseRel::PoLoc);
    let ppo = &a.relation(BaseRel::Ppo);

    // Communication edges never mix locations.
    for &(p, q) in rf.iter().chain(co).chain(fr) {
        assert_eq!(a.location(p), a.location(q), "com edge crosses locations");
    }
    // fr and rf are disjoint; co is irreflexive and transitive.
    assert!(fr.intersection(rf).next().is_none());
    for &(p, q) in co {
        assert_ne!(p, q);
        for &(q2, r) in co {
            if q == q2 {
                assert!(co.contains(&(p, r)), "co must be transitive");
            }
        }
    }
    // apo is a strict order containing po; po_loc and ppo refine apo.
    for &(p, q) in apo {
        assert!(!apo.contains(&(q, p)), "apo must be asymmetric");
    }
    assert!(po.is_subset(apo));
    assert!(po_loc.is_subset(apo));
    assert!(ppo.is_subset(apo));
    // TSO: ppo never orders a write before a later read.
    for &(p, q) in ppo {
        let wk = x.event(p).kind;
        let rk = x.event(q).kind;
        assert!(!(wk.is_write() && rk.is_read()), "W→R must be relaxed");
    }
    // Ghosts take no ppo edges at all.
    for &(p, q) in ppo {
        assert!(!x.event(p).kind.is_ghost() && !x.event(q).kind.is_ghost());
    }
    // Every user access reads exactly one TLB entry, from its own core and
    // VA.
    for e in x.events() {
        if e.kind.is_user_memory() {
            let src = a.tlb_source(e.id).expect("translation source");
            let walk = x.event(src);
            assert_eq!(walk.kind, EventKind::Ptw);
            assert_eq!(walk.thread, e.thread);
            assert_eq!(walk.va, e.va);
        }
    }
    // rf_pa sources are PTE writes; fr_va targets are PTE writes.
    for &(w, e) in &a.relation(BaseRel::RfPa) {
        assert!(matches!(x.event(w).kind, EventKind::PteWrite { .. }));
        assert!(x.event(e).kind.is_user_memory());
    }
    for &(e, w) in &a.relation(BaseRel::FrVa) {
        assert!(matches!(x.event(w).kind, EventKind::PteWrite { .. }));
        assert!(x.event(e).kind.is_user_memory());
    }
}

#[test]
fn every_bound_4_execution_satisfies_the_invariants() {
    let space = space(4);
    assert!(space.len() > 50, "the bound-4 space is non-trivial");
    for x in &space {
        check_invariants(x);
    }
}

#[test]
fn serde_round_trip_preserves_verdicts() {
    let mtm = transform::x86::x86t_elt();
    for (name, x, _) in transform::core::figures::all_figures() {
        let json = serde_json::to_string(&x).expect("serializes");
        let back: Execution = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(x, back, "{name}");
        assert_eq!(mtm.permits(&x), mtm.permits(&back), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random samples from the bound-5 space satisfy the same invariants.
    #[test]
    fn sampled_bound_5_executions_satisfy_the_invariants(seed in 0usize..1000) {
        let mut opts = EnumOptions::new(5);
        opts.allow_fences = false;
        opts.allow_rmw = false;
        let progs = programs(&opts);
        let prog = &progs[seed % progs.len()];
        for x in executions(&prog.to_skeleton(), false) {
            check_invariants(&x);
        }
    }

    /// The spec parser never panics on arbitrary input.
    #[test]
    fn spec_parser_is_total(input in "\\PC*") {
        let _ = transform::core::spec::parse_mtm(&input);
    }

    /// Verdicts are deterministic.
    #[test]
    fn evaluation_is_deterministic(seed in 0usize..200) {
        let mtm = transform::x86::x86t_elt();
        let mut opts = EnumOptions::new(4);
        opts.allow_fences = false;
        opts.allow_rmw = false;
        let progs = programs(&opts);
        let prog = &progs[seed % progs.len()];
        for x in executions(&prog.to_skeleton(), false) {
            prop_assert_eq!(mtm.permits(&x), mtm.permits(&x));
        }
    }
}
