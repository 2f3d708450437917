//! One examination pass per program serves every axiom: for every plan
//! item, the all-axiom examiner's result for axiom *i* equals what a
//! one-axiom examiner for *i* reports — counters, witness and violated
//! axioms alike. Suite-level tests only see the sums; this is the check
//! that sees a sharing bug inside a single program.

use transform::synth::{plan_suite, Backend, Examined, Examiner, SynthOptions};
use transform::x86::x86t_elt;

fn opts(bound: usize, fences: bool, rmw: bool, backend: Backend) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = fences;
    o.enumeration.allow_rmw = rmw;
    o.backend = backend;
    o
}

/// Everything an [`Examined`] carries, comparable.
fn parts(e: &Examined) -> (usize, usize, usize, Option<String>) {
    (
        e.executions,
        e.forbidden,
        e.minimal,
        e.witness
            .as_ref()
            .map(|(x, violated)| format!("{:?} {violated:?}", x.to_parts())),
    )
}

/// Examines the whole plan of `o` with one all-axiom examiner and with
/// one one-axiom examiner per axiom (each kept across items, as a shard
/// keeps it), and compares every item's result per axiom. Returns the
/// number of (item, axiom) witnesses seen, so callers can reject a
/// vacuous comparison.
fn compare_plan(o: &SynthOptions) -> usize {
    let mtm = x86t_elt();
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let plan = plan_suite(&mtm, axioms[0], o, None);
    let mut shared = Examiner::for_axioms(&mtm, &axioms, o.backend, plan.branch_co_pa);
    let mut singles: Vec<Examiner<'_>> = axioms
        .iter()
        .map(|axiom| Examiner::new(&mtm, axiom, o.backend, plan.branch_co_pa))
        .collect();
    let mut witnesses = 0;
    for item in &plan.items {
        let all = shared.examine_axioms(&item.program);
        assert_eq!(all.len(), axioms.len(), "one result per axiom");
        for ((axiom, single), got) in axioms.iter().zip(&mut singles).zip(&all) {
            let want = single.examine(&item.program);
            assert_eq!(
                parts(got),
                parts(&want),
                "bound {} item {} axiom {axiom} via {:?}",
                o.enumeration.bound,
                item.index,
                o.backend
            );
            witnesses += usize::from(want.witness.is_some());
        }
    }
    witnesses
}

#[test]
fn shared_examiner_matches_one_axiom_examiners_on_the_explicit_backend() {
    for bound in 1..=5 {
        for (fences, rmw) in [(false, false), (true, false), (false, true), (true, true)] {
            let witnesses = compare_plan(&opts(bound, fences, rmw, Backend::Explicit));
            if bound >= 4 {
                assert!(witnesses > 0, "bound {bound}: vacuous comparison");
            }
        }
    }
}

#[test]
fn shared_examiner_matches_one_axiom_examiners_on_the_relational_backend() {
    let witnesses = compare_plan(&opts(4, true, true, Backend::Relational));
    assert!(witnesses > 0, "vacuous comparison");
}

#[test]
fn shared_examiner_reports_solver_stats_for_every_axiom() {
    let mtm = x86t_elt();
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let o = opts(4, false, false, Backend::Relational);
    let plan = plan_suite(&mtm, axioms[0], &o, None);
    let mut shared = Examiner::for_axioms(&mtm, &axioms, o.backend, plan.branch_co_pa);
    let mut single_calls = 0;
    for axiom in &axioms {
        let mut single = Examiner::new(&mtm, axiom, o.backend, plan.branch_co_pa);
        for item in &plan.items {
            single.examine(&item.program);
        }
        single_calls += single.solver_stats().expect("relational").solve_calls;
    }
    for item in &plan.items {
        shared.examine_axioms(&item.program);
    }
    // Every (program, axiom) query runs on a solver of its own, so the
    // shared examiner makes exactly the SAT calls of the five one-axiom
    // examiners together.
    assert_eq!(
        shared.solver_stats().expect("relational").solve_calls,
        single_calls
    );
    let explicit = Examiner::for_axioms(&mtm, &axioms, Backend::Explicit, plan.branch_co_pa);
    assert!(explicit.solver_stats().is_none());
}
