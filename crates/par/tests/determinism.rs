//! The parallel orchestrator's core contract: for any worker count, one
//! included, the synthesized suite is byte-identical to the sequential
//! engine's (`transform_synth::synthesize_suite` / `synthesize_all`), on
//! both candidate-execution backends, and every counter aggregates
//! losslessly.

use proptest::prelude::*;
use transform_core::axiom::Mtm;
use transform_par::synthesize;
use transform_synth::{synthesize_all, synthesize_suite, Backend, Suite, SynthOptions};
use transform_x86::x86t_elt;

/// One axiom's suite from the pipeline on `jobs` workers.
fn one_suite(mtm: &Mtm, axiom: &str, o: &SynthOptions, jobs: usize) -> Suite {
    synthesize(mtm, &[axiom], o, jobs, None).remove(0)
}

/// Every axiom's suite from one pipeline run on `jobs` workers, in
/// model order.
fn every_suite(mtm: &Mtm, o: &SynthOptions, jobs: usize) -> Vec<Suite> {
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    synthesize(mtm, &axioms, o, jobs, None)
}

/// Every axiom's suite from the sequential engine, in model order.
fn reference_suites(mtm: &Mtm, o: &SynthOptions) -> Vec<Suite> {
    let mut suites = synthesize_all(mtm, o);
    mtm.axioms()
        .iter()
        .map(|a| suites.remove(&a.name).expect("one suite per axiom"))
        .collect()
}

/// A byte-exact rendering of everything user-visible in a suite: the
/// programs in order, each witness's full structure, and the violated
/// axioms. Two suites are interchangeable iff their fingerprints match.
fn fingerprint(suite: &Suite) -> String {
    let mut out = format!("axiom {}\n", suite.axiom);
    for elt in &suite.elts {
        out.push_str(&format!(
            "program {:?}\nwitness {:?}\nviolated {:?}\n",
            elt.program,
            elt.witness.to_parts(),
            elt.violated,
        ));
    }
    out
}

fn opts(bound: usize, backend: Backend) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o.backend = backend;
    o
}

#[test]
fn jobs_1_and_8_are_byte_identical_on_both_backends() {
    let mtm = x86t_elt();
    for backend in [Backend::Explicit, Backend::Relational] {
        for axiom in ["sc_per_loc", "invlpg"] {
            let o = opts(4, backend);
            let reference = synthesize_suite(&mtm, axiom, &o);
            assert!(
                !reference.elts.is_empty(),
                "{axiom} via {backend:?}: empty suite makes this test vacuous"
            );
            assert!(reference.stats.items > 0);
            for jobs in [1, 8] {
                let suite = one_suite(&mtm, axiom, &o, jobs);
                assert_eq!(
                    fingerprint(&reference),
                    fingerprint(&suite),
                    "{axiom} via {backend:?}: jobs={jobs} diverges from the sequential engine"
                );
                // Lossless counter aggregation: the shards' sums equal
                // the sequential totals exactly.
                assert_eq!(reference.stats.programs, suite.stats.programs);
                assert_eq!(reference.stats.executions, suite.stats.executions);
                assert_eq!(reference.stats.forbidden, suite.stats.forbidden);
                assert_eq!(reference.stats.minimal, suite.stats.minimal);
                assert_eq!(reference.stats.items, suite.stats.items);
            }
        }
    }
}

#[test]
fn parallel_explicit_and_relational_backends_agree_on_programs() {
    // The two backends count different things (the relational generator
    // only materializes violating executions), but the synthesized
    // programs and witnesses must agree.
    let mtm = x86t_elt();
    for axiom in ["sc_per_loc", "invlpg"] {
        let explicit = one_suite(&mtm, axiom, &opts(4, Backend::Explicit), 4);
        let relational = one_suite(&mtm, axiom, &opts(4, Backend::Relational), 4);
        assert_eq!(
            explicit.elts.len(),
            relational.elts.len(),
            "{axiom}: suite sizes diverge across backends"
        );
        for (a, b) in explicit.elts.iter().zip(&relational.elts) {
            assert_eq!(a.program, b.program, "{axiom}");
            assert_eq!(a.witness, b.witness, "{axiom}");
        }
    }
}

#[test]
fn streamed_bound_5_suite_is_byte_identical_to_sequential() {
    // The acceptance bar for the fused pipeline: an engine-level run at
    // bound 5 reproduces the sequential suite exactly.
    let mtm = x86t_elt();
    let o = opts(5, Backend::Explicit);
    let sequential = synthesize_suite(&mtm, "sc_per_loc", &o);
    assert!(!sequential.elts.is_empty());
    let streamed = one_suite(&mtm, "sc_per_loc", &o, 4);
    assert_eq!(fingerprint(&sequential), fingerprint(&streamed));
    assert_eq!(sequential.stats.programs, streamed.stats.programs);
    assert_eq!(sequential.stats.executions, streamed.stats.executions);
    assert_eq!(sequential.stats.forbidden, streamed.stats.forbidden);
    assert_eq!(sequential.stats.minimal, streamed.stats.minimal);
}

#[test]
fn fused_all_axiom_run_matches_per_axiom_sequential_suites() {
    // The cross-axiom acceptance bar: one all-axiom run (no shared plan
    // materialized up front) reproduces every per-axiom sequential
    // suite, counters included, at several worker counts and on both
    // backends.
    let mtm = x86t_elt();
    for (backend, job_counts) in [
        (Backend::Explicit, &[1usize, 2, 4, 8][..]),
        (Backend::Relational, &[1, 2][..]),
    ] {
        let o = opts(4, backend);
        let solos: Vec<Suite> = mtm
            .axioms()
            .iter()
            .map(|ax| synthesize_suite(&mtm, &ax.name, &o))
            .collect();
        for &jobs in job_counts {
            let fused = every_suite(&mtm, &o, jobs);
            assert_eq!(fused.len(), solos.len(), "jobs={jobs}");
            for (solo, suite) in solos.iter().zip(&fused) {
                let axiom = &solo.axiom;
                let label = format!("{axiom} via {backend:?} jobs={jobs}");
                assert_eq!(fingerprint(solo), fingerprint(suite), "{label}");
                assert!(!suite.stats.timed_out, "{label}");
                assert_eq!(suite.stats.programs, solo.stats.programs, "{label}");
                assert_eq!(suite.stats.executions, solo.stats.executions, "{label}");
                assert_eq!(suite.stats.forbidden, solo.stats.forbidden, "{label}");
                assert_eq!(suite.stats.minimal, solo.stats.minimal, "{label}");
            }
        }
    }
}

#[test]
fn symmetry_off_runs_match_the_sequential_engine() {
    // Without symmetry reduction each partition keeps the first
    // occurrence of every key among its own write-bearing programs, in
    // the pipeline and in the sequential engine alike; that this equals
    // one dedup over the whole space is checked at the plan level
    // (`par::stream`'s `partition_plans_reproduce_the_sequential_plan`).
    // Bound 6 is the first bound with keys repeated inside a partition.
    let mtm = x86t_elt();
    for bound in 4..=6 {
        let mut o = SynthOptions::new(bound);
        o.enumeration.symmetry_reduction = false;
        let sequential = reference_suites(&mtm, &o);
        for jobs in [1, 2] {
            let fused = every_suite(&mtm, &o, jobs);
            for (seq, suite) in sequential.iter().zip(&fused) {
                let label = format!("{} at bound {bound} jobs={jobs}", seq.axiom);
                assert_eq!(fingerprint(seq), fingerprint(suite), "{label}");
                assert!(!suite.stats.timed_out, "{label}");
                assert_eq!(suite.stats.programs, seq.stats.programs, "{label}");
                assert_eq!(suite.stats.executions, seq.stats.executions, "{label}");
                assert_eq!(suite.stats.forbidden, seq.stats.forbidden, "{label}");
                assert_eq!(suite.stats.minimal, seq.stats.minimal, "{label}");
                assert_eq!(suite.stats.items, seq.stats.items, "{label}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any job count — one, odd, even, oversubscribed far past the core
    /// count — reproduces the sequential suite.
    #[test]
    fn arbitrary_job_counts_stay_deterministic(jobs in 1usize..24) {
        let mtm = x86t_elt();
        let o = opts(4, Backend::Explicit);
        let reference = fingerprint(&synthesize_suite(&mtm, "sc_per_loc", &o));
        let suite = one_suite(&mtm, "sc_per_loc", &o, jobs);
        prop_assert_eq!(reference, fingerprint(&suite), "jobs={}", jobs);
    }

    /// Any job count, through the fused all-axiom run: every
    /// per-axiom suite stays the sequential one.
    #[test]
    fn fused_all_axiom_run_stays_deterministic_at_any_job_count(jobs in 1usize..10) {
        let mtm = x86t_elt();
        let o = opts(4, Backend::Explicit);
        let fused = every_suite(&mtm, &o, jobs);
        for (reference, suite) in reference_suites(&mtm, &o).iter().zip(&fused) {
            prop_assert_eq!(
                fingerprint(reference),
                fingerprint(suite),
                "{} jobs={}",
                &reference.axiom,
                jobs
            );
        }
    }
}
