//! The telemetry layer's contract: progress counters are monotone over
//! a live run, the final snapshot agrees with the returned
//! [`StreamMetrics`], and observing a run never changes its output.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use transform_par::{
    synthesize, synthesize_streamed, AxiomState, ProgressSnapshot, ProgressState, SuiteSink,
};
use transform_synth::{ShardStats, Suite, SuiteRecord, SynthOptions};
use transform_x86::x86t_elt;

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

fn opts(bound: usize) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

/// Every counter that must never move backwards between two samples.
fn assert_monotone(prev: &ProgressSnapshot, next: &ProgressSnapshot) {
    assert!(next.partitions_retired >= prev.partitions_retired);
    assert!(next.mass_retired >= prev.mass_retired);
    assert!(next.programs >= prev.programs);
    assert!(next.items_planned >= prev.items_planned);
    assert!(next.peak_live_candidates >= prev.peak_live_candidates);
    assert!(next.batches >= prev.batches);
    assert!(next.partitions_total >= prev.partitions_total);
    assert!(next.mass_total >= prev.mass_total);
    for (p, n) in prev.axioms.iter().zip(&next.axioms) {
        assert_eq!(p.name, n.name);
        assert!(n.batches_done >= p.batches_done, "{}", n.name);
        assert!(n.items_examined >= p.items_examined, "{}", n.name);
        assert!(n.elts >= p.elts, "{}", n.name);
    }
}

struct NullSink;
impl SuiteSink for NullSink {
    fn shard_done(&self, _stats: ShardStats, _records: Vec<SuiteRecord>) {}
}

/// A sampler thread hammers `snapshot()` while the fused run executes:
/// every sampled counter is monotone, and the run's own output is
/// untouched by the observation.
#[test]
fn counters_are_monotone_under_concurrent_sampling() {
    let mtm = x86t_elt();
    let o = opts(4);
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let progress = Arc::new(ProgressState::new(&axioms));
    let stop = Arc::new(AtomicBool::new(false));
    let samples = Arc::new(Mutex::new(Vec::new()));
    let sampler = {
        let progress = Arc::clone(&progress);
        let stop = Arc::clone(&stop);
        let samples = Arc::clone(&samples);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                samples.lock().unwrap().push(progress.snapshot());
                std::thread::yield_now();
            }
        })
    };
    let sinks: Vec<NullSink> = axioms.iter().map(|_| NullSink).collect();
    let sink_refs: Vec<&dyn SuiteSink> = sinks.iter().map(|s| s as &dyn SuiteSink).collect();
    let (stats, metrics) =
        synthesize_streamed(&mtm, &axioms, &o, 4, Some(&progress), None, &sink_refs);
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread");

    let mut samples = std::mem::take(&mut *samples.lock().unwrap());
    samples.push(progress.snapshot());
    assert!(samples.len() >= 2, "sampler never ran");
    for pair in samples.windows(2) {
        assert_monotone(&pair[0], &pair[1]);
    }

    // The final snapshot IS the returned metrics.
    let last = samples.last().unwrap();
    assert_eq!(metrics.axioms, axioms.len());
    assert_eq!(metrics.partitions, last.partitions_total);
    assert_eq!(metrics.cut_at_partition, last.cut_at_partition);
    assert_eq!(metrics.batches, last.batches);
    assert_eq!(metrics.peak_live_candidates, last.peak_live_candidates);
    assert_eq!(metrics.final_batch_size, last.final_batch_size);

    // And the run itself settled: all mass retired, every axiom
    // complete, per-axiom item counts equal to the examined totals.
    assert_eq!(last.partitions_retired, last.partitions_total);
    assert_eq!(last.mass_retired, last.mass_total);
    assert_eq!(last.live_candidates, 0);
    assert_eq!(last.frontier_depth, 0);
    for (ax, st) in last.axioms.iter().zip(&stats) {
        assert_eq!(ax.state, AxiomState::Complete, "{}", ax.name);
        let items: usize = st.shards.iter().map(|s| s.items).sum();
        assert_eq!(ax.items_examined, items, "{}", ax.name);
        assert_eq!(ax.batches_done, st.shards.len(), "{}", ax.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Observation changes nothing: at any worker count, the observed
    /// run's suites are byte-identical to the unobserved ones, and the
    /// final snapshot's ELT counts match the suites.
    #[test]
    fn observed_runs_are_byte_identical(jobs in 1usize..5) {
        let mtm = x86t_elt();
        let o = opts(4);
        let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
        let progress = Arc::new(ProgressState::new(&axioms));
        let observed = synthesize(&mtm, &axioms, &o, jobs, Some(&progress));
        let plain = synthesize(&mtm, &axioms, &o, jobs, None);
        prop_assert_eq!(observed.len(), plain.len());
        for (suite, other) in observed.iter().zip(&plain) {
            prop_assert_eq!(fingerprint(suite), fingerprint(other), "{}", &suite.axiom);
        }
        let snap = progress.snapshot();
        for (ax, suite) in snap.axioms.iter().zip(&observed) {
            prop_assert_eq!(ax.elts, suite.elts.len(), "{}", &ax.name);
            prop_assert_eq!(ax.state, AxiomState::Complete, "{}", &ax.name);
        }
    }

    /// Single-axiom observed synthesis equals the sequential engine —
    /// including at jobs = 1, where the observed path still runs the
    /// streamed pipeline.
    #[test]
    fn observed_single_suite_matches_sequential(jobs in 1usize..5) {
        let mtm = x86t_elt();
        let o = opts(4);
        let progress = Arc::new(ProgressState::new(&["sc_per_loc"]));
        let observed =
            synthesize(&mtm, &["sc_per_loc"], &o, jobs, Some(&progress)).remove(0);
        let sequential = synthesize(&mtm, &["sc_per_loc"], &o, 1, None).remove(0);
        prop_assert_eq!(fingerprint(&observed), fingerprint(&sequential));
        prop_assert!(!observed.elts.is_empty());
    }
}
