//! `transform-par` — the parallel synthesis orchestrator.
//!
//! The TransForm paper reports synthesis runtimes up to its one-week
//! timeout on the Alloy/Kodkod/MiniSat stack; the sequential engine in
//! [`transform_synth`] is the same single-threaded architecture. This
//! crate distributes that engine across worker threads while reproducing
//! its output *exactly*: for any worker count, the synthesized suite is
//! byte-identical to the sequential one, and every work counter aggregates
//! losslessly.
//!
//! # Pipeline
//!
//! The paper's Fig. 7 engine factors into three phases (see
//! [`transform_synth::engine`]); this crate fuses the first two into one
//! streaming pool:
//!
//! 1. **Plan ∥ Examine** — the program space is split by *root shape*
//!    into independently enumerable partitions
//!    ([`transform_synth::programs::EnumSpace`]); runs of consecutive
//!    partitions of about 256 subtree-mass nodes are pool tasks
//!    alongside examine batches, so workers generate, canonically key,
//!    and examine programs concurrently ([`stream`]). Partitions are
//!    *admitted* strictly in ordinal order through a dedup frontier —
//!    the same first-occurrence scan the sequential planner runs — so
//!    plan indices never depend on scheduling. Each examine batch
//!    covers every axiom of the run: on the explicit backend one
//!    [`transform_synth::Examiner`] walks each program's candidates
//!    once for all of them; the [`SynthBackend::Relational`] backend
//!    examines the batch one axiom at a time, each pass's examiner
//!    owning one incremental SAT solver (`tsat` solving under
//!    assumptions) that serves every program in the batch. Batch granularity autotunes to the
//!    observed examination rate. Workers claim emitted ELT keys in a
//!    concurrent streaming dedup set ([`dedup::KeySet`]) as results
//!    stream in.
//! 2. **Merge** — per-item results are re-ordered by plan index and
//!    stitched into the suite; per-batch counters are kept and summed
//!    losslessly.
//!
//! One run serves any list of axioms ([`synthesize`], or
//! [`synthesize_streamed`] for callers that stream into their own
//! sinks): the synthesis plan is axiom-independent, so one run
//! enumerates every partition once and examines each admitted chunk
//! once for every axiom — no shared plan is materialized before workers
//! start, and every axiom's [`SuiteSink::run_done`] (the per-axiom
//! seal + push-on-seal hook) fires when the last batch retires. A
//! partition is one root (first-thread) shape of the
//! enumeration recursion; the space counts each partition's subtree
//! nodes once when it is built ([`EnumSpace::masses`]), and the
//! pipeline's task sizes, the progress ETA, the run journal and the
//! fleet's range plan all read those masses. Enumeration tasks stay
//! inside the pool: dedup order, plan indices, deadline cuts and fleet
//! ranges count partitions, and the run journal records one
//! enumerated/retired event pair per task. The sequential engine
//! ([`transform_synth::synthesize_suite`]) is the reference every
//! parallel run reproduces.
//!
//! Determinism holds because every per-item examination is a pure
//! function of the item: candidate executions are examined in a canonical
//! order rather than backend generation order, so not even shared-solver
//! learning can change which witness a program contributes.
//!
//! # Examples
//!
//! ```
//! use transform_core::spec::parse_mtm;
//! use transform_par::synthesize;
//! use transform_synth::SynthOptions;
//!
//! let mtm = parse_mtm(
//!     "mtm x86t_elt {
//!        axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
//!      }",
//! ).expect("spec parses");
//! let mut opts = SynthOptions::new(4);
//! opts.enumeration.allow_fences = false;
//! opts.enumeration.allow_rmw = false;
//! let sequential = transform_synth::synthesize_suite(&mtm, "sc_per_loc", &opts);
//! let parallel = synthesize(&mtm, &["sc_per_loc"], &opts, 4, None);
//! assert_eq!(sequential.elts.len(), parallel[0].elts.len());
//! ```

#![deny(missing_docs)]

pub mod dedup;
pub mod progress;
pub mod stream;

use std::sync::{Arc, Mutex};
use transform_core::axiom::Mtm;
use transform_synth::programs::EnumSpace;
use transform_synth::{ShardStats, Suite, SuiteRecord, SuiteStats, SynthOptions, SynthesizedElt};

pub use progress::{
    AxiomSnapshot, AxiomState, JournalEvent, JournalEventKind, ProgressSnapshot, ProgressState,
};
pub use stream::{synthesize_streamed, StreamMetrics};

/// The machine's available parallelism (the `--jobs` default).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds the enumeration space of a run: one partition per root
/// shape, whatever the worker count. `jobs` no longer shapes the space;
/// the function exists only because the frozen benchmark harness
/// (`perfbench`) calls it.
pub fn space_for(opts: &SynthOptions, _jobs: usize) -> EnumSpace {
    EnumSpace::new(&opts.enumeration)
}

/// Receives a suite's members as parallel shards finish, instead of the
/// orchestrator collecting them in memory.
///
/// The persistent suite store (`transform-store`) implements this to
/// append shard files as workers retire shards; a collecting
/// implementation reproduces the in-memory [`Suite`]. Calls arrive from
/// worker threads in completion order — implementations must be
/// thread-safe, and must not assume record indices arrive sorted. Every
/// shard of a run is reported exactly once, including shards cut short
/// by the deadline (their counters are partial, and the run's
/// [`SuiteStats::timed_out`] is set).
pub trait SuiteSink: Sync {
    /// One shard retired: its work counters and the suite members
    /// (witness-bearing plan items) it produced.
    fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>);

    /// The run finished: called exactly once per synthesis run, after
    /// the final [`SuiteSink::shard_done`], with the run's aggregated
    /// counters. The default does nothing.
    ///
    /// This is the push-on-seal hook for tiered caches: a sink that
    /// streams shards into a pending store entry learns here whether the
    /// run completed (`stats.timed_out == false`) and can arrange for
    /// the sealed artifact to be published to a remote cache tier —
    /// timed-out runs are never sealed, hence never pushed.
    fn run_done(&self, _stats: &SuiteStats) {}
}

/// A [`SuiteSink`] that collects records in memory — the sink behind
/// [`synthesize`].
struct CollectSink {
    records: Mutex<Vec<SuiteRecord>>,
}

impl CollectSink {
    fn new() -> CollectSink {
        CollectSink {
            records: Mutex::new(Vec::new()),
        }
    }

    fn into_elts(self) -> Vec<SynthesizedElt> {
        let mut records = self
            .records
            .into_inner()
            .expect("record lock is never poisoned");
        records.sort_by_key(|r| r.index);
        records.into_iter().map(|r| r.elt).collect()
    }
}

impl SuiteSink for CollectSink {
    fn shard_done(&self, _stats: ShardStats, records: Vec<SuiteRecord>) {
        self.records
            .lock()
            .expect("record lock is never poisoned")
            .extend(records);
    }
}

/// Synthesizes the per-axiom suites of `axioms` on `jobs` workers and
/// returns them in `axioms` order.
///
/// For any `jobs`, each suite (programs, order, witnesses) is
/// byte-identical to [`transform_synth::synthesize_suite`], and the
/// `executions`/`forbidden`/`minimal` counters sum to the same totals;
/// only the per-shard breakdown and wall-clock differ. One run serves
/// every axiom ([`synthesize_streamed`] into in-memory sinks): the
/// program space is enumerated once and each program examined once for
/// all of them. With a timeout, the budget covers the whole run, a cut
/// run marks every axiom timed out, and each suite's `elapsed` reports
/// the shared run's wall-clock.
///
/// `progress` observes the run as it executes (see
/// [`synthesize_streamed`]). An unobserved run on one worker takes the
/// sequential engine ([`transform_synth::engine::synthesize_axioms`]),
/// which has no pipeline to pay for.
///
/// # Panics
///
/// Panics when any axiom is not part of `mtm` or not tracked by
/// `progress`.
pub fn synthesize(
    mtm: &Mtm,
    axioms: &[&str],
    opts: &SynthOptions,
    jobs: usize,
    progress: Option<&Arc<ProgressState>>,
) -> Vec<Suite> {
    if jobs <= 1 && progress.is_none() {
        return transform_synth::engine::synthesize_axioms(mtm, axioms, opts);
    }
    let sinks: Vec<CollectSink> = axioms.iter().map(|_| CollectSink::new()).collect();
    let sink_refs: Vec<&dyn SuiteSink> = sinks.iter().map(|s| s as &dyn SuiteSink).collect();
    let (all_stats, _) = synthesize_streamed(mtm, axioms, opts, jobs, progress, None, &sink_refs);
    axioms
        .iter()
        .zip(sinks)
        .zip(all_stats)
        .map(|((axiom, sink), stats)| Suite {
            axiom: axiom.to_string(),
            elts: sink.into_elts(),
            stats,
        })
        .collect()
}

/// [`synthesize_streamed`] without observer or range. It exists only
/// because the frozen benchmark harness (`perfbench`) calls it.
pub fn synthesize_axioms_streamed_metrics(
    mtm: &Mtm,
    axioms: &[&str],
    opts: &SynthOptions,
    jobs: usize,
    sinks: &[&dyn SuiteSink],
) -> (Vec<SuiteStats>, StreamMetrics) {
    synthesize_streamed(mtm, axioms, opts, jobs, None, None, sinks)
}

/// Re-exported so callers of the parallel API can name the backend
/// without a direct `transform_synth` dependency.
pub use transform_synth::Backend as SynthBackend;

#[cfg(test)]
mod tests {
    use super::*;
    use transform_core::spec::parse_mtm;

    fn small_mtm() -> Mtm {
        parse_mtm(
            "mtm x86t_elt {
               axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
               axiom invlpg:     acyclic(fr_va | ^po | remap)
             }",
        )
        .expect("spec parses")
    }

    fn opts(bound: usize) -> SynthOptions {
        let mut o = SynthOptions::new(bound);
        o.enumeration.allow_fences = false;
        o.enumeration.allow_rmw = false;
        o
    }

    #[test]
    fn parallel_suite_matches_sequential_engine() {
        let mtm = small_mtm();
        let o = opts(4);
        let sequential = transform_synth::synthesize_suite(&mtm, "sc_per_loc", &o);
        let parallel = synthesize(&mtm, &["sc_per_loc"], &o, 4, None).remove(0);
        assert_eq!(sequential.elts.len(), parallel.elts.len());
        for (a, b) in sequential.elts.iter().zip(&parallel.elts) {
            assert_eq!(a.program, b.program);
            assert_eq!(a.witness, b.witness);
            assert_eq!(a.violated, b.violated);
        }
        assert_eq!(sequential.stats.executions, parallel.stats.executions);
        assert_eq!(sequential.stats.forbidden, parallel.stats.forbidden);
        assert_eq!(sequential.stats.minimal, parallel.stats.minimal);
        assert_eq!(sequential.stats.programs, parallel.stats.programs);
        // The parallel run actually sharded.
        assert!(parallel.stats.shards.len() > 1);
        let item_sum: usize = parallel.stats.shards.iter().map(|s| s.items).sum();
        assert_eq!(item_sum, sequential.stats.shards[0].items);
    }

    #[test]
    fn pooled_all_matches_per_axiom_suites() {
        let mtm = small_mtm();
        let o = opts(4);
        let axioms = ["sc_per_loc", "invlpg"];
        let pooled = synthesize(&mtm, &axioms, &o, 4, None);
        for (axiom, suite) in axioms.iter().zip(&pooled) {
            assert_eq!(suite.axiom, *axiom);
            let solo = synthesize(&mtm, &[axiom], &o, 4, None).remove(0);
            assert_eq!(suite.elts.len(), solo.elts.len(), "{axiom}");
            for (a, b) in suite.elts.iter().zip(&solo.elts) {
                assert_eq!(a.program, b.program, "{axiom}");
                assert_eq!(a.witness, b.witness, "{axiom}");
                assert_eq!(a.violated, b.violated, "{axiom}");
            }
            assert_eq!(suite.stats.programs, solo.stats.programs);
            assert_eq!(suite.stats.executions, solo.stats.executions);
            assert_eq!(suite.stats.forbidden, solo.stats.forbidden);
            assert_eq!(suite.stats.minimal, solo.stats.minimal);
            assert!(!suite.stats.timed_out);
        }
    }

    #[test]
    fn streamed_sink_reproduces_the_suite() {
        struct TestSink {
            records: Mutex<Vec<SuiteRecord>>,
            shards: Mutex<Vec<ShardStats>>,
            done: Mutex<Vec<SuiteStats>>,
        }
        impl SuiteSink for TestSink {
            fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>) {
                self.shards.lock().unwrap().push(stats);
                self.records.lock().unwrap().extend(records);
            }
            fn run_done(&self, stats: &SuiteStats) {
                self.done.lock().unwrap().push(stats.clone());
            }
        }
        let mtm = small_mtm();
        let o = opts(4);
        let sink = TestSink {
            records: Mutex::new(Vec::new()),
            shards: Mutex::new(Vec::new()),
            done: Mutex::new(Vec::new()),
        };
        let (mut stats, _) =
            synthesize_streamed(&mtm, &["sc_per_loc"], &o, 4, None, None, &[&sink]);
        let stats = stats.remove(0);
        let suite = synthesize(&mtm, &["sc_per_loc"], &o, 4, None).remove(0);
        let mut records = sink.records.into_inner().unwrap();
        records.sort_by_key(|r| r.index);
        assert_eq!(records.len(), suite.elts.len());
        for (r, e) in records.iter().zip(&suite.elts) {
            assert_eq!(r.elt.program, e.program);
            assert_eq!(r.elt.witness, e.witness);
            assert_eq!(r.elt.violated, e.violated);
        }
        // Record indices strictly increase after sorting (plan indices
        // are unique), and every shard was reported exactly once.
        assert!(records.windows(2).all(|w| w[0].index < w[1].index));
        assert_eq!(sink.shards.into_inner().unwrap().len(), stats.shards.len());
        assert_eq!(stats.executions, suite.stats.executions);
        assert!(!stats.timed_out);
        // The completion hook fired exactly once, with the final counters.
        let done = sink.done.into_inner().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].executions, stats.executions);
        assert!(!done[0].timed_out);
    }

    #[test]
    fn expired_deadline_cuts_the_streamed_run_cleanly() {
        let mtm = small_mtm();
        let mut o = opts(6);
        o.timeout = Some(std::time::Duration::ZERO);
        let suite = synthesize(&mtm, &["sc_per_loc"], &o, 4, None).remove(0);
        assert!(suite.stats.timed_out);
        assert!(suite.elts.is_empty());
    }

    /// The tentpole invariant: journaling is a pure side buffer.
    /// Suites from a journal-recording run are byte-identical to the
    /// sequential engine's at every worker count, and the journal
    /// itself brackets the run with start/end events.
    #[test]
    fn journaled_runs_reproduce_the_sequential_suite_at_any_jobs() {
        let mtm = small_mtm();
        let o = opts(4);
        let reference = transform_synth::synthesize_suite(&mtm, "sc_per_loc", &o);
        for jobs in [1, 2, 4] {
            let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
            let suite = synthesize(&mtm, &["sc_per_loc"], &o, jobs, Some(&progress)).remove(0);
            assert_eq!(suite.elts.len(), reference.elts.len(), "jobs {jobs}");
            for (a, b) in suite.elts.iter().zip(&reference.elts) {
                assert_eq!(a.program, b.program, "jobs {jobs}");
                assert_eq!(a.witness, b.witness, "jobs {jobs}");
                assert_eq!(a.violated, b.violated, "jobs {jobs}");
            }
            assert_eq!(suite.stats.executions, reference.stats.executions);
            let events = progress.take_journal();
            assert_eq!(
                events.first().map(|e| e.kind),
                Some(progress::JournalEventKind::RunStart),
                "jobs {jobs}"
            );
            assert_eq!(
                events.last().map(|e| e.kind),
                Some(progress::JournalEventKind::RunEnd),
                "jobs {jobs}"
            );
            // Every retired partition and batch left a span, and
            // timestamps never run backwards within... emission order is
            // per-lock-transition, so they are monotone overall.
            assert!(events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::PartitionRetired));
            assert!(events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::BatchExamined));
            assert!(events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::AxiomComplete));
            assert!(events.windows(2).all(|w| w[0].t_micros <= w[1].t_micros));
        }
    }

    /// A deadline-cut journaled run records the cut event, and the
    /// progress mirror carries the exact retired mass the manifest
    /// persists.
    #[test]
    fn journaled_deadline_cut_records_the_cut_event() {
        let mtm = small_mtm();
        let mut o = opts(6);
        o.timeout = Some(std::time::Duration::ZERO);
        let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
        let suite = synthesize(&mtm, &["sc_per_loc"], &o, 2, Some(&progress)).remove(0);
        assert!(suite.stats.timed_out);
        let snap = progress.snapshot();
        assert!(snap.cut_at_partition.is_some());
        let events = progress.take_journal();
        assert!(
            events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::Cut),
            "cut runs journal their cut point"
        );
        // The retired mass in the snapshot is the sum of the retired
        // partitions' journaled masses — exact, not estimated.
        let journaled: u64 = events
            .iter()
            .filter(|e| e.kind == progress::JournalEventKind::PartitionRetired)
            .map(|e| e.b)
            .sum();
        assert_eq!(snap.mass_retired, journaled);
    }

    /// A fused run's batches cover every axiom at once: the journal
    /// holds one axiom-less `BatchExamined` event per batch, whose items
    /// sum to the plan and whose ELT counts sum across the suites.
    #[test]
    fn fused_run_journals_one_batch_event_per_chunk_for_all_axioms() {
        let mtm = small_mtm();
        let axioms = ["sc_per_loc", "invlpg"];
        let progress = Arc::new(ProgressState::with_journal(&axioms));
        let suites = synthesize(&mtm, &axioms, &opts(4), 2, Some(&progress));
        let snap = progress.snapshot();
        let events = progress.take_journal();
        let batches: Vec<&JournalEvent> = events
            .iter()
            .filter(|e| e.kind == JournalEventKind::BatchExamined)
            .collect();
        assert_eq!(batches.len(), snap.batches);
        assert!(batches.iter().all(|e| e.axiom.is_none()));
        let items: u64 = batches.iter().map(|e| e.a).sum();
        assert_eq!(items as usize, snap.items_planned);
        let found: u64 = batches.iter().map(|e| e.b).sum();
        let elts: usize = suites.iter().map(|s| s.elts.len()).sum();
        assert_eq!(found as usize, elts);
        for (ax, suite) in snap.axioms.iter().zip(&suites) {
            assert_eq!(ax.state, AxiomState::Complete, "{}", ax.name);
            assert_eq!(ax.batches_done, snap.batches, "{}", ax.name);
            assert_eq!(ax.items_examined, snap.items_planned, "{}", ax.name);
            assert_eq!(ax.elts, suite.elts.len(), "{}", ax.name);
        }
    }

    /// All axioms of a fused run share one schedule, so a deadline cut
    /// marks every one of them cut, and each sink still hears
    /// `run_done` exactly once, with timed-out counters.
    #[test]
    fn deadline_cut_marks_every_axiom_cut() {
        struct DoneSink(Mutex<Vec<bool>>);
        impl SuiteSink for DoneSink {
            fn shard_done(&self, _stats: ShardStats, _records: Vec<SuiteRecord>) {}
            fn run_done(&self, stats: &SuiteStats) {
                self.0.lock().unwrap().push(stats.timed_out);
            }
        }
        let mtm = small_mtm();
        let axioms = ["sc_per_loc", "invlpg"];
        let mut o = opts(6);
        o.timeout = Some(std::time::Duration::ZERO);
        let sinks = [
            DoneSink(Mutex::new(Vec::new())),
            DoneSink(Mutex::new(Vec::new())),
        ];
        let sink_refs: Vec<&dyn SuiteSink> = sinks.iter().map(|s| s as &dyn SuiteSink).collect();
        let progress = Arc::new(ProgressState::new(&axioms));
        let (stats, _) =
            synthesize_streamed(&mtm, &axioms, &o, 2, Some(&progress), None, &sink_refs);
        assert!(stats.iter().all(|s| s.timed_out));
        for sink in &sinks {
            assert_eq!(*sink.0.lock().unwrap(), vec![true]);
        }
        assert!(progress
            .snapshot()
            .axioms
            .iter()
            .all(|a| a.state == AxiomState::Cut));
    }

    #[test]
    fn synthesize_all_jobs_covers_every_axiom() {
        let mtm = small_mtm();
        let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
        let suites = synthesize(&mtm, &axioms, &opts(4), 2, None);
        assert_eq!(suites.len(), 2);
        assert!(suites.iter().all(|s| !s.elts.is_empty()));
        let distinct = transform_synth::unique_union(&suites).len();
        let total: usize = suites.iter().map(|s| s.elts.len()).sum();
        assert!(distinct <= total);
    }
}
