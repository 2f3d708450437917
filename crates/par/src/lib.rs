//! `transform-par` — the parallel synthesis orchestrator.
//!
//! The TransForm paper reports synthesis runtimes up to its one-week
//! timeout on the Alloy/Kodkod/MiniSat stack; the sequential engine in
//! [`transform_synth`] is the same single-threaded architecture. This
//! crate distributes that engine across worker threads while reproducing
//! its output *exactly*: for any worker count, one included, the
//! synthesized suite is byte-identical to the sequential one, and every
//! work counter aggregates losslessly. Every run of this crate is the
//! pipeline below; the sequential engine is only the reference.
//!
//! # Pipeline
//!
//! The paper's Fig. 7 engine factors into three phases (see
//! [`transform_synth::engine`]); this crate fuses the first two into one
//! streaming pool:
//!
//! 1. **Plan ∥ Examine** — the program space is split by *root shape*
//!    into partitions that each plan their own slice of the synthesis
//!    plan ([`transform_synth::programs::EnumSpace::plan_partition`]):
//!    no canonical key occurs in two partitions, so no dedup state is
//!    shared. A worker claims the next partition, plans it, examines its
//!    plan items and retires it, so workers generate, canonically key,
//!    and examine programs concurrently ([`stream`]). Each partition's
//!    plan items are one examine batch covering every axiom of the run
//!    in one pass, with one [`transform_synth::Examiner`]: on the
//!    explicit backend it walks each program's candidates once for all
//!    of them; on the [`SynthBackend::Relational`] backend it makes one
//!    SAT query per (program, axiom), each on a solver of its own.
//!    Batches therefore never depend on scheduling.
//! 2. **Merge** — once the workers join, a prefix sum over the retired
//!    partitions' plan-item counts, in ordinal order, turns every
//!    batch's partition-local item offsets into plan indices, so plan
//!    indices never depend on scheduling; the renumbered shards go to
//!    the sinks in plan order, and their counters sum into one set per
//!    axiom.
//!
//! One run serves any list of axioms ([`synthesize`], or
//! [`synthesize_streamed`] for callers that stream into their own
//! sinks): the synthesis plan is axiom-independent, so one run
//! enumerates every partition once and examines each partition's plan
//! items once for every axiom — no shared plan is materialized before
//! workers start, and every axiom's shards reach its sink after the
//! last batch retires. A partition is one root (first-thread) shape of
//! the enumeration recursion. Plan order, deadline cuts, the progress
//! display, its ETA and run manifests count partitions, and the run
//! journal records one batch event per partition with plan items; only
//! the fleet client sizes its ranges by each partition's subtree node
//! count ([`EnumSpace::masses`]). The sequential engine
//! ([`transform_synth::synthesize_suite`]) plans the same partitions in
//! ordinal order before it examines anything, and is the reference
//! every pipeline run reproduces.
//!
//! Determinism holds because every per-item examination is a pure
//! function of the item: candidate executions are examined in a canonical
//! order rather than backend generation order, so the order in which a
//! SAT solver finds its models cannot change which witness a program
//! contributes.
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

pub mod progress;
pub mod stream;

use std::sync::{Arc, Mutex};
use transform_core::axiom::Mtm;
use transform_synth::programs::EnumSpace;
use transform_synth::{ShardStats, Suite, SuiteRecord, SuiteStats, SynthOptions, SynthesizedElt};

pub use progress::{
    AxiomSnapshot, AxiomState, JournalEvent, JournalEventKind, ProgressSnapshot, ProgressState,
};
pub use stream::{synthesize_range, synthesize_streamed, StreamMetrics};

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

/// Receives a suite's members shard by shard, instead of the
/// orchestrator collecting them in memory.
///
/// The persistent suite store (`transform-store`) implements this to
/// stage encoded records for its seal, which its caller runs once the
/// synthesis returns the run's counters; a collecting implementation
/// reproduces the in-memory [`Suite`]. Shards arrive once the run's
/// workers have joined — plan indices are only known then — in plan
/// order, from the thread that called the synthesis; implementations
/// must still be thread-safe, and must not assume record indices arrive
/// sorted. Every shard of the delivered plan is reported exactly once,
/// including shards cut short by the deadline (their counters are
/// partial, and the run's [`SuiteStats::timed_out`] is set).
pub trait SuiteSink: Sync {
    /// One shard retired: its work counters and the suite members
    /// (witness-bearing plan items) it produced.
    fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>);
}

/// A [`SuiteSink`] that collects records in memory — the sink behind
/// [`synthesize`], and a fleet worker's buffer for its range's records.
#[derive(Default)]
pub struct CollectSink {
    records: Mutex<Vec<SuiteRecord>>,
}

impl CollectSink {
    /// The collected records, sorted by plan index.
    pub fn into_records(self) -> Vec<SuiteRecord> {
        let mut records = self
            .records
            .into_inner()
            .expect("record lock is never poisoned");
        records.sort_by_key(|r| r.index);
        records
    }

    fn into_elts(self) -> Vec<SynthesizedElt> {
        self.into_records().into_iter().map(|r| r.elt).collect()
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
/// `items`/`executions`/`forbidden`/`minimal` counters are the same;
/// only the wall-clock differs. One run serves every axiom
/// ([`synthesize_streamed`] into in-memory sinks): the program space is
/// enumerated once and each program examined once for all of them.
/// With a timeout, the budget covers the whole run, a cut
/// run marks every axiom timed out, and each suite's `elapsed` reports
/// the shared run's wall-clock.
///
/// `progress` observes the run as it executes (see
/// [`synthesize_streamed`]); observed or not, on one worker or many,
/// the run is the same pipeline.
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
    let sinks: Vec<CollectSink> = axioms.iter().map(|_| CollectSink::default()).collect();
    let sink_refs: Vec<&dyn SuiteSink> = sinks.iter().map(|s| s as &dyn SuiteSink).collect();
    let (all_stats, _) = synthesize_streamed(mtm, axioms, opts, jobs, progress, &sink_refs);
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

/// [`synthesize_streamed`] without an observer. It exists only
/// because the frozen benchmark harness (`perfbench`) calls it.
pub fn synthesize_axioms_streamed_metrics(
    mtm: &Mtm,
    axioms: &[&str],
    opts: &SynthOptions,
    jobs: usize,
    sinks: &[&dyn SuiteSink],
) -> (Vec<SuiteStats>, StreamMetrics) {
    synthesize_streamed(mtm, axioms, opts, jobs, None, sinks)
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

    /// Unobserved runs, on one worker too, reproduce the sequential
    /// engine's suite and counters.
    #[test]
    fn parallel_suite_matches_sequential_engine() {
        let mtm = small_mtm();
        let o = opts(4);
        let sequential = transform_synth::synthesize_suite(&mtm, "sc_per_loc", &o);
        for jobs in [1, 2, 4] {
            let parallel = synthesize(&mtm, &["sc_per_loc"], &o, jobs, None).remove(0);
            assert_eq!(sequential.elts.len(), parallel.elts.len(), "jobs {jobs}");
            for (a, b) in sequential.elts.iter().zip(&parallel.elts) {
                assert_eq!(a.program, b.program, "jobs {jobs}");
                assert_eq!(a.witness, b.witness, "jobs {jobs}");
                assert_eq!(a.violated, b.violated, "jobs {jobs}");
            }
            let (s, p) = (&sequential.stats, &parallel.stats);
            assert_eq!(s.executions, p.executions, "jobs {jobs}");
            assert_eq!(s.forbidden, p.forbidden, "jobs {jobs}");
            assert_eq!(s.minimal, p.minimal, "jobs {jobs}");
            assert_eq!(s.programs, p.programs, "jobs {jobs}");
            assert_eq!(s.items, p.items, "jobs {jobs}");
        }
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
        }
        impl SuiteSink for TestSink {
            fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>) {
                self.shards.lock().unwrap().push(stats);
                self.records.lock().unwrap().extend(records);
            }
        }
        let mtm = small_mtm();
        let o = opts(4);
        let sink = TestSink {
            records: Mutex::new(Vec::new()),
            shards: Mutex::new(Vec::new()),
        };
        let (mut stats, metrics) =
            synthesize_streamed(&mtm, &["sc_per_loc"], &o, 4, None, &[&sink]);
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
        // are unique), every batch was reported exactly once, and the
        // returned counters are the shards' sums.
        assert!(records.windows(2).all(|w| w[0].index < w[1].index));
        let shards = sink.shards.into_inner().unwrap();
        assert_eq!(shards.len(), metrics.batches);
        let summed = SuiteStats::from_shards(stats.programs, &shards);
        assert_eq!(summed.totals(), stats.totals());
        assert_eq!(stats.executions, suite.stats.executions);
        assert!(!stats.timed_out);
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
            // Every batch left a span, and timestamps never run
            // backwards: emission order is per lock transition, so they
            // are monotone overall.
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
    /// progress mirror carries the exact retired counts the manifest
    /// persists: a zero budget cuts the run before its first partition
    /// retires, so none is retired.
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
        assert_eq!(snap.cut_at_partition, Some(0));
        assert_eq!((snap.partitions_retired, snap.programs), (0, 0));
        assert!(!events
            .iter()
            .any(|e| e.kind == progress::JournalEventKind::BatchExamined));
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
    /// marks every one of them cut and returns timed-out counters for
    /// each.
    #[test]
    fn deadline_cut_marks_every_axiom_cut() {
        let mtm = small_mtm();
        let axioms = ["sc_per_loc", "invlpg"];
        let mut o = opts(6);
        o.timeout = Some(std::time::Duration::ZERO);
        let sinks = [CollectSink::default(), CollectSink::default()];
        let sink_refs: Vec<&dyn SuiteSink> = sinks.iter().map(|s| s as &dyn SuiteSink).collect();
        let progress = Arc::new(ProgressState::new(&axioms));
        let (stats, _) = synthesize_streamed(&mtm, &axioms, &o, 2, Some(&progress), &sink_refs);
        assert_eq!(stats.len(), axioms.len());
        assert!(stats.iter().all(|s| s.timed_out));
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
