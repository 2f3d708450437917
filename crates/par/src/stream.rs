//! The fused streaming pipeline: program *generation* runs inside the
//! worker pool, not in front of it — for one axiom or for every axiom
//! of an MTM at once.
//!
//! The enumeration's root partitions ([`EnumSpace`]) are the pipeline's
//! only unit of work. A worker's task is one partition: it claims the
//! next partition of the run's range, plans it by itself
//! ([`EnumSpace::plan_partition`]), examines its plan items for every
//! axiom with one [`Examiner`], and retires it. Nothing is queued
//! between workers, so at most one partition's plan items per worker are
//! alive at once, and SAT and relational solving start while later
//! partitions are still to be generated.
//!
//! # The fused cross-axiom run
//!
//! The synthesis plan is axiom-independent (it keeps write-bearing
//! canonical first occurrences), so a multi-axiom run enumerates every
//! partition **once**, and each partition's plan items are **one**
//! examine batch covering every axiom: its [`Examiner`] examines each
//! program once for all of them (the explicit backend walks the
//! program's candidates once; the relational backend makes one SAT
//! query per axiom, each on a solver of its own). No shared plan is
//! materialized before workers start. All axioms therefore finish
//! together: after the last partition retires, every axiom's sink
//! receives its shards, and the run returns one set of counters per
//! axiom, which the store seals with the suite.
//!
//! Batches are a pure function of the space and the range: one per root
//! partition with plan items. Each batch's [`ShardStats`] reaches the
//! sinks with its records, and the returned counters are their sums, so
//! they do not depend on scheduling either.
//!
//! # Determinism
//!
//! No canonical key occurs in two root partitions, so each partition's
//! own plan is its slice of the sequential plan, and partitions need no
//! shared dedup state. Workers claim partitions in ordinal order and
//! retire them in whatever order they finish, with their records at
//! *partition-local* item offsets. Once the workers join, one prefix sum
//! over the retired partitions in ordinal order gives each its
//! plan-index base, the records are renumbered, and the shards are
//! delivered to the sinks in plan order. Plan indices, and therefore
//! every per-axiom suite, are byte-identical to the sequential engine
//! at every worker count.
//!
//! # Deadlines
//!
//! A deadline cuts the plan at partition granularity: a partition whose
//! planning saw the expiry is dropped, and no worker claims another. The
//! prefix sum runs up to the first partition that was not fully planned
//! — the cut ([`StreamMetrics::cut_at_partition`]) — so every partition
//! below it is in the plan and everything from it on is dropped, batches
//! already examined past it included. A timed-out plan is a
//! well-defined prefix of the deadline-free plan, not a
//! worker-race-dependent subset. The cut is shared by every axiom of a
//! fused run, so a cut run marks every axiom cut. Examination stays
//! best-effort after expiry, exactly like the sequential engine's
//! mid-plan stop.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use transform_core::axiom::Mtm;
use transform_synth::programs::{EnumSpace, PartitionPlan};
use transform_synth::{
    branches_co_pa, Examiner, ShardStats, SuiteRecord, SuiteStats, SynthOptions, SynthesizedElt,
};

use crate::progress::{AxiomState, JournalEventKind, ProgressSnapshot, ProgressState};
use crate::SuiteSink;

/// Scheduling facts of one streamed run — everything the pipeline knows
/// that the (format-frozen) [`SuiteStats`] cannot carry.
///
/// This is the *final snapshot* of the run's [`ProgressState`]
/// ([`StreamMetrics::from_snapshot`]): the pipeline maintains one set
/// of counters, observers sample it live, and the returned metrics are
/// its value after the last worker exits — live telemetry and the final
/// record can never disagree.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamMetrics {
    /// Axioms sharing the run (1 for a single-suite synthesis).
    pub axioms: usize,
    /// Enumeration partitions of the run (its range, for a fleet range
    /// run).
    pub partitions: usize,
    /// First partition cut by the deadline (`None`: enumeration ran to
    /// completion). Everything below it was fully planned.
    pub cut_at_partition: Option<usize>,
    /// Examine batches, one per retired root partition with plan items,
    /// each covering every axiom (a batch retired past a deadline cut
    /// stays counted here but produces no shard stats).
    pub batches: usize,
    /// Peak number of simultaneously live plan items (planned but not
    /// yet examined, or dropped). Each worker holds one partition's
    /// items at a time, so this stays within the worker count times the
    /// largest partition's plan items, not the size of the enumeration.
    ///
    /// Exact on timed-out runs too: a partition planned after the
    /// deadline struck counts at its moment of materialization.
    pub peak_live_candidates: usize,
}

impl StreamMetrics {
    /// Builds the metrics from a progress snapshot — the identity that
    /// keeps live telemetry and the final record one set of numbers.
    /// `axioms` counts the snapshot's tracked axioms; fused runs over a
    /// subset (the store's cache-miss path) overwrite it with the
    /// number actually run.
    pub fn from_snapshot(snap: &ProgressSnapshot) -> StreamMetrics {
        StreamMetrics {
            axioms: snap.axioms.len(),
            partitions: snap.partitions_total,
            cut_at_partition: snap.cut_at_partition,
            batches: snap.batches,
            peak_live_candidates: snap.peak_live_candidates,
        }
    }
}

/// One fully planned partition, kept until the workers join: its plan
/// counts and, per run axiom, its batch's counters and suite members at
/// partition-local plan indices (no batch when it has no plan items).
struct Retired {
    ordinal: usize,
    programs: usize,
    items: usize,
    stats: Vec<ShardStats>,
    records: Vec<Vec<SuiteRecord>>,
}

/// The delivered plan's totals.
struct Prefix {
    programs: usize,
    items: usize,
    /// First partition not fully planned, if any.
    cut_at: Option<usize>,
}

/// The plan the run delivers: sorts `retired` into ordinal order and
/// keeps the partitions below the first one of `range` that was not
/// fully planned (the cut).
fn prefix(retired: &mut Vec<Retired>, range: Range<usize>) -> Prefix {
    retired.sort_unstable_by_key(|r| r.ordinal);
    let kept = retired
        .iter()
        .zip(range.clone())
        .take_while(|(r, ordinal)| r.ordinal == *ordinal)
        .count();
    retired.truncate(kept);
    let cut = range.start + kept;
    Prefix {
        programs: retired.iter().map(|r| r.programs).sum(),
        items: retired.iter().map(|r| r.items).sum(),
        cut_at: (cut < range.end).then_some(cut),
    }
}

struct State {
    /// Next partition to hand out.
    next: usize,
    /// The deadline struck (a partition's planning or examination saw
    /// it): hand out nothing more.
    expired: bool,
    /// Retired partitions, in retirement order.
    retired: Vec<Retired>,
    /// Batches retired.
    batches: usize,
    /// Plan items planned and not yet examined or dropped.
    live: usize,
    peak_live: usize,
}

struct Pipeline<'s> {
    space: &'s EnumSpace,
    /// The run's partitions: a fleet range, or the whole space.
    range: Range<usize>,
    /// The run's live telemetry: published (relaxed stores) from inside
    /// every lock-held transition, sampled lock-free by observers. The
    /// final [`StreamMetrics`] is this state's last snapshot.
    progress: Arc<ProgressState>,
    /// Run-axiom index → progress slot (the observer's state may track
    /// more axioms than this run covers — cache hits, for one).
    slots: Vec<usize>,
    deadline: Option<Instant>,
    state: Mutex<State>,
}

impl<'s> Pipeline<'s> {
    /// A pipeline over the partitions `range` of `space` — a fleet
    /// range, or the whole space.
    fn new(
        space: &'s EnumSpace,
        axiom_names: &[&str],
        progress: Option<&Arc<ProgressState>>,
        deadline: Option<Instant>,
        range: Range<usize>,
    ) -> Self {
        assert!(
            range.start <= range.end && range.end <= space.partition_count(),
            "examine range {range:?} must lie within the {}-partition space",
            space.partition_count()
        );
        let progress = match progress {
            Some(p) => Arc::clone(p),
            None => Arc::new(ProgressState::new(axiom_names)),
        };
        let slots: Vec<usize> = axiom_names
            .iter()
            .map(|name| {
                progress
                    .slot_of(name)
                    .unwrap_or_else(|| panic!("progress state does not track axiom `{name}`"))
            })
            .collect();
        progress
            .partitions_total
            .store(range.len(), std::sync::atomic::Ordering::Relaxed);
        for &slot in &slots {
            progress.set_axiom_state(slot, AxiomState::Running);
        }
        Pipeline {
            space,
            progress,
            slots,
            deadline,
            state: Mutex::new(State {
                next: range.start,
                expired: false,
                retired: Vec::new(),
                batches: 0,
                live: 0,
                peak_live: 0,
            }),
            range,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pipeline lock is never poisoned")
    }

    /// Mirrors the lock-held state into the progress atomics — called
    /// at the end of every state transition, while the lock is still
    /// held, so published counters advance in the same order the state
    /// does (each one individually monotone). Relaxed stores: observers
    /// only sample, they never synchronize with the run.
    fn publish(&self, st: &State) {
        use std::sync::atomic::Ordering::Relaxed;
        let p = &self.progress;
        p.live_candidates.store(st.live, Relaxed);
        p.peak_live_candidates.store(st.peak_live, Relaxed);
        p.batches.store(st.batches, Relaxed);
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    /// The next partition to plan, in ordinal order; `None` once the
    /// range is exhausted or the deadline struck.
    fn claim(&self) -> Option<usize> {
        let mut st = self.lock();
        if st.expired || st.next == self.range.end {
            return None;
        }
        st.next += 1;
        Some(st.next - 1)
    }

    /// A claimed partition was planned: its `items` go live. When its
    /// planning saw the deadline (`cut`), the partial plan is dropped on
    /// the spot — it still counts toward the peak, since it was
    /// materialized — and the run expires. Returns whether to examine
    /// the items.
    fn planned(&self, items: usize, cut: bool) -> bool {
        let mut st = self.lock();
        st.live += items;
        st.peak_live = st.peak_live.max(st.live);
        if cut {
            st.live -= items;
            st.expired = true;
        }
        self.publish(&st);
        !cut
    }

    /// A partition retired: its batch (possibly cut short by the
    /// deadline, `cut`) was examined in `elapsed`, planning included,
    /// and its items leave the live count.
    fn retire(&self, retired: Retired, elapsed: Duration, cut: bool) {
        use std::sync::atomic::Ordering::Relaxed;
        for ((&slot, stats), records) in self.slots.iter().zip(&retired.stats).zip(&retired.records)
        {
            let ax = self.progress.axiom(slot);
            ax.batches_done.fetch_add(1, Relaxed);
            ax.items_examined.fetch_add(stats.items, Relaxed);
            ax.elts.fetch_add(records.len(), Relaxed);
        }
        let mut st = self.lock();
        st.live -= retired.items;
        if retired.items > 0 {
            st.batches += 1;
            // Items examined for every axiom (all of them, unless cut).
            let examined = retired.stats.iter().map(|s| s.items).min().unwrap_or(0);
            let found: usize = retired.records.iter().map(Vec::len).sum();
            self.progress.record(
                JournalEventKind::BatchExamined,
                None,
                examined as u64,
                found as u64,
                elapsed.as_micros() as u64,
            );
        }
        let p = &self.progress;
        p.partitions_retired.fetch_add(1, Relaxed);
        p.programs.fetch_add(retired.programs, Relaxed);
        p.items_planned.fetch_add(retired.items, Relaxed);
        // Examination hit the deadline: every axiom's suite is partial.
        st.expired |= cut;
        st.retired.push(retired);
        self.publish(&st);
    }
}

/// Everything a worker shares with its siblings for one fused run.
struct RunCtx<'r> {
    mtm: &'r Mtm,
    axioms: &'r [&'r str],
    opts: &'r SynthOptions,
    branch_co_pa: bool,
}

impl<'r> RunCtx<'r> {
    fn new(mtm: &'r Mtm, axioms: &'r [&'r str], opts: &'r SynthOptions) -> Self {
        RunCtx {
            mtm,
            axioms,
            opts,
            branch_co_pa: branches_co_pa(mtm),
        }
    }
}

/// One pool worker: claims, plans, examines and retires partitions, one
/// at a time, until the range is exhausted or the deadline struck.
fn worker(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>) {
    while let Some(ordinal) = pipeline.claim() {
        let start = Instant::now();
        let plan = pipeline.space.plan_partition(ordinal, pipeline.deadline);
        // A partition whose planning saw the expiry is partial, so it is
        // dropped and counts as cut — the plan stays a reproducible
        // prefix.
        if !pipeline.planned(plan.items.len(), pipeline.past_deadline()) {
            return;
        }
        let (retired, cut) = examine(pipeline, ctx, ordinal, plan);
        pipeline.retire(retired, start.elapsed(), cut);
    }
}

/// Examines one planned partition's items for every axiom of the run;
/// returns it retired, and whether the deadline cut its examination.
fn examine(
    pipeline: &Pipeline<'_>,
    ctx: &RunCtx<'_>,
    ordinal: usize,
    plan: PartitionPlan,
) -> (Retired, bool) {
    let mut retired = Retired {
        ordinal,
        programs: plan.programs,
        items: plan.items.len(),
        stats: Vec::new(),
        records: Vec::new(),
    };
    if plan.items.is_empty() {
        return (retired, false);
    }
    let axioms = ctx.axioms.len();
    retired.stats = vec![ShardStats::new(0); axioms];
    retired.records = vec![Vec::new(); axioms];
    let mut examiner =
        Examiner::for_axioms(ctx.mtm, ctx.axioms, ctx.opts.backend, ctx.branch_co_pa);
    for (index, program) in plan.items.into_iter().enumerate() {
        if pipeline.past_deadline() {
            return (retired, true);
        }
        for (ai, examined) in examiner.examine_axioms(&program).into_iter().enumerate() {
            retired.stats[ai].absorb(&examined);
            if let Some((witness, violated)) = examined.witness {
                retired.records[ai].push(SuiteRecord {
                    index,
                    elt: SynthesizedElt {
                        program: program.clone(),
                        witness,
                        violated,
                    },
                });
            }
        }
    }
    (retired, false)
}

/// Numbers the plan's retired partitions (in ordinal order) into plan
/// indices and hands their batches to the sinks in plan order, one
/// shard per batch. Returns each axiom's shard counters.
fn deliver(retired: Vec<Retired>, sinks: &[&dyn SuiteSink]) -> Vec<Vec<ShardStats>> {
    let mut shards = vec![Vec::new(); sinks.len()];
    let mut base = 0;
    for partition in retired {
        let per_axiom = partition.stats.into_iter().zip(partition.records);
        for (ai, (stats, mut records)) in per_axiom.enumerate() {
            for record in &mut records {
                record.index += base;
            }
            shards[ai].push(stats);
            sinks[ai].shard_done(stats, records);
        }
        base += partition.items;
    }
    shards
}

/// Runs the fused enumerate-while-examining pipeline for `axioms` (one
/// or many) on `jobs` workers and delivers the retired batches to the
/// per-axiom `sinks`. Each worker plans one partition at a time and
/// examines its plan items once for every axiom. Once the workers join,
/// the batches are numbered into plan indices and handed to the sinks
/// in plan order, one [`SuiteSink::shard_done`] per batch.
/// Returns per-axiom counters (in `axioms` order), each the sum of the
/// axiom's shards, and the run's scheduling metrics. Sorting an axiom's
/// records by [`SuiteRecord::index`] recovers its byte-identical
/// sequential suite.
///
/// `progress` receives live counters as the run advances — partitions
/// retired, programs and plan items, per-axiom batch, item and ELT
/// counts ([`crate::progress`] has the full inventory). It may track
/// more axioms than the run covers (the tiered store passes
/// its caller's state, with cache-served axioms already marked
/// [`AxiomState::Cached`]); the run binds its own axioms by name.
/// Observation is lock-free sampling and adds no synchronization to
/// the hot path; the returned [`StreamMetrics`] is the final snapshot of
/// the same state. `jobs` is only this run's local thread count and
/// never affects the output.
///
/// # Panics
///
/// Panics when any axiom is not part of `mtm` or not tracked by
/// `progress`, or `axioms` and `sinks` disagree in length.
pub fn synthesize_streamed(
    mtm: &Mtm,
    axioms: &[&str],
    opts: &SynthOptions,
    jobs: usize,
    progress: Option<&Arc<ProgressState>>,
    sinks: &[&dyn SuiteSink],
) -> (Vec<SuiteStats>, StreamMetrics) {
    let start = Instant::now();
    let space = EnumSpace::new(&opts.enumeration);
    let range = 0..space.partition_count();
    let ctx = RunCtx::new(mtm, axioms, opts);
    run(&ctx, jobs, progress, space, range, sinks, start)
}

/// [`synthesize_streamed`] without an observer, restricted to the
/// partitions `range` (ordinals of `space`) — the fleet's work unit. A
/// fleet lease builds its `space` once, checks the leased range against
/// it, and runs here.
///
/// Only the range's partitions are enumerated; their plan items are
/// numbered from 0 and [`SuiteStats::programs`] counts their programs.
/// Ranges that tile the space therefore produce records whose indices,
/// each shifted by the plan items of the ranges before it, concatenate
/// into the single-machine run, and counters that sum to it.
///
/// # Panics
///
/// As [`synthesize_streamed`], and when the range is not ordered inside
/// `[0, space.partition_count()]`.
pub fn synthesize_range(
    space: EnumSpace,
    range: Range<usize>,
    mtm: &Mtm,
    axioms: &[&str],
    opts: &SynthOptions,
    jobs: usize,
    sinks: &[&dyn SuiteSink],
) -> (Vec<SuiteStats>, StreamMetrics) {
    let ctx = RunCtx::new(mtm, axioms, opts);
    run(&ctx, jobs, None, space, range, sinks, Instant::now())
}

/// The run behind [`synthesize_streamed`] and [`synthesize_range`]; its
/// deadline counts from `start`.
fn run(
    ctx: &RunCtx<'_>,
    jobs: usize,
    progress: Option<&Arc<ProgressState>>,
    space: EnumSpace,
    range: Range<usize>,
    sinks: &[&dyn SuiteSink],
    start: Instant,
) -> (Vec<SuiteStats>, StreamMetrics) {
    let axioms = ctx.axioms;
    assert_eq!(axioms.len(), sinks.len(), "one sink per axiom");
    for axiom in axioms {
        assert!(
            ctx.mtm.axiom(axiom).is_some(),
            "axiom `{axiom}` is not part of {}",
            ctx.mtm.name()
        );
    }
    let jobs = jobs.max(1);
    let deadline = ctx.opts.timeout.map(|t| start + t);
    let pipeline = Pipeline::new(&space, axioms, progress, deadline, range);
    pipeline.progress.record(
        JournalEventKind::RunStart,
        None,
        space.partition_count() as u64,
        0,
        jobs as u64,
    );

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let pipeline = &pipeline;
            scope.spawn(move || worker(pipeline, ctx));
        }
    });

    let Pipeline {
        range,
        progress,
        slots,
        state,
        ..
    } = pipeline;
    let mut st = state.into_inner().expect("pipeline lock is never poisoned");
    // Free the space before the sinks take their shards, so what they
    // stage reuses its memory instead of stacking on top of it.
    drop(space);
    let prefix = prefix(&mut st.retired, range);
    if let Some(cut) = prefix.cut_at {
        use std::sync::atomic::Ordering::Relaxed;
        progress.cut_at_partition.store(cut, Relaxed);
        progress.record(JournalEventKind::Cut, None, cut as u64, 0, 0);
    }
    let shards = deliver(std::mem::take(&mut st.retired), sinks);
    let elapsed = start.elapsed();
    // Every axiom shares one schedule, so all finish here together:
    // complete when every partition was planned in full and examined
    // before the deadline (an empty range completes trivially), cut
    // otherwise.
    let complete = !st.expired;
    let all_stats: Vec<SuiteStats> = shards
        .iter()
        .zip(&slots)
        .map(|(shards, &slot)| {
            let mut stats = SuiteStats::from_shards(prefix.programs, shards);
            stats.elapsed = elapsed;
            stats.timed_out = !complete;
            if complete {
                progress.set_axiom_state(slot, AxiomState::Complete);
                progress.record(
                    JournalEventKind::AxiomComplete,
                    Some(slot as u32),
                    stats.items as u64,
                    0,
                    0,
                );
            } else {
                progress.set_axiom_state(slot, AxiomState::Cut);
            }
            stats
        })
        .collect();
    progress.record(
        JournalEventKind::RunEnd,
        None,
        prefix.programs as u64,
        prefix.items as u64,
        st.batches as u64,
    );
    // The returned metrics ARE the final progress snapshot — one set of
    // counters from first live sample to final record.
    let mut metrics = StreamMetrics::from_snapshot(&progress.snapshot());
    metrics.axioms = axioms.len();
    (all_stats, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_synth::programs::{EnumOptions, Program};
    use transform_synth::{plan_from_keyed, plan_key};

    fn enum_opts(bound: usize, symmetry: bool) -> EnumOptions {
        let mut o = EnumOptions::new(bound);
        o.allow_fences = false;
        o.allow_rmw = false;
        o.symmetry_reduction = symmetry;
        o
    }

    fn mtm() -> Mtm {
        transform_core::spec::parse_mtm(
            "mtm m { axiom sc_per_loc: acyclic(rf | co | fr | po_loc) }",
        )
        .expect("spec parses")
    }

    /// The whole enumeration planned in one piece: one dedup over every
    /// program of the space ([`plan_from_keyed`]).
    fn sequential_plan(eo: &EnumOptions) -> transform_synth::SynthPlan {
        let keyed = transform_synth::programs::programs(eo)
            .into_iter()
            .map(|p| {
                let key = plan_key(&p);
                (p, key)
            })
            .collect();
        plan_from_keyed(&mtm(), "sc_per_loc", keyed, false)
    }

    /// Partition plans in ordinal order are what one dedup over the
    /// whole enumeration keeps, with symmetry reduction on and off, at
    /// bounds 4–6 without and with fences and RMW. Bound 6 is the first
    /// bound where, without symmetry reduction, keys repeat inside a
    /// partition.
    #[test]
    fn partition_plans_reproduce_the_sequential_plan() {
        for bound in 4..=6 {
            for fences_rmw in [false, true] {
                for symmetry in [true, false] {
                    let mut eo = enum_opts(bound, symmetry);
                    eo.allow_fences = fences_rmw;
                    eo.allow_rmw = fences_rmw;
                    let label =
                        format!("bound {bound} fences+rmw {fences_rmw} symmetry {symmetry}");
                    let space = EnumSpace::new(&eo);
                    let plans: Vec<PartitionPlan> = (0..space.partition_count())
                        .map(|p| space.plan_partition(p, None))
                        .collect();
                    let reference = sequential_plan(&eo);
                    let programs: usize = plans.iter().map(|p| p.programs).sum();
                    assert_eq!(programs, reference.programs, "{label}");
                    let items: Vec<&Program> = plans.iter().flat_map(|p| &p.items).collect();
                    let expected: Vec<&Program> =
                        reference.items.iter().map(|i| &i.program).collect();
                    assert_eq!(items, expected, "{label}");
                }
            }
        }
    }

    /// Claims the next `n` partitions, which must continue one another.
    fn claim(pipeline: &Pipeline<'_>, n: usize) -> Vec<usize> {
        let next = pipeline.lock().next;
        let claimed: Vec<usize> = (0..n)
            .map(|_| pipeline.claim().expect("a partition to claim"))
            .collect();
        assert_eq!(
            claimed,
            (next..next + n).collect::<Vec<_>>(),
            "partitions are handed out in order"
        );
        claimed
    }

    fn items_of(space: &EnumSpace, ordinal: usize) -> usize {
        space.plan_partition(ordinal, None).items.len()
    }

    /// Plans, examines and retires partition `ordinal` the way a worker
    /// does, without a deadline.
    fn run_partition(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>, ordinal: usize) {
        let plan = pipeline.space.plan_partition(ordinal, None);
        assert!(pipeline.planned(plan.items.len(), false));
        let (retired, cut) = examine(pipeline, ctx, ordinal, plan);
        assert!(!cut);
        pipeline.retire(retired, Duration::ZERO, cut);
    }

    /// A deadline-free pipeline over the whole space.
    fn whole<'s>(
        space: &'s EnumSpace,
        axioms: &[&str],
        progress: Option<&Arc<ProgressState>>,
    ) -> Pipeline<'s> {
        Pipeline::new(space, axioms, progress, None, 0..space.partition_count())
    }

    /// The programs and plan items of the partitions below `cut`.
    fn planned_below(space: &EnumSpace, cut: usize) -> (usize, usize) {
        (0..cut)
            .map(|p| space.plan_partition(p, None))
            .fold((0, 0), |(n, i), p| (n + p.programs, i + p.items.len()))
    }

    /// A sink retaining every record with its plan index — what the
    /// store's pending entries keep — and every shard's counters, in
    /// delivery order.
    struct RecordSink {
        records: Mutex<Vec<SuiteRecord>>,
        shards: Mutex<Vec<ShardStats>>,
    }

    impl RecordSink {
        fn new() -> RecordSink {
            RecordSink {
                records: Mutex::new(Vec::new()),
                shards: Mutex::new(Vec::new()),
            }
        }

        fn take(self) -> Vec<SuiteRecord> {
            let mut records = self.records.into_inner().expect("sink lock");
            records.sort_by_key(|r| r.index);
            records
        }
    }

    impl SuiteSink for RecordSink {
        fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>) {
            self.shards.lock().expect("sink lock").push(stats);
            self.records
                .lock()
                .expect("sink lock is never poisoned")
                .extend(records);
        }
    }

    /// Out-of-order retirement with a partition cut in its planning:
    /// the delivered plan is exactly the partitions below the cut,
    /// numbered by the prefix sum, and the batches already examined past
    /// the cut are dropped.
    #[test]
    fn cuts_keep_the_plan_prefix_on_out_of_order_delivery() {
        let m = mtm();
        let eo = enum_opts(6, true);
        let space = EnumSpace::new(&eo);
        let pipeline = whole(&space, &["sc_per_loc"], None);
        let mut opts = SynthOptions::new(6);
        opts.enumeration = eo;
        let ctx = RunCtx::new(&m, &["sc_per_loc"], &opts);
        // Cut at the fourth partition with plan items, and retire one
        // partition past it.
        let cut = (0..space.partition_count())
            .filter(|&p| items_of(&space, p) > 0)
            .nth(3)
            .expect("space too small for the test");
        let claimed = claim(&pipeline, cut + 2);
        // Retire the partitions around the cut from the last to the
        // first; then the cut partition's planning sees the deadline.
        // Only the partitions below it are in the plan.
        for &p in claimed.iter().rev().filter(|&&p| p != cut) {
            run_partition(&pipeline, &ctx, p);
        }
        assert!(!pipeline.planned(items_of(&space, cut), true));
        assert_eq!(pipeline.claim(), None, "nothing is handed out after expiry");
        let mut st = pipeline.state.into_inner().expect("lock");
        assert!(st.expired);
        let prefix = prefix(&mut st.retired, pipeline.range.clone());
        assert_eq!(prefix.cut_at, Some(cut));
        assert_eq!((prefix.programs, prefix.items), planned_below(&space, cut));
        assert!(prefix.items > 0, "partitions too small for the test");
        // The plan keeps exactly the partitions below the cut, in
        // ordinal order, so the prefix sum gives each its base.
        let kept: Vec<usize> = st.retired.iter().map(|r| r.ordinal).collect();
        assert_eq!(kept, (0..cut).collect::<Vec<_>>());
        let sink = RecordSink::new();
        let shards = deliver(std::mem::take(&mut st.retired), &[&sink]);
        let examined: usize = shards[0].iter().map(|s| s.items).sum();
        assert_eq!(examined, prefix.items, "only the prefix's batches");
        let records = sink.take();
        assert!(!records.is_empty(), "partitions too small for the test");
        // The records are the sequential suite's below the prefix, at
        // its plan indices.
        let sequential = transform_synth::synthesize_suite(&m, "sc_per_loc", &opts);
        let plan = sequential_plan(&opts.enumeration);
        let expected = plan.items[..prefix.items]
            .iter()
            .filter(|item| sequential.elts.iter().any(|e| e.program == item.program));
        assert!(records
            .iter()
            .map(|r| (r.index, &r.elt.program))
            .eq(expected.map(|item| (item.index, &item.program))));
        assert_eq!(st.live, 0);
    }

    /// One batch per root partition with plan items, covering every
    /// axiom and delivered in plan order: with fences and RMW, bounds
    /// 4 / 5 / 6 have 29 / 125 / 624 partitions, of which 19 / 91 / 500
    /// have plan items, and every sink of a two-axiom run receives one
    /// shard per such partition, in ordinal order, holding its items.
    #[test]
    fn fused_pipeline_makes_one_batch_per_partition() {
        let m = transform_core::spec::parse_mtm(
            "mtm m {
               axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
               axiom invlpg:     acyclic(fr_va | ^po | remap)
             }",
        )
        .expect("spec parses");
        let axioms = ["sc_per_loc", "invlpg"];
        for (bound, partitions, batches) in [(4, 29, 19), (5, 125, 91), (6, 624, 500)] {
            let opts = SynthOptions::new(bound);
            let space = EnumSpace::new(&opts.enumeration);
            assert_eq!(space.partition_count(), partitions, "bound {bound}");
            let items: Vec<usize> = (0..partitions)
                .map(|p| items_of(&space, p))
                .filter(|&n| n > 0)
                .collect();
            assert_eq!(items.len(), batches, "bound {bound}");
            let sinks = [RecordSink::new(), RecordSink::new()];
            let sink_refs: Vec<&dyn SuiteSink> =
                sinks.iter().map(|s| s as &dyn SuiteSink).collect();
            let (_, metrics) = synthesize_streamed(&m, &axioms, &opts, 2, None, &sink_refs);
            assert_eq!(metrics.partitions, partitions, "bound {bound}");
            assert_eq!(metrics.batches, batches, "bound {bound}");
            for (axiom, sink) in axioms.iter().zip(sinks) {
                let shards = sink.shards.into_inner().expect("sink lock");
                let delivered: Vec<usize> = shards.iter().map(|s| s.items).collect();
                assert_eq!(delivered, items, "bound {bound} {axiom}");
            }
        }
    }

    /// A worker's task is one root partition: with fences and RMW,
    /// bounds 4 / 5 / 6 have 29 / 125 / 624 partitions, and the tasks of
    /// a run over any range are its partitions, claimed one at a time in
    /// ordinal order. Retired in any order, they retire exactly the
    /// range's partitions, programs and plan items — what its progress
    /// display shows — and plan it without a cut; ranges that tile the
    /// space tile the sequential plan's programs and items.
    #[test]
    fn tasks_tile_the_space_by_programs_and_items() {
        for (bound, partitions) in [(4, 29), (5, 125), (6, 624)] {
            let eo = EnumOptions::new(bound);
            let space = EnumSpace::new(&eo);
            let n = space.partition_count();
            assert_eq!(n, partitions, "bound {bound}");
            let plans: Vec<(usize, usize)> = (0..n)
                .map(|p| space.plan_partition(p, None))
                .map(|plan| (plan.programs, plan.items.len()))
                .collect();
            let planned = |range: Range<usize>| {
                plans[range]
                    .iter()
                    .fold((0, 0), |(n, i), &(p, k)| (n + p, i + k))
            };
            for range in [0..n, n / 3..n, 0..n / 2, n / 3..2 * n / 3, n / 2..n / 2] {
                let label = format!("bound {bound} {range:?}");
                let pipeline = Pipeline::new(&space, &[], None, None, range.clone());
                assert_eq!(
                    pipeline.progress.snapshot().partitions_total,
                    range.len(),
                    "{label}"
                );
                let tasks: Vec<usize> = std::iter::from_fn(|| pipeline.claim()).collect();
                assert_eq!(
                    tasks,
                    range.clone().collect::<Vec<_>>(),
                    "{label}: in order"
                );
                for &ordinal in tasks.iter().rev() {
                    let (programs, items) = plans[ordinal];
                    assert!(pipeline.planned(items, false), "{label}");
                    let retired = Retired {
                        ordinal,
                        programs,
                        items,
                        stats: Vec::new(),
                        records: Vec::new(),
                    };
                    pipeline.retire(retired, Duration::ZERO, false);
                }
                let expected = planned(range.clone());
                let snap = pipeline.progress.snapshot();
                assert_eq!(snap.partitions_retired, range.len(), "{label}");
                assert_eq!(
                    (snap.programs, snap.items_planned),
                    expected,
                    "{label}: tiles the range's programs and items"
                );
                let mut st = pipeline.state.into_inner().expect("lock");
                assert_eq!(st.live, 0, "{label}");
                let kept = prefix(&mut st.retired, range.clone());
                assert_eq!(kept.cut_at, None, "{label}");
                assert_eq!((kept.programs, kept.items), expected, "{label}");
            }
            let cuts = [0, n / 3, 2 * n / 3, n];
            let tiled = cuts
                .windows(2)
                .map(|w| planned(w[0]..w[1]))
                .fold((0, 0), |(n, i), (p, k)| (n + p, i + k));
            let reference = sequential_plan(&eo);
            assert_eq!(
                tiled,
                (reference.programs, reference.items.len()),
                "bound {bound}"
            );
        }
    }

    /// Each worker holds one partition's plan items at a time: at bound
    /// 6 with fences and RMW, whose largest partition has 92 plan items,
    /// peak live candidates stay within the worker count times 92.
    #[test]
    fn peak_live_candidates_stay_within_one_partition_per_worker() {
        let m = mtm();
        let opts = SynthOptions::new(6);
        let space = EnumSpace::new(&opts.enumeration);
        let largest = (0..space.partition_count())
            .map(|p| items_of(&space, p))
            .max();
        assert_eq!(largest, Some(92), "the largest bound-6 partition");
        for jobs in [1, 2, 4] {
            let sink = RecordSink::new();
            let (_, metrics) =
                synthesize_streamed(&m, &["sc_per_loc"], &opts, jobs, None, &[&sink]);
            let peak = metrics.peak_live_candidates;
            assert!(
                (92..=jobs * 92).contains(&peak),
                "jobs {jobs}: peak live {peak} outside [92, {}]",
                jobs * 92
            );
        }
    }

    /// Exact live accounting around a deadline cut: (a) a partition
    /// planned after expiry counts toward the peak — it was
    /// materialized — but is dropped on the spot, and (b) no further
    /// partition is handed out, while the partitions in flight leave the
    /// live count as they retire, so `live` drains to exactly zero.
    #[test]
    fn deadline_cut_keeps_live_accounting_exact() {
        let m = mtm();
        let opts = SynthOptions::new(6);
        let space = EnumSpace::new(&opts.enumeration);
        let pipeline = whole(&space, &["sc_per_loc"], None);
        let ctx = RunCtx::new(&m, &["sc_per_loc"], &opts);
        let claimed = claim(&pipeline, 5);
        let plans: Vec<PartitionPlan> = claimed
            .iter()
            .map(|&p| space.plan_partition(p, None))
            .collect();
        let queued = plans[0].items.len() + plans[1].items.len();
        let late = plans[4].items.len();
        assert!(queued > 0 && late > 0, "partitions too small for the test");
        // Partitions 0 and 1 are planned: their items go live while
        // their workers examine them.
        assert!(pipeline.planned(plans[0].items.len(), false));
        assert!(pipeline.planned(plans[1].items.len(), false));
        assert_eq!(pipeline.lock().live, queued);
        // Partition 2's planning sees the deadline: its partial plan is
        // dropped on the spot, and nothing more is handed out.
        assert!(!pipeline.planned(plans[2].items.len(), true));
        {
            let st = pipeline.lock();
            assert!(st.expired);
            assert_eq!(st.live, queued, "only the partitions in flight stay live");
        }
        assert_eq!(pipeline.claim(), None, "nothing is handed out after expiry");
        // Partition 4 lands after expiry: its items are dropped, but
        // they were materialized — the peak must include them.
        assert!(!pipeline.planned(late, true));
        // The partitions in flight retire; their items leave the live
        // count.
        for (&ordinal, plan) in claimed.iter().zip(plans).take(2) {
            let (retired, cut) = examine(&pipeline, &ctx, ordinal, plan);
            pipeline.retire(retired, Duration::ZERO, cut);
        }
        let mut st = pipeline.state.into_inner().expect("lock");
        assert_eq!(st.live, 0);
        assert!(
            st.peak_live >= queued.max(late),
            "peak {} must cover both the in-flight ({queued}) and the \
             discarded ({late}) materializations",
            st.peak_live
        );
        assert_eq!(
            prefix(&mut st.retired, pipeline.range.clone()).cut_at,
            Some(claimed[2])
        );
        // The progress mirror agrees with the final state.
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.peak_live_candidates, st.peak_live);
        assert_eq!(snap.live_candidates, 0);
    }

    /// A deadline inside a worker's task, while it plans one partition:
    /// the plan is cut at that partition, and exactly the prefix below
    /// it is planned, with its programs and plan items retired, one
    /// batch event per batch and exact live accounting.
    #[test]
    fn deadline_inside_a_task_admits_exactly_its_prefix() {
        let m = mtm();
        let opts = SynthOptions::new(6);
        let space = EnumSpace::new(&opts.enumeration);
        let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
        let pipeline = whole(&space, &["sc_per_loc"], Some(&progress));
        let ctx = RunCtx::new(&m, &["sc_per_loc"], &opts);
        let cut = (space.partition_count() / 2..)
            .find(|&p| items_of(&space, p) > 1)
            .expect("a partition of two plan items");
        claim(&pipeline, cut + 1);
        for p in 0..cut {
            run_partition(&pipeline, &ctx, p);
        }
        // The cut partition's worker planned half its items before the
        // deadline struck.
        let partial = items_of(&space, cut) / 2;
        let (peak_before, live_before) = {
            let st = pipeline.lock();
            (st.peak_live, st.live)
        };
        assert!(!pipeline.planned(partial, true));

        let mut st = pipeline.state.into_inner().expect("lock");
        assert!(st.expired);
        let planned = prefix(&mut st.retired, pipeline.range.clone());
        assert_eq!(planned.cut_at, Some(cut));
        assert_eq!(
            (planned.programs, planned.items),
            planned_below(&space, cut)
        );
        assert_eq!(st.live, 0, "the dropped plan left the live count");
        assert_eq!(st.peak_live, peak_before.max(live_before + partial));
        let snap = progress.snapshot();
        assert_eq!(snap.partitions_retired, cut);
        assert_eq!(
            (snap.programs, snap.items_planned),
            planned_below(&space, cut)
        );
        assert_eq!(snap.live_candidates, 0);
        let journal = progress.take_journal();
        let batches = journal
            .iter()
            .filter(|e| e.kind == JournalEventKind::BatchExamined)
            .count();
        let with_items = (0..cut).filter(|&p| items_of(&space, p) > 0).count();
        assert_eq!((batches, snap.batches), (with_items, with_items));
    }

    /// The progress mirror tracks each worker's task: partitions
    /// retired, programs and plan items all advance with each retired
    /// partition, in whatever order partitions finish, and the partition
    /// total is the space's.
    #[test]
    fn progress_mirrors_task_retirement() {
        let m = mtm();
        let eo = enum_opts(4, true);
        let space = EnumSpace::new(&eo);
        let mut opts = SynthOptions::new(4);
        opts.enumeration = eo;
        let pipeline = whole(&space, &["sc_per_loc"], None);
        let ctx = RunCtx::new(&m, &["sc_per_loc"], &opts);
        let count = space.partition_count();
        assert_eq!(pipeline.progress.snapshot().partitions_total, count);
        claim(&pipeline, count);
        let (mut partitions, mut programs, mut items) = (0, 0, 0);
        for p in (0..count).rev() {
            run_partition(&pipeline, &ctx, p);
            let plan = space.plan_partition(p, None);
            partitions += 1;
            programs += plan.programs;
            items += plan.items.len();
            let snap = pipeline.progress.snapshot();
            assert_eq!(snap.partitions_retired, partitions);
            assert_eq!((snap.programs, snap.items_planned), (programs, items));
        }
        let mut st = pipeline.state.into_inner().expect("lock");
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.partitions_retired, space.partition_count());
        assert_eq!(
            (snap.programs, snap.items_planned),
            planned_below(&space, count)
        );
        let plan = prefix(&mut st.retired, pipeline.range.clone());
        assert_eq!(snap.programs, plan.programs);
        assert_eq!(snap.items_planned, plan.items);
        assert_eq!(snap.batches, st.batches);
        assert_eq!(snap.enumeration_eta(), Some(Duration::ZERO));
    }

    fn synth_opts(bound: usize) -> SynthOptions {
        let mut o = SynthOptions::new(bound);
        o.enumeration.allow_fences = false;
        o.enumeration.allow_rmw = false;
        o
    }

    fn run_cold(m: &Mtm, bound: usize, jobs: usize) -> (Vec<SuiteRecord>, SuiteStats) {
        let opts = synth_opts(bound);
        let sink = RecordSink::new();
        let (mut stats, _) = synthesize_streamed(m, &["sc_per_loc"], &opts, jobs, None, &[&sink]);
        (sink.take(), stats.remove(0))
    }

    /// The fleet invariant at the pipeline level: partition ranges that
    /// tile the space produce range-local records which, each shifted by
    /// the plan items of the ranges before it, concatenate into exactly
    /// the single-machine run — same records at the same global plan
    /// indices, semantic counters and per-range program counts summing
    /// to the full totals — at several worker counts and split points.
    #[test]
    fn range_runs_tile_into_the_full_suite() {
        let m = mtm();
        let opts = synth_opts(4);
        let n = EnumSpace::new(&opts.enumeration).partition_count();
        for jobs in [1usize, 2, 3] {
            let (full_records, full_stats) = run_cold(&m, 4, jobs);
            for split in [1, n / 3, n / 2, n - 1] {
                let split = split.clamp(1, n - 1);
                let mut records = Vec::new();
                let mut executions = 0usize;
                let mut forbidden = 0usize;
                let mut minimal = 0usize;
                let mut programs = 0usize;
                let mut base = 0usize;
                for range in [0..split, split..n] {
                    let sink = RecordSink::new();
                    let (mut stats, _) = synthesize_range(
                        EnumSpace::new(&opts.enumeration),
                        range,
                        &m,
                        &["sc_per_loc"],
                        &opts,
                        jobs,
                        &[&sink],
                    );
                    let stats = stats.remove(0);
                    assert!(!stats.timed_out, "jobs {jobs} split {split}");
                    executions += stats.executions;
                    forbidden += stats.forbidden;
                    minimal += stats.minimal;
                    programs += stats.programs;
                    let items = stats.items;
                    records.extend(sink.take().into_iter().map(|mut r| {
                        assert!(r.index < items, "jobs {jobs} split {split}: range-local");
                        r.index += base;
                        r
                    }));
                    base += items;
                }
                assert_eq!(
                    records.len(),
                    full_records.len(),
                    "jobs {jobs} split {split}"
                );
                for (r, f) in records.iter().zip(&full_records) {
                    assert_eq!(r.index, f.index, "jobs {jobs} split {split}");
                    assert_eq!(r.elt.program, f.elt.program, "jobs {jobs} split {split}");
                    assert_eq!(r.elt.violated, f.elt.violated, "jobs {jobs} split {split}");
                }
                assert_eq!(
                    executions, full_stats.executions,
                    "jobs {jobs} split {split}"
                );
                assert_eq!(forbidden, full_stats.forbidden, "jobs {jobs} split {split}");
                assert_eq!(minimal, full_stats.minimal, "jobs {jobs} split {split}");
                assert_eq!(programs, full_stats.programs, "jobs {jobs} split {split}");
            }
        }
    }

    /// A deadline that strikes mid-run keeps exactly the plan prefix
    /// below the cut: the run counts the programs of the partitions
    /// below it, and every record it delivers is the full run's record
    /// at the same plan index, inside the prefix.
    #[test]
    fn mid_run_deadline_keeps_exactly_the_plan_prefix() {
        let m = mtm();
        let opts = SynthOptions::new(6);
        let full = RecordSink::new();
        synthesize_streamed(&m, &["sc_per_loc"], &opts, 2, None, &[&full]);
        let full = full.take();
        let space = EnumSpace::new(&opts.enumeration);
        // Shrink the budget until it strikes after the first partitions.
        for millis in [400, 200, 100, 50, 25, 12, 6, 3] {
            let mut cut_opts = opts.clone();
            cut_opts.timeout = Some(Duration::from_millis(millis));
            let sink = RecordSink::new();
            let (mut stats, metrics) =
                synthesize_streamed(&m, &["sc_per_loc"], &cut_opts, 2, None, &[&sink]);
            let stats = stats.remove(0);
            let Some(cut) = metrics.cut_at_partition.filter(|&cut| cut > 0) else {
                continue;
            };
            assert!(stats.timed_out);
            let (programs, items) = planned_below(&space, cut);
            assert_eq!(stats.programs, programs);
            let examined = stats.items;
            assert!(
                examined <= items,
                "{examined} items examined past the {items}-item prefix"
            );
            for record in sink.take() {
                assert!(
                    record.index < items,
                    "record {} past the prefix",
                    record.index
                );
                let reference = full
                    .iter()
                    .find(|r| r.index == record.index)
                    .expect("a record of the full run");
                assert_eq!(record.elt.program, reference.elt.program);
                assert_eq!(record.elt.violated, reference.elt.violated);
            }
            return;
        }
        panic!("no budget cut the run after its first partition");
    }

    /// A deadline-cut run keeps its journal invariants: one
    /// `BatchExamined` event per batch the progress mirror counts, and a
    /// recorded cut matches `cut_at_partition`.
    #[test]
    fn deadline_cut_run_keeps_journal_invariants() {
        let m = mtm();
        let mut opts = synth_opts(4);
        opts.timeout = Some(Duration::from_millis(1));
        let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
        let sink = RecordSink::new();
        let (stats, metrics) =
            synthesize_streamed(&m, &["sc_per_loc"], &opts, 2, Some(&progress), &[&sink]);
        let journal = progress.take_journal();
        let snap = progress.snapshot();
        let batches = journal
            .iter()
            .filter(|e| e.kind == JournalEventKind::BatchExamined)
            .count();
        assert_eq!(snap.batches, batches);
        if let Some(cut) = metrics.cut_at_partition {
            assert!(stats[0].timed_out);
            let cuts: Vec<u64> = journal
                .iter()
                .filter(|e| e.kind == JournalEventKind::Cut)
                .map(|e| e.a)
                .collect();
            assert_eq!(cuts, vec![cut as u64]);
        }
    }

    /// A journaled bound-6 run with fences and RMW opens with a
    /// `RunStart` of its 624 partitions and 2 workers, and records one
    /// `BatchExamined` event per batch (500); the batch events' items
    /// sum to the plan, and every partition retires.
    #[test]
    fn journaled_run_records_one_batch_event_per_batch() {
        let m = mtm();
        let opts = SynthOptions::new(6);
        let space = EnumSpace::new(&opts.enumeration);
        let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
        let sink = RecordSink::new();
        let (stats, metrics) =
            synthesize_streamed(&m, &["sc_per_loc"], &opts, 2, Some(&progress), &[&sink]);
        assert!(!stats[0].timed_out);
        assert_eq!(metrics.partitions, space.partition_count());
        assert_eq!(metrics.batches, 500);
        let journal = progress.take_journal();
        let start = journal.first().expect("a run start");
        assert_eq!(
            (start.kind, start.a, start.b, start.c),
            (JournalEventKind::RunStart, 624, 0, 2)
        );
        let of_kind = |kind| journal.iter().filter(move |e| e.kind == kind);
        assert_eq!(of_kind(JournalEventKind::BatchExamined).count(), 500);
        let items: u64 = of_kind(JournalEventKind::BatchExamined).map(|e| e.a).sum();
        assert_eq!(items as usize, stats[0].items);
        assert_eq!(progress.snapshot().partitions_retired, 624);
    }
}
