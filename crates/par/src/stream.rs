//! The fused streaming pipeline: program *generation* runs inside the
//! work-stealing pool, not in front of it — for one axiom or for every
//! axiom of an MTM at once.
//!
//! The two-phase orchestrator (plan everything, then examine) keeps the
//! pool idle behind a single-threaded, memory-hungry enumeration pass.
//! Here the enumeration's root partitions ([`EnumSpace`]) are planned
//! by pool tasks: workers alternate between *enumerating* a task
//! (planning each of its partitions by itself,
//! [`EnumSpace::plan_partition`]) and *examining* a batch of plan
//! items, so SAT and relational solving start while later partitions
//! are still being generated.
//!
//! # Enumeration tasks
//!
//! Root partitions are small: bound 8 has 18,238 of them, of two
//! nodes each on average. So one enumeration task is a run of
//! consecutive partitions `[lo, hi)` whose subtree masses
//! ([`EnumSpace::masses`]) sum to about 256 nodes; a heavier partition
//! is a task by itself. A task is enumerated by one worker,
//! queued in one lock transition and journaled as one event pair.
//! Tasks are a pure function of the space and the run's range, so
//! partition ordinals stay the unit everywhere outside the pool: plan
//! order, deadline cuts, retired mass and fleet ranges.
//!
//! # The fused cross-axiom run
//!
//! The synthesis plan is axiom-independent (it keeps write-bearing
//! canonical first occurrences), so a multi-axiom run enumerates every
//! partition **once**, and each partition's plan items become **one**
//! examine batch covering every axiom: its [`Examiner`] examines each
//! program once for all of them (the explicit backend walks the
//! program's candidates once; the relational backend makes one SAT
//! query per axiom, each on a solver of its own). No shared plan is
//! materialized before workers start. All axioms therefore finish
//! together: after the last batch retires, every axiom's sink receives
//! its shards, and the run returns one set of counters per axiom, which
//! the store seals with the suite.
//!
//! Batches are, like tasks, a pure function of the space and the range:
//! one per root partition with plan items. Each batch's [`ShardStats`]
//! reaches the sinks with its records, and the returned counters are
//! their sums, so they do not depend on scheduling either.
//!
//! # Determinism
//!
//! No canonical key occurs in two root partitions, so each partition's
//! own plan is its slice of the sequential plan, and partitions need no
//! shared dedup state. Workers take tasks in ordinal order and queue a
//! finished task's items as examine batches at once; every batch
//! reports its records at *task-local* item offsets. Once the workers
//! join, one prefix sum over the tasks' item counts gives each task its
//! plan-index base, the records are renumbered, and the shards are
//! delivered to the sinks in plan order. Plan indices, and therefore
//! every per-axiom suite, are byte-identical to the sequential engine
//! at every worker count.
//!
//! # Deadlines
//!
//! A deadline cuts the plan at partition granularity: a worker stops
//! its task before the first partition whose enumeration saw the
//! expiry. The prefix sum runs up to the first partition that was not
//! fully planned — the cut ([`StreamMetrics::cut_at_partition`]) — so
//! every partition below it is in the plan and everything from it on is
//! dropped, batches already examined past it included. A timed-out
//! plan is a well-defined prefix of the deadline-free plan, not a
//! worker-race-dependent subset. The cut is shared by every axiom of a
//! fused run, so a cut run marks every axiom cut. Examination stays
//! best-effort after expiry, exactly like the sequential engine's
//! mid-plan stop.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use transform_core::axiom::Mtm;
use transform_synth::programs::{EnumSpace, PartitionPlan};
use transform_synth::{
    branches_co_pa, Examiner, ShardStats, SuiteRecord, SuiteStats, SynthOptions, SynthesizedElt,
    WorkItem,
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
    /// Examine batches created, one per root partition with plan items
    /// and each covering every axiom (a deadline cut abandons queued
    /// batches, which stay counted here but produce no shard stats).
    pub batches: usize,
    /// Peak number of simultaneously queued plan items (planned but not
    /// yet examined, or dropped). Examination has pop priority, so this
    /// stays near the worker count times the largest task's items, not
    /// the size of the enumeration.
    ///
    /// Exact on timed-out runs too: a task planned after the deadline
    /// struck is counted at its moment of materialization, and the
    /// abandoned queue leaves the live count the moment it is dropped.
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

/// One root partition's plan items, examined once for every axiom of
/// the run. Item indices are offsets inside the batch's task.
struct Batch {
    task: usize,
    items: Vec<WorkItem>,
}

/// One retired batch, kept until the workers join: per run axiom, its
/// counters and its suite members at task-local plan indices.
struct Outcome {
    task: usize,
    /// Task-local index of the batch's first item.
    first: usize,
    stats: Vec<ShardStats>,
    records: Vec<Vec<SuiteRecord>>,
}

/// Subtree mass (shape-combination nodes, [`EnumSpace::masses`]) one
/// enumeration task gathers: consecutive root partitions join a task
/// until their masses reach it. Most root partitions are a node or two;
/// grouping them keeps the pipeline's lock transitions and journal
/// events proportional to the enumeration's work rather than to the
/// number of root shapes.
const TASK_MASS: u64 = 256;

/// The run's enumeration tasks: `range` cut into runs of consecutive
/// partitions that join while the task's summed mass is under
/// [`TASK_MASS`], so a partition heavier than that starts a task of its
/// own. Tasks are a pure function of the space and the range, never of
/// scheduling.
fn tasks(masses: &[u64], range: Range<usize>) -> Vec<Range<usize>> {
    let mut tasks = Vec::new();
    let mut lo = range.start;
    while lo < range.end {
        let mut hi = lo;
        let mut mass = 0u64;
        while hi < range.end && mass < TASK_MASS {
            mass = mass.saturating_add(masses[hi]);
            hi += 1;
        }
        tasks.push(lo..hi);
        lo = hi;
    }
    tasks
}

/// The summed mass of some partitions, saturating like
/// [`EnumSpace::total_mass`].
fn mass_of(masses: &[u64]) -> u64 {
    masses.iter().fold(0u64, |a, &m| a.saturating_add(m))
}

enum Task {
    /// Plan the partitions of task `n`, in order.
    Enumerate(usize),
    Examine(Batch),
}

/// What one task planned: the partitions its worker finished before
/// seeing the deadline (fewer than the task's when it was cut), their
/// programs and their plan items.
#[derive(Clone, Copy)]
struct Planned {
    partitions: usize,
    programs: usize,
    items: usize,
}

/// The delivered plan: the tasks below the cut, each with its
/// plan-index base.
struct Prefix {
    /// Plan-index base of each task in the plan, by task number.
    bases: Vec<usize>,
    programs: usize,
    items: usize,
    /// First partition not fully planned, if any.
    cut_at: Option<usize>,
}

struct State {
    /// Next task to hand out.
    next_task: usize,
    /// Tasks handed out but not yet resolved.
    enumerating: usize,
    /// What each resolved task planned, by task number.
    planned: Vec<Option<Planned>>,
    /// The deadline struck (a task came back short or examination
    /// stopped): hand out nothing more and let workers exit.
    expired: bool,
    exam: VecDeque<Batch>,
    /// Batches created.
    batches: usize,
    /// Retired batches, in retirement order.
    outcomes: Vec<Outcome>,
    /// Plan items queued and not yet examined or dropped: a batch's
    /// items leave when it retires or is abandoned.
    live: usize,
    peak_live: usize,
}

impl State {
    /// The plan the run delivers: a prefix sum over the tasks' item
    /// counts, up to the first partition that was not fully planned.
    fn prefix(&self, tasks: &[Range<usize>]) -> Prefix {
        let mut prefix = Prefix {
            bases: Vec::with_capacity(tasks.len()),
            programs: 0,
            items: 0,
            cut_at: None,
        };
        for (task, planned) in tasks.iter().zip(&self.planned) {
            let Some(planned) = planned else {
                prefix.cut_at = Some(task.start);
                break;
            };
            prefix.bases.push(prefix.items);
            prefix.programs += planned.programs;
            prefix.items += planned.items;
            if planned.partitions < task.len() {
                prefix.cut_at = Some(task.start + planned.partitions);
                break;
            }
        }
        prefix
    }
}

struct Pipeline<'s> {
    space: &'s EnumSpace,
    /// The run's enumeration tasks ([`tasks`]).
    tasks: Vec<Range<usize>>,
    /// The run's live telemetry: published (relaxed stores) from inside
    /// every lock-held transition, sampled lock-free by observers. The
    /// final [`StreamMetrics`] is this state's last snapshot.
    progress: Arc<ProgressState>,
    /// Run-axiom index → progress slot (the observer's state may track
    /// more axioms than this run covers — cache hits, for one).
    slots: Vec<usize>,
    deadline: Option<Instant>,
    state: Mutex<State>,
    cv: Condvar,
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
        use std::sync::atomic::Ordering::Relaxed;
        progress.partitions_total.store(range.len(), Relaxed);
        progress
            .mass_total
            .store(mass_of(&space.masses()[range.clone()]), Relaxed);
        for &slot in &slots {
            progress.set_axiom_state(slot, AxiomState::Running);
        }
        let tasks = tasks(space.masses(), range);
        Pipeline {
            space,
            progress,
            slots,
            deadline,
            state: Mutex::new(State {
                next_task: 0,
                enumerating: 0,
                planned: vec![None; tasks.len()],
                expired: false,
                exam: VecDeque::new(),
                batches: 0,
                outcomes: Vec::new(),
                live: 0,
                peak_live: 0,
            }),
            tasks,
            cv: Condvar::new(),
        }
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

    /// The next unit of work, examination first (it frees live
    /// candidates; enumeration creates them), then the next task in
    /// ordinal order. `None` once nothing can produce further work.
    fn next_task(&self) -> Option<Task> {
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        loop {
            if let Some(batch) = st.exam.pop_front() {
                return Some(Task::Examine(batch));
            }
            if !st.expired && st.next_task < self.tasks.len() {
                st.next_task += 1;
                st.enumerating += 1;
                return Some(Task::Enumerate(st.next_task - 1));
            }
            if st.expired || st.enumerating == 0 {
                return None;
            }
            st = self.cv.wait(st).expect("pipeline lock is never poisoned");
        }
    }

    /// Task `n`'s outcome: the plan of each of its partitions its worker
    /// finished before seeing the deadline, in order. A short list means
    /// the deadline struck inside the task. `elapsed` is the task's
    /// enumeration time.
    fn resolve(&self, n: usize, parts: Vec<PartitionPlan>, elapsed: Duration) {
        let task = &self.tasks[n];
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        st.enumerating -= 1;
        let planned = Planned {
            partitions: parts.len(),
            programs: parts.iter().map(|p| p.programs).sum(),
            items: parts.iter().map(|p| p.items.len()).sum(),
        };
        st.planned[n] = Some(planned);
        if planned.partitions > 0 {
            let mass = mass_of(&self.space.masses()[task.start..task.start + planned.partitions]);
            self.progress.record(
                JournalEventKind::PartitionEnumerated,
                None,
                task.start as u64,
                planned.programs as u64,
                elapsed.as_micros() as u64,
            );
            self.progress.record(
                JournalEventKind::PartitionRetired,
                None,
                task.start as u64,
                mass,
                planned.partitions as u64,
            );
            use std::sync::atomic::Ordering::Relaxed;
            let p = &self.progress;
            p.partitions_retired.fetch_add(planned.partitions, Relaxed);
            p.mass_retired.fetch_add(mass, Relaxed);
            p.programs.fetch_add(planned.programs, Relaxed);
            p.items_planned.fetch_add(planned.items, Relaxed);
        }
        if st.expired || planned.partitions < task.len() {
            // The deadline struck, here or elsewhere: nothing more is
            // examined. These items *were* materialized, though, so
            // they still count toward the peak.
            st.peak_live = st.peak_live.max(st.live + planned.items);
            Self::expire(&mut st);
        } else {
            st.live += planned.items;
            st.peak_live = st.peak_live.max(st.live);
            // One examine batch per partition with plan items, at
            // task-local offsets.
            let mut offset = 0;
            for part in parts.into_iter().filter(|p| !p.items.is_empty()) {
                let items: Vec<WorkItem> = (offset..)
                    .zip(part.items)
                    .map(|(index, program)| WorkItem { index, program })
                    .collect();
                offset += items.len();
                st.exam.push_back(Batch { task: n, items });
                st.batches += 1;
            }
        }
        self.publish(&st);
        self.cv.notify_all();
    }

    /// One batch retired (possibly cut short by the deadline): the run's
    /// axiom `i` absorbed `stats[i]` and emitted `records[i]`.
    fn batch_done(
        &self,
        batch: &Batch,
        stats: Vec<ShardStats>,
        records: Vec<Vec<SuiteRecord>>,
        elapsed: Duration,
        cut: bool,
    ) {
        use std::sync::atomic::Ordering::Relaxed;
        for ((&slot, stats), records) in self.slots.iter().zip(&stats).zip(&records) {
            let ax = self.progress.axiom(slot);
            ax.batches_done.fetch_add(1, Relaxed);
            ax.items_examined.fetch_add(stats.items, Relaxed);
            ax.elts.fetch_add(records.len(), Relaxed);
        }
        // Items examined for every axiom (all of them, unless cut).
        let examined = stats.iter().map(|s| s.items).min().unwrap_or(0);
        let found: usize = records.iter().map(Vec::len).sum();
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        st.live = st.live.saturating_sub(batch.items.len());
        self.progress.record(
            JournalEventKind::BatchExamined,
            None,
            examined as u64,
            found as u64,
            elapsed.as_micros() as u64,
        );
        st.outcomes.push(Outcome {
            task: batch.task,
            first: batch.items[0].index,
            stats,
            records,
        });
        if cut {
            // Examination hit the deadline: every axiom's suite is
            // partial, and all queued work is abandoned.
            Self::expire(&mut st);
        }
        self.publish(&st);
        self.cv.notify_all();
    }

    /// The deadline struck: discard all queued work, with exact live
    /// accounting for the discarded tail — queued batches leave the
    /// live count now; in-flight batches leave it in
    /// [`Pipeline::batch_done`]. An expired run never completes.
    fn expire(st: &mut State) {
        st.expired = true;
        for batch in std::mem::take(&mut st.exam) {
            st.live = st.live.saturating_sub(batch.items.len());
        }
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

/// One pool worker: alternates between enumerating tasks and examining
/// batches until the pipeline drains.
fn worker(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>) {
    while let Some(task) = pipeline.next_task() {
        match task {
            Task::Enumerate(n) => {
                let start = Instant::now();
                let task = pipeline.tasks[n].clone();
                let mut parts = Vec::with_capacity(task.len());
                for ordinal in task {
                    // Enumeration honors the deadline inside a partition
                    // too; a partition whose enumeration saw the expiry
                    // is partial, so the task ends before it and the
                    // partition counts as cut — the plan stays a
                    // reproducible prefix.
                    if pipeline.past_deadline() {
                        break;
                    }
                    let plan = pipeline.space.plan_partition(ordinal, pipeline.deadline);
                    if pipeline.past_deadline() {
                        break;
                    }
                    parts.push(plan);
                }
                pipeline.resolve(n, parts, start.elapsed());
            }
            Task::Examine(batch) => examine_batch(pipeline, ctx, &batch),
        }
    }
}

/// Examines one batch for every axiom of the run.
fn examine_batch(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>, batch: &Batch) {
    let start = Instant::now();
    let axioms = ctx.axioms.len();
    let mut stats = vec![ShardStats::new(0); axioms];
    let mut records: Vec<Vec<SuiteRecord>> = vec![Vec::new(); axioms];
    let mut cut = false;
    let mut examiner =
        Examiner::for_axioms(ctx.mtm, ctx.axioms, ctx.opts.backend, ctx.branch_co_pa);
    for item in &batch.items {
        if pipeline.past_deadline() {
            cut = true;
            break;
        }
        for (ai, examined) in examiner
            .examine_axioms(&item.program)
            .into_iter()
            .enumerate()
        {
            stats[ai].absorb(&examined);
            if let Some((witness, violated)) = examined.witness {
                records[ai].push(SuiteRecord {
                    index: item.index,
                    elt: SynthesizedElt {
                        program: item.program.clone(),
                        witness,
                        violated,
                    },
                });
            }
        }
    }
    pipeline.batch_done(batch, stats, records, start.elapsed(), cut);
}

/// Numbers the retired batches into plan indices and hands them to the
/// sinks in plan order, one shard per batch; batches of tasks past the
/// cut are dropped. Returns each axiom's shard counters.
fn deliver(
    mut outcomes: Vec<Outcome>,
    prefix: &Prefix,
    sinks: &[&dyn SuiteSink],
) -> Vec<Vec<ShardStats>> {
    outcomes.retain(|o| o.task < prefix.bases.len());
    outcomes.sort_unstable_by_key(|o| (o.task, o.first));
    let mut shards = vec![Vec::with_capacity(outcomes.len()); sinks.len()];
    for outcome in outcomes {
        let base = prefix.bases[outcome.task];
        let per_axiom = outcome.stats.into_iter().zip(outcome.records);
        for (ai, (stats, mut records)) in per_axiom.enumerate() {
            for record in &mut records {
                record.index += base;
            }
            shards[ai].push(stats);
            sinks[ai].shard_done(stats, records);
        }
    }
    shards
}

/// Runs the fused enumerate-while-examining pipeline for `axioms` (one
/// or many) on `jobs` workers and delivers the retired batches to the
/// per-axiom `sinks`. Partitions are enumerated once and each
/// partition's plan items are examined once for every axiom. Once the
/// workers join, the batches are numbered into plan indices and handed
/// to the sinks in plan order, one [`SuiteSink::shard_done`] per batch.
/// Returns per-axiom counters (in `axioms` order), each the sum of the
/// axiom's shards, and the run's scheduling metrics. Sorting an axiom's
/// records by [`SuiteRecord::index`] recovers its byte-identical
/// sequential suite.
///
/// `progress` receives live counters as the run advances — partitions
/// and subtree mass planned, programs and plan items, per-axiom batch,
/// item and ELT counts ([`crate::progress`] has the full inventory). It
/// may track more axioms than the run covers (the tiered store passes
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
        space.total_mass(),
        jobs as u64,
    );

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let pipeline = &pipeline;
            scope.spawn(move || worker(pipeline, ctx));
        }
    });

    let Pipeline {
        tasks,
        progress,
        slots,
        state,
        ..
    } = pipeline;
    let mut st = state.into_inner().expect("pipeline lock is never poisoned");
    // Free the space before the sinks take their shards, so what they
    // stage reuses its memory instead of stacking on top of it.
    drop(space);
    let prefix = st.prefix(&tasks);
    if let Some(cut) = prefix.cut_at {
        use std::sync::atomic::Ordering::Relaxed;
        progress.cut_at_partition.store(cut, Relaxed);
        progress.record(JournalEventKind::Cut, None, cut as u64, 0, 0);
    }
    let shards = deliver(std::mem::take(&mut st.outcomes), &prefix, sinks);
    let elapsed = start.elapsed();
    // Every axiom shares one schedule, so all finish here together:
    // complete when every task was planned in full and every batch
    // retired before the deadline (an empty range completes trivially),
    // cut otherwise.
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

    /// Claims the next `n` tasks, which must all be enumeration tasks
    /// that continue one another.
    fn claim_tasks(pipeline: &Pipeline<'_>, n: usize) -> Vec<usize> {
        let mut next = pipeline.state.lock().expect("lock").next_task;
        (0..n)
            .map(|_| match pipeline.next_task() {
                Some(Task::Enumerate(task)) => {
                    assert_eq!(task, next, "tasks are handed out in order");
                    next += 1;
                    task
                }
                _ => panic!("expected an enumeration task"),
            })
            .collect()
    }

    /// Every partition of task `n`, planned.
    fn plan(pipeline: &Pipeline<'_>, n: usize) -> Vec<PartitionPlan> {
        pipeline.tasks[n]
            .clone()
            .map(|p| pipeline.space.plan_partition(p, None))
            .collect()
    }

    /// Resolves task `n` with every one of its partitions planned.
    fn deliver_task(pipeline: &Pipeline<'_>, n: usize) {
        pipeline.resolve(n, plan(pipeline, n), Duration::ZERO);
    }

    fn items_of(pipeline: &Pipeline<'_>, n: usize) -> usize {
        plan(pipeline, n).iter().map(|p| p.items.len()).sum()
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

    /// Tasks tile every range of the space in order, each gathering at
    /// least [`TASK_MASS`] unless it ends the range or is one heavier
    /// partition. With fences and RMW, bounds 4 / 5 / 6 make 1 / 1 / 5
    /// tasks of 29 / 125 / 624 partitions.
    #[test]
    fn tasks_tile_the_space_by_mass() {
        for (bound, partitions, pinned) in [(4, 29, 1), (5, 125, 1), (6, 624, 5)] {
            let space = EnumSpace::new(&EnumOptions::new(bound));
            let masses = space.masses();
            let n = space.partition_count();
            assert_eq!(n, partitions, "bound {bound}");
            assert_eq!(tasks(masses, 0..n).len(), pinned, "bound {bound}");
            for range in [0..n, n / 3..n, 0..n / 2, n / 3..2 * n / 3, n / 2..n / 2] {
                let mut next = range.start;
                for task in tasks(masses, range.clone()) {
                    assert_eq!(task.start, next, "bound {bound} {range:?}: in order");
                    assert!(task.start < task.end, "bound {bound} {range:?}: empty task");
                    let mass: u64 = masses[task.clone()].iter().sum();
                    let heavy = task.len() == 1 && masses[task.start] > TASK_MASS;
                    assert!(
                        mass >= TASK_MASS || task.end == range.end || heavy,
                        "bound {bound} {range:?}: {task:?} holds only {mass}"
                    );
                    next = task.end;
                }
                assert_eq!(next, range.end, "bound {bound} {range:?}: tiles the range");
            }
        }
    }

    /// A sink retaining every record with its plan index — what the
    /// store's pending entries keep.
    struct RecordSink {
        records: Mutex<Vec<SuiteRecord>>,
    }

    impl RecordSink {
        fn new() -> RecordSink {
            RecordSink {
                records: Mutex::new(Vec::new()),
            }
        }

        fn take(self) -> Vec<SuiteRecord> {
            let mut records = self.records.into_inner().expect("sink lock");
            records.sort_by_key(|r| r.index);
            records
        }
    }

    impl SuiteSink for RecordSink {
        fn shard_done(&self, _stats: ShardStats, records: Vec<SuiteRecord>) {
            self.records
                .lock()
                .expect("sink lock is never poisoned")
                .extend(records);
        }
    }

    /// Out-of-order delivery with a task cut before its first
    /// partition: the delivered plan is exactly the tasks below the cut,
    /// numbered by the prefix sum, and the batches already examined past
    /// the cut are dropped.
    #[test]
    fn cuts_keep_the_plan_prefix_on_out_of_order_delivery() {
        let m = mtm();
        let eo = enum_opts(6, true);
        let space = EnumSpace::new(&eo);
        let pipeline = whole(&space, &["sc_per_loc"], None);
        assert!(pipeline.tasks.len() >= 4, "space too small for the test");
        let tasks = claim_tasks(&pipeline, 4);
        let mut opts = SynthOptions::new(6);
        opts.enumeration = eo;
        let ctx = RunCtx {
            mtm: &m,
            axioms: &["sc_per_loc"],
            opts: &opts,
            branch_co_pa: branches_co_pa(&m),
        };
        // Deliver tasks 3, 1 and 0 and examine every batch they queue;
        // then cut task 2. Only tasks 0 and 1 are in the plan.
        for &n in &[tasks[3], tasks[1], tasks[0]] {
            deliver_task(&pipeline, n);
            loop {
                let batch = pipeline.state.lock().expect("lock").exam.pop_front();
                let Some(batch) = batch else { break };
                examine_batch(&pipeline, &ctx, &batch);
            }
        }
        pipeline.resolve(tasks[2], Vec::new(), Duration::ZERO);
        let mut st = pipeline.state.into_inner().expect("lock");
        assert!(st.expired);
        let prefix = st.prefix(&pipeline.tasks);
        let cut = pipeline.tasks[tasks[2]].start;
        assert_eq!(prefix.cut_at, Some(cut));
        assert_eq!((prefix.programs, prefix.items), planned_below(&space, cut));
        assert!(prefix.items > 0, "tasks too small for the test");
        // The cut task keeps a base of its own: a task cut inside keeps
        // the items of the partitions it finished.
        let items = |n: usize| st.planned[n].expect("planned").items;
        assert_eq!(prefix.bases, vec![0, items(0), items(0) + items(1)]);
        let sink = RecordSink::new();
        let shards = deliver(std::mem::take(&mut st.outcomes), &prefix, &[&sink]);
        let examined: usize = shards[0].iter().map(|s| s.items).sum();
        assert_eq!(examined, prefix.items, "only the prefix's batches");
        let records = sink.take();
        assert!(!records.is_empty(), "tasks too small for the test");
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
        assert!(st.exam.is_empty());
        assert_eq!(st.live, 0);
    }

    /// A fused three-axiom pipeline queues each partition's plan items
    /// as exactly one batch, even before any batch has retired: the
    /// largest bound-6 partition (92 items, fences and RMW) is delivered
    /// first, and every task's batches are its non-empty partitions'
    /// items, in order, at consecutive task-local offsets.
    #[test]
    fn fused_pipeline_makes_one_batch_per_partition() {
        let space = EnumSpace::new(&EnumOptions::new(6));
        let pipeline = whole(&space, &["a", "b", "c"], None);
        let count = pipeline.tasks.len();
        // Examination has pop priority, so every task is claimed before
        // any examine batch exists.
        assert_eq!(
            claim_tasks(&pipeline, count),
            (0..count).collect::<Vec<_>>()
        );
        let plans: Vec<Vec<PartitionPlan>> = (0..count).map(|n| plan(&pipeline, n)).collect();
        let largest = |n: usize| plans[n].iter().map(|p| p.items.len()).max().unwrap_or(0);
        let first = (0..count).max_by_key(|&n| largest(n)).expect("tasks");
        assert_eq!(largest(first), 92, "the largest bound-6 partition");
        pipeline.resolve(first, plans[first].clone(), Duration::ZERO);
        for n in (0..count).filter(|&n| n != first) {
            pipeline.resolve(n, plans[n].clone(), Duration::ZERO);
        }
        let st = pipeline.state.into_inner().expect("lock");
        assert_eq!(st.exam.len(), st.batches);
        let mut total = 0;
        for (n, parts) in plans.iter().enumerate() {
            let batches: Vec<&Batch> = st.exam.iter().filter(|b| b.task == n).collect();
            let partitions: Vec<&Vec<Program>> = parts
                .iter()
                .map(|p| &p.items)
                .filter(|items| !items.is_empty())
                .collect();
            assert_eq!(batches.len(), partitions.len(), "task {n}");
            let mut offset = 0;
            for (batch, items) in batches.iter().zip(partitions) {
                let indices: Vec<usize> = batch.items.iter().map(|item| item.index).collect();
                assert_eq!(indices, (offset..offset + items.len()).collect::<Vec<_>>());
                assert!(
                    batch.items.iter().map(|item| &item.program).eq(items),
                    "task {n}: a batch is one partition's items"
                );
                offset += items.len();
            }
            assert_eq!(offset, st.planned[n].expect("planned").items, "task {n}");
            total += offset;
        }
        assert_eq!(st.live, total);
    }

    /// Regression for the former "best-effort on timed-out runs" peak
    /// accounting: a deadline cut (a) counts tasks planned after expiry
    /// toward the peak — they were materialized — and (b) returns every
    /// queued-but-abandoned item to the live count, so `live` drains to
    /// exactly the in-flight batches.
    #[test]
    fn deadline_cut_keeps_live_accounting_exact() {
        let space = EnumSpace::new(&EnumOptions::new(6));
        let pipeline = whole(&space, &["a"], None);
        let tasks = claim_tasks(&pipeline, 5);
        let queued = items_of(&pipeline, tasks[0]) + items_of(&pipeline, tasks[1]);
        let late = items_of(&pipeline, tasks[4]);
        assert!(queued > 0 && late > 0, "tasks too small for the test");
        // Tasks 0 and 1 are planned: their items go live and queue as
        // batches.
        deliver_task(&pipeline, tasks[0]);
        deliver_task(&pipeline, tasks[1]);
        assert_eq!(pipeline.state.lock().expect("lock").live, queued);
        // Task 2 is cut: expire() discards the queued batches and
        // drains their items from the live count on the spot.
        pipeline.resolve(tasks[2], Vec::new(), Duration::ZERO);
        {
            let st = pipeline.state.lock().expect("lock");
            assert!(st.expired);
            assert_eq!(st.live, 0, "abandoned queue drained exactly");
            assert!(st.exam.is_empty());
        }
        // Task 4 lands after expiry: nothing is queued, but its items
        // were materialized — the peak must include them.
        deliver_task(&pipeline, tasks[4]);
        let st = pipeline.state.into_inner().expect("lock");
        assert_eq!(st.live, 0);
        assert!(st.exam.is_empty());
        assert!(
            st.peak_live >= queued.max(late),
            "peak {} must cover both the queued ({queued}) and the \
             discarded ({late}) materializations",
            st.peak_live
        );
        assert_eq!(
            st.prefix(&pipeline.tasks).cut_at,
            Some(pipeline.tasks[tasks[2]].start)
        );
        // The progress mirror agrees with the final state.
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.peak_live_candidates, st.peak_live);
        assert_eq!(snap.live_candidates, 0);
    }

    /// A deadline inside a task: its worker delivers the partitions it
    /// finished, the plan is cut at the first partition left out, and
    /// exactly the prefix below it is planned, with its mass retired,
    /// one retire event and exact live accounting.
    #[test]
    fn deadline_inside_a_task_admits_exactly_its_prefix() {
        let space = EnumSpace::new(&EnumOptions::new(6));
        let progress = Arc::new(ProgressState::with_journal(&["a"]));
        let pipeline = whole(&space, &["a"], Some(&progress));
        let at = pipeline
            .tasks
            .iter()
            .position(|task| task.len() >= 3)
            .expect("a task of three partitions");
        claim_tasks(&pipeline, at + 1);
        for n in 0..at {
            deliver_task(&pipeline, n);
        }
        let task = pipeline.tasks[at].clone();
        let cut = task.start + task.len() / 2;
        let prefix: Vec<PartitionPlan> = plan(&pipeline, at)
            .into_iter()
            .take(cut - task.start)
            .collect();
        let delivered: usize = prefix.iter().map(|p| p.items.len()).sum();
        let (peak_before, live_before) = {
            let st = pipeline.state.lock().expect("lock");
            (st.peak_live, st.live)
        };
        pipeline.resolve(at, prefix, Duration::ZERO);

        let st = pipeline.state.into_inner().expect("lock");
        assert!(st.expired);
        let planned = st.prefix(&pipeline.tasks);
        assert_eq!(planned.cut_at, Some(cut));
        assert_eq!(
            (planned.programs, planned.items),
            planned_below(&space, cut)
        );
        assert_eq!(st.live, 0, "the abandoned queue left the live count");
        assert!(st.exam.is_empty());
        assert_eq!(st.peak_live, peak_before.max(live_before + delivered));
        let snap = progress.snapshot();
        assert_eq!(snap.partitions_retired, cut);
        assert_eq!(snap.mass_retired, space.masses()[..cut].iter().sum::<u64>());
        assert_eq!(snap.live_candidates, 0);
        let journal = progress.take_journal();
        let retired = journal
            .iter()
            .rfind(|e| e.kind == JournalEventKind::PartitionRetired)
            .expect("the cut task retired its prefix");
        assert_eq!(
            (retired.a, retired.b, retired.c),
            (
                task.start as u64,
                space.masses()[task.start..cut].iter().sum::<u64>(),
                (cut - task.start) as u64
            )
        );
    }

    /// The progress mirror tracks planning: partitions retired, mass
    /// retired, programs and plan items all advance with each planned
    /// task, in whatever order tasks finish, and the mass total is the
    /// space's.
    #[test]
    fn progress_mirrors_task_retirement() {
        let eo = enum_opts(4, true);
        let space = EnumSpace::new(&eo);
        let masses = space.masses();
        let pipeline = whole(&space, &["a"], None);
        assert_eq!(pipeline.progress.snapshot().mass_total, space.total_mass());
        let count = pipeline.tasks.len();
        claim_tasks(&pipeline, count);
        let (mut partitions, mut mass) = (0, 0);
        for n in (0..count).rev() {
            deliver_task(&pipeline, n);
            let task = &pipeline.tasks[n];
            partitions += task.len();
            mass += masses[task.clone()].iter().sum::<u64>();
            let snap = pipeline.progress.snapshot();
            assert_eq!(snap.partitions_retired, partitions);
            assert_eq!(snap.mass_retired, mass);
        }
        let st = pipeline.state.into_inner().expect("lock");
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.partitions_retired, space.partition_count());
        assert_eq!(snap.mass_retired, space.total_mass());
        let plan = st.prefix(&pipeline.tasks);
        assert_eq!(snap.programs, plan.programs);
        assert_eq!(snap.items_planned, plan.items);
        assert_eq!(snap.batches, st.batches);
        assert!(snap.enumeration_eta().is_some());
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

    /// A deadline-cut run keeps its partition-granular journal
    /// invariants: retired mass in the progress mirror equals the sum of
    /// `PartitionRetired` journal events, and a recorded cut matches
    /// `cut_at_partition`.
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
        let retired: u64 = journal
            .iter()
            .filter(|e| e.kind == JournalEventKind::PartitionRetired)
            .map(|e| e.b)
            .sum();
        assert_eq!(snap.mass_retired, retired);
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

    /// A journaled bound-6 run with fences and RMW records one
    /// `PartitionEnumerated` and one `PartitionRetired` per task (5
    /// tasks of 624 partitions), and the retired masses sum to the
    /// space's total.
    #[test]
    fn journaled_run_records_one_event_pair_per_task() {
        let m = mtm();
        let opts = SynthOptions::new(6);
        let space = EnumSpace::new(&opts.enumeration);
        let tasks = tasks(space.masses(), 0..space.partition_count());
        assert_eq!(tasks.len(), 5);
        let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
        let sink = RecordSink::new();
        let (stats, metrics) =
            synthesize_streamed(&m, &["sc_per_loc"], &opts, 2, Some(&progress), &[&sink]);
        assert!(!stats[0].timed_out);
        assert_eq!(metrics.partitions, space.partition_count());
        let journal = progress.take_journal();
        let of_kind = |kind| journal.iter().filter(move |e| e.kind == kind);
        let mut enumerated: Vec<u64> = of_kind(JournalEventKind::PartitionEnumerated)
            .map(|e| e.a)
            .collect();
        enumerated.sort_unstable();
        let starts: Vec<u64> = tasks.iter().map(|t| t.start as u64).collect();
        assert_eq!(enumerated, starts, "one enumerated event per task");
        let mut retired: Vec<(u64, u64, u64)> = of_kind(JournalEventKind::PartitionRetired)
            .map(|e| (e.a, e.b, e.c))
            .collect();
        retired.sort_unstable();
        let expected: Vec<(u64, u64, u64)> = tasks
            .iter()
            .map(|t| {
                let mass = space.masses()[t.clone()].iter().sum();
                (t.start as u64, mass, t.len() as u64)
            })
            .collect();
        assert_eq!(retired, expected, "one retired event per task");
        let total: u64 = retired.iter().map(|r| r.1).sum();
        assert_eq!(total, space.total_mass());
        assert_eq!(progress.snapshot().mass_retired, total);
    }
}
