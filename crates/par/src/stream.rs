//! The fused streaming pipeline: program *generation* runs inside the
//! work-stealing pool, not in front of it — for one axiom or for every
//! axiom of an MTM at once.
//!
//! The two-phase orchestrator (plan everything, then examine) keeps the
//! pool idle behind a single-threaded, memory-hungry enumeration pass.
//! Here the enumeration's root partitions ([`EnumSpace`]) are
//! enumerated by pool tasks: workers alternate between *enumerating* a
//! task (materializing its partitions' programs with canonical keys,
//! computed once) and *examining* a batch of admitted plan items, so
//! SAT and relational solving start while later partitions are still
//! being generated and peak live candidates stay bounded by task size.
//!
//! # Enumeration tasks
//!
//! Most root partitions are tiny and emit nothing, so one enumeration
//! task is a run of consecutive partitions `[lo, hi)` whose subtree
//! masses ([`EnumSpace::masses`]) sum to about 256 nodes; a heavier
//! partition is a task by itself. A task is enumerated by one worker,
//! admitted in one lock transition and journaled as one event pair.
//! Tasks are a pure function of the space and never cross either end
//! of the examine range, so partition ordinals stay the unit everywhere
//! outside the pool: dedup order, plan indices, deadline cuts, retired
//! mass and fleet ranges.
//!
//! # The fused cross-axiom run
//!
//! The synthesis plan is axiom-independent (it keeps write-bearing
//! canonical first occurrences), so a multi-axiom run enumerates every
//! partition **once**, and each admitted chunk becomes **one** examine
//! batch covering every axiom: its [`Examiner`] walks each program's
//! candidates once for all of them (the relational backend, whose SAT
//! query names one axiom, makes one pass over the batch per axiom —
//! see [`Backend::passes`]). No shared plan is materialized before
//! workers start. All axioms therefore finish together: when
//! the last batch retires, every axiom's [`SuiteSink::run_done`] fires
//! (the per-axiom seal + push-on-seal hook).
//!
//! # Determinism
//!
//! Every enumerated program has a stable position `(partition ordinal,
//! offset)` that is a pure function of the space — never of scheduling.
//! Tasks may be *enumerated* out of order, but their partitions are
//! *admitted* strictly in ordinal order through the admitter — the same
//! first-occurrence-per-canonical-key scan the sequential planner runs —
//! so plan indices, dedup outcomes, and therefore every per-axiom suite
//! are byte-identical to the sequential engine at every worker count
//! and batch size.
//!
//! # Deadlines
//!
//! A deadline cuts the plan at partition granularity: a worker stops
//! its task before the first partition whose enumeration saw the
//! expiry, that partition is recorded
//! ([`StreamMetrics::cut_at_partition`]), every partition below it is
//! fully planned, and everything from it on is dropped — a timed-out
//! plan is a well-defined prefix of the deadline-free plan, not a
//! worker-race-dependent subset. The cut is shared by every axiom of a
//! fused run (they examine the same plan and the same batches), so a
//! cut run marks every axiom cut. Examination stays best-effort after
//! expiry, exactly like the sequential engine's mid-plan stop.
//!
//! # Autotuned batch granularity
//!
//! Admitted items are chunked into examine batches whose size adapts:
//! each retired batch reports its items/second, and the tuner sizes the
//! next batches to a fixed wall-clock slice — cheap bounds get large
//! batches (incremental-solver reuse), expensive ones get small,
//! stealable batches. Chunks never span partitions. The size never
//! changes any result, only scheduling.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use transform_core::axiom::Mtm;
use transform_synth::programs::{EnumSpace, KeyedProgram};
#[cfg(doc)]
use transform_synth::Backend;
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
    /// Enumeration partitions in the space.
    pub partitions: usize,
    /// First partition cut by the deadline (`None`: enumeration ran to
    /// completion). Everything below it was fully planned.
    pub cut_at_partition: Option<usize>,
    /// Examine batches created, one per admitted chunk and each covering
    /// every axiom (a deadline cut abandons queued batches, which stay
    /// counted here but produce no shard stats).
    pub batches: usize,
    /// Peak number of simultaneously materialized candidate programs
    /// (enumerated but not yet examined, or dropped) —
    /// bounded by the lookahead window (twice the worker count) times
    /// the largest enumeration task, not by the size of the
    /// enumeration.
    ///
    /// Exact on timed-out runs too: a task that was materialized and
    /// then discarded by the deadline cut (resolved behind the cut
    /// point, or delivered after expiry) is counted at its moment of
    /// materialization, and the discarded tail leaves the live count
    /// the moment it is dropped.
    pub peak_live_candidates: usize,
    /// The tuner's final batch size.
    pub final_batch_size: usize,
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
            final_batch_size: snap.final_batch_size,
        }
    }
}

/// The deterministic dedup frontier: admits partitions in enumeration
/// order, keeping the first occurrence of each canonical key — exactly
/// the scan [`transform_synth::plan_from_keyed`] runs over the eager
/// enumeration, so admitted items carry the sequential plan's indices.
pub(crate) struct Admitter {
    symmetry: bool,
    seen: BTreeSet<Vec<u64>>,
    /// Programs admitted so far (the post-symmetry-reduction enumeration
    /// count — [`SuiteStats::programs`]).
    pub programs: usize,
    next_index: usize,
}

impl Admitter {
    pub fn new(symmetry: bool) -> Admitter {
        Admitter {
            symmetry,
            seen: BTreeSet::new(),
            programs: 0,
            next_index: 0,
        }
    }

    /// Admits one partition's programs, in order; returns the plan items
    /// they contribute (write-bearing first occurrences).
    pub fn admit(&mut self, keyed: Vec<KeyedProgram>) -> Vec<WorkItem> {
        let mut items = Vec::new();
        for kp in keyed {
            if self.symmetry {
                // Enumeration-level symmetry reduction across partitions:
                // a later occurrence of a key is not even counted.
                let key = kp.key.expect("symmetry reduction keys every program");
                if !self.seen.insert(key.clone()) {
                    continue;
                }
                self.programs += 1;
                if kp.has_write {
                    items.push(WorkItem {
                        index: self.next_index,
                        program: kp.program,
                        key,
                    });
                    self.next_index += 1;
                }
            } else {
                // No symmetry reduction: every program counts, but the
                // plan still keeps one item per canonical key.
                self.programs += 1;
                let Some(key) = kp.key else { continue };
                if !self.seen.insert(key.clone()) {
                    continue;
                }
                items.push(WorkItem {
                    index: self.next_index,
                    program: kp.program,
                    key,
                });
                self.next_index += 1;
            }
        }
        items
    }
}

/// Wall-clock slice one examine batch should fill.
const TARGET_BATCH: Duration = Duration::from_millis(50);
/// Batch-size clamp (in items) and the pre-measurement default.
const MIN_BATCH: usize = 8;
const MAX_BATCH: usize = 8192;
const DEFAULT_BATCH: usize = 64;
/// EWMA smoothing for the observed examination rate.
const EWMA_ALPHA: f64 = 0.3;

/// Static examination-cost proxy of one plan item: exponential in the
/// program's event count, because the candidate-execution count a
/// [`Examiner`] walks grows with the interleavings of those events —
/// a bound-6 item is worth many bound-4 items, not one more. The
/// absolute scale is irrelevant (the tuner calibrates weight/second
/// from measurements); only the ranking matters.
pub(crate) fn item_weight(item: &WorkItem) -> u64 {
    1u64 << item.program.size().min(24)
}

/// Adapts examine-batch granularity to the measured examination cost.
///
/// Batches are sized by *mass* (summed [`item_weight`]), not by item
/// count: the tuner smooths the observed examination weight/second and
/// aims each batch at the weight filling [`TARGET_BATCH`], so a chunk
/// of cheap small-bound items becomes one large batch while the same
/// item count of expensive deep items splits into small, stealable
/// ones. It never changes any result, only scheduling.
struct Tuner {
    /// Examination weight per second, exponentially smoothed.
    rate: Option<f64>,
    /// Mean static weight of one plan item, exponentially smoothed —
    /// only for rendering the equivalent batch size in items.
    per_item: Option<f64>,
}

fn ewma(prev: Option<f64>, sample: f64) -> f64 {
    match prev {
        Some(prev) => prev + EWMA_ALPHA * (sample - prev),
        None => sample,
    }
}

impl Tuner {
    fn new() -> Tuner {
        Tuner {
            rate: None,
            per_item: None,
        }
    }

    /// The weight one batch should carry to fill the target slice, or
    /// `None` before the first measurement.
    fn target_weight(&self) -> Option<f64> {
        self.rate.map(|rate| rate * TARGET_BATCH.as_secs_f64())
    }

    /// The equivalent batch size in items, estimated from the
    /// measurements (progress reporting and the pre-measurement
    /// default).
    fn batch_size(&self) -> usize {
        match (self.target_weight(), self.per_item) {
            (Some(target), Some(per_item)) => {
                ((target / per_item.max(1e-9)) as usize).clamp(MIN_BATCH, MAX_BATCH)
            }
            _ => DEFAULT_BATCH,
        }
    }

    /// One retired batch: `weight` is the summed [`item_weight`] of the
    /// `items` actually examined (the prefix, on a deadline cut).
    fn observe(&mut self, items: usize, weight: u64, elapsed: Duration) {
        if items == 0 {
            return;
        }
        let secs = elapsed.as_secs_f64().max(1e-9);
        self.rate = Some(ewma(self.rate, weight as f64 / secs));
        self.per_item = Some(ewma(self.per_item, weight as f64 / items as f64));
    }
}

/// A batch of plan items examined for every axiom of the run, in the
/// backend's [`Backend::passes`] (for the relational backend, one
/// incremental solver per axiom). Chunks never span partitions, so
/// every item in a batch shares its first-thread shape — the prefix
/// affinity that makes solver reuse pay.
struct Batch {
    shard: usize,
    items: Vec<WorkItem>,
}

/// Subtree mass (shape-combination nodes, [`EnumSpace::masses`]) one
/// enumeration task gathers: consecutive root partitions join a task
/// until their masses reach it. Most root partitions are a handful of
/// nodes and emit nothing; grouping them keeps the pipeline's lock
/// transitions and journal events proportional to the enumeration's
/// work rather than to the number of root shapes.
const TASK_MASS: u64 = 256;

/// The end of the enumeration task that starts at partition `lo`:
/// partitions join while the task's summed mass is under
/// [`TASK_MASS`], so a partition heavier than that starts a task of its
/// own. A task never crosses `range.0` — a range run admits its
/// prefix in tasks of its own, and records the programs below the
/// range exactly — nor `range.1`. Tasks are therefore a pure function
/// of the space and the range, never of scheduling.
fn task_end(masses: &[u64], lo: usize, range: (usize, usize)) -> usize {
    let limit = if lo < range.0 { range.0 } else { range.1 };
    let mut hi = lo;
    let mut mass = 0u64;
    while hi < limit && mass < TASK_MASS {
        mass = mass.saturating_add(masses[hi]);
        hi += 1;
    }
    hi
}

enum Task {
    /// Enumerate the partitions of this ordinal range, in order.
    Enumerate(Range<usize>),
    Examine(Batch),
}

/// An enumerated task waiting for the frontier: the programs of each
/// partition its worker finished, in ordinal order from the task's
/// first. Fewer lists than partitions mean the deadline cut the task
/// at partition `first + parts.len()`.
struct Enumerated {
    end: usize,
    parts: Vec<Vec<KeyedProgram>>,
}

struct State {
    /// First partition of the next task to hand out.
    next_enum: usize,
    /// Tasks handed out but not yet resolved.
    enumerating: usize,
    /// Enumerated tasks waiting for the frontier, by first partition.
    resolved: BTreeMap<usize, Enumerated>,
    /// Next partition ordinal the admitter must process (always the
    /// first partition of a task).
    frontier: usize,
    /// First partition the deadline cut, if any.
    cut_at: Option<usize>,
    /// The deadline struck (enumeration cut or examination stopped):
    /// drain everything and let workers exit.
    expired: bool,
    admitter: Admitter,
    /// The admitter's program count when the frontier reached the
    /// examine range's start: the programs admitted below the range,
    /// which a range run does not report as its own.
    programs_below_range: usize,
    exam: VecDeque<Batch>,
    /// Next chunk ordinal — the shard id of its batch.
    next_shard: usize,
    /// Batches created.
    batches: usize,
    /// Candidates materialized and not yet examined or dropped: a chunk
    /// leaves when its batch retires or is abandoned.
    live: usize,
    peak_live: usize,
    /// Estimated subtree mass of the partitions admitted so far.
    mass_retired: u64,
    tuner: Tuner,
}

impl State {
    /// The admitted programs inside the examine range.
    fn programs_in_range(&self) -> usize {
        self.admitter.programs - self.programs_below_range
    }

    /// No further batches will ever be created: every partition was
    /// admitted and none is still being enumerated.
    fn enum_settled(&self, partition_count: usize) -> bool {
        self.frontier == partition_count && self.enumerating == 0
    }
}

struct Pipeline<'s> {
    space: &'s EnumSpace,
    /// The run's live telemetry: published (relaxed stores) from inside
    /// every lock-held transition, sampled lock-free by observers. The
    /// final [`StreamMetrics`] is this state's last snapshot.
    progress: Arc<ProgressState>,
    /// Run-axiom index → progress slot (the observer's state may track
    /// more axioms than this run covers — cache hits, for one).
    slots: Vec<usize>,
    deadline: Option<Instant>,
    /// Lookahead backpressure: at most this many tasks, counting the
    /// frontier's own, may be out (enumerating, or enumerated and
    /// waiting for the dedup frontier). Without it, one slow head task
    /// would let the other workers buffer the entire rest of the space
    /// ahead of the stalled frontier — peak live candidates would
    /// degrade to the full enumeration, exactly what streaming is meant
    /// to avoid. With it, live candidates are bounded by `window` × the
    /// largest task, independent of the bound.
    window: usize,
    /// The partition-ordinal range this run *examines*: items admitted
    /// from partitions below `range.0` are dropped after feeding the
    /// dedup frontier (their admission state is what keeps plan indices
    /// global), and enumeration stops at `range.1`. A whole-space run
    /// is `(0, partition_count)`. This is the fleet's work unit: a
    /// worker leasing `[lo, hi)` replays the admission prefix `[0, lo)`
    /// and examines exactly the items planned in `[lo, hi)`, so
    /// per-range records concatenate into the byte-identical
    /// whole-space suite.
    range: (usize, usize),
    state: Mutex<State>,
    cv: Condvar,
}

impl<'s> Pipeline<'s> {
    fn new(
        space: &'s EnumSpace,
        axiom_names: &[&str],
        progress: Option<&Arc<ProgressState>>,
        deadline: Option<Instant>,
        jobs: usize,
        range: Option<(usize, usize)>,
    ) -> Self {
        let range = range.unwrap_or((0, space.partition_count()));
        assert!(
            range.0 <= range.1 && range.1 <= space.partition_count(),
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
        progress
            .partitions_total
            .store(space.partition_count(), Relaxed);
        progress.mass_total.store(space.total_mass(), Relaxed);
        progress
            .final_batch_size
            .store(Tuner::new().batch_size(), Relaxed);
        for &slot in &slots {
            progress.set_axiom_state(slot, AxiomState::Running);
        }
        Pipeline {
            space,
            progress,
            slots,
            deadline,
            window: (2 * jobs).max(2),
            range,
            state: Mutex::new(State {
                next_enum: 0,
                enumerating: 0,
                resolved: BTreeMap::new(),
                frontier: 0,
                cut_at: None,
                expired: false,
                admitter: Admitter::new(space.options().symmetry_reduction),
                programs_below_range: 0,
                exam: VecDeque::new(),
                next_shard: 0,
                batches: 0,
                live: 0,
                peak_live: 0,
                mass_retired: 0,
                tuner: Tuner::new(),
            }),
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
        p.partitions_retired.store(st.frontier, Relaxed);
        p.mass_retired.store(st.mass_retired, Relaxed);
        p.programs.store(st.admitter.programs, Relaxed);
        p.items_planned.store(st.admitter.next_index, Relaxed);
        p.frontier_depth.store(st.resolved.len(), Relaxed);
        p.live_candidates.store(st.live, Relaxed);
        p.peak_live_candidates.store(st.peak_live, Relaxed);
        p.batches.store(st.batches, Relaxed);
        if let Some(cut) = st.cut_at {
            p.cut_at_partition.store(cut, Relaxed);
        }
        p.final_batch_size.store(st.tuner.batch_size(), Relaxed);
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    /// The next unit of work, examination first (it frees live
    /// candidates; enumeration creates them). `None` once nothing can
    /// produce further work.
    fn next_task(&self) -> Option<Task> {
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        let mut stalled = false;
        loop {
            if let Some(batch) = st.exam.pop_front() {
                return Some(Task::Examine(batch));
            }
            if !st.expired && st.next_enum < self.range.1 {
                if st.enumerating + st.resolved.len() < self.window {
                    let lo = st.next_enum;
                    st.next_enum = task_end(self.space.masses(), lo, self.range);
                    st.enumerating += 1;
                    return Some(Task::Enumerate(lo..st.next_enum));
                }
                // Head-of-line blocking: the window is full behind an
                // unfinished frontier task and nothing is left to
                // examine, so this worker idles. Journaled once per
                // wait, not per wake-up.
                if !stalled {
                    stalled = true;
                    self.progress.record(
                        JournalEventKind::FrontierStall,
                        None,
                        st.frontier as u64,
                        st.resolved.len() as u64,
                        0,
                    );
                }
            }
            let enumeration_settled = st.expired || st.enum_settled(self.range.1);
            if enumeration_settled && st.exam.is_empty() {
                return None;
            }
            st = self.cv.wait(st).expect("pipeline lock is never poisoned");
        }
    }

    /// One task's outcome: the programs of each partition of `task` its
    /// worker enumerated before seeing the deadline, in order. A short
    /// list cuts the plan at the first partition left out, once the
    /// frontier reaches it. `elapsed` is the task's enumeration time.
    fn resolve(&self, task: Range<usize>, parts: Vec<Vec<KeyedProgram>>, elapsed: Duration) {
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        st.enumerating -= 1;
        let delivered: usize = parts.iter().map(Vec::len).sum();
        if !parts.is_empty() {
            self.progress.record(
                JournalEventKind::PartitionEnumerated,
                None,
                task.start as u64,
                delivered as u64,
                elapsed.as_micros() as u64,
            );
        }
        if st.expired {
            // Everything past the cut is discarded — but these programs
            // *were* materialized, so they still count toward the peak
            // (the whole point of `peak_live_candidates` is memory
            // pressure, and these programs existed).
            st.peak_live = st.peak_live.max(st.live + delivered);
            self.publish(&st);
            self.cv.notify_all();
            return;
        }
        st.live += delivered;
        st.peak_live = st.peak_live.max(st.live);
        st.resolved.insert(
            task.start,
            Enumerated {
                end: task.end,
                parts,
            },
        );
        // Advance the frontier: admit in strict ordinal order.
        while let Some(Enumerated { end, parts }) = {
            let frontier = st.frontier;
            st.resolved.remove(&frontier)
        } {
            let (first, mass_before) = (st.frontier, st.mass_retired);
            let complete = first + parts.len() == end;
            for keyed in parts {
                self.admit_partition(&mut st, keyed);
            }
            if st.frontier > first {
                self.progress.record(
                    JournalEventKind::PartitionRetired,
                    None,
                    first as u64,
                    st.mass_retired - mass_before,
                    (st.frontier - first) as u64,
                );
            }
            if !complete {
                // The deadline's cut reached the frontier: the plan
                // ends here, reproducibly — for every axiom at once.
                st.cut_at = Some(st.frontier);
                self.progress
                    .record(JournalEventKind::Cut, None, st.frontier as u64, 0, 0);
                Self::expire(&mut st);
                break;
            }
        }
        self.publish(&st);
        self.cv.notify_all();
    }

    /// Admits the frontier partition's programs and queues its plan
    /// items as examine batches. Each partition is chunked on its own,
    /// so a batch never spans two root shapes (and a task's programs
    /// never stay live as one run).
    fn admit_partition(&self, st: &mut State, keyed: Vec<KeyedProgram>) {
        let delivered = keyed.len();
        let mut items = st.admitter.admit(keyed);
        st.live -= delivered - items.len(); // dropped by dedup
        let mass = self.space.masses()[st.frontier];
        st.mass_retired = st.mass_retired.saturating_add(mass);
        if st.frontier < self.range.0 {
            // Below the leased range: this prefix partition only feeds
            // the dedup frontier so plan indices stay global; nothing
            // here is examined.
            st.live -= items.len();
            items.clear();
        }
        let target = st.tuner.target_weight();
        while !items.is_empty() {
            let take = match target {
                // Greedy mass-weighted split: take items until the
                // chunk's examination weight reaches the calibrated
                // 50ms target.
                Some(tw) => {
                    let mut weight = 0.0f64;
                    let mut n = 0usize;
                    while n < items.len() && n < MAX_BATCH && (n < MIN_BATCH || weight < tw) {
                        weight += item_weight(&items[n]) as f64;
                        n += 1;
                    }
                    n
                }
                None => st.tuner.batch_size(),
            };
            let rest = items.split_off(take.min(items.len()).max(1));
            let chunk = std::mem::replace(&mut items, rest);
            let shard = st.next_shard;
            st.next_shard += 1;
            // One batch per chunk, covering every axiom.
            st.exam.push_back(Batch {
                shard,
                items: chunk,
            });
            st.batches += 1;
        }
        st.frontier += 1;
        if st.frontier == self.range.0 {
            st.programs_below_range = st.admitter.programs;
        }
    }

    /// One batch retired (possibly cut short by the deadline): the run's
    /// axiom `i` absorbed `stats[i]` and emitted `found[i]` suite
    /// members.
    fn batch_done(
        &self,
        batch: &Batch,
        stats: &[ShardStats],
        found: &[usize],
        elapsed: Duration,
        cut: bool,
    ) {
        use std::sync::atomic::Ordering::Relaxed;
        for ((&slot, stats), &found) in self.slots.iter().zip(stats).zip(found) {
            let ax = self.progress.axiom(slot);
            ax.batches_done.fetch_add(1, Relaxed);
            ax.items_examined.fetch_add(stats.items, Relaxed);
            ax.elts.fetch_add(found, Relaxed);
        }
        // Items examined for every axiom (all of them, unless cut).
        let examined = stats.iter().map(|s| s.items).min().unwrap_or(0);
        let weight = batch.items[..examined].iter().map(item_weight).sum();
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        st.live = st.live.saturating_sub(batch.items.len());
        st.tuner.observe(examined, weight, elapsed);
        self.progress.record(
            JournalEventKind::BatchExamined,
            None,
            examined as u64,
            found.iter().sum::<usize>() as u64,
            elapsed.as_micros() as u64,
        );
        if cut {
            // Examination hit the deadline: every axiom's suite is
            // partial, the plan ends at the current frontier (when
            // enumeration was still in flight), and all queued work is
            // abandoned.
            if st.cut_at.is_none() && st.frontier < self.range.1 {
                st.cut_at = Some(st.frontier);
                self.progress
                    .record(JournalEventKind::Cut, None, st.frontier as u64, 0, 0);
            }
            Self::expire(&mut st);
        }
        self.publish(&st);
        self.cv.notify_all();
    }

    /// The deadline struck: discard all queued work, with exact live
    /// accounting for the discarded tail — enumerated-but-unadmitted
    /// tasks and queued batches leave the live count now; in-flight
    /// batches leave it in [`Pipeline::batch_done`]. An expired run
    /// never completes.
    fn expire(st: &mut State) {
        st.expired = true;
        for (_, task) in std::mem::take(&mut st.resolved) {
            for keyed in task.parts {
                st.live = st.live.saturating_sub(keyed.len());
            }
        }
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
    /// Per-axiom streaming dedup of emitted ELT keys.
    claimed: &'r [crate::dedup::KeySet],
    /// Per-axiom shard counters, pushed as batches retire.
    shard_stats: &'r [Mutex<Vec<ShardStats>>],
    sinks: &'r [&'r dyn SuiteSink],
}

/// One pool worker: alternates between enumerating tasks and examining
/// batches until the pipeline drains.
fn worker(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>) {
    while let Some(task) = pipeline.next_task() {
        match task {
            Task::Enumerate(task) => {
                let start = Instant::now();
                let mut parts = Vec::with_capacity(task.len());
                for ordinal in task.clone() {
                    // Enumeration honors the deadline inside a partition
                    // too; a partition whose enumeration saw the expiry
                    // is partial, so the task ends before it and the
                    // partition counts as cut — the plan stays a
                    // reproducible prefix.
                    if pipeline.past_deadline() {
                        break;
                    }
                    let keyed = pipeline
                        .space
                        .enumerate_keyed_within(ordinal, pipeline.deadline);
                    if pipeline.past_deadline() {
                        break;
                    }
                    parts.push(keyed);
                }
                pipeline.resolve(task, parts, start.elapsed());
            }
            Task::Examine(batch) => examine_batch(pipeline, ctx, &batch),
        }
    }
}

/// Examines one batch for every axiom of the run and streams each
/// axiom's shard into its sink.
fn examine_batch(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>, batch: &Batch) {
    let start = Instant::now();
    let axioms = ctx.axioms.len();
    let mut stats = vec![ShardStats::new(batch.shard); axioms];
    let mut records: Vec<Vec<SuiteRecord>> = vec![Vec::new(); axioms];
    let mut cut = false;
    // One examiner per pass — one for the explicit backend; for the
    // relational backend, one per axiom, each owning one incremental
    // SAT solver.
    'passes: for pass in ctx.opts.backend.passes(axioms) {
        let mut examiner = Examiner::for_axioms(
            ctx.mtm,
            &ctx.axioms[pass.clone()],
            ctx.opts.backend,
            ctx.branch_co_pa,
        );
        for item in &batch.items {
            if pipeline.past_deadline() {
                cut = true;
                break 'passes;
            }
            for (ai, mut examined) in pass.clone().zip(examiner.examine_axioms(&item.program)) {
                stats[ai].absorb(&examined);
                if examined.witness.is_some() && !ctx.claimed[ai].claim(&item.key) {
                    // The admitter guarantees key uniqueness; dropping a
                    // duplicate witness (never its counters) keeps the
                    // merge correct even if a future enumerator breaks
                    // that invariant.
                    debug_assert!(false, "duplicate canonical key in admitted plan");
                    examined.witness = None;
                }
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
    }
    let found: Vec<usize> = records.iter().map(Vec::len).collect();
    for (ai, records) in records.into_iter().enumerate() {
        ctx.shard_stats[ai]
            .lock()
            .expect("stats lock is never poisoned")
            .push(stats[ai]);
        ctx.sinks[ai].shard_done(stats[ai], records);
    }
    pipeline.batch_done(batch, &stats, &found, start.elapsed(), cut);
}

/// Runs the fused enumerate-while-examining pipeline for `axioms` (one
/// or many) on `jobs` workers, streaming retired batches into the
/// per-axiom sinks. Partitions are enumerated once and each admitted
/// chunk is examined once for every axiom; every axiom's `run_done`
/// fires when the last batch retires. Returns per-axiom counters (in
/// `axioms` order) and the run's scheduling metrics.
///
/// # Panics
///
/// Panics when any axiom is not part of `mtm` or `axioms` and `sinks`
/// disagree in length.
pub(crate) fn run_fused(
    mtm: &Mtm,
    axioms: &[&str],
    opts: &SynthOptions,
    jobs: usize,
    sinks: &[&dyn SuiteSink],
    progress: Option<&Arc<ProgressState>>,
) -> (Vec<SuiteStats>, StreamMetrics) {
    run_fused_range(mtm, axioms, opts, jobs, sinks, progress, None)
}

/// [`run_fused`] restricted to the partition range `range` (global
/// ordinals of [`EnumSpace::new`]): the whole prefix `[0, range.1)` is
/// enumerated and admitted so dedup state and plan indices stay global,
/// but only items admitted inside `[range.0, range.1)` are examined and
/// emitted, and
/// [`SuiteStats::programs`] counts only the programs admitted inside the
/// range. Ranges that tile the space therefore produce shard results
/// whose concatenation is exactly the single-machine run — the fleet's
/// work unit. `jobs` is only this run's local thread count and never
/// affects the output.
pub(crate) fn run_fused_range(
    mtm: &Mtm,
    axioms: &[&str],
    opts: &SynthOptions,
    jobs: usize,
    sinks: &[&dyn SuiteSink],
    progress: Option<&Arc<ProgressState>>,
    range: Option<(usize, usize)>,
) -> (Vec<SuiteStats>, StreamMetrics) {
    assert_eq!(axioms.len(), sinks.len(), "one sink per axiom");
    for axiom in axioms {
        assert!(
            mtm.axiom(axiom).is_some(),
            "axiom `{axiom}` is not part of {}",
            mtm.name()
        );
    }
    let jobs = jobs.max(1);
    let start = Instant::now();
    let deadline = opts.timeout.map(|t| start + t);
    let space = EnumSpace::new(&opts.enumeration);
    let range = range.unwrap_or((0, space.partition_count()));
    let branch_co_pa = branches_co_pa(mtm);
    let pipeline = Pipeline::new(&space, axioms, progress, deadline, jobs, Some(range));
    pipeline.progress.record(
        JournalEventKind::RunStart,
        None,
        space.partition_count() as u64,
        space.total_mass(),
        jobs as u64,
    );
    let claimed: Vec<crate::dedup::KeySet> =
        axioms.iter().map(|_| crate::dedup::KeySet::new()).collect();
    let shard_stats: Vec<Mutex<Vec<ShardStats>>> =
        axioms.iter().map(|_| Mutex::new(Vec::new())).collect();
    let ctx = RunCtx {
        mtm,
        axioms,
        opts,
        branch_co_pa,
        claimed: &claimed,
        shard_stats: &shard_stats,
        sinks,
    };

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let pipeline = &pipeline;
            let ctx = &ctx;
            scope.spawn(move || worker(pipeline, ctx));
        }
    });

    let progress = Arc::clone(&pipeline.progress);
    let slots = pipeline.slots.clone();
    let st = pipeline
        .state
        .into_inner()
        .expect("pipeline lock is never poisoned");
    // Free the space before the sinks seal, so the seals reuse its
    // memory instead of stacking on top of it.
    drop(space);
    let elapsed = start.elapsed();
    // Every axiom shares one schedule, so all finish here together:
    // complete when the whole range was admitted and every batch retired
    // before the deadline (an empty space completes trivially), cut
    // otherwise. Each run_done fires exactly once — sinks never seal
    // timed-out runs.
    let complete = !st.expired && st.enum_settled(range.1);
    let all_stats: Vec<SuiteStats> = shard_stats
        .into_iter()
        .zip(sinks)
        .zip(&slots)
        .map(|((shards, sink), &slot)| {
            let mut shards = shards.into_inner().expect("stats lock is never poisoned");
            shards.sort_by_key(|s| s.shard);
            let mut stats = SuiteStats::from_shards(st.programs_in_range(), shards);
            stats.elapsed = elapsed;
            stats.timed_out = !complete;
            if complete {
                progress.set_axiom_state(slot, AxiomState::Complete);
                progress.record(
                    JournalEventKind::AxiomComplete,
                    Some(slot as u32),
                    stats.shards.iter().map(|s| s.items as u64).sum(),
                    0,
                    0,
                );
            } else {
                progress.set_axiom_state(slot, AxiomState::Cut);
            }
            sink.run_done(&stats);
            stats
        })
        .collect();
    progress.record(
        JournalEventKind::RunEnd,
        None,
        st.admitter.programs as u64,
        st.admitter.next_index as u64,
        st.batches as u64,
    );
    // The returned metrics ARE the final progress snapshot — one set of
    // counters from first live sample to final record.
    let mut metrics = StreamMetrics::from_snapshot(&progress.snapshot());
    metrics.axioms = axioms.len();
    (all_stats, metrics)
}

/// Runs the fused pipeline for one axiom — the single-suite entry the
/// orchestrator and the store's cold path use.
///
/// # Panics
///
/// Panics when `axiom` is not part of `mtm`.
pub(crate) fn run_streamed(
    mtm: &Mtm,
    axiom: &str,
    opts: &SynthOptions,
    jobs: usize,
    sink: &dyn SuiteSink,
    progress: Option<&Arc<ProgressState>>,
) -> (SuiteStats, StreamMetrics) {
    let (mut stats, metrics) = run_fused(mtm, &[axiom], opts, jobs, &[sink], progress);
    (stats.remove(0), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_synth::programs::EnumOptions;
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

    /// The admitter over in-order partitions equals the sequential
    /// planner's scan over the eager enumeration.
    #[test]
    fn admitter_reproduces_the_sequential_plan() {
        let m = mtm();
        for symmetry in [true, false] {
            let eo = enum_opts(4, symmetry);
            let space = EnumSpace::new(&eo);
            let mut admitter = Admitter::new(symmetry);
            let mut items = Vec::new();
            for p in 0..space.partition_count() {
                items.extend(admitter.admit(space.enumerate_keyed(p)));
            }
            let keyed = transform_synth::programs::programs(&eo)
                .into_iter()
                .map(|p| {
                    let key = plan_key(&p);
                    (p, key)
                })
                .collect();
            let reference = plan_from_keyed(&m, "sc_per_loc", keyed, false);
            assert_eq!(admitter.programs, reference.programs, "symmetry {symmetry}");
            assert_eq!(items.len(), reference.items.len(), "symmetry {symmetry}");
            for (a, b) in items.iter().zip(&reference.items) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.key, b.key);
                assert_eq!(a.program, b.program);
            }
        }
    }

    /// Every task from partition 0 up to `range.1`, as the pipeline
    /// hands them out.
    fn tasks_of(space: &EnumSpace, range: (usize, usize)) -> Vec<Range<usize>> {
        let mut tasks = Vec::new();
        let mut lo = 0;
        while lo < range.1 {
            let hi = task_end(space.masses(), lo, range);
            tasks.push(lo..hi);
            lo = hi;
        }
        tasks
    }

    /// Claims the next `n` tasks, which must all be enumeration tasks
    /// that continue one another.
    fn claim_tasks(pipeline: &Pipeline<'_>, n: usize) -> Vec<Range<usize>> {
        let mut next = pipeline.state.lock().expect("lock").next_enum;
        (0..n)
            .map(|_| match pipeline.next_task() {
                Some(Task::Enumerate(task)) => {
                    assert_eq!(task.start, next, "tasks continue one another");
                    next = task.end;
                    task
                }
                _ => panic!("expected an enumeration task"),
            })
            .collect()
    }

    /// Every partition of `task`, enumerated.
    fn enumerate(space: &EnumSpace, task: &Range<usize>) -> Vec<Vec<KeyedProgram>> {
        task.clone().map(|p| space.enumerate_keyed(p)).collect()
    }

    /// Resolves `task` with every one of its partitions enumerated.
    fn deliver(pipeline: &Pipeline<'_>, task: &Range<usize>) {
        pipeline.resolve(
            task.clone(),
            enumerate(pipeline.space, task),
            Duration::ZERO,
        );
    }

    /// Tasks tile every range of the space in order, each gathering at
    /// least [`TASK_MASS`] unless it ends at either end of the range or
    /// is one heavier partition, and none crosses the range's start.
    /// With fences and RMW, bounds 4 / 5 / 6 make 3 / 19 / 147 tasks of
    /// 483 / 3,798 / 33,044 partitions.
    #[test]
    fn tasks_tile_the_space_by_mass() {
        for (bound, partitions, pinned) in [(4, 483, 3), (5, 3_798, 19), (6, 33_044, 147)] {
            let space = EnumSpace::new(&EnumOptions::new(bound));
            let masses = space.masses();
            let n = space.partition_count();
            assert_eq!(n, partitions, "bound {bound}");
            assert_eq!(tasks_of(&space, (0, n)).len(), pinned, "bound {bound}");
            for range in [
                (0, n),
                (n / 3, n),
                (0, n / 2),
                (n / 3, 2 * n / 3),
                (n / 2, n / 2),
            ] {
                let mut next = 0;
                for task in tasks_of(&space, range) {
                    assert_eq!(task.start, next, "bound {bound} {range:?}: in order");
                    assert!(task.start < task.end, "bound {bound} {range:?}: empty task");
                    assert!(
                        task.end <= range.0 || task.start >= range.0,
                        "bound {bound} {range:?}: {task:?} crosses the range start"
                    );
                    let mass: u64 = masses[task.clone()].iter().sum();
                    let heavy = task.len() == 1 && masses[task.start] > TASK_MASS;
                    assert!(
                        mass >= TASK_MASS || task.end == range.0 || task.end == range.1 || heavy,
                        "bound {bound} {range:?}: {task:?} holds only {mass}"
                    );
                    next = task.end;
                }
                assert_eq!(next, range.1, "bound {bound} {range:?}: tiles the range");
            }
        }
    }

    /// Out-of-order delivery with a task cut before its first
    /// partition: the frontier admits the tasks below the cut and drops
    /// everything from it on.
    #[test]
    fn frontier_cuts_reproducibly_on_out_of_order_delivery() {
        let space = EnumSpace::new(&EnumOptions::new(5));
        let pipeline = Pipeline::new(&space, &["a"], None, None, 2, None);
        let tasks = claim_tasks(&pipeline, 4);
        // Deliver task 3, cut task 2, then deliver tasks 1 and 0: only
        // tasks 0 and 1 may be admitted, and the cut lands at task 2's
        // first partition.
        deliver(&pipeline, &tasks[3]);
        pipeline.resolve(tasks[2].clone(), Vec::new(), Duration::ZERO);
        deliver(&pipeline, &tasks[1]);
        deliver(&pipeline, &tasks[0]);
        let st = pipeline.state.into_inner().expect("lock");
        assert_eq!(st.cut_at, Some(tasks[2].start));
        assert_eq!(st.frontier, tasks[2].start);
        assert!(st.expired);
        let mut reference = Admitter::new(true);
        for task in &tasks[..2] {
            for keyed in enumerate(&space, task) {
                reference.admit(keyed);
            }
        }
        assert!(reference.programs > 0, "tasks too small for the test");
        assert_eq!(st.admitter.programs, reference.programs);
        assert_eq!(st.admitter.next_index, reference.next_index);
        // The cut abandons the queued batches along with their
        // candidates.
        assert!(st.exam.is_empty());
        assert_eq!(st.live, 0);
    }

    /// A fused three-axiom pipeline makes one batch per admitted chunk:
    /// the batches tile the plan in order, each item exactly once.
    #[test]
    fn fused_pipeline_makes_one_batch_per_chunk() {
        let eo = enum_opts(4, true);
        let space = EnumSpace::new(&eo);
        let tasks = tasks_of(&space, (0, space.partition_count()));
        // A window wide enough to claim every task before any examine
        // batch exists (examination has pop priority).
        let pipeline = Pipeline::new(&space, &["a", "b", "c"], None, None, tasks.len(), None);
        assert_eq!(claim_tasks(&pipeline, tasks.len()), tasks);
        for task in &tasks {
            deliver(&pipeline, task);
        }
        let st = pipeline.state.into_inner().expect("lock");
        assert!(st.batches > 1, "space too small for the test");
        assert_eq!(st.exam.len(), st.batches, "one batch per chunk");
        let shards: Vec<usize> = st.exam.iter().map(|b| b.shard).collect();
        assert_eq!(shards, (0..st.batches).collect::<Vec<_>>());
        let indices: Vec<usize> = st
            .exam
            .iter()
            .flat_map(|b| b.items.iter().map(|item| item.index))
            .collect();
        assert_eq!(indices, (0..st.admitter.next_index).collect::<Vec<_>>());
        assert_eq!(st.live, indices.len());
    }

    /// Regression for the former "best-effort on timed-out runs" peak
    /// accounting: a deadline cut now (a) counts discarded tasks
    /// delivered after expiry toward the peak — they were materialized
    /// — and (b) returns every queued-but-abandoned candidate to the
    /// live count, so `live` drains to exactly the in-flight batches.
    #[test]
    fn deadline_cut_keeps_live_accounting_exact() {
        let space = EnumSpace::new(&EnumOptions::new(5));
        let pipeline = Pipeline::new(&space, &["a"], None, None, 3, None);
        let tasks = claim_tasks(&pipeline, 5);
        let delivered =
            |task: &Range<usize>| -> usize { enumerate(&space, task).iter().map(Vec::len).sum() };
        let admitted = delivered(&tasks[0]) + delivered(&tasks[1]);
        let late = delivered(&tasks[4]);
        assert!(admitted > 0 && late > 0, "tasks too small for the test");
        // Tasks 0 and 1 admit: their items go live and queue as batches.
        for task in &tasks[..2] {
            deliver(&pipeline, task);
        }
        // Task 2 is cut: expire() discards the queued batches and
        // drains their candidates from the live count on the spot.
        pipeline.resolve(tasks[2].clone(), Vec::new(), Duration::ZERO);
        {
            let st = pipeline.state.lock().expect("lock");
            assert!(st.expired);
            assert_eq!(st.cut_at, Some(tasks[2].start));
            assert_eq!(st.live, 0, "abandoned queue drained exactly");
            assert!(st.exam.is_empty());
        }
        // Task 4 lands after expiry: discarded, but its programs were
        // materialized — the peak must include them.
        deliver(&pipeline, &tasks[4]);
        let st = pipeline.state.into_inner().expect("lock");
        assert_eq!(st.live, 0);
        assert!(
            st.peak_live >= admitted.max(late),
            "peak {} must cover both the admitted ({admitted}) and the \
             discarded ({late}) materializations",
            st.peak_live
        );
        // The progress mirror agrees with the final state.
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.peak_live_candidates, st.peak_live);
        assert_eq!(snap.live_candidates, 0);
        assert_eq!(snap.cut_at_partition, Some(tasks[2].start));
    }

    /// A deadline inside a task: its worker delivers the partitions it
    /// finished, the plan is cut at the first partition left out, and
    /// exactly the prefix below it is admitted, with its mass retired,
    /// one retire event and exact live accounting.
    #[test]
    fn deadline_inside_a_task_admits_exactly_its_prefix() {
        let space = EnumSpace::new(&EnumOptions::new(5));
        let tasks = tasks_of(&space, (0, space.partition_count()));
        let at = tasks
            .iter()
            .position(|task| task.len() >= 3)
            .expect("a task of three partitions");
        let progress = Arc::new(ProgressState::with_journal(&["a"]));
        let pipeline = Pipeline::new(&space, &["a"], Some(&progress), None, tasks.len(), None);
        claim_tasks(&pipeline, at + 1);
        for task in &tasks[..at] {
            deliver(&pipeline, task);
        }
        let task = tasks[at].clone();
        let cut = task.start + task.len() / 2;
        let prefix: Vec<Vec<KeyedProgram>> = enumerate(&space, &task)
            .into_iter()
            .take(cut - task.start)
            .collect();
        let peak_before = pipeline.state.lock().expect("lock").peak_live;
        let live_before = pipeline.state.lock().expect("lock").live;
        let delivered: usize = prefix.iter().map(Vec::len).sum();
        pipeline.resolve(task.clone(), prefix, Duration::ZERO);

        let st = pipeline.state.into_inner().expect("lock");
        assert!(st.expired);
        assert_eq!(st.cut_at, Some(cut));
        assert_eq!(st.frontier, cut);
        let mut reference = Admitter::new(true);
        for p in 0..cut {
            reference.admit(space.enumerate_keyed(p));
        }
        assert_eq!(st.admitter.programs, reference.programs);
        assert_eq!(st.admitter.next_index, reference.next_index);
        assert_eq!(st.mass_retired, space.masses()[..cut].iter().sum::<u64>());
        assert_eq!(st.live, 0, "the abandoned queue left the live count");
        assert!(st.exam.is_empty());
        assert_eq!(st.peak_live, peak_before.max(live_before + delivered));
        let snap = progress.snapshot();
        assert_eq!(snap.partitions_retired, cut);
        assert_eq!(snap.cut_at_partition, Some(cut));
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
        let cuts: Vec<u64> = journal
            .iter()
            .filter(|e| e.kind == JournalEventKind::Cut)
            .map(|e| e.a)
            .collect();
        assert_eq!(cuts, vec![cut as u64]);
    }

    /// The progress mirror tracks the frontier: partitions retired,
    /// mass retired, programs, and plan items all advance with each
    /// admitted task, and the mass total is the space's.
    #[test]
    fn progress_mirrors_frontier_advance() {
        let eo = enum_opts(4, true);
        let space = EnumSpace::new(&eo);
        let masses = space.masses();
        let tasks = tasks_of(&space, (0, space.partition_count()));
        let pipeline = Pipeline::new(&space, &["a"], None, None, 2, None);
        assert_eq!(pipeline.progress.snapshot().mass_total, space.total_mass());
        for task in &tasks {
            loop {
                match pipeline.next_task() {
                    Some(Task::Enumerate(claimed)) => {
                        assert_eq!(&claimed, task);
                        break;
                    }
                    Some(Task::Examine(b)) => {
                        // Examination has pop priority; retire it untouched.
                        let stats = [ShardStats::new(b.shard)];
                        pipeline.batch_done(&b, &stats, &[0], Duration::ZERO, false);
                    }
                    None => panic!("pipeline drained early"),
                }
            }
            deliver(&pipeline, task);
            let snap = pipeline.progress.snapshot();
            assert_eq!(snap.partitions_retired, task.end);
            assert_eq!(snap.mass_retired, masses[..task.end].iter().sum::<u64>());
            assert_eq!(snap.frontier_depth, 0);
        }
        let st = pipeline.state.into_inner().expect("lock");
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.partitions_retired, space.partition_count());
        assert_eq!(snap.mass_retired, space.total_mass());
        assert_eq!(snap.programs, st.admitter.programs);
        assert_eq!(snap.items_planned, st.admitter.next_index);
        assert_eq!(snap.batches, st.batches);
        assert!(snap.enumeration_eta().is_some());
    }

    /// Head-of-line blocking is journaled where it happens: with the
    /// frontier's task held back and the rest of the window resolved, a
    /// worker asking for work finds nothing to examine and must wait.
    #[test]
    fn full_window_behind_a_held_frontier_journals_a_stall() {
        let space = EnumSpace::new(&EnumOptions::new(5));
        let progress = Arc::new(ProgressState::with_journal(&["a"]));
        // One worker: a window of two tasks.
        let pipeline = Pipeline::new(&space, &["a"], Some(&progress), None, 1, None);
        let tasks = claim_tasks(&pipeline, 2);
        deliver(&pipeline, &tasks[1]);
        let mut journal = Vec::new();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| pipeline.next_task().is_some());
            let give_up = Instant::now() + Duration::from_secs(30);
            while Instant::now() < give_up
                && !journal
                    .iter()
                    .any(|e: &crate::JournalEvent| e.kind == JournalEventKind::FrontierStall)
            {
                journal.extend(progress.take_journal());
                std::thread::sleep(Duration::from_millis(1));
            }
            // Releasing the frontier task wakes the waiting worker.
            deliver(&pipeline, &tasks[0]);
            assert!(waiter.join().expect("waiter joins"), "work after the stall");
        });
        journal.extend(progress.take_journal());
        let stalls: Vec<(u64, u64)> = journal
            .iter()
            .filter(|e| e.kind == JournalEventKind::FrontierStall)
            .map(|e| (e.a, e.b))
            .collect();
        assert_eq!(
            stalls,
            vec![(tasks[0].start as u64, 1)],
            "one stall per wait"
        );
    }

    /// A sink retaining every record with its plan index — what the
    /// store's shard files keep.
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

    fn synth_opts(bound: usize) -> SynthOptions {
        let mut o = SynthOptions::new(bound);
        o.enumeration.allow_fences = false;
        o.enumeration.allow_rmw = false;
        o
    }

    fn run_cold(m: &Mtm, bound: usize, jobs: usize) -> (Vec<SuiteRecord>, SuiteStats) {
        let opts = synth_opts(bound);
        let sink = RecordSink::new();
        let (mut stats, _) = run_fused(m, &["sc_per_loc"], &opts, jobs, &[&sink], None);
        (sink.take(), stats.remove(0))
    }

    /// The fleet invariant at the pipeline level: partition ranges that
    /// tile the space produce shard results whose concatenation is
    /// exactly the single-machine run — same records at the same global
    /// plan indices, semantic counters and per-range program counts
    /// summing to the full totals — at several worker counts and split
    /// points.
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
                let mut programs = Vec::new();
                for range in [(0, split), (split, n)] {
                    let sink = RecordSink::new();
                    let (mut stats, _) = run_fused_range(
                        &m,
                        &["sc_per_loc"],
                        &opts,
                        jobs,
                        &[&sink],
                        None,
                        Some(range),
                    );
                    let stats = stats.remove(0);
                    assert!(!stats.timed_out, "jobs {jobs} split {split}");
                    executions += stats.executions;
                    forbidden += stats.forbidden;
                    minimal += stats.minimal;
                    programs.push(stats.programs);
                    records.extend(sink.take());
                }
                records.sort_by_key(|r| r.index);
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
                // Each range reports only the programs admitted inside
                // it, so the per-range counts sum to the whole run's.
                assert_eq!(
                    programs.iter().sum::<usize>(),
                    full_stats.programs,
                    "jobs {jobs} split {split}"
                );
            }
        }
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
        let (stats, metrics) = run_fused(&m, &["sc_per_loc"], &opts, 2, &[&sink], Some(&progress));
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
    /// `PartitionEnumerated` and one `PartitionRetired` per task (147
    /// tasks of 33,044 partitions), and the retired masses sum to the
    /// space's total.
    #[test]
    fn journaled_run_records_one_event_pair_per_task() {
        let m = mtm();
        let opts = SynthOptions::new(6);
        let space = EnumSpace::new(&opts.enumeration);
        let tasks = tasks_of(&space, (0, space.partition_count()));
        assert_eq!(tasks.len(), 147);
        let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
        let sink = RecordSink::new();
        let (stats, metrics) = run_fused(&m, &["sc_per_loc"], &opts, 2, &[&sink], Some(&progress));
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
        let retired: Vec<(u64, u64, u64)> = of_kind(JournalEventKind::PartitionRetired)
            .map(|e| (e.a, e.b, e.c))
            .collect();
        let expected: Vec<(u64, u64, u64)> = tasks
            .iter()
            .map(|t| {
                let mass = space.masses()[t.clone()].iter().sum();
                (t.start as u64, mass, t.len() as u64)
            })
            .collect();
        assert_eq!(retired, expected, "one retired event per task, in order");
        let total: u64 = retired.iter().map(|r| r.1).sum();
        assert_eq!(total, space.total_mass());
        assert_eq!(progress.snapshot().mass_retired, total);
    }

    #[test]
    fn tuner_targets_the_batch_slice() {
        let mut tuner = Tuner::new();
        assert_eq!(tuner.batch_size(), DEFAULT_BATCH);
        assert!(
            tuner.target_weight().is_none(),
            "uncalibrated until observed"
        );
        // 1000 items of uniform weight 32 in one second → rate 32000
        // weight/sec, 32 weight/item → 50 items per 50 ms slice.
        tuner.observe(1000, 32_000, Duration::from_secs(1));
        assert_eq!(tuner.batch_size(), 50);
        let tw = tuner.target_weight().expect("calibrated");
        assert!((tw - 1600.0).abs() < 1e-6, "50 ms of 32000 weight/sec");
        // Very slow items clamp to the minimum, very fast to the maximum.
        let mut slow = Tuner::new();
        slow.observe(1, 16, Duration::from_secs(10));
        assert_eq!(slow.batch_size(), MIN_BATCH);
        let mut fast = Tuner::new();
        fast.observe(10_000_000, 10_000_000, Duration::from_millis(1));
        assert_eq!(fast.batch_size(), MAX_BATCH);
    }

    /// Heavier programs shrink the batch: after observing a heavy mix,
    /// the same weight target takes fewer items per chunk.
    #[test]
    fn tuner_weights_shrink_batches_for_heavy_items() {
        let mut light = Tuner::new();
        let mut heavy = Tuner::new();
        // Same wall-clock rate in weight/sec, but heavy items carry 16×
        // the weight each — so a 50 ms slice holds 16× fewer of them.
        light.observe(16_000, 512_000, Duration::from_secs(1));
        heavy.observe(1_000, 512_000, Duration::from_secs(1));
        assert_eq!(light.batch_size(), 16 * heavy.batch_size());
    }
}
