//! Live telemetry for streamed synthesis runs.
//!
//! A [`ProgressState`] is a block of atomics the fused pipeline
//! ([`crate::stream`]) publishes into as enumeration tasks retire and
//! examine batches drain — partitions and subtree mass retired (against
//! the totals from [`EnumSpace::masses`]), programs admitted through the
//! dedup frontier, the frontier's depth in tasks, live/peak candidate
//! counts, and per-axiom batch/item/ELT counters. Observers (the CLI's
//! `--progress` reporter) poll [`ProgressState::snapshot`] from any
//! thread without touching the pipeline's lock; the pipeline itself
//! writes with relaxed stores from inside lock-held transitions, so
//! observation adds no synchronization to the hot path.
//!
//! The same state is the run's final record: the returned
//! [`StreamMetrics`] *is* the last snapshot (see
//! [`StreamMetrics::from_snapshot`]), so live counters can never drift
//! from the numbers a run reports at the end.
//!
//! Cached-vs-live rendering: a store-tier lookup that serves an axiom
//! from a sealed entry marks its slot [`AxiomState::Cached`]
//! ([`ProgressState::mark_cached`]), while axioms entering the fused
//! run move through [`AxiomState::Running`] to [`AxiomState::Complete`]
//! (or [`AxiomState::Cut`] on a deadline).
//!
//! [`EnumSpace::masses`]: transform_synth::programs::EnumSpace::masses
//! [`StreamMetrics`]: crate::StreamMetrics
//! [`StreamMetrics::from_snapshot`]: crate::StreamMetrics::from_snapshot

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// All progress stores/loads are relaxed: every write happens inside a
/// pipeline-lock-held transition (mutually ordered already), and
/// readers only ever sample — they never synchronize with the run.
const ORD: Ordering = Ordering::Relaxed;

/// Sentinel for "no deadline cut" in the `cut_at_partition` atomic.
const NO_CUT: usize = usize::MAX;

/// Where one axiom's suite stands in a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AxiomState {
    /// Known to the run but not started (a fused run that has not
    /// reached it, or a tiered lookup still probing the cache).
    Pending,
    /// Its examine batches are in flight.
    Running,
    /// Its whole schedule retired cleanly; the suite is final.
    Complete,
    /// The deadline cut its schedule; the suite is partial.
    Cut,
    /// Served from a sealed store entry — no synthesis ran for it.
    Cached,
}

impl AxiomState {
    fn from_u8(v: u8) -> AxiomState {
        match v {
            1 => AxiomState::Running,
            2 => AxiomState::Complete,
            3 => AxiomState::Cut,
            4 => AxiomState::Cached,
            _ => AxiomState::Pending,
        }
    }

    /// The machine-readable spelling (`--progress json`, tests).
    pub fn name(self) -> &'static str {
        match self {
            AxiomState::Pending => "pending",
            AxiomState::Running => "running",
            AxiomState::Complete => "complete",
            AxiomState::Cut => "cut",
            AxiomState::Cached => "cached",
        }
    }
}

/// What one [`JournalEvent`] records — a span or instant in a
/// synthesis run's life, emitted by the fused pipeline's lock-held
/// transitions when the run's [`ProgressState`] was built with
/// [`ProgressState::with_journal`].
///
/// The payload fields `a`/`b`/`c` are kind-specific (documented per
/// variant); unused ones are zero.
///
/// The pipeline enumerates and admits root partitions in tasks — runs
/// of consecutive partitions of about 256 subtree-mass nodes — so the
/// partition events come one pair per task, and a journal's size
/// follows the work rather than the number of root shapes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JournalEventKind {
    /// The fused run bound its space: `a` = partition count, `b` =
    /// total subtree mass, `c` = worker count.
    RunStart,
    /// One enumeration task was materialized: `a` = its first
    /// partition ordinal, `b` = programs delivered, `c` = the task's
    /// wall-clock in microseconds (so `t_micros - c` is its start;
    /// journals written before tasks carry `c` = 0).
    PartitionEnumerated,
    /// The dedup frontier admitted one task's partitions: `a` = its
    /// first partition ordinal, `b` = their summed subtree mass (the
    /// `b`s of a run sum to its retired mass), `c` = partitions admitted
    /// (fewer than the task's when the deadline cut it; 0 in journals
    /// written before tasks, which admitted one partition per event).
    PartitionRetired,
    /// One examine batch retired, for every axiom of the run at once
    /// (journaled without an axiom): `a` = plan items examined, `b` =
    /// suite members found across all axioms, `c` = batch wall-clock in
    /// microseconds (so `t_micros - c` is the batch's start).
    BatchExamined,
    /// A worker found the lookahead window full behind an unfinished
    /// frontier task, with nothing to examine, and had to wait: `a` =
    /// the frontier partition ordinal being waited on, `b` = enumerated
    /// tasks queued behind it. Recorded once per wait.
    FrontierStall,
    /// `axiom`'s whole schedule retired cleanly.
    AxiomComplete,
    /// The deadline cut the run's shared plan: `a` = the first cut
    /// partition.
    Cut,
    /// The run drained: `a` = programs admitted, `b` = plan items,
    /// `c` = batches created.
    RunEnd,
    /// A store tier sealed `axiom`'s suite: `a` = sealed entry bytes.
    Seal,
    /// A sealed suite for `axiom` was pushed to a remote tier.
    Push,
    /// A fleet coordinator granted a partition-range lease: `a` = the
    /// job id, `b` = the packed range (`lo << 32 | hi`), `c` = the
    /// lease id.
    LeaseGranted,
    /// A lease's heartbeat lapsed and its range returned to the queue:
    /// `a` = the job id, `b` = the packed range, `c` = the lease id.
    LeaseExpired,
    /// A worker's shard result was accepted: `a` = the job id, `b` =
    /// the packed range, `c` = the shard payload bytes.
    ShardUploaded,
    /// A worker retried a shard upload (or re-ran an expired range):
    /// `a` = the job id, `b` = the packed range, `c` = the attempt.
    ShardRetry,
}

impl JournalEventKind {
    /// The wire byte of the kind (stable across releases — the journal
    /// codec persists it). Bytes 10 and 11 are retired and unassigned.
    pub fn as_u8(self) -> u8 {
        match self {
            JournalEventKind::RunStart => 0,
            JournalEventKind::PartitionEnumerated => 1,
            JournalEventKind::PartitionRetired => 2,
            JournalEventKind::BatchExamined => 3,
            JournalEventKind::FrontierStall => 4,
            JournalEventKind::AxiomComplete => 5,
            JournalEventKind::Cut => 6,
            JournalEventKind::RunEnd => 7,
            JournalEventKind::Seal => 8,
            JournalEventKind::Push => 9,
            JournalEventKind::LeaseGranted => 12,
            JournalEventKind::LeaseExpired => 13,
            JournalEventKind::ShardUploaded => 14,
            JournalEventKind::ShardRetry => 15,
        }
    }

    /// The inverse of [`JournalEventKind::as_u8`].
    pub fn from_u8(v: u8) -> Option<JournalEventKind> {
        Some(match v {
            0 => JournalEventKind::RunStart,
            1 => JournalEventKind::PartitionEnumerated,
            2 => JournalEventKind::PartitionRetired,
            3 => JournalEventKind::BatchExamined,
            4 => JournalEventKind::FrontierStall,
            5 => JournalEventKind::AxiomComplete,
            6 => JournalEventKind::Cut,
            7 => JournalEventKind::RunEnd,
            8 => JournalEventKind::Seal,
            9 => JournalEventKind::Push,
            12 => JournalEventKind::LeaseGranted,
            13 => JournalEventKind::LeaseExpired,
            14 => JournalEventKind::ShardUploaded,
            15 => JournalEventKind::ShardRetry,
            _ => return None,
        })
    }

    /// The human-readable spelling (`transform runs show`).
    pub fn name(self) -> &'static str {
        match self {
            JournalEventKind::RunStart => "run_start",
            JournalEventKind::PartitionEnumerated => "partition_enumerated",
            JournalEventKind::PartitionRetired => "partition_retired",
            JournalEventKind::BatchExamined => "batch_examined",
            JournalEventKind::FrontierStall => "frontier_stall",
            JournalEventKind::AxiomComplete => "axiom_complete",
            JournalEventKind::Cut => "cut",
            JournalEventKind::RunEnd => "run_end",
            JournalEventKind::Seal => "seal",
            JournalEventKind::Push => "push",
            JournalEventKind::LeaseGranted => "lease_granted",
            JournalEventKind::LeaseExpired => "lease_expired",
            JournalEventKind::ShardUploaded => "shard_uploaded",
            JournalEventKind::ShardRetry => "shard_retry",
        }
    }
}

/// One timestamped span event of a journaled synthesis run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JournalEvent {
    /// Microseconds since the run's [`ProgressState`] was created.
    pub t_micros: u64,
    /// What happened.
    pub kind: JournalEventKind,
    /// The axiom slot the event belongs to (an index into the state's
    /// axiom list), or `None` for run-level events.
    pub axiom: Option<u32>,
    /// First kind-specific payload (see [`JournalEventKind`]).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
    /// Third kind-specific payload.
    pub c: u64,
}

/// One axiom's live counters.
pub(crate) struct AxiomProgress {
    name: String,
    pub(crate) batches_done: AtomicUsize,
    pub(crate) items_examined: AtomicUsize,
    pub(crate) elts: AtomicUsize,
    pub(crate) state: AtomicU8,
}

/// Shared live counters of one (possibly multi-axiom) synthesis run.
///
/// Created by the observer (e.g. the CLI) with the run's axiom names,
/// wrapped in an [`Arc`](std::sync::Arc), and handed to a synthesis
/// call as its `progress` ([`crate::synthesize`],
/// [`crate::synthesize_streamed`], or the store's
/// `TieredCache::cached_or_synthesize`). Poll
/// [`ProgressState::snapshot`] from any thread.
pub struct ProgressState {
    started: Instant,
    axioms: Vec<AxiomProgress>,
    pub(crate) partitions_total: AtomicUsize,
    pub(crate) partitions_retired: AtomicUsize,
    pub(crate) mass_total: AtomicU64,
    pub(crate) mass_retired: AtomicU64,
    pub(crate) programs: AtomicUsize,
    pub(crate) items_planned: AtomicUsize,
    pub(crate) frontier_depth: AtomicUsize,
    pub(crate) live_candidates: AtomicUsize,
    pub(crate) peak_live_candidates: AtomicUsize,
    pub(crate) batches: AtomicUsize,
    pub(crate) cut_at_partition: AtomicUsize,
    pub(crate) final_batch_size: AtomicUsize,
    /// The run journal, when enabled ([`ProgressState::with_journal`]):
    /// timestamped span events appended by the pipeline's lock-held
    /// transitions and drained once by [`ProgressState::take_journal`].
    journal: Option<Mutex<Vec<JournalEvent>>>,
}

impl ProgressState {
    /// A fresh state tracking `axioms` (every axiom the observer wants
    /// rendered — including ones a tiered lookup may serve from cache
    /// without ever entering the fused run).
    pub fn new<S: AsRef<str>>(axioms: &[S]) -> ProgressState {
        Self::build(axioms, false)
    }

    /// Like [`ProgressState::new`], additionally recording a run
    /// journal: the pipeline appends timestamped [`JournalEvent`]s as
    /// its transitions fire, for persistence alongside store entries.
    /// Journaling only ever *adds* a side buffer — published counters,
    /// scheduling, and therefore sealed suites are byte-identical with
    /// and without it.
    pub fn with_journal<S: AsRef<str>>(axioms: &[S]) -> ProgressState {
        Self::build(axioms, true)
    }

    fn build<S: AsRef<str>>(axioms: &[S], journal: bool) -> ProgressState {
        ProgressState {
            started: Instant::now(),
            journal: journal.then(|| Mutex::new(Vec::new())),
            axioms: axioms
                .iter()
                .map(|name| AxiomProgress {
                    name: name.as_ref().to_string(),
                    batches_done: AtomicUsize::new(0),
                    items_examined: AtomicUsize::new(0),
                    elts: AtomicUsize::new(0),
                    state: AtomicU8::new(AxiomState::Pending as u8),
                })
                .collect(),
            partitions_total: AtomicUsize::new(0),
            partitions_retired: AtomicUsize::new(0),
            mass_total: AtomicU64::new(0),
            mass_retired: AtomicU64::new(0),
            programs: AtomicUsize::new(0),
            items_planned: AtomicUsize::new(0),
            frontier_depth: AtomicUsize::new(0),
            live_candidates: AtomicUsize::new(0),
            peak_live_candidates: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
            cut_at_partition: AtomicUsize::new(NO_CUT),
            final_batch_size: AtomicUsize::new(0),
        }
    }

    /// The slot index of `axiom` (what a journal event's `axiom` field
    /// holds), or `None` when the state was built without it.
    pub fn slot_of(&self, axiom: &str) -> Option<usize> {
        self.axioms.iter().position(|a| a.name == axiom)
    }

    pub(crate) fn axiom(&self, slot: usize) -> &AxiomProgress {
        &self.axioms[slot]
    }

    pub(crate) fn set_axiom_state(&self, slot: usize, state: AxiomState) {
        self.axioms[slot].state.store(state as u8, ORD);
    }

    /// Marks `axiom` as served from a sealed cache entry with `elts`
    /// suite members — the store tier's hook, so cached and live axioms
    /// render distinctly. Unknown names are ignored (the observer chose
    /// not to track them).
    pub fn mark_cached(&self, axiom: &str, elts: usize) {
        if let Some(slot) = self.slot_of(axiom) {
            self.axioms[slot].elts.store(elts, ORD);
            self.set_axiom_state(slot, AxiomState::Cached);
        }
    }

    /// Time since the state was created (the observer's clock — it
    /// starts when the run is requested, cache probing included).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether this state records a run journal.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Appends one journal event, timestamped against the state's
    /// creation. A no-op (one branch) when journaling is off — the
    /// pipeline calls this unconditionally from its transitions.
    pub fn record(&self, kind: JournalEventKind, axiom: Option<u32>, a: u64, b: u64, c: u64) {
        let Some(journal) = &self.journal else { return };
        let t_micros = self.started.elapsed().as_micros() as u64;
        journal
            .lock()
            .expect("journal lock is never poisoned")
            .push(JournalEvent {
                t_micros,
                kind,
                axiom,
                a,
                b,
                c,
            });
    }

    /// Drains the recorded journal (empty when journaling is off or the
    /// events were already taken). The order is exactly emission order.
    pub fn take_journal(&self) -> Vec<JournalEvent> {
        match &self.journal {
            Some(journal) => {
                std::mem::take(&mut *journal.lock().expect("journal lock is never poisoned"))
            }
            None => Vec::new(),
        }
    }

    /// A consistent-enough point-in-time copy of every counter: each
    /// counter is individually monotone (they are only ever increased,
    /// gauges aside), so repeated snapshots never move backwards, but
    /// no cross-counter invariant stronger than that is promised while
    /// the run is live. After the run returns, the snapshot is exact.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let cut = self.cut_at_partition.load(ORD);
        ProgressSnapshot {
            elapsed: self.started.elapsed(),
            partitions_total: self.partitions_total.load(ORD),
            partitions_retired: self.partitions_retired.load(ORD),
            mass_total: self.mass_total.load(ORD),
            mass_retired: self.mass_retired.load(ORD),
            programs: self.programs.load(ORD),
            items_planned: self.items_planned.load(ORD),
            frontier_depth: self.frontier_depth.load(ORD),
            live_candidates: self.live_candidates.load(ORD),
            peak_live_candidates: self.peak_live_candidates.load(ORD),
            batches: self.batches.load(ORD),
            cut_at_partition: (cut != NO_CUT).then_some(cut),
            final_batch_size: self.final_batch_size.load(ORD),
            axioms: self
                .axioms
                .iter()
                .map(|a| AxiomSnapshot {
                    name: a.name.clone(),
                    batches_done: a.batches_done.load(ORD),
                    items_examined: a.items_examined.load(ORD),
                    elts: a.elts.load(ORD),
                    state: AxiomState::from_u8(a.state.load(ORD)),
                })
                .collect(),
        }
    }
}

/// One axiom's counters at a sampling instant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AxiomSnapshot {
    /// The axiom's name.
    pub name: String,
    /// Examine batches retired for this axiom.
    pub batches_done: usize,
    /// Plan items examined for this axiom.
    pub items_examined: usize,
    /// Suite members (ELTs) emitted so far — or, for a
    /// [`AxiomState::Cached`] axiom, the sealed suite's size.
    pub elts: usize,
    /// Where the axiom stands.
    pub state: AxiomState,
}

/// A point-in-time copy of a run's [`ProgressState`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProgressSnapshot {
    /// Time since the progress state was created.
    pub elapsed: Duration,
    /// Enumeration partitions in the space (0 until the run binds).
    pub partitions_total: usize,
    /// Partitions admitted through the dedup frontier.
    pub partitions_retired: usize,
    /// Total subtree mass of the space
    /// ([`EnumSpace::total_mass`]).
    ///
    /// [`EnumSpace::total_mass`]: transform_synth::programs::EnumSpace::total_mass
    pub mass_total: u64,
    /// Mass of the partitions admitted so far.
    pub mass_retired: u64,
    /// Programs admitted (post symmetry reduction).
    pub programs: usize,
    /// Plan items produced by the admitter (write-bearing first
    /// occurrences — each examined once for every axiom).
    pub items_planned: usize,
    /// Enumerated tasks (runs of root partitions) queued behind the
    /// in-order frontier.
    pub frontier_depth: usize,
    /// Candidate programs currently materialized.
    pub live_candidates: usize,
    /// Peak of [`ProgressSnapshot::live_candidates`] over the run,
    /// deadline-discarded tails included.
    pub peak_live_candidates: usize,
    /// Examine batches created (each covers every axiom of the run).
    pub batches: usize,
    /// First partition the deadline cut, if any.
    pub cut_at_partition: Option<usize>,
    /// The autotuner's current batch size.
    pub final_batch_size: usize,
    /// Per-axiom counters, in the order given to [`ProgressState::new`].
    pub axioms: Vec<AxiomSnapshot>,
}

impl ProgressSnapshot {
    /// Fraction of the space's subtree mass retired, in `[0, 1]`.
    pub fn mass_fraction(&self) -> f64 {
        if self.mass_total == 0 {
            return 0.0;
        }
        (self.mass_retired as f64 / self.mass_total as f64).min(1.0)
    }

    /// Projected time until *enumeration* completes, from the observed
    /// mass-retirement rate ([`transform_synth::programs::mass_eta`]).
    /// `None` before any mass retired.
    pub fn enumeration_eta(&self) -> Option<Duration> {
        transform_synth::programs::mass_eta(self.mass_retired, self.mass_total, self.elapsed)
    }

    /// Projected final plan-item count: the items planned so far scaled
    /// by the inverse retired-mass fraction (exact once enumeration
    /// finishes). `None` before any mass retired.
    pub fn estimated_plan_items(&self) -> Option<usize> {
        if self.partitions_retired >= self.partitions_total {
            return Some(self.items_planned);
        }
        if self.mass_retired == 0 {
            return None;
        }
        let scale = self.mass_total as f64 / self.mass_retired as f64;
        Some((self.items_planned as f64 * scale).ceil() as usize)
    }

    /// Projected time until `axiom` (a member of
    /// [`ProgressSnapshot::axioms`]) finishes examining its estimated
    /// schedule, from its observed examination rate. `None` for
    /// cached/complete/cut axioms (nothing left to project) and before
    /// any examination happened.
    pub fn axiom_eta(&self, axiom: &AxiomSnapshot) -> Option<Duration> {
        match axiom.state {
            AxiomState::Running | AxiomState::Pending => {}
            _ => return None,
        }
        let total = self.estimated_plan_items()?;
        if axiom.items_examined == 0 {
            return None;
        }
        let remaining = total.saturating_sub(axiom.items_examined);
        let rate = axiom.items_examined as f64 / self.elapsed.as_secs_f64().max(1e-9);
        Some(Duration::from_secs_f64(remaining as f64 / rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_snapshots_to_zeroes_and_pending_axioms() {
        let state = ProgressState::new(&["a", "b"]);
        let snap = state.snapshot();
        assert_eq!(snap.partitions_total, 0);
        assert_eq!(snap.mass_retired, 0);
        assert_eq!(snap.cut_at_partition, None);
        assert_eq!(snap.axioms.len(), 2);
        assert!(snap.axioms.iter().all(|a| a.state == AxiomState::Pending));
        assert_eq!(snap.mass_fraction(), 0.0);
        assert_eq!(snap.enumeration_eta(), None);
    }

    #[test]
    fn mark_cached_sets_the_slot_and_ignores_unknown_names() {
        let state = ProgressState::new(&["a", "b"]);
        state.mark_cached("b", 17);
        state.mark_cached("nonexistent", 99);
        let snap = state.snapshot();
        assert_eq!(snap.axioms[1].state, AxiomState::Cached);
        assert_eq!(snap.axioms[1].elts, 17);
        assert_eq!(snap.axioms[0].state, AxiomState::Pending);
    }

    #[test]
    fn etas_project_from_retired_fractions() {
        let state = ProgressState::new(&["a"]);
        state.partitions_total.store(10, ORD);
        state.mass_total.store(100, ORD);
        state.mass_retired.store(50, ORD);
        state.items_planned.store(40, ORD);
        state.set_axiom_state(0, AxiomState::Running);
        state.axiom(0).items_examined.store(20, ORD);
        let snap = state.snapshot();
        assert!((snap.mass_fraction() - 0.5).abs() < 1e-9);
        // Half the mass planned 40 items → ~80 projected.
        assert_eq!(snap.estimated_plan_items(), Some(80));
        let eta = snap.axiom_eta(&snap.axioms[0]).expect("rate exists");
        // 20 items examined, 60 projected remaining → ETA ≈ 3 × elapsed.
        let ratio = eta.as_secs_f64() / snap.elapsed.as_secs_f64();
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
        assert!(snap.enumeration_eta().is_some());
    }

    #[test]
    fn journal_records_only_when_enabled_and_drains_once() {
        let off = ProgressState::new(&["a"]);
        assert!(!off.journal_enabled());
        off.record(JournalEventKind::RunStart, None, 1, 2, 3);
        assert!(off.take_journal().is_empty());

        let on = ProgressState::with_journal(&["a"]);
        assert!(on.journal_enabled());
        on.record(JournalEventKind::RunStart, None, 10, 20, 2);
        on.record(JournalEventKind::BatchExamined, Some(0), 5, 1, 900);
        let events = on.take_journal();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, JournalEventKind::RunStart);
        assert_eq!(events[0].axiom, None);
        assert_eq!((events[0].a, events[0].b, events[0].c), (10, 20, 2));
        assert_eq!(events[1].axiom, Some(0));
        assert!(events[1].t_micros >= events[0].t_micros);
        assert!(on.take_journal().is_empty(), "drained exactly once");
    }

    #[test]
    fn journal_kinds_round_trip_their_wire_byte() {
        for kind in [
            JournalEventKind::RunStart,
            JournalEventKind::PartitionEnumerated,
            JournalEventKind::PartitionRetired,
            JournalEventKind::BatchExamined,
            JournalEventKind::FrontierStall,
            JournalEventKind::AxiomComplete,
            JournalEventKind::Cut,
            JournalEventKind::RunEnd,
            JournalEventKind::Seal,
            JournalEventKind::Push,
            JournalEventKind::LeaseGranted,
            JournalEventKind::LeaseExpired,
            JournalEventKind::ShardUploaded,
            JournalEventKind::ShardRetry,
        ] {
            assert_eq!(JournalEventKind::from_u8(kind.as_u8()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        // 10 and 11 stay unassigned: no kind may reuse their bytes.
        for retired in [10, 11, 250] {
            assert_eq!(JournalEventKind::from_u8(retired), None);
        }
    }

    #[test]
    fn finished_axioms_have_no_eta() {
        let state = ProgressState::new(&["a"]);
        state.mass_total.store(10, ORD);
        state.mass_retired.store(10, ORD);
        state.partitions_total.store(1, ORD);
        state.partitions_retired.store(1, ORD);
        state.items_planned.store(5, ORD);
        state.axiom(0).items_examined.store(5, ORD);
        for s in [AxiomState::Complete, AxiomState::Cut, AxiomState::Cached] {
            state.set_axiom_state(0, s);
            let snap = state.snapshot();
            assert_eq!(snap.axiom_eta(&snap.axioms[0]), None, "{s:?}");
        }
        assert_eq!(state.snapshot().enumeration_eta(), Some(Duration::ZERO));
    }
}
