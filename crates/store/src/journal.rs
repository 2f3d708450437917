//! Persistent run journals: synthesis runs as first-class store
//! artifacts.
//!
//! A journaled synthesis run leaves two things behind:
//!
//! * a **run manifest** — the run's key (MTM, bound, options, jobs),
//!   its outcome ([`RunOutcome`]), and the final counters of its
//!   [`transform_par::ProgressSnapshot`] (partitions, programs, plan
//!   items, batches, and one [`transform_par::AxiomSnapshot`] per
//!   axiom) — enough for `transform runs list` and the serve fleet view
//!   without touching event data; and
//! * the **event journal** — every timestamped
//!   [`transform_par::JournalEvent`] the fused pipeline emitted (one
//!   batch examine per root partition with plan items, cuts,
//!   seal/push), delta-encoded and checksummed, which
//!   `transform runs export --chrome` turns into an `about://tracing`
//!   flamegraph. Its size follows the run's work, not the number of
//!   root shapes in its space.
//!
//! Both live in one `run-<id>.tfr` file per run, written atomically
//! next to the sealed `.tfs` suites (see the [`crate::store::Store`]
//! run methods in this module). Like suites, run files are
//! self-validating: magic, format version, and a trailing FNV-1a 64
//! checksum; damaged files decode to [`StoreError::Corrupt`] and are
//! skipped by listings, never served. There is no list file to keep in
//! step: [`Store::runs`], `transform runs list` and `GET /v1/runs` scan
//! the journals themselves, so a write or a removal touches one file.
//!
//! Journals and run lists written before the manifest dropped subtree
//! mass carry other magics; they read as corrupt, listings skip them,
//! and `store verify --remove-corrupt` deletes them.
//!
//! A crashed run is visible by construction: the synthesis driver
//! heartbeats a [`RunOutcome::Running`] manifest while the pipeline
//! executes and rewrites it `Complete`/`Cut` at the end, so a `.tfr`
//! still claiming `Running` long after its mtime went stale is a
//! crash record.
//!
//! # Garbage collection
//!
//! Run journals are advisory history, not cache entries: `store gc
//! --older-than-days N` ages them by mtime exactly like sealed suites,
//! and `tmp-run-*` staging leftovers fall under the ordinary `tmp-*`
//! sweep. Deleting a journal never invalidates a suite — the two are
//! independent artifacts.

use crate::codec::{open_frame, seal_frame, Dec, Enc};
use crate::store::{write_staged, Store, StoreError};
use std::fs;
use std::path::PathBuf;
use transform_par::{AxiomSnapshot, AxiomState, JournalEvent, JournalEventKind, ProgressSnapshot};

const RUN_MAGIC: &[u8; 8] = b"TFRUNJ2\0";
const RUN_LIST_MAGIC: &[u8; 8] = b"TFRUNL2\0";
const RUN_EXT: &str = "tfr";

/// How a journaled run ended (or has not yet).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The run is (or was, if the file's mtime is stale) in flight —
    /// the heartbeat manifest a live synthesis rewrites periodically.
    Running,
    /// Every axiom's schedule retired cleanly.
    Complete,
    /// The deadline cut the run; suites are partial and unsealed.
    Cut,
}

impl RunOutcome {
    /// The outcome's wire byte; 3 is unassigned.
    fn as_u8(self) -> u8 {
        match self {
            RunOutcome::Running => 0,
            RunOutcome::Complete => 1,
            RunOutcome::Cut => 2,
        }
    }

    fn from_u8(v: u8) -> Option<RunOutcome> {
        Some(match v {
            0 => RunOutcome::Running,
            1 => RunOutcome::Complete,
            2 => RunOutcome::Cut,
            _ => return None,
        })
    }

    /// The machine-readable spelling (`transform runs list`, tests).
    pub fn name(self) -> &'static str {
        match self {
            RunOutcome::Running => "running",
            RunOutcome::Complete => "complete",
            RunOutcome::Cut => "cut",
        }
    }
}

/// The summary record of one journaled synthesis run — everything
/// `transform runs list` and the serve fleet view need without
/// decoding event data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunManifest {
    /// The run's identity (its `run-<id>.tfr` file name).
    pub id: u64,
    /// The MTM's name.
    pub mtm: String,
    /// The instruction bound.
    pub bound: usize,
    /// Whether `MFENCE` was in the program space.
    pub allow_fences: bool,
    /// Whether RMW pairs were in the program space.
    pub allow_rmw: bool,
    /// Worker threads the run used.
    pub jobs: usize,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub started_unix_micros: u64,
    /// Run duration so far (final for a finished run), microseconds.
    pub elapsed_micros: u64,
    /// How the run ended (or [`RunOutcome::Running`] while it has not).
    pub outcome: RunOutcome,
    /// Enumeration partitions in the space.
    pub partitions_total: u64,
    /// Partitions planned and examined by the run — for a
    /// [`RunOutcome::Cut`] run, exactly those retired before the
    /// deadline hit.
    pub partitions_retired: u64,
    /// Programs of the retired partitions (post symmetry reduction).
    pub programs: u64,
    /// Plan items of the retired partitions.
    pub items_planned: u64,
    /// Examine batches retired, each covering every axiom.
    pub batches: u64,
    /// Peak live candidate programs.
    pub peak_live_candidates: u64,
    /// First partition the deadline cut, if any.
    pub cut_at_partition: Option<u64>,
    /// Per-axiom final counters.
    pub axioms: Vec<AxiomSnapshot>,
}

impl RunManifest {
    /// Builds a manifest from a run's live [`ProgressSnapshot`] — the
    /// heartbeat path while the run executes (`outcome` =
    /// [`RunOutcome::Running`]) and the final write when it ends.
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshot(
        id: u64,
        mtm: &str,
        bound: usize,
        allow_fences: bool,
        allow_rmw: bool,
        jobs: usize,
        started_unix_micros: u64,
        outcome: RunOutcome,
        snap: &ProgressSnapshot,
    ) -> RunManifest {
        RunManifest {
            id,
            mtm: mtm.to_string(),
            bound,
            allow_fences,
            allow_rmw,
            jobs,
            started_unix_micros,
            elapsed_micros: snap.elapsed.as_micros() as u64,
            outcome,
            partitions_total: snap.partitions_total as u64,
            partitions_retired: snap.partitions_retired as u64,
            programs: snap.programs as u64,
            items_planned: snap.items_planned as u64,
            batches: snap.batches as u64,
            peak_live_candidates: snap.peak_live_candidates as u64,
            cut_at_partition: snap.cut_at_partition.map(|p| p as u64),
            axioms: snap.axioms.clone(),
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.id);
        e.string(&self.mtm);
        e.size(self.bound);
        e.boolean(self.allow_fences);
        e.boolean(self.allow_rmw);
        e.size(self.jobs);
        e.varint(self.started_unix_micros);
        e.varint(self.elapsed_micros);
        e.u8(self.outcome.as_u8());
        e.varint(self.partitions_total);
        e.varint(self.partitions_retired);
        e.varint(self.programs);
        e.varint(self.items_planned);
        e.varint(self.batches);
        e.varint(self.peak_live_candidates);
        match self.cut_at_partition {
            Some(p) => {
                e.boolean(true);
                e.varint(p);
            }
            None => e.boolean(false),
        }
        e.size(self.axioms.len());
        for axiom in &self.axioms {
            e.string(&axiom.name);
            e.u8(axiom.state.as_u8());
            e.size(axiom.elts);
            e.size(axiom.items_examined);
            e.size(axiom.batches_done);
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<RunManifest, StoreError> {
        let id = d.u64()?;
        let mtm = d.string()?;
        let bound = d.size()?;
        let allow_fences = d.boolean()?;
        let allow_rmw = d.boolean()?;
        let jobs = d.size()?;
        let started_unix_micros = d.varint()?;
        let elapsed_micros = d.varint()?;
        let outcome_byte = d.u8()?;
        let outcome = RunOutcome::from_u8(outcome_byte).ok_or_else(|| {
            StoreError::Corrupt(format!("invalid run outcome byte {outcome_byte}"))
        })?;
        let partitions_total = d.varint()?;
        let partitions_retired = d.varint()?;
        let programs = d.varint()?;
        let items_planned = d.varint()?;
        let batches = d.varint()?;
        let peak_live_candidates = d.varint()?;
        let cut_at_partition = if d.boolean()? {
            Some(d.varint()?)
        } else {
            None
        };
        let axiom_count = d.size_bounded(1 << 16, "run axioms")?;
        let mut axioms = Vec::with_capacity(axiom_count);
        for _ in 0..axiom_count {
            let name = d.string()?;
            let state_byte = d.u8()?;
            let state = AxiomState::from_u8(state_byte).ok_or_else(|| {
                StoreError::Corrupt(format!("invalid axiom state byte {state_byte}"))
            })?;
            axioms.push(AxiomSnapshot {
                name,
                state,
                elts: d.size()?,
                items_examined: d.size()?,
                batches_done: d.size()?,
            });
        }
        Ok(RunManifest {
            id,
            mtm,
            bound,
            allow_fences,
            allow_rmw,
            jobs,
            started_unix_micros,
            elapsed_micros,
            outcome,
            partitions_total,
            partitions_retired,
            programs,
            items_planned,
            batches,
            peak_live_candidates,
            cut_at_partition,
            axioms,
        })
    }
}

/// One journaled run in full: its manifest plus every pipeline event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunJournal {
    /// The run's summary record.
    pub manifest: RunManifest,
    /// The timestamped pipeline events, in emission order.
    pub events: Vec<JournalEvent>,
}

/// Encodes a run journal to its on-disk (and on-wire — `GET
/// /v1/runs/<id>` serves exactly these bytes) form: magic, format
/// version, the manifest, the delta-timestamped events, and a trailing
/// FNV-1a 64 checksum.
pub fn encode_run(journal: &RunJournal) -> Vec<u8> {
    seal_frame(RUN_MAGIC, |e| {
        journal.manifest.encode(e);
        e.size(journal.events.len());
        let mut prev_t = 0u64;
        for event in &journal.events {
            // Timestamps are non-decreasing (one clock, lock-held
            // emission), so delta encoding keeps hot batch events to a
            // few bytes each.
            e.varint(event.t_micros.saturating_sub(prev_t));
            prev_t = event.t_micros;
            e.u8(event.kind.as_u8());
            // Axiom slot, biased by one so `0` means "not axiom-scoped".
            e.varint(match event.axiom {
                Some(slot) => u64::from(slot) + 1,
                None => 0,
            });
            e.varint(event.a);
            e.varint(event.b);
            e.varint(event.c);
        }
    })
}

/// Decodes run-journal bytes — the [`encode_run`] form — validating the
/// trailing checksum, magic, and format version.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on damaged bytes, [`StoreError::Version`] on
/// format skew.
pub fn decode_run(bytes: &[u8]) -> Result<RunJournal, StoreError> {
    let mut d = open_frame(bytes, RUN_MAGIC, "run journal")?;
    let manifest = RunManifest::decode(&mut d)?;
    let event_count = d.size_bounded(1 << 26, "journal events")?;
    let mut events = Vec::with_capacity(event_count.min(1 << 16));
    let mut t = 0u64;
    for _ in 0..event_count {
        t = t.saturating_add(d.varint()?);
        let kind_byte = d.u8()?;
        let kind = JournalEventKind::from_u8(kind_byte).ok_or_else(|| {
            StoreError::Corrupt(format!("invalid journal event kind byte {kind_byte}"))
        })?;
        let axiom_biased = d.varint()?;
        let axiom = if axiom_biased == 0 {
            None
        } else {
            Some(
                u32::try_from(axiom_biased - 1)
                    .map_err(|_| StoreError::Corrupt("axiom slot out of range".into()))?,
            )
        };
        events.push(JournalEvent {
            t_micros: t,
            kind,
            axiom,
            a: d.varint()?,
            b: d.varint()?,
            c: d.varint()?,
        });
    }
    if !d.at_end() {
        return Err(StoreError::Corrupt("trailing bytes in run journal".into()));
    }
    Ok(RunJournal { manifest, events })
}

/// Encodes a run-manifest list — the `GET /v1/runs` wire format: a
/// frame whose payload is the manifests sorted by start time descending
/// (newest first).
pub fn encode_run_list(manifests: &[RunManifest]) -> Vec<u8> {
    let mut sorted: Vec<&RunManifest> = manifests.iter().collect();
    sorted.sort_by_key(|m| std::cmp::Reverse((m.started_unix_micros, m.id)));
    seal_frame(RUN_LIST_MAGIC, |e| {
        e.size(sorted.len());
        for manifest in sorted {
            manifest.encode(e);
        }
    })
}

/// Decodes a run-manifest list — the [`encode_run_list`] form.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on damaged bytes, [`StoreError::Version`] on
/// format skew.
pub fn decode_run_list(bytes: &[u8]) -> Result<Vec<RunManifest>, StoreError> {
    let mut d = open_frame(bytes, RUN_LIST_MAGIC, "run list")?;
    let count = d.size_bounded(1 << 20, "run list entries")?;
    let mut manifests = Vec::with_capacity(count.min(1 << 12));
    for _ in 0..count {
        manifests.push(RunManifest::decode(&mut d)?);
    }
    if !d.at_end() {
        return Err(StoreError::Corrupt("trailing bytes in run list".into()));
    }
    Ok(manifests)
}

/// A fresh, process-unique run identity: wall-clock microseconds folded
/// with the pid and a per-process counter, so concurrent runs (threads
/// or processes) on one store never collide in practice.
pub fn fresh_run_id() -> u64 {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut h = crate::codec::Fnv64::new();
    h.update(&micros.to_le_bytes());
    h.update(&u64::from(std::process::id()).to_le_bytes());
    h.update(&count.to_le_bytes());
    h.finish()
}

impl Store {
    /// The journal path of a run id.
    pub fn run_path(&self, id: u64) -> PathBuf {
        self.root().join(format!("run-{id:016x}.{RUN_EXT}"))
    }

    /// Atomically writes (or rewrites — the heartbeat path) one run's
    /// journal.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when staging or renaming fails.
    pub fn write_run(&self, journal: &RunJournal) -> Result<(), StoreError> {
        self.stage_run(journal.manifest.id, &encode_run(journal))
    }

    /// Installs run-journal bytes received from elsewhere (an HTTP
    /// `PUT`) as the journal for `id`, after fully validating them —
    /// checksum, format version, and that the manifest inside actually
    /// names `id`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`]/[`StoreError::Version`] when the bytes
    /// fail validation; [`StoreError::Io`] when staging or renaming
    /// fails.
    pub fn install_run_bytes(&self, id: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let journal = decode_run(bytes)?;
        if journal.manifest.id != id {
            return Err(StoreError::Corrupt(format!(
                "run journal names id {:016x}, expected {id:016x}",
                journal.manifest.id
            )));
        }
        self.stage_run(id, bytes)
    }

    fn stage_run(&self, id: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let tag = format!("run-{id:016x}");
        write_staged(&self.run_path(id), &tag, bytes, |_| Ok(()))
    }

    /// The raw journal bytes of a run, or `None` when no journal exists
    /// for `id` — the payload `GET /v1/runs/<id>` serves. Not
    /// re-validated here; receivers always validate (via
    /// [`decode_run`] or [`Store::install_run_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the file exists but cannot be
    /// read.
    pub fn run_bytes(&self, id: u64) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(self.run_path(id)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Reads and validates one run's journal.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file is missing or unreadable,
    /// [`StoreError::Corrupt`]/[`StoreError::Version`] when its bytes
    /// fail validation.
    pub fn read_run(&self, id: u64) -> Result<RunJournal, StoreError> {
        decode_run(&fs::read(self.run_path(id))?)
    }

    /// Every run's manifest, newest first. Corrupt or unreadable
    /// journal files are skipped (they are damage, not history), as are
    /// files that do not follow the `run-<id>.tfr` naming.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory is unreadable.
    pub fn runs(&self) -> Result<Vec<RunManifest>, StoreError> {
        let mut manifests = Vec::new();
        for id in self.run_ids()? {
            if let Ok(journal) = self.read_run(id) {
                manifests.push(journal.manifest);
            }
        }
        manifests.sort_by_key(|m| std::cmp::Reverse((m.started_unix_micros, m.id)));
        Ok(manifests)
    }

    /// Every run id with a journal file on disk, sorted.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory is unreadable.
    pub fn run_ids(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root())? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(RUN_EXT) {
                continue;
            }
            let stem = path.file_stem().and_then(|s| s.to_str());
            if let Some(hex) = stem.and_then(|s| s.strip_prefix("run-")) {
                if hex.len() == 16 {
                    if let Ok(id) = u64::from_str_radix(hex, 16) {
                        out.push(id);
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Deletes the journal for `id`, if present.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when deletion itself fails.
    pub fn remove_run(&self, id: u64) -> Result<(), StoreError> {
        match fs::remove_file(self.run_path(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// The last-modified time of a run's journal — the age `store gc`
    /// filters on; a [`RunOutcome::Running`] manifest whose time went
    /// stale is a crash record.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the journal is missing or its
    /// metadata is unreadable.
    pub fn run_mtime(&self, id: u64) -> Result<std::time::SystemTime, StoreError> {
        Ok(fs::metadata(self.run_path(id))?.modified()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest(id: u64, outcome: RunOutcome) -> RunManifest {
        RunManifest {
            id,
            mtm: "x86t_elt".into(),
            bound: 6,
            allow_fences: true,
            allow_rmw: true,
            jobs: 4,
            started_unix_micros: 1_700_000_000_000_000,
            elapsed_micros: 30_291_993,
            outcome,
            partitions_total: 33_044,
            partitions_retired: 33_044,
            programs: 2_725,
            items_planned: 9_999,
            batches: 501,
            peak_live_candidates: 127,
            cut_at_partition: match outcome {
                RunOutcome::Cut => Some(17),
                _ => None,
            },
            axioms: vec![
                AxiomSnapshot {
                    name: "sc_per_loc".into(),
                    state: AxiomState::Complete,
                    elts: 54,
                    items_examined: 9_999,
                    batches_done: 501,
                },
                AxiomSnapshot {
                    name: "tlb_causality".into(),
                    state: AxiomState::Cached,
                    elts: 12,
                    items_examined: 0,
                    batches_done: 0,
                },
            ],
        }
    }

    fn sample_journal(id: u64) -> RunJournal {
        RunJournal {
            manifest: sample_manifest(id, RunOutcome::Complete),
            events: vec![
                JournalEvent {
                    t_micros: 10,
                    kind: JournalEventKind::RunStart,
                    axiom: None,
                    a: 33_044,
                    b: 0,
                    c: 4,
                },
                JournalEvent {
                    t_micros: 2_000,
                    kind: JournalEventKind::BatchExamined,
                    axiom: Some(0),
                    a: 64,
                    b: 3,
                    c: 1_500,
                },
                JournalEvent {
                    t_micros: 2_000,
                    kind: JournalEventKind::AxiomComplete,
                    axiom: Some(0),
                    a: 9_999,
                    b: 0,
                    c: 0,
                },
                JournalEvent {
                    t_micros: 5_000,
                    kind: JournalEventKind::RunEnd,
                    axiom: None,
                    a: 2_725,
                    b: 9_999,
                    c: 501,
                },
            ],
        }
    }

    /// `frame` with its body edited and its checksum recomputed.
    fn reframed(frame: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = frame[..frame.len() - 8].to_vec();
        edit(&mut body);
        let checksum = crate::codec::fnv1a64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "tfs-journal-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).expect("store opens")
    }

    #[test]
    fn run_journals_round_trip_exactly() {
        let journal = sample_journal(0xdead_beef);
        let bytes = encode_run(&journal);
        assert_eq!(decode_run(&bytes).expect("decodes"), journal);
    }

    /// A journal as written by a build whose manifests carried subtree
    /// mass and an examine-batch size, under the magic of that format.
    /// It reads as corrupt, and listings skip it; so does a run list
    /// under that format's magic.
    #[test]
    fn journals_under_the_earlier_magic_are_refused() {
        const EARLIER: &str = concat!(
            "544652554e4a4c0002000000efbeadde0000000008783836745f656c74060101",
            "048080f9c0c1c4820399f0b80e01948202948202c0c407c0c407a5158f4ef503",
            "7ffe1000020a73635f7065725f6c6f6302368f4ef5030d746c625f6361757361",
            "6c697479040c0000040a0000948202c0c40704c60f03014003dc0b000200070c",
            "00b8170700a5158f4ef503b2f3bf58c96c86d1",
        );
        let bytes: Vec<u8> = (0..EARLIER.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&EARLIER[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(&bytes[..8], b"TFRUNJL\0");
        assert!(matches!(decode_run(&bytes), Err(StoreError::Corrupt(_))));
        let list = reframed(
            &encode_run_list(&[sample_manifest(1, RunOutcome::Cut)]),
            |body| body[..8].copy_from_slice(b"TFRUNLS\0"),
        );
        assert!(matches!(
            decode_run_list(&list),
            Err(StoreError::Corrupt(_))
        ));

        let store = temp_store("earlier");
        std::fs::write(store.run_path(0xdead_beef), &bytes).expect("plants the journal");
        assert_eq!(store.run_ids().expect("ids"), vec![0xdead_beef]);
        assert!(
            store.runs().expect("lists").is_empty(),
            "skipped, not served"
        );
        assert!(store.read_run(0xdead_beef).is_err());
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// An axiom state byte no state owns is damage, like an unknown
    /// outcome byte: a re-checksummed manifest holding state 9 is
    /// refused.
    #[test]
    fn unknown_axiom_state_bytes_are_corrupt() {
        let bytes = encode_run(&sample_journal(1));
        let row = b"\x0asc_per_loc";
        let at = row.len()
            + bytes
                .windows(row.len())
                .position(|w| w == row)
                .expect("the first axiom row");
        assert_eq!(bytes[at], AxiomState::Complete.as_u8());
        match decode_run(&reframed(&bytes, |body| body[at] = 9)) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("axiom state byte 9"), "{m}"),
            other => panic!("state byte 9 decoded: {other:?}"),
        }
    }

    #[test]
    fn truncated_or_flipped_journal_bytes_are_rejected() {
        let bytes = encode_run(&sample_journal(1));
        for cut in 0..bytes.len() {
            assert!(
                decode_run(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x40;
        assert!(decode_run(&flipped).is_err(), "bit flip must error");
    }

    #[test]
    fn frames_of_another_format_version_read_as_skew() {
        let skewed = |frame: Vec<u8>| {
            reframed(&frame, |body| {
                body[8..12].copy_from_slice(&1u32.to_le_bytes())
            })
        };
        let journal = skewed(encode_run(&sample_journal(1)));
        assert!(matches!(
            decode_run(&journal),
            Err(StoreError::Version { found: 1 })
        ));
        let list = skewed(encode_run_list(&[sample_manifest(1, RunOutcome::Cut)]));
        assert!(matches!(
            decode_run_list(&list),
            Err(StoreError::Version { found: 1 })
        ));
        let index = skewed(crate::index::encode(&[]));
        assert!(matches!(
            crate::index::decode(&index),
            Err(StoreError::Version { found: 1 })
        ));
    }

    #[test]
    fn run_lists_round_trip_newest_first() {
        let old = sample_manifest(1, RunOutcome::Complete);
        let mut new = sample_manifest(2, RunOutcome::Cut);
        new.started_unix_micros += 1;
        let bytes = encode_run_list(&[old.clone(), new.clone()]);
        let decoded = decode_run_list(&bytes).expect("decodes");
        assert_eq!(decoded, vec![new, old], "newest first");
    }

    #[test]
    fn store_persists_lists_and_removes_runs() {
        let store = temp_store("crud");
        let journal = sample_journal(42);
        store.write_run(&journal).expect("writes");
        assert_eq!(store.read_run(42).expect("reads"), journal);
        assert_eq!(store.run_ids().expect("ids"), vec![42]);

        // The heartbeat path: rewriting the same id replaces in place.
        let mut finished = journal.clone();
        finished.manifest.outcome = RunOutcome::Cut;
        store.write_run(&finished).expect("rewrites");
        assert_eq!(
            store.read_run(42).expect("reads").manifest.outcome,
            RunOutcome::Cut
        );

        // Listings scan the journals on disk.
        let listed = store.runs().expect("lists");
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].outcome, RunOutcome::Cut);

        store.remove_run(42).expect("removes");
        assert_eq!(store.run_ids().expect("ids"), Vec::<u64>::new());
        store.remove_run(42).expect("idempotent");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_journals_are_skipped_by_listings_and_refused_by_install() {
        let store = temp_store("corrupt");
        store.write_run(&sample_journal(7)).expect("writes");
        std::fs::write(store.run_path(8), b"not a journal").expect("plants damage");

        let runs = store.runs().expect("lists");
        assert_eq!(runs.len(), 1, "damage is skipped, not served");
        assert_eq!(runs[0].id, 7);

        let good = encode_run(&sample_journal(9));
        assert!(
            store.install_run_bytes(5, &good).is_err(),
            "id mismatch is refused"
        );
        assert!(
            store.install_run_bytes(9, b"junk").is_err(),
            "junk is refused"
        );
        store.install_run_bytes(9, &good).expect("valid install");
        assert_eq!(store.read_run(9).expect("reads").manifest.id, 9);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn fresh_run_ids_do_not_collide() {
        let a = fresh_run_id();
        let b = fresh_run_id();
        assert_ne!(a, b);
    }
}
