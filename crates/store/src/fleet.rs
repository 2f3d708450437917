//! The fleet wire format and coordinator-side merge: job specs, shard
//! results, lease grants, on-disk shard staging, and the deterministic
//! ordinal merge that seals a fleet job byte-identically to a
//! single-machine run.
//!
//! # Protocol shape
//!
//! A **job** is one `synthesize` invocation distributed over workers.
//! The client encodes a [`JobSpec`] — the MTM's canonical spec text,
//! the axioms with their store fingerprints, every option that enters
//! the fingerprint, plus the leased partition `ranges` — and POSTs it
//! to the coordinator. The job id is the
//! FNV-1a 64 hash of the encoded spec, so re-POSTing the same work is
//! idempotent.
//!
//! Workers lease `(lo, hi)` partition ranges ([`LeaseGrant`] embeds
//! the spec so a worker needs no other state), run the fused pipeline
//! range-restricted, and upload one [`ShardResult`] per range: the
//! per-axiom records and counters for exactly the plan items admitted
//! in `[lo, hi)`, plus the number of programs admitted there. Results
//! are content-checksummed and staged idempotently
//! ([`Store::stage_shard`]): a retried or duplicate upload of the same
//! range is a no-op, a conflicting one is rejected.
//!
//! When every range in the spec is staged, [`merge_fleet_job`] replays
//! the shards **in range order** through the ordinary
//! [`PendingSuite`](crate::store::PendingSuite) merge — the same
//! plan-index sort every local run uses — so the sealed suite is
//! byte-identical to a single-machine fused run regardless of worker
//! count, upload order, retries, or lease reassignment.

use crate::codec::{
    decode_record, decode_shard_stats, encode_record, encode_shard_stats, fnv1a64, CodecError, Dec,
    Enc, FORMAT_VERSION,
};
use crate::fingerprint::Fingerprint;
use crate::store::{EntryMeta, Store, StoreError};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;
use transform_par::SuiteSink;
use transform_synth::{
    Backend, EnumOptions, EnumSpace, ShardStats, SuiteRecord, SuiteStats, SynthOptions,
};

const JOB_MAGIC: &[u8; 8] = b"TFJOBSP\0";
const SHARD_RESULT_MAGIC: &[u8; 8] = b"TFSHRES\0";
const LEASE_MAGIC: &[u8; 8] = b"TFLEASE\0";

/// Sanity cap on fleet collection lengths (axioms, ranges, records per
/// shard); a real synthesis job is far below this.
const MAX_FLEET_LEN: usize = 1 << 24;

/// Everything a worker needs to reproduce its slice of a synthesis
/// run, and everything the coordinator needs to seal it.
///
/// The spec carries the *content* key (MTM canonical text, axioms,
/// fingerprint-relevant options) and the leased `ranges` of the
/// root-shape partitions ([`EnumSpace::new`]). It deliberately excludes
/// scheduling-only knobs that never change output: local thread counts,
/// timeouts, batch sizing.
///
/// The wire layout keeps two fields that no longer shape the plan: the
/// old partitioning byte, always written as 1 (its mass-balanced value;
/// 0, the old depth split, is rejected), and `plan_jobs`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobSpec {
    /// The MTM's name (`mtm <name> { … }`), for [`EntryMeta`].
    pub mtm_name: String,
    /// The MTM's canonical spec text ([`Display`](std::fmt::Display)
    /// rendering) — workers re-parse it, and it hashes identically
    /// across comment/whitespace variants of the source file.
    pub model: String,
    /// The run axioms in run order, each with its precomputed store
    /// fingerprint (the coordinator never parses the MTM).
    pub axioms: Vec<(String, Fingerprint)>,
    /// The instruction bound.
    pub bound: usize,
    /// The enumeration thread cap, if any.
    pub max_threads: Option<usize>,
    /// Whether `MFENCE` is in the program space.
    pub allow_fences: bool,
    /// Whether RMW pairs are in the program space.
    pub allow_rmw: bool,
    /// Whether identity remaps are in the program space.
    pub allow_identity_remap: bool,
    /// Whether symmetry reduction is applied.
    pub symmetry_reduction: bool,
    /// The candidate-execution backend tag (`explicit`/`relational`).
    pub backend: String,
    /// The worker count the client planned with. It no longer shapes
    /// the partitions (one per root shape at any worker count) and is
    /// kept in the wire layout; it must be nonzero.
    pub plan_jobs: u32,
    /// Lease time-to-live; a worker heartbeats faster than this or
    /// its range is reclaimed.
    pub lease_ttl_ms: u64,
    /// The leased partition ranges, sorted, contiguous from 0, tiling
    /// the plan's `[0, partition_count)`.
    pub ranges: Vec<(u32, u32)>,
}

impl JobSpec {
    /// Encodes the spec (magic, version, fields, trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(JOB_MAGIC);
        e.u32(FORMAT_VERSION);
        e.string(&self.mtm_name);
        e.string(&self.model);
        e.size(self.axioms.len());
        for (name, fp) in &self.axioms {
            e.string(name);
            e.u64((fp.0 >> 64) as u64);
            e.u64(fp.0 as u64);
        }
        e.size(self.bound);
        match self.max_threads {
            Some(t) => {
                e.boolean(true);
                e.size(t);
            }
            None => e.boolean(false),
        }
        e.boolean(self.allow_fences);
        e.boolean(self.allow_rmw);
        e.boolean(self.allow_identity_remap);
        e.boolean(self.symmetry_reduction);
        e.string(&self.backend);
        e.boolean(true); // the old partitioning byte, always 1
        e.u32(self.plan_jobs);
        e.u64(self.lease_ttl_ms);
        e.size(self.ranges.len());
        for &(lo, hi) in &self.ranges {
            e.u32(lo);
            e.u32(hi);
        }
        seal_frame(e)
    }

    /// Decodes and validates a spec: magic, version, checksum, range
    /// tiling (sorted, non-empty, contiguous from 0).
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, CodecError> {
        let mut d = open_frame(bytes, JOB_MAGIC, "job spec")?;
        let mtm_name = d.string()?;
        let model = d.string()?;
        let num_axioms = d.size_bounded(MAX_FLEET_LEN, "job axioms")?;
        let mut axioms = Vec::with_capacity(num_axioms);
        for _ in 0..num_axioms {
            let name = d.string()?;
            let hi = d.u64()?;
            let lo = d.u64()?;
            axioms.push((name, Fingerprint((u128::from(hi) << 64) | u128::from(lo))));
        }
        let bound = d.size()?;
        let max_threads = if d.boolean()? { Some(d.size()?) } else { None };
        let allow_fences = d.boolean()?;
        let allow_rmw = d.boolean()?;
        let allow_identity_remap = d.boolean()?;
        let symmetry_reduction = d.boolean()?;
        let backend = d.string()?;
        if !d.boolean()? {
            return Err(CodecError::new(
                "job spec asks for depth partitioning, which this build does not support",
            ));
        }
        let plan_jobs = d.u32()?;
        let lease_ttl_ms = d.u64()?;
        let num_ranges = d.size_bounded(MAX_FLEET_LEN, "job ranges")?;
        let mut ranges = Vec::with_capacity(num_ranges);
        for _ in 0..num_ranges {
            let lo = d.u32()?;
            let hi = d.u32()?;
            ranges.push((lo, hi));
        }
        if !d.at_end() {
            return Err(CodecError::new("trailing bytes after job spec"));
        }
        let spec = JobSpec {
            mtm_name,
            model,
            axioms,
            bound,
            max_threads,
            allow_fences,
            allow_rmw,
            allow_identity_remap,
            symmetry_reduction,
            backend,
            plan_jobs,
            lease_ttl_ms,
            ranges,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The job id: the FNV-1a 64 hash of the encoded spec, so the same
    /// work always lands on the same id and job creation is idempotent.
    pub fn id(&self) -> u64 {
        fnv1a64(&self.encode())
    }

    /// Builds the spec for one `synthesize` run: fingerprints each
    /// axiom exactly as the local cache would, and tiles the root-shape
    /// partitions into up to `chunks` mass-balanced contiguous ranges
    /// ([`balanced_ranges`]). `plan_jobs` is recorded in the spec but
    /// no longer shapes the partitions.
    ///
    /// # Panics
    ///
    /// Panics when `axioms` is empty or an axiom is not part of `mtm`
    /// (the resulting spec would never validate).
    pub fn for_run(
        mtm: &transform_core::axiom::Mtm,
        axioms: &[&str],
        opts: &SynthOptions,
        plan_jobs: u32,
        chunks: usize,
        lease_ttl_ms: u64,
    ) -> JobSpec {
        assert!(!axioms.is_empty(), "a fleet job needs at least one axiom");
        for axiom in axioms {
            assert!(
                mtm.axiom(axiom).is_some(),
                "axiom `{axiom}` is not part of {}",
                mtm.name()
            );
        }
        let space = EnumSpace::new(&opts.enumeration);
        let e = &opts.enumeration;
        JobSpec {
            mtm_name: mtm.name().to_string(),
            model: mtm.to_string(),
            axioms: axioms
                .iter()
                .map(|a| {
                    (
                        a.to_string(),
                        crate::fingerprint::suite_fingerprint(mtm, a, opts),
                    )
                })
                .collect(),
            bound: e.bound,
            max_threads: e.max_threads,
            allow_fences: e.allow_fences,
            allow_rmw: e.allow_rmw,
            allow_identity_remap: e.allow_identity_remap,
            symmetry_reduction: e.symmetry_reduction,
            backend: crate::fingerprint::backend_tag(opts.backend).to_string(),
            plan_jobs: plan_jobs.max(1),
            lease_ttl_ms,
            ranges: balanced_ranges(space.masses(), chunks),
        }
    }

    /// Checks the structural invariants the merge relies on: at least
    /// one axiom, and ranges that tile `[0, max_hi)` contiguously.
    pub fn validate(&self) -> Result<(), CodecError> {
        if self.axioms.is_empty() {
            return Err(CodecError::new("job spec has no axioms"));
        }
        if self.ranges.is_empty() {
            return Err(CodecError::new("job spec has no ranges"));
        }
        if self.ranges[0].0 != 0 {
            return Err(CodecError::new("job ranges must start at partition 0"));
        }
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if lo >= hi {
                return Err(CodecError::new(format!("empty job range {lo}..{hi}")));
            }
            if i > 0 && self.ranges[i - 1].1 != lo {
                return Err(CodecError::new(format!(
                    "job ranges not contiguous at {lo}..{hi}"
                )));
            }
        }
        if self.plan_jobs == 0 {
            return Err(CodecError::new("job plan_jobs must be nonzero"));
        }
        Ok(())
    }

    /// Reconstructs the [`SynthOptions`] a worker runs with. Errors on
    /// an unknown backend tag (version-skewed coordinator).
    pub fn synth_options(&self) -> Result<SynthOptions, CodecError> {
        let backend = match self.backend.as_str() {
            "explicit" => Backend::Explicit,
            "relational" => Backend::Relational,
            other => {
                return Err(CodecError::new(format!("unknown backend tag `{other}`")));
            }
        };
        let mut enumeration = EnumOptions::new(self.bound);
        enumeration.max_threads = self.max_threads;
        enumeration.allow_fences = self.allow_fences;
        enumeration.allow_rmw = self.allow_rmw;
        enumeration.allow_identity_remap = self.allow_identity_remap;
        enumeration.symmetry_reduction = self.symmetry_reduction;
        Ok(SynthOptions {
            enumeration,
            backend,
            timeout: None,
        })
    }

    /// The store metadata for run axiom `axiom_index`, identical to
    /// what a local run would have written.
    pub fn entry_meta(&self, axiom_index: usize) -> EntryMeta {
        EntryMeta {
            mtm: self.mtm_name.clone(),
            axiom: self.axioms[axiom_index].0.clone(),
            bound: self.bound,
            max_threads: self.max_threads,
            allow_fences: self.allow_fences,
            allow_rmw: self.allow_rmw,
            allow_identity_remap: self.allow_identity_remap,
            symmetry_reduction: self.symmetry_reduction,
            backend: self.backend.clone(),
        }
    }
}

/// One leased range's complete output: per-axiom records and counters
/// for the plan items admitted in `[lo, hi)`.
#[derive(Clone, PartialEq, Debug)]
pub struct ShardResult {
    /// The job this shard belongs to.
    pub job: u64,
    /// First partition of the leased range (inclusive).
    pub lo: u32,
    /// One past the last partition of the leased range.
    pub hi: u32,
    /// Programs admitted to the plan within `[lo, hi)` — summed across
    /// ranges this reconstructs the suite's `programs` total.
    pub programs: usize,
    /// One entry per run axiom, in run-axiom order.
    pub per_axiom: Vec<AxiomShard>,
}

/// One axiom's share of a [`ShardResult`]: the worker's summed
/// counters and its admitted records sorted by plan index.
#[derive(Clone, PartialEq, Debug)]
pub struct AxiomShard {
    /// Work counters summed over the range (the `shard` ordinal is
    /// assigned by the coordinator at merge time).
    pub stats: ShardStats,
    /// The records admitted in the range, sorted by plan index.
    pub records: Vec<SuiteRecord>,
}

impl ShardResult {
    /// Encodes the result (magic, version, payload, trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(SHARD_RESULT_MAGIC);
        e.u32(FORMAT_VERSION);
        e.u64(self.job);
        e.u32(self.lo);
        e.u32(self.hi);
        e.size(self.programs);
        e.size(self.per_axiom.len());
        for ax in &self.per_axiom {
            encode_shard_stats(&mut e, &ax.stats);
            e.size(ax.records.len());
            for record in &ax.records {
                let payload = encode_record(record);
                e.size(payload.len());
                e.raw(&payload);
            }
        }
        seal_frame(e)
    }

    /// Decodes and checksum-validates a shard result.
    pub fn decode(bytes: &[u8]) -> Result<ShardResult, CodecError> {
        let mut d = open_frame(bytes, SHARD_RESULT_MAGIC, "shard result")?;
        let job = d.u64()?;
        let lo = d.u32()?;
        let hi = d.u32()?;
        if lo >= hi {
            return Err(CodecError::new(format!("empty shard range {lo}..{hi}")));
        }
        let programs = d.size()?;
        let num_axioms = d.size_bounded(MAX_FLEET_LEN, "shard axioms")?;
        let mut per_axiom = Vec::with_capacity(num_axioms);
        for _ in 0..num_axioms {
            let stats = decode_shard_stats(&mut d)?;
            let num_records = d.size_bounded(MAX_FLEET_LEN, "shard records")?;
            let mut records = Vec::with_capacity(num_records);
            for _ in 0..num_records {
                let len = d.size_bounded(MAX_FLEET_LEN, "shard record")?;
                records.push(decode_record(d.bytes(len)?)?);
            }
            per_axiom.push(AxiomShard { stats, records });
        }
        if !d.at_end() {
            return Err(CodecError::new("trailing bytes after shard result"));
        }
        Ok(ShardResult {
            job,
            lo,
            hi,
            programs,
            per_axiom,
        })
    }
}

/// A granted lease: which range of which job a worker owns until the
/// expiry. Embeds the full [`JobSpec`] so a freshly started worker
/// needs nothing but the coordinator URL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeaseGrant {
    /// The lease id, echoed in heartbeats.
    pub lease: u64,
    /// The job the range belongs to (always `spec.id()`).
    pub job: u64,
    /// First partition of the leased range (inclusive).
    pub lo: u32,
    /// One past the last partition of the leased range.
    pub hi: u32,
    /// Milliseconds until the lease expires without a heartbeat.
    pub ttl_ms: u64,
    /// The full job spec.
    pub spec: JobSpec,
}

impl LeaseGrant {
    /// Encodes the grant (magic, version, fields, embedded spec,
    /// trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(LEASE_MAGIC);
        e.u32(FORMAT_VERSION);
        e.u64(self.lease);
        e.u64(self.job);
        e.u32(self.lo);
        e.u32(self.hi);
        e.u64(self.ttl_ms);
        let spec = self.spec.encode();
        e.size(spec.len());
        e.raw(&spec);
        seal_frame(e)
    }

    /// Decodes a grant, validating the checksum and that the embedded
    /// spec hashes to the grant's job id.
    pub fn decode(bytes: &[u8]) -> Result<LeaseGrant, CodecError> {
        let mut d = open_frame(bytes, LEASE_MAGIC, "lease grant")?;
        let lease = d.u64()?;
        let job = d.u64()?;
        let lo = d.u32()?;
        let hi = d.u32()?;
        let ttl_ms = d.u64()?;
        let spec_len = d.size_bounded(MAX_FLEET_LEN, "lease spec")?;
        let spec = JobSpec::decode(d.bytes(spec_len)?)?;
        if !d.at_end() {
            return Err(CodecError::new("trailing bytes after lease grant"));
        }
        if spec.id() != job {
            return Err(CodecError::new(
                "lease grant job id does not match its spec",
            ));
        }
        if !spec.ranges.contains(&(lo, hi)) {
            return Err(CodecError::new(format!(
                "lease grant range {lo}..{hi} is not in the job's plan"
            )));
        }
        Ok(LeaseGrant {
            lease,
            job,
            lo,
            hi,
            ttl_ms,
            spec,
        })
    }
}

/// Appends the frame checksum (FNV-1a 64 of everything so far).
fn seal_frame(e: Enc) -> Vec<u8> {
    let mut bytes = e.into_bytes();
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Validates magic, version, and trailing checksum; returns a cursor
/// over the payload between them.
fn open_frame<'a>(bytes: &'a [u8], magic: &[u8; 8], what: &str) -> Result<Dec<'a>, CodecError> {
    if bytes.len() < magic.len() + 4 + 8 {
        return Err(CodecError::new(format!("{what} truncated")));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(CodecError::new(format!("{what} checksum mismatch")));
    }
    let mut d = Dec::new(body);
    if d.bytes(magic.len())? != magic {
        return Err(CodecError::new(format!("bad {what} magic")));
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::new(format!(
            "{what} format version {version}, expected {FORMAT_VERSION}"
        )));
    }
    Ok(d)
}

/// The outcome of staging one shard upload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageOutcome {
    /// First time this range landed; the bytes are now staged.
    New,
    /// The identical bytes were already staged — a retried or
    /// duplicate upload, harmless.
    Duplicate,
    /// The upload conflicts: it decodes to a different job/range than
    /// it was addressed to, or differs from already-staged bytes for
    /// the same range. Nothing is written.
    Mismatch,
}

impl Store {
    /// The staging directory of fleet job `job`.
    pub fn fleet_dir(&self, job: u64) -> PathBuf {
        self.root().join("fleet").join(format!("{job:016x}"))
    }

    fn fleet_shard_path(&self, job: u64, lo: u32, hi: u32) -> PathBuf {
        self.fleet_dir(job)
            .join(format!("shard-{lo:08}-{hi:08}.bin"))
    }

    /// Stages one uploaded shard result idempotently.
    ///
    /// The bytes are decoded and must address the same `(job, lo, hi)`
    /// as the upload path; valid bytes are written atomically (staged
    /// under a temporary name, then renamed). A byte-identical re-upload
    /// is a [`StageOutcome::Duplicate`]; conflicting bytes for an
    /// already-staged range are rejected without touching the staged
    /// copy.
    pub fn stage_shard(
        &self,
        job: u64,
        lo: u32,
        hi: u32,
        bytes: &[u8],
    ) -> Result<StageOutcome, StoreError> {
        let result = ShardResult::decode(bytes)
            .map_err(|e| StoreError::Corrupt(format!("shard upload: {e}")))?;
        if result.job != job || result.lo != lo || result.hi != hi {
            return Ok(StageOutcome::Mismatch);
        }
        let path = self.fleet_shard_path(job, lo, hi);
        match fs::read(&path) {
            Ok(existing) => {
                return Ok(if existing == bytes {
                    StageOutcome::Duplicate
                } else {
                    StageOutcome::Mismatch
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let dir = self.fleet_dir(job);
        fs::create_dir_all(&dir)?;
        static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let nonce = NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let staged = dir.join(format!(
            "incoming-{lo:08}-{hi:08}-{}-{nonce}",
            std::process::id()
        ));
        fs::write(&staged, bytes)?;
        // Concurrent duplicate uploads race the rename; both carry the
        // deterministic pipeline's identical bytes, so last-wins is
        // indistinguishable from first-wins.
        fs::rename(&staged, &path)?;
        Ok(StageOutcome::New)
    }

    /// The ranges staged so far for `job`, sorted by `lo`.
    pub fn staged_shards(&self, job: u64) -> Result<Vec<(u32, u32)>, StoreError> {
        let dir = self.fleet_dir(job);
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut ranges = Vec::new();
        for entry in entries {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(range) = name
                .strip_prefix("shard-")
                .and_then(|r| r.strip_suffix(".bin"))
            {
                if let Some((lo, hi)) = range.split_once('-') {
                    if let (Ok(lo), Ok(hi)) = (lo.parse::<u32>(), hi.parse::<u32>()) {
                        ranges.push((lo, hi));
                    }
                }
            }
        }
        ranges.sort_unstable();
        Ok(ranges)
    }

    /// Reads and validates one staged shard result.
    pub fn read_shard(&self, job: u64, lo: u32, hi: u32) -> Result<ShardResult, StoreError> {
        let bytes = fs::read(self.fleet_shard_path(job, lo, hi))?;
        let result = ShardResult::decode(&bytes)
            .map_err(|e| StoreError::Corrupt(format!("staged shard: {e}")))?;
        if result.job != job || result.lo != lo || result.hi != hi {
            return Err(StoreError::Corrupt(format!(
                "staged shard addresses job {:016x} range {}..{}, expected {job:016x} {lo}..{hi}",
                result.job, result.lo, result.hi
            )));
        }
        Ok(result)
    }

    /// Removes a job's staging directory (after a successful merge, or
    /// when abandoning a cut job). Missing is fine.
    pub fn clear_fleet_job(&self, job: u64) -> Result<(), StoreError> {
        match fs::remove_dir_all(self.fleet_dir(job)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Merges a fully staged fleet job into sealed suites — the
/// coordinator-side ordinal merge.
///
/// For each run axiom, the staged shards are replayed **in range
/// order** through the ordinary [`PendingSuite`](crate::store::PendingSuite)
/// shard merge with the range ordinal as the shard index, then sealed
/// with the exact summed statistics — so the sealed entry is
/// byte-identical (fingerprint, records, counters; all but wall-clock)
/// to a single-machine fused run of the same plan.
///
/// `elapsed` is the job's wall-clock as observed by the coordinator;
/// it lands in the sealed [`SuiteStats`] but never in the fingerprint.
///
/// Errors if any range in the spec is not staged, or if a staged shard
/// fails validation (wrong axiom count, checksum damage).
pub fn merge_fleet_job(
    store: &Store,
    spec: &JobSpec,
    elapsed: Duration,
) -> Result<Vec<Fingerprint>, StoreError> {
    spec.validate()
        .map_err(|e| StoreError::Corrupt(format!("fleet job spec: {e}")))?;
    let job = spec.id();
    let mut results = Vec::with_capacity(spec.ranges.len());
    for &(lo, hi) in &spec.ranges {
        let result = self_read(store, job, lo, hi)?;
        if result.per_axiom.len() != spec.axioms.len() {
            return Err(StoreError::Corrupt(format!(
                "staged shard {lo}..{hi} has {} axioms, job has {}",
                result.per_axiom.len(),
                spec.axioms.len()
            )));
        }
        results.push(result);
    }
    let total_programs: usize = results.iter().map(|r| r.programs).sum();
    let mut sealed = Vec::with_capacity(spec.axioms.len());
    for (ai, &(_, fp)) in spec.axioms.iter().enumerate() {
        let pending = store.begin(fp, spec.entry_meta(ai))?;
        let mut shards = Vec::with_capacity(results.len());
        for (ordinal, result) in results.iter().enumerate() {
            let ax = &result.per_axiom[ai];
            let mut stats = ax.stats;
            stats.shard = ordinal;
            shards.push(stats);
            pending.shard_done(stats, ax.records.clone());
        }
        let mut stats = SuiteStats::from_shards(total_programs, shards);
        stats.elapsed = elapsed;
        sealed.push(pending.seal(&stats)?);
    }
    Ok(sealed)
}

/// Splits `[0, masses.len())` into at most `chunks` contiguous ranges
/// of roughly equal mass — the client-side partition plan a [`JobSpec`]
/// carries. Every range is non-empty and the ranges tile the space, so
/// the spec always validates; fewer ranges come back when there are
/// fewer partitions than requested chunks.
pub fn balanced_ranges(masses: &[u64], chunks: usize) -> Vec<(u32, u32)> {
    let count = masses.len();
    let chunks = chunks.clamp(1, count.max(1));
    if count == 0 {
        return Vec::new();
    }
    let total: u64 = masses.iter().sum();
    let mut ranges = Vec::with_capacity(chunks);
    let mut lo = 0usize;
    let mut spent = 0u64;
    for chunk in 0..chunks {
        // Aim each boundary at the next 1/chunks-th of the total mass,
        // but always take at least one partition and leave at least one
        // per remaining chunk.
        let goal = total / chunks as u64 * (chunk as u64 + 1);
        let mut hi = lo + 1;
        spent += masses[lo];
        let reserve = chunks - chunk - 1;
        while hi < count - reserve && spent + masses[hi] / 2 < goal {
            spent += masses[hi];
            hi += 1;
        }
        if chunk + 1 == chunks {
            hi = count;
        }
        ranges.push((lo as u32, hi as u32));
        lo = hi;
    }
    ranges
}

/// A [`SuiteSink`] that only collects records — the worker's buffer
/// between the fused range run and the encoded [`ShardResult`].
#[derive(Default)]
struct CollectShard {
    records: std::sync::Mutex<Vec<SuiteRecord>>,
}

impl SuiteSink for CollectShard {
    fn shard_done(&self, _stats: ShardStats, records: Vec<SuiteRecord>) {
        self.records
            .lock()
            .expect("record lock is never poisoned")
            .extend(records);
    }
}

/// Runs a granted lease's range on `jobs` local threads and packages
/// the upload — the whole compute step of a fleet worker.
///
/// The partitions are the root shapes of the spec's enumeration
/// options, so every worker reproduces the same global plan regardless
/// of local thread count; records are sorted by plan index.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when the embedded spec does not reproduce a
/// plan matching its own ranges (a coordinator/worker version skew —
/// the coordinator validates specs at submission).
pub fn execute_lease(grant: &LeaseGrant, jobs: usize) -> Result<ShardResult, StoreError> {
    let spec = &grant.spec;
    let mtm = transform_core::spec::parse_mtm(&spec.model)
        .map_err(|e| StoreError::Corrupt(format!("leased model does not parse: {e}")))?;
    let opts = spec
        .synth_options()
        .map_err(|e| StoreError::Corrupt(format!("leased job spec: {e}")))?;
    let axioms: Vec<&str> = spec.axioms.iter().map(|(name, _)| name.as_str()).collect();
    for axiom in &axioms {
        if mtm.axiom(axiom).is_none() {
            return Err(StoreError::Corrupt(format!(
                "leased axiom `{axiom}` is not part of {}",
                mtm.name()
            )));
        }
    }
    let space = EnumSpace::new(&opts.enumeration);
    let (lo, hi) = (grant.lo as usize, grant.hi as usize);
    if hi > space.partition_count() || lo >= hi {
        return Err(StoreError::Corrupt(format!(
            "leased range {lo}..{hi} is outside the {}-partition plan",
            space.partition_count()
        )));
    }
    let sinks: Vec<CollectShard> = axioms.iter().map(|_| CollectShard::default()).collect();
    let sink_refs: Vec<&dyn SuiteSink> = sinks.iter().map(|s| s as &dyn SuiteSink).collect();
    let (stats, _) = transform_par::synthesize_streamed(
        &mtm,
        &axioms,
        &opts,
        jobs,
        None,
        Some((lo, hi)),
        &sink_refs,
    );
    // Every axiom shares the range's plan, so any axiom's count is the
    // range's: the programs admitted inside `[lo, hi)`.
    let programs = stats.first().map_or(0, |s| s.programs);
    let per_axiom = stats
        .iter()
        .zip(sinks)
        .map(|(stat, sink)| {
            let mut records = sink
                .records
                .into_inner()
                .expect("record lock is never poisoned");
            records.sort_by_key(|r| r.index);
            AxiomShard {
                stats: ShardStats {
                    shard: 0, // the merge assigns the range ordinal
                    items: stat.shards.iter().map(|s| s.items).sum(),
                    executions: stat.executions,
                    forbidden: stat.forbidden,
                    minimal: stat.minimal,
                },
                records,
            }
        })
        .collect();
    Ok(ShardResult {
        job: grant.job,
        lo: grant.lo,
        hi: grant.hi,
        programs,
        per_axiom,
    })
}

fn self_read(store: &Store, job: u64, lo: u32, hi: u32) -> Result<ShardResult, StoreError> {
    store.read_shard(job, lo, hi).map_err(|e| match e {
        StoreError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => StoreError::Corrupt(
            format!("fleet job {job:016x} range {lo}..{hi} is not staged"),
        ),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            mtm_name: "demo".to_string(),
            model: "mtm demo {\n  axiom sc_per_loc: acyclic(rf | co | fr | po_loc)\n}".to_string(),
            axioms: vec![("sc_per_loc".to_string(), Fingerprint(0x1234_5678_9abc))],
            bound: 4,
            max_threads: None,
            allow_fences: false,
            allow_rmw: false,
            allow_identity_remap: false,
            symmetry_reduction: true,
            backend: "explicit".to_string(),
            plan_jobs: 2,
            lease_ttl_ms: 10_000,
            ranges: vec![(0, 3), (3, 8)],
        }
    }

    #[test]
    fn job_spec_round_trips_and_ids_are_content_addressed() {
        let a = spec();
        let decoded = JobSpec::decode(&a.encode()).expect("decodes");
        assert_eq!(decoded, a);
        assert_eq!(decoded.id(), a.id());

        let mut b = spec();
        b.bound = 5;
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn job_spec_rejects_damage_and_bad_ranges() {
        let mut bytes = spec().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(JobSpec::decode(&bytes).is_err());

        let mut gap = spec();
        gap.ranges = vec![(0, 3), (4, 8)];
        assert!(JobSpec::decode(&gap.encode()).is_err());
        let mut offset = spec();
        offset.ranges = vec![(1, 8)];
        assert!(JobSpec::decode(&offset.encode()).is_err());
        let mut empty = spec();
        empty.ranges = vec![(0, 0)];
        assert!(JobSpec::decode(&empty.encode()).is_err());
    }

    #[test]
    fn job_spec_rejects_a_depth_partitioning_byte() {
        let mut bytes = spec().encode();
        let body = bytes.len() - 8;
        let at = bytes
            .windows(8)
            .position(|w| w == b"explicit")
            .expect("backend tag")
            + 8;
        assert_eq!(bytes[at], 1, "the partitioning byte is always written as 1");
        bytes[at] = 0;
        let checksum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        let err = JobSpec::decode(&bytes).expect_err("depth partitioning is rejected");
        assert!(err.to_string().contains("depth"), "{err}");
    }

    #[test]
    fn synth_options_round_trip_the_spec_fields() {
        let opts = spec().synth_options().expect("known backend");
        assert_eq!(opts.enumeration.bound, 4);
        assert!(!opts.enumeration.allow_fences);
        assert!(opts.enumeration.symmetry_reduction);
        assert_eq!(opts.backend, Backend::Explicit);

        let mut skewed = spec();
        skewed.backend = "quantum".to_string();
        assert!(skewed.synth_options().is_err());
    }

    #[test]
    fn lease_grant_round_trips_and_checks_its_spec() {
        let spec = spec();
        let grant = LeaseGrant {
            lease: 77,
            job: spec.id(),
            lo: 3,
            hi: 8,
            ttl_ms: spec.lease_ttl_ms,
            spec,
        };
        let decoded = LeaseGrant::decode(&grant.encode()).expect("decodes");
        assert_eq!(decoded, grant);

        let mut lying = grant.clone();
        lying.job ^= 1;
        assert!(LeaseGrant::decode(&lying.encode()).is_err());
        let mut off_plan = grant;
        off_plan.lo = 1;
        assert!(LeaseGrant::decode(&off_plan.encode()).is_err());
    }

    fn shard(job: u64, lo: u32, hi: u32) -> ShardResult {
        ShardResult {
            job,
            lo,
            hi,
            programs: 5,
            per_axiom: vec![AxiomShard {
                stats: ShardStats {
                    shard: usize::try_from(lo).expect("fits"),
                    items: 5,
                    executions: 40,
                    forbidden: 7,
                    minimal: 3,
                },
                records: Vec::new(),
            }],
        }
    }

    #[test]
    fn shard_result_round_trips_and_rejects_damage() {
        let result = shard(42, 0, 3);
        let bytes = result.encode();
        assert_eq!(ShardResult::decode(&bytes).expect("decodes"), result);

        let mut flipped = bytes.clone();
        flipped[10] ^= 0x01;
        assert!(ShardResult::decode(&flipped).is_err());
        let truncated = &bytes[..bytes.len() - 1];
        assert!(ShardResult::decode(truncated).is_err());
        // A correctly checksummed frame from an older format version
        // (whose shard results also carried node counts) is refused.
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&fnv1a64(&old).to_le_bytes());
        let err = ShardResult::decode(&old).expect_err("version skew");
        assert!(err.to_string().contains("format version 1"), "{err}");
    }

    #[test]
    fn staging_is_idempotent_and_conflict_safe() {
        let tag = "stage";
        let dir =
            std::env::temp_dir().join(format!("tfs-fleet-{tag}-{}-{:p}", std::process::id(), &tag));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("store opens");
        let job = 42;
        let bytes = shard(job, 0, 3).encode();

        assert_eq!(
            store.stage_shard(job, 0, 3, &bytes).expect("stages"),
            StageOutcome::New
        );
        assert_eq!(
            store.stage_shard(job, 0, 3, &bytes).expect("stages"),
            StageOutcome::Duplicate
        );
        // Same range, different content: rejected, staged copy intact.
        let mut other = shard(job, 0, 3);
        other.programs = 6;
        assert_eq!(
            store
                .stage_shard(job, 0, 3, &other.encode())
                .expect("stages"),
            StageOutcome::Mismatch
        );
        // Addressed to a range it does not carry: rejected.
        assert_eq!(
            store.stage_shard(job, 3, 8, &bytes).expect("stages"),
            StageOutcome::Mismatch
        );
        // Garbage bytes: a hard error, not a silent stage.
        assert!(store.stage_shard(job, 0, 3, b"junk").is_err());

        assert_eq!(store.staged_shards(job).expect("lists"), vec![(0, 3)]);
        assert_eq!(
            store.read_shard(job, 0, 3).expect("reads"),
            shard(job, 0, 3)
        );

        store.clear_fleet_job(job).expect("clears");
        assert!(store.staged_shards(job).expect("lists").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
