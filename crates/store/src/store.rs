//! The on-disk store: suites sealed from streamed shards, a sealed
//! canonical index per suite, and checksum-validated streaming reads.
//!
//! # Layout
//!
//! One directory holds everything. A sealed suite is a single file named
//! by its [`Fingerprint`]:
//!
//! ```text
//! store/
//!   3f9c…e2a1.tfs            sealed suite (canonical order, checksummed)
//!   tmp-3f9c…e2a1-1234-0     a seal being written (pid + nonce suffixed)
//! ```
//!
//! A synthesis run hands each shard to [`PendingSuite`] (its
//! [`transform_par::SuiteSink`] implementation), which encodes every
//! record as it arrives and keeps the bytes in memory beside their plan
//! indices. [`PendingSuite::seal`] sorts the encoded records by plan
//! index and writes the suite file with one set of counters, staged as a
//! `tmp-*` file and atomically renamed into place. Nothing reaches the
//! disk before the seal, and a crash during it leaves only a `tmp-*`
//! file, which never shadows a sealed entry.
//!
//! # Integrity
//!
//! Every layer is checksummed with FNV-1a 64: the header (magic,
//! version, metadata, statistics, record count), each record payload,
//! and a trailer folding all record checksums. Readers verify the
//! header before returning, each record as it streams, and the trailer
//! at the end — so flipped bytes, truncation, and version skew all
//! surface as [`StoreError`]s, and the cache layer resynthesizes
//! instead of serving damage.

use crate::codec::{
    self, decode_record, decode_suite_stats, encode_record, encode_suite_stats, fnv1a64,
    CodecError, Dec, Enc, Fnv64, FORMAT_VERSION,
};
use crate::fingerprint::Fingerprint;
use std::error::Error;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use transform_core::axiom::Mtm;
use transform_core::rel::MAX_EVENTS;
use transform_par::SuiteSink;
use transform_synth::{
    Backend, EnumOptions, ShardStats, Suite, SuiteRecord, SuiteStats, SynthOptions,
};

const SUITE_MAGIC: &[u8; 8] = b"TFSUITE\0";
const SUITE_EXT: &str = "tfs";
/// Extension of the per-entry admission digests (`<fingerprint>.tfd`)
/// that format-version-1 builds wrote beside every sealed entry.
/// Nothing reads them; `store gc` sweeps them.
const LEGACY_DIGEST_EXT: &str = "tfd";
/// The entry index earlier builds rewrote on every seal. Entry headers
/// carry the same keys; `store gc` sweeps it.
const LEGACY_INDEX_FILE: &str = "index.tfx";

/// A store failure.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble (missing file, permissions, disk full).
    Io(std::io::Error),
    /// The file was written by a different format version.
    Version {
        /// The version found in the file.
        found: u32,
    },
    /// The file's bytes fail validation: bad magic, checksum mismatch,
    /// truncation, or undecodable structure.
    Corrupt(String),
    /// A remote cache tier misbehaved: unreachable host, malformed
    /// response, or an unexpected status. Remote failures are soft for
    /// the tiered read path (it falls through to synthesis) but surface
    /// directly from explicit `store push`/`store pull` operations.
    Remote(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Version { found } => write!(
                f,
                "store format version {found} (this build reads {FORMAT_VERSION})"
            ),
            StoreError::Corrupt(m) => write!(f, "store entry corrupt: {m}"),
            StoreError::Remote(m) => write!(f, "remote cache: {m}"),
        }
    }
}

impl Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        match e.found_version {
            Some(found) => StoreError::Version { found },
            None => StoreError::Corrupt(e.to_string()),
        }
    }
}

/// The synthesis options that key a suite besides its MTM and axiom:
/// the one encoding of them that sealed headers and fleet job specs
/// share.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyOptions {
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
}

impl KeyOptions {
    /// The key options of one synthesis run.
    pub fn of(opts: &SynthOptions) -> KeyOptions {
        let e = &opts.enumeration;
        KeyOptions {
            bound: e.bound,
            max_threads: e.max_threads,
            allow_fences: e.allow_fences,
            allow_rmw: e.allow_rmw,
            allow_identity_remap: e.allow_identity_remap,
            symmetry_reduction: e.symmetry_reduction,
            backend: crate::fingerprint::backend_tag(opts.backend).to_string(),
        }
    }

    /// The [`SynthOptions`] these key options describe, with no
    /// timeout.
    ///
    /// # Errors
    ///
    /// An unknown backend tag (a version-skewed peer), or a bound above
    /// [`MAX_EVENTS`], the events one relation row holds: no program of
    /// such a bound can be examined, and building its enumeration space
    /// would not finish.
    pub fn synth_options(&self) -> Result<SynthOptions, CodecError> {
        if self.bound > MAX_EVENTS {
            return Err(CodecError::new(format!(
                "bound {} is above {MAX_EVENTS}, the events one relation row holds",
                self.bound
            )));
        }
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

    pub(crate) fn encode(&self, e: &mut Enc) {
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
    }

    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<KeyOptions, CodecError> {
        Ok(KeyOptions {
            bound: d.size()?,
            max_threads: if d.boolean()? { Some(d.size()?) } else { None },
            allow_fences: d.boolean()?,
            allow_rmw: d.boolean()?,
            allow_identity_remap: d.boolean()?,
            symmetry_reduction: d.boolean()?,
            backend: d.string()?,
        })
    }
}

/// The human-readable key of a sealed entry, stored alongside the
/// fingerprint so `query`/`export` can filter without recomputing keys.
/// Its [`KeyOptions`] read as its own fields (`meta.bound`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EntryMeta {
    /// The MTM's name (`mtm <name> { … }`).
    pub mtm: String,
    /// The axiom the suite violates.
    pub axiom: String,
    /// The options the suite was synthesized with.
    pub key: KeyOptions,
}

impl std::ops::Deref for EntryMeta {
    type Target = KeyOptions;

    fn deref(&self) -> &KeyOptions {
        &self.key
    }
}

impl EntryMeta {
    /// Describes one synthesis run's key parameters.
    pub fn describe(mtm: &Mtm, axiom: &str, opts: &SynthOptions) -> EntryMeta {
        EntryMeta {
            mtm: mtm.name().to_string(),
            axiom: axiom.to_string(),
            key: KeyOptions::of(opts),
        }
    }

    pub(crate) fn encode(&self, e: &mut Enc) {
        e.string(&self.mtm);
        e.string(&self.axiom);
        self.key.encode(e);
    }

    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<EntryMeta, CodecError> {
        Ok(EntryMeta {
            mtm: d.string()?,
            axiom: d.string()?,
            key: KeyOptions::decode(d)?,
        })
    }
}

/// Writes `bytes` to `target` atomically: they are staged beside it as
/// `tmp-{tag}-{pid}-{nonce}`, `check`ed there, and renamed into place,
/// so readers never see a torn file. Concurrent writers stage to
/// disjoint files and the last rename wins. The staged file is removed
/// on any failure, and `store gc` sweeps one a crash leaves behind.
pub(crate) fn write_staged(
    target: &Path,
    tag: &str,
    bytes: &[u8],
    check: impl FnOnce(&Path) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
    let dir = target.parent().expect("a store file lives in a directory");
    let staged = dir.join(format!("tmp-{tag}-{}-{nonce}", std::process::id()));
    let written = fs::write(&staged, bytes)
        .map_err(StoreError::from)
        .and_then(|()| check(&staged))
        .and_then(|()| fs::rename(&staged, target).map_err(StoreError::from));
    if written.is_err() {
        let _ = fs::remove_file(&staged);
    }
    written
}

/// The persistent suite store rooted at one directory.
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store directory.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The sealed-suite path of a fingerprint.
    pub fn entry_path(&self, fp: Fingerprint) -> PathBuf {
        self.root.join(format!("{}.{SUITE_EXT}", fp.hex()))
    }

    /// Whether a sealed entry exists for `fp` (validity is established
    /// by reading it).
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.entry_path(fp).is_file()
    }

    /// Opens a sealed entry for streaming reads, validating magic,
    /// version, and the header checksum up front.
    ///
    /// # Errors
    ///
    /// [`StoreError::Version`] on format skew, [`StoreError::Corrupt`]
    /// on a damaged header, [`StoreError::Io`] when the file is missing
    /// or unreadable.
    pub fn open_suite(&self, fp: Fingerprint) -> Result<SuiteReader, StoreError> {
        SuiteReader::open(&self.entry_path(fp), Some(fp))
    }

    /// Deletes the sealed entry for `fp`, if present — the cache layer's
    /// response to a corrupt read.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when deletion itself fails.
    pub fn remove(&self, fp: Fingerprint) -> Result<(), StoreError> {
        match fs::remove_file(self.entry_path(fp)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Files older builds left in the store that nothing reads any
    /// more, sorted: admission digests (`*.tfd`) and the entry index
    /// (`index.tfx`). `store gc` sweeps them.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory is unreadable.
    pub fn legacy_files(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(LEGACY_DIGEST_EXT)
                || path.file_name().and_then(|n| n.to_str()) == Some(LEGACY_INDEX_FILE)
            {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Every sealed fingerprint in the store, sorted. Files with
    /// non-fingerprint names are ignored (they are not store entries);
    /// validity of each entry is established only when it is read.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory is unreadable.
    pub fn entries(&self) -> Result<Vec<Fingerprint>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SUITE_EXT) {
                continue;
            }
            if let Some(fp) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(Fingerprint::from_hex)
            {
                out.push(fp);
            }
        }
        out.sort();
        Ok(out)
    }

    /// The raw bytes of a sealed entry, or `None` when no entry exists
    /// for `fp` — the payload `store push` and the HTTP server transfer.
    /// The bytes are the self-validating sealed format; this does *not*
    /// re-validate them (receivers always do, via
    /// [`Store::install_bytes`] or a [`SuiteReader`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the entry exists but cannot be
    /// read.
    pub fn entry_bytes(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(self.entry_path(fp)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Installs sealed-suite bytes received from elsewhere (a remote
    /// cache tier, an HTTP `PUT`) as the entry for `fp`, after *fully*
    /// validating them: magic, version, header checksum, the
    /// fingerprint recorded in the header (which must equal `fp`),
    /// every record checksum, and the trailer. Nothing is published on
    /// any failure — corrupt remote bytes can never become a servable
    /// entry.
    ///
    /// Installation is idempotent: entries are content-addressed and
    /// immutable, so re-installing an existing fingerprint atomically
    /// replaces the file with identical content.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`]/[`StoreError::Version`] when the bytes
    /// fail validation; [`StoreError::Io`] when staging or renaming
    /// fails.
    pub fn install_bytes(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError> {
        let tag = format!("install-{}", fp.hex());
        write_staged(&self.entry_path(fp), &tag, bytes, |staged| {
            SuiteReader::open(staged, Some(fp))?.try_for_each(|record| record.map(drop))
        })
    }

    /// The last-modified time of a sealed entry — the age `store gc`
    /// filters on.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the entry is missing or its
    /// metadata is unreadable.
    pub fn entry_mtime(&self, fp: Fingerprint) -> Result<std::time::SystemTime, StoreError> {
        Ok(fs::metadata(self.entry_path(fp))?.modified()?)
    }

    /// Leftover `tmp-*` entries from crashed or in-flight runs: staged
    /// seals, installs and journals (and the index rewrites of earlier
    /// builds). `store gc` removes them; callers must ensure no
    /// synthesis is currently streaming into the store.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory is unreadable.
    pub fn stale_tmp_entries(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("tmp-"));
            if is_tmp {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Removes every [`Store::stale_tmp_entries`] path, returning how
    /// many were swept.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when a removal fails.
    pub fn sweep_tmp(&self) -> Result<usize, StoreError> {
        let paths = self.stale_tmp_entries()?;
        let count = paths.len();
        for path in paths {
            if path.is_dir() {
                fs::remove_dir_all(&path)?;
            } else {
                fs::remove_file(&path)?;
            }
        }
        Ok(count)
    }

    /// Starts an in-progress entry: the sink a run hands its shards to,
    /// sealed atomically by [`PendingSuite::seal`]. Records are staged in
    /// memory, so nothing touches the disk before the seal.
    ///
    /// # Errors
    ///
    /// None today: the `Result` is kept for callers that already handle
    /// one.
    pub fn begin(&self, fp: Fingerprint, meta: EntryMeta) -> Result<PendingSuite, StoreError> {
        Ok(PendingSuite {
            root: self.root.clone(),
            fp,
            meta,
            records: Mutex::new(Vec::new()),
        })
    }
}

fn header_bytes(fp: Fingerprint, meta: &EntryMeta, stats: &SuiteStats, records: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64((fp.0 >> 64) as u64);
    e.u64(fp.0 as u64);
    meta.encode(&mut e);
    encode_suite_stats(&mut e, stats);
    e.varint(records);
    e.into_bytes()
}

/// An in-progress store entry: the [`SuiteSink`] a synthesis run
/// delivers into, and the seal step that turns the staged records into
/// the canonical suite file.
pub struct PendingSuite {
    root: PathBuf,
    fp: Fingerprint,
    meta: EntryMeta,
    /// Each delivered record's plan index and encoding, in arrival order.
    records: Mutex<Vec<(usize, Vec<u8>)>>,
}

impl SuiteSink for PendingSuite {
    /// Encodes the shard's records and drops them; the counters are the
    /// caller's, summed into the [`SuiteStats`] handed to the seal.
    fn shard_done(&self, _stats: ShardStats, records: Vec<SuiteRecord>) {
        let encoded = records.iter().map(|r| (r.index, encode_record(r)));
        self.records
            .lock()
            .expect("record lock never poisoned")
            .extend(encoded);
    }
}

impl PendingSuite {
    /// The staged records' encodings, sorted by plan index.
    fn sorted(&mut self) -> Result<Vec<(usize, Vec<u8>)>, StoreError> {
        let mut records =
            std::mem::take(self.records.get_mut().expect("record lock never poisoned"));
        records.sort_unstable_by_key(|&(index, _)| index);
        if records.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(StoreError::Corrupt("duplicate plan index in shards".into()));
        }
        Ok(records)
    }

    /// Writes the staged records, in plan order, into the sealed
    /// canonical suite file and atomically publishes it. `stats` are the
    /// run's counters, as returned by
    /// [`transform_par::synthesize_streamed`].
    ///
    /// Timed-out (partial) runs must never be sealed — a cache hit on a
    /// partial suite would silently drop members forever.
    ///
    /// # Errors
    ///
    /// A plan index delivered twice, and final write/rename failures.
    ///
    /// # Panics
    ///
    /// Panics when `stats.timed_out` is set.
    pub fn seal(mut self, stats: &SuiteStats) -> Result<Fingerprint, StoreError> {
        assert!(!stats.timed_out, "refusing to seal a partial suite");
        let records = self.sorted()?;
        let mut e = Enc::new();
        e.raw(SUITE_MAGIC);
        e.u32(FORMAT_VERSION);
        let header = header_bytes(self.fp, &self.meta, stats, records.len() as u64);
        e.size(header.len());
        e.raw(&header);
        let mut checksum = Fnv64::new();
        checksum.update(SUITE_MAGIC);
        checksum.update(&FORMAT_VERSION.to_le_bytes());
        checksum.update(&header);
        e.u64(checksum.finish());
        let mut trailer = Fnv64::new();
        for (_, payload) in &records {
            e.size(payload.len());
            let record_checksum = fnv1a64(payload);
            e.raw(payload);
            e.u64(record_checksum);
            trailer.update(&record_checksum.to_le_bytes());
        }
        e.u64(trailer.finish());
        let target = self.root.join(format!("{}.{SUITE_EXT}", self.fp.hex()));
        write_staged(&target, &self.fp.hex(), &e.into_bytes(), |_| Ok(()))?;
        Ok(self.fp)
    }

    /// Assembles the in-memory suite from the staged records *without*
    /// sealing — the path for timed-out (partial) runs, which are
    /// returned to the caller but never persisted.
    ///
    /// # Errors
    ///
    /// A plan index delivered twice.
    pub fn into_suite(mut self, stats: &SuiteStats) -> Result<Suite, StoreError> {
        let records = self.sorted()?;
        let elts = records
            .into_iter()
            .map(|(_, payload)| decode_record(&payload).map(|r| r.elt))
            .collect::<Result<Vec<_>, _>>()
            .map_err(StoreError::from)?;
        Ok(Suite {
            axiom: self.meta.axiom.clone(),
            elts,
            stats: stats.clone(),
        })
    }
}

fn read_exact_or_corrupt(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), StoreError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Corrupt(format!("truncated {what}"))
        } else {
            StoreError::Io(e)
        }
    })
}

fn read_varint_stream(r: &mut impl Read, what: &str) -> Result<u64, StoreError> {
    codec::decode_varint(
        || {
            let mut byte = [0u8; 1];
            read_exact_or_corrupt(r, &mut byte, what)?;
            Ok(byte[0])
        },
        || StoreError::Corrupt(format!("{what}: varint overflow")),
    )
}

/// A buffered streaming reader over one sealed suite: header metadata
/// and statistics up front, then one validated record at a time — a
/// cached suite can be filtered or re-printed without ever
/// materializing all of it.
pub struct SuiteReader {
    reader: BufReader<File>,
    fingerprint: Fingerprint,
    meta: EntryMeta,
    stats: SuiteStats,
    record_count: u64,
    yielded: u64,
    trailer: Fnv64,
    finished: bool,
}

impl SuiteReader {
    fn open(path: &Path, expect: Option<Fingerprint>) -> Result<SuiteReader, StoreError> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        read_exact_or_corrupt(&mut reader, &mut magic, "suite magic")?;
        if &magic != SUITE_MAGIC {
            return Err(StoreError::Corrupt("bad suite magic".into()));
        }
        let mut version_bytes = [0u8; 4];
        read_exact_or_corrupt(&mut reader, &mut version_bytes, "suite version")?;
        let version = u32::from_le_bytes(version_bytes);
        if version != FORMAT_VERSION {
            return Err(StoreError::Version { found: version });
        }
        let header_len = read_varint_stream(&mut reader, "header length")?;
        if header_len > 1 << 24 {
            return Err(StoreError::Corrupt("header length implausible".into()));
        }
        let mut header = vec![0u8; header_len as usize];
        read_exact_or_corrupt(&mut reader, &mut header, "suite header")?;
        let mut stored_checksum = [0u8; 8];
        read_exact_or_corrupt(&mut reader, &mut stored_checksum, "header checksum")?;
        let mut checksum = Fnv64::new();
        checksum.update(&magic);
        checksum.update(&version_bytes);
        checksum.update(&header);
        if checksum.finish() != u64::from_le_bytes(stored_checksum) {
            return Err(StoreError::Corrupt("header checksum mismatch".into()));
        }

        let mut d = Dec::new(&header);
        let hi = d.u64().map_err(StoreError::from)?;
        let lo = d.u64().map_err(StoreError::from)?;
        let fingerprint = Fingerprint((u128::from(hi) << 64) | u128::from(lo));
        if expect.is_some_and(|fp| fp != fingerprint) {
            return Err(StoreError::Corrupt(
                "entry fingerprint does not match its file name".into(),
            ));
        }
        let meta = EntryMeta::decode(&mut d).map_err(StoreError::from)?;
        let stats = decode_suite_stats(&mut d).map_err(StoreError::from)?;
        let record_count = d.varint().map_err(StoreError::from)?;
        if !d.at_end() {
            return Err(StoreError::Corrupt("trailing bytes in header".into()));
        }
        Ok(SuiteReader {
            reader,
            fingerprint,
            meta,
            stats,
            record_count,
            yielded: 0,
            trailer: Fnv64::new(),
            finished: false,
        })
    }

    /// The entry's fingerprint, as recorded in its header.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The entry's key metadata.
    pub fn meta(&self) -> &EntryMeta {
        &self.meta
    }

    /// The sealed suite's work counters.
    pub fn stats(&self) -> &SuiteStats {
        &self.stats
    }

    /// Number of suite members in the entry.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    fn next_validated(&mut self) -> Result<Option<SuiteRecord>, StoreError> {
        if self.finished {
            return Ok(None);
        }
        if self.yielded == self.record_count {
            // All records seen: the trailer must match the fold of their
            // checksums, and the file must end.
            let mut stored = [0u8; 8];
            read_exact_or_corrupt(&mut self.reader, &mut stored, "suite trailer")?;
            if self.trailer.finish() != u64::from_le_bytes(stored) {
                return Err(StoreError::Corrupt("suite trailer mismatch".into()));
            }
            let mut probe = [0u8; 1];
            match self.reader.read(&mut probe)? {
                0 => {
                    self.finished = true;
                    Ok(None)
                }
                _ => Err(StoreError::Corrupt("bytes after suite trailer".into())),
            }
        } else {
            let len = read_varint_stream(&mut self.reader, "record length")?;
            if len > 1 << 28 {
                return Err(StoreError::Corrupt("record length implausible".into()));
            }
            let mut payload = vec![0u8; len as usize];
            read_exact_or_corrupt(&mut self.reader, &mut payload, "record payload")?;
            let mut stored = [0u8; 8];
            read_exact_or_corrupt(&mut self.reader, &mut stored, "record checksum")?;
            let stored = u64::from_le_bytes(stored);
            if fnv1a64(&payload) != stored {
                return Err(StoreError::Corrupt("record checksum mismatch".into()));
            }
            self.trailer.update(&stored.to_le_bytes());
            self.yielded += 1;
            let record = decode_record(&payload).map_err(StoreError::from)?;
            Ok(Some(record))
        }
    }
}

impl Iterator for SuiteReader {
    type Item = Result<SuiteRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_validated() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => None,
            Err(e) => {
                // An error ends the stream; the cache layer discards the
                // entry and resynthesizes.
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

/// Fully reads a sealed suite, validating every record and the trailer.
///
/// # Errors
///
/// Any validation or i/o failure of any record.
pub fn read_suite(mut reader: SuiteReader) -> Result<Suite, StoreError> {
    let mut last_index = None;
    let mut elts = Vec::with_capacity(reader.record_count() as usize);
    let axiom = reader.meta().axiom.clone();
    let stats = reader.stats().clone();
    for record in reader.by_ref() {
        let record = record?;
        if last_index.is_some_and(|last| record.index <= last) {
            return Err(StoreError::Corrupt("records out of canonical order".into()));
        }
        last_index = Some(record.index);
        elts.push(record.elt);
    }
    Ok(Suite { axiom, elts, stats })
}
