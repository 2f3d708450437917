//! Cache tiering: a local store directory backed by an optional shared
//! remote tier, with read-through population and push-on-seal.
//!
//! The lookup order for one synthesis key:
//!
//! 1. **Local tier** — a sealed entry in the local [`Store`] is served
//!    directly (and validated record-by-record, as always).
//! 2. **Remote tier** — on a local miss, the remote tier is asked for
//!    the sealed bytes. A remote hit is *installed into the local tier
//!    first* ([`Store::install_bytes`] fully validates every byte before
//!    publishing), then served from there — so the next lookup is a
//!    local hit, and corrupt remote bytes can never be served.
//! 3. **Synthesis** — on a miss everywhere, the suite is synthesized,
//!    sealed locally once the run returns, and the sealed bytes are
//!    *pushed* to the remote tier (best-effort), turning this run's work
//!    into a fleet-wide asset. Only a completed (un-timed-out) run is
//!    sealed — partial suites are never sealed, hence never pushed.
//!
//! Remote failures are soft on this read path: an unreachable or
//! misbehaving remote degrades the tiered cache to the local-only one.
//! Only genuine local i/o failures surface as errors.
//!
//! Every temperature serves the suite *from the sealed artifact*: a
//! cold run synthesizes into pending store entries, seals them, and
//! then reads its own entry back. A warm run therefore reproduces the
//! cold run's output byte for byte (statistics included — `elapsed` is
//! the recorded synthesis time, not the read time), which is what makes
//! cached results indistinguishable from fresh ones.

use crate::cache::CacheStatus;
use crate::fingerprint::{suite_fingerprint, Fingerprint};
use crate::store::{read_suite, EntryMeta, PendingSuite, Store, StoreError};
use std::sync::Arc;
use transform_core::axiom::Mtm;
use transform_par::{synthesize_streamed, JournalEventKind, ProgressState, SuiteSink};
use transform_synth::{Suite, SuiteStats, SynthOptions};

/// One tier of a layered suite cache: somewhere sealed-suite bytes can
/// be fetched from and published to, keyed by [`Fingerprint`].
///
/// Implementations: [`Store`] (a local directory) and
/// [`crate::HttpTier`] (a `transform serve` endpoint). Entries are
/// content-addressed and immutable, so tiers never need invalidation —
/// a fingerprint either resolves to the canonical bytes or to nothing.
pub trait CacheTier: Sync {
    /// A human-readable name for error messages and logs.
    fn describe(&self) -> String;

    /// The sealed bytes for `fp`, or `None` when this tier does not
    /// hold the entry. Callers must treat the bytes as untrusted until
    /// validated (e.g. by [`Store::install_bytes`]).
    ///
    /// # Errors
    ///
    /// Tier-specific trouble: i/o for directory tiers,
    /// [`StoreError::Remote`] for HTTP tiers.
    fn fetch(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError>;

    /// Publishes sealed bytes for `fp` into this tier. Idempotent: the
    /// entry is immutable, so publishing an already-present fingerprint
    /// is a no-op-equivalent success.
    ///
    /// # Errors
    ///
    /// Tier-specific trouble, or validation failure for tiers that
    /// verify on ingest.
    fn publish(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError>;
}

impl CacheTier for Store {
    fn describe(&self) -> String {
        format!("local store {}", self.root().display())
    }

    fn fetch(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        self.entry_bytes(fp)
    }

    fn publish(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError> {
        self.install_bytes(fp, bytes)
    }
}

impl CacheTier for crate::remote::HttpTier {
    fn describe(&self) -> String {
        format!("remote cache {}", self.url())
    }

    fn fetch(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        crate::remote::HttpTier::fetch(self, fp)
    }

    fn publish(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError> {
        crate::remote::HttpTier::publish(self, fp, bytes)
    }
}

/// A local suite store optionally backed by a shared remote tier.
///
/// # Examples
///
/// ```
/// use transform_core::spec::parse_mtm;
/// use transform_store::{Store, TieredCache};
/// use transform_synth::SynthOptions;
///
/// let mtm = parse_mtm(
///     "mtm demo {
///        axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
///      }",
/// ).expect("spec parses");
/// let mut opts = SynthOptions::new(4);
/// opts.enumeration.allow_fences = false;
/// opts.enumeration.allow_rmw = false;
/// let dir = std::env::temp_dir().join(format!("tfs-tier-doc-{}", std::process::id()));
/// // No remote configured: the tiered cache degrades to the local store.
/// let cache = TieredCache::new(Store::open(&dir).expect("store opens"));
///
/// let cold = cache
///     .cached_or_synthesize(&mtm, &["sc_per_loc"], &opts, 2, None)
///     .expect("synthesizes");
/// let warm = cache
///     .cached_or_synthesize(&mtm, &["sc_per_loc"], &opts, 2, None)
///     .expect("reads");
/// let ((cold, cold_status), (warm, warm_status)) = (&cold[0], &warm[0]);
/// assert!(!cold_status.is_hit());
/// assert!(warm_status.is_hit());
/// assert_eq!(cold.elts.len(), warm.elts.len());
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct TieredCache {
    local: Store,
    remote: Option<Box<dyn CacheTier>>,
}

impl TieredCache {
    /// A local-only tiered cache (no remote fallthrough).
    pub fn new(local: Store) -> TieredCache {
        TieredCache {
            local,
            remote: None,
        }
    }

    /// Adds a remote tier behind the local one.
    #[must_use]
    pub fn with_remote(mut self, remote: Box<dyn CacheTier>) -> TieredCache {
        self.remote = Some(remote);
        self
    }

    /// The local tier.
    pub fn local(&self) -> &Store {
        &self.local
    }

    /// The remote tier, when one is configured.
    pub fn remote(&self) -> Option<&dyn CacheTier> {
        self.remote.as_deref()
    }

    /// Serves the per-axiom suites of `axioms` through the tiers and
    /// returns them in `axioms` order, each with how it was served.
    ///
    /// Each axiom is looked up locally, then remotely (read-through: a
    /// remote hit is validated into the local tier and served from
    /// there). All the misses are synthesized together in one fused
    /// streamed run — the program space is enumerated once, and each
    /// program is examined once for every missing axiom — and once it
    /// returns, each missing axiom's suite is sealed locally and pushed
    /// to the remote (best-effort). Damaged local entries are
    /// deleted and rebuilt, never served; a timed-out run seals
    /// nothing, and its partial suites come back
    /// [`CacheStatus::Uncached`].
    ///
    /// `progress` observes the request: every tier-served axiom is
    /// marked cached ([`ProgressState::mark_cached`]) the moment its
    /// lookup resolves, so observers render it distinctly from live
    /// synthesis, and the misses' fused run publishes its counters as
    /// it executes.
    ///
    /// # Errors
    ///
    /// Only genuine local i/o failures; remote trouble and validation
    /// failures degrade to the next tier.
    ///
    /// # Panics
    ///
    /// Panics when any axiom is not part of `mtm`, or when a missing
    /// axiom is not tracked by `progress` (as every synthesis entry
    /// point does).
    pub fn cached_or_synthesize(
        &self,
        mtm: &Mtm,
        axioms: &[&str],
        opts: &SynthOptions,
        jobs: usize,
        progress: Option<&Arc<ProgressState>>,
    ) -> Result<Vec<(Suite, CacheStatus)>, StoreError> {
        for axiom in axioms {
            assert!(
                mtm.axiom(axiom).is_some(),
                "axiom `{axiom}` is not part of {}",
                mtm.name()
            );
        }
        let (local, remote) = (&self.local, self.remote.as_deref());
        let mut out: Vec<Option<(Suite, CacheStatus)>> = axioms.iter().map(|_| None).collect();
        let mut misses: Vec<(usize, Fingerprint, CacheStatus)> = Vec::new();
        for (i, axiom) in axioms.iter().enumerate() {
            let fp = suite_fingerprint(mtm, axiom, opts);
            match lookup_tiers(local, remote, fp, axiom)? {
                Lookup::Served(suite, status) => {
                    // Cache-served axioms settle in the progress view the
                    // moment their lookup resolves — observers render them
                    // distinctly from the axioms about to synthesize live.
                    if let Some(progress) = progress {
                        progress.mark_cached(axiom, suite.elts.len());
                    }
                    out[i] = Some((suite, status));
                }
                Lookup::Absent(status) => misses.push((i, fp, status)),
            }
        }

        if !misses.is_empty() {
            // One fused run for every miss: enumerate once, examine each
            // program once for every axiom, then seal each completed
            // suite and push it (best-effort).
            let miss_axioms: Vec<&str> = misses.iter().map(|&(i, _, _)| axioms[i]).collect();
            let pending: Vec<PendingSuite> = misses
                .iter()
                .map(|&(i, fp, _)| local.begin(fp, EntryMeta::describe(mtm, axioms[i], opts)))
                .collect::<Result<_, _>>()?;
            let sink_refs: Vec<&dyn SuiteSink> =
                pending.iter().map(|p| p as &dyn SuiteSink).collect();
            let (all_stats, _) =
                synthesize_streamed(mtm, &miss_axioms, opts, jobs, progress, &sink_refs);

            for (((i, fp, status), pending), stats) in
                misses.into_iter().zip(pending).zip(all_stats)
            {
                let axiom = axioms[i];
                out[i] = Some(if stats.timed_out {
                    let reason = "synthesis timed out; partial suites are never cached".into();
                    (
                        pending.into_suite(&stats)?,
                        CacheStatus::Uncached { reason },
                    )
                } else {
                    seal_and_push(local, remote, pending, &stats, axiom, progress)?;
                    (read_entry(local, fp, axiom)?, status)
                });
            }
        }
        Ok(out
            .into_iter()
            .map(|served| served.expect("every axiom is served or synthesized"))
            .collect())
    }
}

/// One axiom's outcome from the local and remote tiers.
enum Lookup {
    /// A tier held the (validated) entry.
    Served(Suite, CacheStatus),
    /// Nothing servable anywhere: synthesis is needed. The carried
    /// status is [`CacheStatus::Miss`], or [`CacheStatus::Rebuilt`]
    /// when a damaged local entry was deleted on the way.
    Absent(CacheStatus),
}

/// Tiers 1 and 2 of one axiom's lookup: serve a sealed local entry; on
/// a local miss fetch from the remote, validate *into* the local tier,
/// and serve from there. Every remote failure mode is soft —
/// unreachable remote, damaged payload, local validation refusing the
/// bytes — and degrades to synthesis; only genuine local disk trouble
/// is hard.
fn lookup_tiers(
    local: &Store,
    remote: Option<&dyn CacheTier>,
    fp: Fingerprint,
    axiom: &str,
) -> Result<Lookup, StoreError> {
    let mut status = CacheStatus::Miss;

    // Tier 1: the local store.
    if local.contains(fp) {
        match read_entry(local, fp, axiom) {
            Ok(suite) => return Ok(Lookup::Served(suite, CacheStatus::Hit)),
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(invalid) => {
                local.remove(fp)?;
                status = CacheStatus::Rebuilt {
                    reason: invalid.to_string(),
                };
            }
        }
    }

    // Tier 2: the remote, read-through.
    if let Some(remote) = remote {
        if let Ok(Some(bytes)) = remote.fetch(fp) {
            match local.install_bytes(fp, &bytes) {
                Ok(()) => match read_entry(local, fp, axiom) {
                    Ok(suite) => return Ok(Lookup::Served(suite, CacheStatus::RemoteHit)),
                    Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                    Err(_invalid) => {
                        // The bytes validated internally but are not the
                        // requested suite (e.g. a misbehaving remote whose
                        // entry names another axiom): evict the installed
                        // entry and fall through to synthesis.
                        local.remove(fp)?;
                    }
                },
                Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                Err(_invalid) => {
                    // Corrupt remote bytes: never installed, never
                    // served. Fall through to synthesis.
                }
            }
        }
    }
    Ok(Lookup::Absent(status))
}

/// Seals a completed axiom's pending entry and pushes the sealed bytes
/// to the remote tier (best-effort). A journaled run records both: a
/// [`JournalEventKind::Seal`] (`a` = sealed entry bytes), then a
/// [`JournalEventKind::Push`] when the push succeeded.
fn seal_and_push(
    local: &Store,
    remote: Option<&dyn CacheTier>,
    pending: PendingSuite,
    stats: &SuiteStats,
    axiom: &str,
    progress: Option<&Arc<ProgressState>>,
) -> Result<(), StoreError> {
    let fp = pending.seal(stats)?;
    let slot = progress.and_then(|p| p.slot_of(axiom)).map(|s| s as u32);
    let journal = |kind, a| {
        if let Some(progress) = progress {
            progress.record(kind, slot, a, 0, 0);
        }
    };
    journal(
        JournalEventKind::Seal,
        std::fs::metadata(local.entry_path(fp)).map_or(0, |m| m.len()),
    );
    if let Some(remote) = remote {
        // Best-effort: a failed push costs the fleet a warm entry, never
        // this run its result.
        if let Ok(Some(bytes)) = local.entry_bytes(fp) {
            if remote.publish(fp, &bytes).is_ok() {
                journal(JournalEventKind::Push, 0);
            }
        }
    }
    Ok(())
}

/// Reads and fully validates one sealed local entry, also cross-checking
/// that its metadata names the expected axiom (a fingerprint collision
/// or a renamed file would otherwise serve the wrong suite).
pub(crate) fn read_entry(store: &Store, fp: Fingerprint, axiom: &str) -> Result<Suite, StoreError> {
    let reader = store.open_suite(fp)?;
    if reader.meta().axiom != axiom {
        return Err(StoreError::Corrupt(format!(
            "entry is for axiom `{}`, expected `{axiom}`",
            reader.meta().axiom
        )));
    }
    read_suite(reader)
}
