//! The caching policy over the store: serve sealed suites, stream cold
//! runs into new entries, and rebuild — never serve — damaged ones.
//!
//! Both temperatures serve the suite *from the sealed artifact*: a cold
//! run synthesizes through the shard-streaming sink, seals, and then
//! reads its own entry back. A warm run therefore reproduces the cold
//! run's output byte for byte (statistics included — `elapsed` is the
//! recorded synthesis time, not the read time), which is what makes
//! cached results indistinguishable from fresh ones.
//!
//! This module is the *local-only* policy; [`crate::tier`] layers an
//! optional shared remote tier (read-through, push-on-seal) behind the
//! same contract.

use crate::store::{Store, StoreError};
use transform_core::axiom::Mtm;
use transform_synth::{Suite, SynthOptions};

/// How a cached lookup was satisfied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheStatus {
    /// Served from an existing sealed entry in the local tier.
    Hit,
    /// Served from the remote tier: the sealed bytes were fetched,
    /// fully validated into the local tier (read-through population),
    /// and streamed from there — the next lookup is a local [`Hit`].
    ///
    /// [`Hit`]: CacheStatus::Hit
    RemoteHit,
    /// No entry existed anywhere; synthesized and sealed.
    Miss,
    /// An entry existed but failed validation; it was deleted and the
    /// suite resynthesized and re-sealed.
    Rebuilt {
        /// What the validation failure was.
        reason: String,
    },
    /// Synthesized but *not* sealed (the run timed out, so the suite is
    /// partial and must never be served from cache).
    Uncached {
        /// Why the result was not persisted.
        reason: String,
    },
}

impl CacheStatus {
    /// Whether the suite came from a *local* sealed entry without
    /// synthesis or a remote fetch.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheStatus::Hit)
    }

    /// Whether the suite was served from the remote tier (and installed
    /// into the local one along the way).
    pub fn is_remote_hit(&self) -> bool {
        matches!(self, CacheStatus::RemoteHit)
    }
}

/// Serves the per-axiom suite from the store, synthesizing (and
/// sealing) on a miss. Corrupt, truncated, or version-mismatched
/// entries are detected by checksums, deleted, and transparently
/// rebuilt.
///
/// This is the local-only path — [`crate::TieredCache`] adds a shared
/// remote tier between the local store and synthesis.
///
/// # Errors
///
/// Only genuine i/o failures (unreadable store directory, failed
/// writes) surface as errors; validation failures are handled by
/// rebuilding.
///
/// # Panics
///
/// Panics when `axiom` is not part of `mtm` (as every synthesis entry
/// point does).
pub fn cached_or_synthesize(
    store: &Store,
    mtm: &Mtm,
    axiom: &str,
    opts: &SynthOptions,
    jobs: usize,
) -> Result<(Suite, CacheStatus), StoreError> {
    crate::tier::run_tiered(store, None, mtm, axiom, opts, jobs, None)
}

/// [`cached_or_synthesize`] with live telemetry: a cache hit marks the
/// axiom's progress slot cached, a miss publishes the synthesis run's
/// counters into `progress` as it executes. See
/// [`transform_par::ProgressState`].
///
/// # Errors
///
/// Only genuine i/o failures, exactly like [`cached_or_synthesize`].
///
/// # Panics
///
/// Panics when `axiom` is not part of `mtm`.
pub fn cached_or_synthesize_observed(
    store: &Store,
    mtm: &Mtm,
    axiom: &str,
    opts: &SynthOptions,
    jobs: usize,
    progress: &std::sync::Arc<transform_par::ProgressState>,
) -> Result<(Suite, CacheStatus), StoreError> {
    crate::tier::run_tiered(store, None, mtm, axiom, opts, jobs, Some(progress))
}

/// Serves **every** per-axiom suite of `mtm` from the store in one
/// pass: tier hits stream from their sealed entries, and all the
/// misses are synthesized together in one fused streamed run — the
/// program space is enumerated once, each program is examined once for
/// every missing axiom, and each missing axiom's suite is sealed when
/// the run finishes. The local-only counterpart of
/// [`crate::TieredCache::cached_or_synthesize_all`].
///
/// # Errors
///
/// Only genuine i/o failures, exactly like [`cached_or_synthesize`].
pub fn cached_or_synthesize_all(
    store: &Store,
    mtm: &Mtm,
    opts: &SynthOptions,
    jobs: usize,
) -> Result<std::collections::BTreeMap<String, (Suite, CacheStatus)>, StoreError> {
    crate::tier::run_tiered_all(store, None, mtm, opts, jobs, None)
}

/// [`cached_or_synthesize_all`] with live telemetry: cache-served
/// axioms are marked cached in `progress` as their lookups resolve, and
/// the misses' one fused run publishes its counters while it executes —
/// so an observer renders cached and live axioms distinctly.
///
/// # Errors
///
/// Only genuine i/o failures, exactly like [`cached_or_synthesize`].
pub fn cached_or_synthesize_all_observed(
    store: &Store,
    mtm: &Mtm,
    opts: &SynthOptions,
    jobs: usize,
    progress: &std::sync::Arc<transform_par::ProgressState>,
) -> Result<std::collections::BTreeMap<String, (Suite, CacheStatus)>, StoreError> {
    crate::tier::run_tiered_all(store, None, mtm, opts, jobs, Some(progress))
}
