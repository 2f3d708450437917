//! How a cached lookup was satisfied. The caching policy itself —
//! serve sealed suites, stream cold runs into new entries, rebuild
//! (never serve) damaged ones, and the optional shared remote tier — is
//! [`crate::TieredCache::cached_or_synthesize`].

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
