//! `transform-store` — the persistent, content-addressed suite store.
//!
//! The TransForm paper's synthesis runs took up to a week per
//! instruction bound; this crate makes their results durable. A
//! synthesized per-axiom suite is written once into a store directory
//! and addressed by a [`Fingerprint`] of everything that determines its
//! content — the MTM's canonical spec text, the target axiom, the
//! instruction bound, and the enumeration/backend options — so any
//! later `synthesize`, `compare`, or `fig9` invocation with the same
//! inputs streams the sealed artifact instead of resynthesizing.
//!
//! The moving parts:
//!
//! * [`codec`] — a versioned binary encoding for suite records
//!   (program + witness execution + violated axioms) and work
//!   statistics, round-tripping exactly: a decoded witness prints
//!   byte-identically under [`transform_litmus::format::print_elt`];
//!   and the checksummed frame that run journals, the `/v1/index` body
//!   and the fleet messages share.
//! * [`fingerprint`] — the content-address of a synthesis run.
//! * [`store`] — the on-disk format: a synthesis run hands its shards
//!   over in plan order once its workers join ([`store::PendingSuite`]
//!   implements [`transform_par::SuiteSink`]), the seal writes the
//!   records in plan order with one set of counters, and
//!   [`store::SuiteReader`] iterates a sealed suite record-by-record
//!   behind checksum validation.
//! * [`cache`] — [`CacheStatus`], how a cached lookup was satisfied.
//! * [`journal`] — synthesis runs as durable artifacts: a checksummed
//!   binary journal per run (manifest + timestamped pipeline events)
//!   written alongside the sealed suites, the substrate for
//!   `transform runs` and the serve fleet view.
//! * [`index`] — the `GET /v1/index` listing (fingerprint → key
//!   metadata), built from the entry headers on each request.
//! * [`tier`] — the caching policy: a [`CacheTier`] abstraction over
//!   "places sealed bytes live", and [`TieredCache`], whose one
//!   synthesis call ([`TieredCache::cached_or_synthesize`]) serves
//!   sealed entries, streams cold runs in, rebuilds (never serves)
//!   corrupt, truncated, or version-mismatched files, and layers an
//!   optional shared remote tier behind the local directory
//!   (read-through population, push-on-seal).
//! * [`remote`] — the dependency-free HTTP/1.1 client for a
//!   `transform serve` endpoint ([`HttpTier`]), the remote half of a
//!   fleet-wide shared cache.
//! * [`fleet`] — the distributed-synthesis wire format: job specs,
//!   lease grants, checksummed shard results, idempotent shard
//!   staging, and the coordinator's deterministic merge-to-seal
//!   ([`merge_fleet_job`]).
//!
//! # Examples
//!
//! ```
//! use transform_core::spec::parse_mtm;
//! use transform_store::{Store, TieredCache};
//! use transform_synth::SynthOptions;
//!
//! let mtm = parse_mtm(
//!     "mtm demo {
//!        axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
//!      }",
//! ).expect("spec parses");
//! let mut opts = SynthOptions::new(4);
//! opts.enumeration.allow_fences = false;
//! opts.enumeration.allow_rmw = false;
//! let dir = std::env::temp_dir().join(format!("tfs-doc-{}", std::process::id()));
//! let cache = TieredCache::new(Store::open(&dir).expect("store opens"));
//!
//! let cold = cache
//!     .cached_or_synthesize(&mtm, &["sc_per_loc"], &opts, 2, None)
//!     .expect("synthesizes");
//! let warm = cache
//!     .cached_or_synthesize(&mtm, &["sc_per_loc"], &opts, 2, None)
//!     .expect("reads");
//! let ((cold, cold_status), (warm, warm_status)) = (&cold[0], &warm[0]);
//! assert!(!cold_status.is_hit());
//! assert!(warm_status.is_hit());
//! assert_eq!(cold.elts.len(), warm.elts.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod codec;
pub mod fingerprint;
pub mod fleet;
pub mod index;
pub mod journal;
pub mod remote;
pub mod store;
pub mod tier;

pub use cache::CacheStatus;
pub use codec::{CodecError, FORMAT_VERSION};
pub use fingerprint::{suite_fingerprint, Fingerprint};
pub use fleet::{
    balanced_ranges, execute_lease, merge_fleet_job, AxiomShard, JobSpec, LeaseGrant, ShardResult,
    StageOutcome,
};
pub use index::IndexEntry;
pub use journal::{
    decode_run, decode_run_list, encode_run, encode_run_list, fresh_run_id, RunJournal,
    RunManifest, RunOutcome,
};
pub use remote::HttpTier;
pub use store::{read_suite, EntryMeta, KeyOptions, PendingSuite, Store, StoreError, SuiteReader};
pub use tier::{CacheTier, TieredCache};
