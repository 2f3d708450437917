//! `transform-serve` — the HTTP suite-store server: one sealed suite
//! store shared by a whole fleet.
//!
//! TransForm's expensive artifact is the synthesized ELT suite (the
//! paper's runs took up to a week per bound); `transform-store` made
//! suites durable on one machine, and this crate makes them *shared*:
//! a hand-rolled, dependency-free HTTP/1.1 server over
//! [`std::net::TcpListener`] exposing a store directory, so every prior
//! synthesis run anywhere in the fleet becomes a cache hit everywhere
//! else. Content addressing does the heavy lifting — entries are
//! immutable and self-validating, so replication is a byte copy and no
//! tier ever needs invalidation.
//!
//! # Protocol
//!
//! | request | response |
//! |---|---|
//! | `GET /healthz` | liveness, entry count, request counters |
//! | `GET /v1/metrics` | the counters in Prometheus text format 0.0.4 (requests, hits/misses, puts, bytes, per-route request/latency breakdowns, in-flight gauge) |
//! | `GET /v1/index` | every readable entry's fingerprint and key, read from the entry headers (`transform_store::index::encode` bytes) |
//! | `HEAD /v1/suite/<fingerprint>` | `200` when sealed, `404` otherwise |
//! | `GET /v1/suite/<fingerprint>` | the sealed entry's bytes, streamed |
//! | `PUT /v1/suite/<fingerprint>` | validate **every byte**, seal atomically; idempotent |
//! | `GET /v1/runs` | recent run manifests (`transform_store::encode_run_list` bytes) |
//! | `GET /v1/runs/<id>` | one run's full journal, checksummed |
//! | `PUT /v1/runs/<id>` | validate and publish a run journal (rewritable — live runs heartbeat) |
//! | `POST /v1/jobs` | register a fleet job (an encoded `JobSpec`; idempotent — the id is the spec's hash) |
//! | `GET /v1/jobs/<id>` | job progress as flat JSON (`ranges`/`staged`/`leased`/`complete`/`cut`) |
//! | `POST /v1/jobs/<id>/cut` | stop leasing the job's ranges; it will never seal |
//! | `POST /v1/lease` | lease one partition range (`200` + encoded grant, or `204` when none pending) |
//! | `POST /v1/lease/<id>/heartbeat` | renew a lease (`410` once it lapsed) |
//! | `PUT /v1/shard/<job>/<lo>-<hi>` | stage a shard result; the last range in seals the job's suites |
//!
//! The job/lease/shard rows are the **synthesis fleet** control plane:
//! the server doubles as a coordinator ([`FleetState`]) that leases
//! mass-balanced partition ranges to remote workers, reclaims leases
//! whose worker stopped heartbeating, and — when the last range's
//! shard lands — runs the deterministic ordinal merge so the sealed
//! suites are byte-identical to a single-machine run.
//!
//! The client half ([`transform_store::HttpTier`]) lives in the store
//! crate, wired behind its [`transform_store::CacheTier`] abstraction,
//! so `synthesize`/`compare`/`fig9 --cache-url http://…` read through
//! a remote cache transparently: local tier first, remote fallthrough,
//! read-through population of the local tier, push-on-seal of fresh
//! results.
//!
//! Trust model: the server validates uploads byte-for-byte before
//! publishing, and clients re-validate everything they fetch before
//! installing it locally — damage on either side of the wire is
//! detected, refused, and falls back to synthesis. There is no
//! authentication; deploy it inside the trust boundary that already
//! shares the store directory today.

#![deny(missing_docs)]

pub mod fleet;
pub mod http;
pub mod server;

pub use fleet::{FleetJobStatus, FleetState, StagedOutcome};
pub use server::{
    RouteMetrics, ServeMetrics, ServeOptions, Server, ServerHandle, LATENCY_BUCKETS_SECONDS,
    ROUTE_NAMES,
};
