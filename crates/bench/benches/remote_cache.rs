//! The shared-cache wire path, measured over a loopback
//! `transform-serve` instance: what a fleet-wide cache hit costs
//! compared to resynthesizing, and compared to a local hit.
//!
//! Three temperatures of the same lookup:
//!
//! * **cold** — empty local tier, empty remote: synthesize, seal
//!   locally, push the sealed bytes to the server;
//! * **warm-remote** — empty local tier, seeded remote: fetch the
//!   sealed bytes, validate every byte into the local tier, serve
//!   (the fleet-wide-cache payoff: someone else's synthesis, one
//!   round-trip away);
//! * **warm-local** — seeded local tier: the read-through population's
//!   payoff — later lookups never touch the network again.
//!
//! Besides the per-temperature measurements, the run writes the numbers
//! to `BENCH_serve.json` at the workspace root so the serving-path
//! trajectory is tracked across PRs alongside `BENCH_enum.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use transform_serve::{ServeOptions, Server, ServerHandle};
use transform_store::{suite_fingerprint, HttpTier, Store, TieredCache};
use transform_synth::SynthOptions;
use transform_x86::x86t_elt;

const BOUND: usize = 4;
const AXIOM: &str = "sc_per_loc";
const JOBS: usize = 2;

fn opts() -> SynthOptions {
    SynthOptions::new(BOUND)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "transform-remote-bench-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A loopback server over `dir`, optionally pre-seeded with the sealed
/// suite.
fn spawn_server(tag: &str, seeded: bool) -> (ServerHandle, PathBuf) {
    let dir = fresh_dir(tag);
    if seeded {
        let store = Store::open(&dir).expect("store opens");
        TieredCache::new(store)
            .cached_or_synthesize(&x86t_elt(), &[AXIOM], &opts(), JOBS, None)
            .expect("seeds the server store");
    }
    let server = Server::bind(&dir, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    (server.spawn(), dir)
}

fn tiered(local: &PathBuf, url: &str) -> TieredCache {
    TieredCache::new(Store::open(local).expect("store opens"))
        .with_remote(Box::new(HttpTier::new(url).expect("valid URL")))
}

fn bench_cold(c: &mut Criterion) {
    let mtm = x86t_elt();
    let mut group = c.benchmark_group("remote_cache");
    group.sample_size(10);
    let (handle, server_dir) = spawn_server("cold-srv", false);
    let url = handle.url();
    group.bench_function("cold", |b| {
        b.iter_batched(
            || {
                // Fresh on both tiers: wipe the server's store too, so
                // every iteration synthesizes and pushes.
                std::fs::remove_dir_all(&server_dir).ok();
                std::fs::create_dir_all(&server_dir).ok();
                fresh_dir("cold-local")
            },
            |local| {
                let (suite, status) = tiered(&local, &url)
                    .cached_or_synthesize(&mtm, &[AXIOM], &opts(), JOBS, None)
                    .expect("synthesizes")
                    .remove(0);
                assert!(!status.is_hit() && !status.is_remote_hit());
                suite.elts.len()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    handle.shutdown();
    std::fs::remove_dir_all(&server_dir).ok();
    std::fs::remove_dir_all(fresh_dir("cold-local")).ok();
}

fn bench_warm_remote(c: &mut Criterion) {
    let mtm = x86t_elt();
    let (handle, server_dir) = spawn_server("warmr-srv", true);
    let url = handle.url();
    let mut group = c.benchmark_group("remote_cache");
    group.sample_size(20);
    group.bench_function("warm_remote", |b| {
        b.iter_batched(
            || fresh_dir("warmr-local"),
            |local| {
                let (suite, status) = tiered(&local, &url)
                    .cached_or_synthesize(&mtm, &[AXIOM], &opts(), JOBS, None)
                    .expect("fetches")
                    .remove(0);
                assert!(status.is_remote_hit());
                suite.elts.len()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    handle.shutdown();
    std::fs::remove_dir_all(&server_dir).ok();
    std::fs::remove_dir_all(fresh_dir("warmr-local")).ok();
}

fn bench_warm_local(c: &mut Criterion) {
    let mtm = x86t_elt();
    let (handle, server_dir) = spawn_server("warml-srv", true);
    let url = handle.url();
    let local = fresh_dir("warml-local");
    let cache = tiered(&local, &url);
    cache
        .cached_or_synthesize(&mtm, &[AXIOM], &opts(), JOBS, None)
        .expect("populates the local tier");
    let mut group = c.benchmark_group("remote_cache");
    group.sample_size(50);
    group.bench_function("warm_local", |b| {
        b.iter(|| {
            let (suite, status) = cache
                .cached_or_synthesize(&mtm, &[AXIOM], &opts(), JOBS, None)
                .expect("reads")
                .remove(0);
            assert!(status.is_hit());
            suite.elts.len()
        })
    });
    group.finish();
    handle.shutdown();
    std::fs::remove_dir_all(&server_dir).ok();
    std::fs::remove_dir_all(&local).ok();
}

/// One timed lookup at each temperature (median of several for the warm
/// paths), written to `BENCH_serve.json`.
fn serve_summary(_c: &mut Criterion) {
    let mtm = x86t_elt();
    let fp = suite_fingerprint(&mtm, AXIOM, &opts());

    // Cold: synthesize + seal + push, against an empty server.
    let (handle, server_dir) = spawn_server("sum-srv", false);
    let url = handle.url();
    let cold_local = fresh_dir("sum-cold");
    let start = Instant::now();
    let (cold_suite, _) = tiered(&cold_local, &url)
        .cached_or_synthesize(&mtm, &[AXIOM], &opts(), JOBS, None)
        .expect("cold run")
        .remove(0);
    let cold = start.elapsed();
    let entry_bytes = Store::open(&server_dir)
        .expect("opens")
        .entry_bytes(fp)
        .expect("readable")
        .expect("the cold run pushed its sealed entry")
        .len();

    // Warm-remote: fresh local tier per sample, the server now seeded
    // by the cold run's push.
    let median = |samples: &mut Vec<Duration>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let mut warm_remote_samples = Vec::new();
    for i in 0..9 {
        let local = fresh_dir(&format!("sum-warmr-{i}"));
        let cache = tiered(&local, &url);
        let start = Instant::now();
        let (suite, status) = cache
            .cached_or_synthesize(&mtm, &[AXIOM], &opts(), JOBS, None)
            .expect("warm-remote run")
            .remove(0);
        warm_remote_samples.push(start.elapsed());
        assert!(status.is_remote_hit());
        assert_eq!(suite.elts.len(), cold_suite.elts.len());
        std::fs::remove_dir_all(&local).ok();
    }
    let warm_remote = median(&mut warm_remote_samples);

    // Warm-local: the populated tier, no network.
    let cache = tiered(&cold_local, &url);
    let mut warm_local_samples = Vec::new();
    for _ in 0..9 {
        let start = Instant::now();
        let (suite, status) = cache
            .cached_or_synthesize(&mtm, &[AXIOM], &opts(), JOBS, None)
            .expect("warm-local run")
            .remove(0);
        warm_local_samples.push(start.elapsed());
        assert!(status.is_hit());
        assert_eq!(suite.elts.len(), cold_suite.elts.len());
    }
    let warm_local = median(&mut warm_local_samples);

    let remote_speedup = cold.as_secs_f64() / warm_remote.as_secs_f64().max(f64::EPSILON);
    println!(
        "remote_cache/summary: {AXIOM} @ bound {BOUND}: cold {cold:.3?} / warm-remote \
         {warm_remote:.3?} = {remote_speedup:.1}x; warm-local {warm_local:.3?}; \
         {entry_bytes} bytes over the wire"
    );
    let json = format!(
        "{{\n  \"bench\": \"remote_cache\",\n  \"axiom\": \"{AXIOM}\",\n  \"bound\": {BOUND},\n  \
         \"jobs\": {JOBS},\n  \"elts\": {},\n  \"entry_bytes\": {entry_bytes},\n  \
         \"cold_secs\": {:.6},\n  \"warm_remote_secs\": {:.6},\n  \"warm_local_secs\": {:.6},\n  \
         \"remote_speedup\": {remote_speedup:.3},\n  \
         \"local_vs_remote\": {:.3}\n}}\n",
        cold_suite.elts.len(),
        cold.as_secs_f64(),
        warm_remote.as_secs_f64(),
        warm_local.as_secs_f64(),
        warm_remote.as_secs_f64() / warm_local.as_secs_f64().max(f64::EPSILON),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, json).expect("BENCH_serve.json is writable");
    println!("remote_cache: wrote {}", path.display());

    handle.shutdown();
    std::fs::remove_dir_all(&server_dir).ok();
    std::fs::remove_dir_all(&cold_local).ok();
}

criterion_group!(
    benches,
    bench_cold,
    bench_warm_remote,
    bench_warm_local,
    serve_summary
);
criterion_main!(benches);
