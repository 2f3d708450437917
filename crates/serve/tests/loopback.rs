//! The acceptance path: a loopback `transform-serve` instance serves a
//! previously sealed bound-4 suite to a cold client byte-identically to
//! local synthesis, read-through populates the client's local tier, and
//! corrupt remote bytes are detected and never served.

use std::io::{Read, Write};
use std::net::TcpListener;
use transform_core::axiom::Mtm;
use transform_litmus::format::print_elt;
use transform_serve::{ServeOptions, Server, ServerHandle};
use transform_store::{suite_fingerprint, CacheStatus, HttpTier, Store, StoreError, TieredCache};
use transform_synth::{Suite, SynthOptions};
use transform_x86::x86t_elt;

const AXIOM: &str = "invlpg";

fn opts() -> SynthOptions {
    let mut o = SynthOptions::new(4);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tfloop-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// `AXIOM` through `cache`: its suite and how it was served.
fn lookup(cache: &TieredCache, mtm: &Mtm) -> Result<(Suite, CacheStatus), StoreError> {
    Ok(cache
        .cached_or_synthesize(mtm, &[AXIOM], &opts(), 2, None)?
        .remove(0))
}

/// Renders a suite exactly as `transform synthesize` prints it.
fn render(suite: &Suite) -> String {
    let mut out = String::new();
    for (i, elt) in suite.elts.iter().enumerate() {
        out.push_str(&print_elt(&format!("{}_{i}", suite.axiom), &elt.witness));
        out.push('\n');
    }
    out
}

#[test]
fn cold_client_reads_through_the_loopback_server() {
    let mtm = x86t_elt();

    // The reference: plain local synthesis.
    let reference = render(&transform_synth::synthesize_suite(&mtm, AXIOM, &opts()));

    // A server whose store already holds the sealed bound-4 suite.
    let origin = temp_dir("origin");
    {
        let seeded = TieredCache::new(Store::open(&origin).expect("store opens"));
        lookup(&seeded, &mtm).expect("seeds the origin");
    }
    let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let url = format!("http://{}", server.local_addr());
    let handle = server.spawn();

    // A cold client: empty local tier, the server as remote tier.
    let local = temp_dir("client");
    let cache = TieredCache::new(Store::open(&local).expect("store opens"))
        .with_remote(Box::new(HttpTier::new(&url).expect("valid URL")));
    let (suite, status) = lookup(&cache, &mtm).expect("tiered read");
    assert!(
        status.is_remote_hit(),
        "expected a remote hit, got {status:?}"
    );
    assert_eq!(
        render(&suite),
        reference,
        "remote-served suite must be byte-identical to local synthesis"
    );

    // Read-through population: the client's local tier now holds the
    // sealed entry, byte-identical to the origin's, and the next lookup
    // is a *local* hit with the same bytes.
    let fp = suite_fingerprint(&mtm, AXIOM, &opts());
    let origin_bytes = Store::open(&origin)
        .expect("opens")
        .entry_bytes(fp)
        .expect("readable")
        .expect("origin entry");
    let local_bytes = cache
        .local()
        .entry_bytes(fp)
        .expect("readable")
        .expect("read-through populated the local tier");
    assert_eq!(local_bytes, origin_bytes);
    let (warm, warm_status) = lookup(&cache, &mtm).expect("warm read");
    assert!(warm_status.is_hit(), "got {warm_status:?}");
    assert_eq!(render(&warm), reference);

    handle.shutdown();
    std::fs::remove_dir_all(&origin).ok();
    std::fs::remove_dir_all(&local).ok();
}

#[test]
fn unreachable_remote_degrades_to_local_synthesis() {
    let mtm = x86t_elt();
    let local = temp_dir("no-remote");
    // Port 1: reliably refused.
    let cache = TieredCache::new(Store::open(&local).expect("store opens")).with_remote(Box::new(
        HttpTier::new("http://127.0.0.1:1").expect("valid URL"),
    ));
    let (suite, status) = lookup(&cache, &mtm).expect("degrades to synthesis");
    assert_eq!(status, CacheStatus::Miss);
    assert_eq!(
        render(&suite),
        render(&transform_synth::synthesize_suite(&mtm, AXIOM, &opts()))
    );
    std::fs::remove_dir_all(&local).ok();
}

/// A remote entry that is internally valid — right header fingerprint,
/// clean checksums — but holds a *different suite* than the requested
/// key: install-level validation passes, and only the tiered read's
/// axiom cross-check can catch it. It must be evicted and fall through
/// to synthesis, never be served or survive in the local tier.
#[test]
fn wrong_suite_behind_the_right_fingerprint_is_evicted_not_served() {
    use transform_par::synthesize_streamed;
    use transform_store::EntryMeta;

    let mtm = x86t_elt();
    let reference = render(&transform_synth::synthesize_suite(&mtm, AXIOM, &opts()));
    let fp = suite_fingerprint(&mtm, AXIOM, &opts());

    // Forge an entry: sc_per_loc's suite sealed under invlpg's
    // fingerprint. Checksums and the recorded fingerprint all validate.
    let forge_dir = temp_dir("forge");
    let forged = {
        let store = Store::open(&forge_dir).expect("opens");
        let pending = store
            .begin(fp, EntryMeta::describe(&mtm, "sc_per_loc", &opts()))
            .expect("begins");
        let (stats, _) = synthesize_streamed(&mtm, &["sc_per_loc"], &opts(), 2, None, &[&pending]);
        pending.seal(&stats[0]).expect("seals");
        store
            .entry_bytes(fp)
            .expect("readable")
            .expect("forged entry")
    };

    let (url, _poison) = spawn_poison_server(forged, None);
    let local = temp_dir("forge-client");
    let cache = TieredCache::new(Store::open(&local).expect("store opens"))
        .with_remote(Box::new(HttpTier::new(&url).expect("valid URL")));
    let (suite, status) =
        lookup(&cache, &mtm).expect("falls through to synthesis, not a hard error");
    assert!(!status.is_remote_hit(), "got {status:?}");
    assert_eq!(render(&suite), reference);
    // The local tier holds the freshly synthesized suite for AXIOM, not
    // the forged one.
    let reader = cache.local().open_suite(fp).expect("validates");
    assert_eq!(reader.meta().axiom, AXIOM);

    std::fs::remove_dir_all(&forge_dir).ok();
    std::fs::remove_dir_all(&local).ok();
}

/// A fake remote that frames damaged suite bytes in valid HTTP — the
/// transport succeeds, so only payload validation can catch it.
fn spawn_poison_server(
    body: Vec<u8>,
    truncate_to: Option<usize>,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let url = format!("http://{}", listener.local_addr().expect("addr"));
    let thread = std::thread::spawn(move || {
        // Serve until the listener is dropped with the test.
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            match truncate_to {
                // Honest Content-Length, corrupt payload.
                None => {
                    let _ = write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    );
                    let _ = stream.write_all(&body);
                }
                // Declared length exceeds what is sent: a truncated
                // transfer, detected at the transport layer.
                Some(cut) => {
                    let _ = write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    );
                    let _ = stream.write_all(&body[..cut]);
                }
            }
            let _ = stream.flush();
        }
    });
    (url, thread)
}

#[test]
fn corrupt_remote_bytes_are_detected_and_never_served() {
    let mtm = x86t_elt();
    let reference = render(&transform_synth::synthesize_suite(&mtm, AXIOM, &opts()));
    let fp = suite_fingerprint(&mtm, AXIOM, &opts());

    // Sealed bytes with one bit flipped mid-file.
    let seed = temp_dir("poison-seed");
    let seeded = TieredCache::new(Store::open(&seed).expect("opens"));
    lookup(&seeded, &mtm).expect("seeds");
    let mut damaged = seeded
        .local()
        .entry_bytes(fp)
        .expect("readable")
        .expect("entry sealed");
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x10;

    let (url, _poison) = spawn_poison_server(damaged, None);
    let local = temp_dir("poison-client");
    let cache = TieredCache::new(Store::open(&local).expect("store opens"))
        .with_remote(Box::new(HttpTier::new(&url).expect("valid URL")));
    let (suite, status) = lookup(&cache, &mtm).expect("falls back to synthesis");
    assert!(
        !status.is_remote_hit(),
        "corrupt remote bytes must never count as a remote hit"
    );
    assert_eq!(
        render(&suite),
        reference,
        "the suite served must come from clean synthesis, not the poisoned remote"
    );
    // The local tier holds a freshly sealed entry that validates clean
    // — the poisoned payload was never installed (it cannot validate).
    let mut reader = cache.local().open_suite(fp).expect("validates");
    assert!(reader.by_ref().all(|r| r.is_ok()), "local entry is clean");
    let (warm, warm_status) = lookup(&cache, &mtm).expect("warm read");
    assert!(warm_status.is_hit(), "got {warm_status:?}");
    assert_eq!(render(&warm), reference);

    std::fs::remove_dir_all(&seed).ok();
    std::fs::remove_dir_all(&local).ok();
}

#[test]
fn truncated_remote_responses_are_detected_and_never_served() {
    let mtm = x86t_elt();
    let reference = render(&transform_synth::synthesize_suite(&mtm, AXIOM, &opts()));
    let fp = suite_fingerprint(&mtm, AXIOM, &opts());

    let seed = temp_dir("trunc-seed");
    let seeded = TieredCache::new(Store::open(&seed).expect("opens"));
    lookup(&seeded, &mtm).expect("seeds");
    let bytes = seeded
        .local()
        .entry_bytes(fp)
        .expect("readable")
        .expect("entry sealed");
    let cut = bytes.len() / 3;

    let (url, _poison) = spawn_poison_server(bytes, Some(cut));
    let local = temp_dir("trunc-client");
    let cache = TieredCache::new(Store::open(&local).expect("store opens")).with_remote(Box::new(
        HttpTier::new(&url)
            .expect("valid URL")
            .with_timeout(std::time::Duration::from_millis(500)),
    ));
    let (suite, status) = lookup(&cache, &mtm).expect("falls back to synthesis");
    assert!(!status.is_remote_hit());
    assert_eq!(render(&suite), reference);

    std::fs::remove_dir_all(&seed).ok();
    std::fs::remove_dir_all(&local).ok();
}

/// One raw HTTP/1.1 GET, returning the response body as text.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n"
    )
    .expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    let (_head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    body.to_string()
}

/// Waits, for at most ten seconds, until the server has no connection
/// in flight. The server updates some counters (suite hits, route
/// counts, the in-flight gauge) after the response bytes are written, so
/// a scrape that follows a finished request can race that bookkeeping;
/// a scrape made after this returns sees all of it.
fn settle(handle: &ServerHandle) {
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};
    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.in_flight.load(Ordering::Acquire) != 0 {
        assert!(
            Instant::now() < deadline,
            "connections still in flight after 10 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One counter's value out of the Prometheus-style plaintext.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{body}"))
        .trim()
        .parse()
        .expect("metric value parses")
}

#[test]
fn metrics_endpoint_reports_requests_hits_puts_and_bytes() {
    let mtm = x86t_elt();
    let root = temp_dir("metrics");
    let server = Server::bind(&root, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let addr = server.local_addr();
    let url = format!("http://{addr}");
    let handle = server.spawn();
    let client = HttpTier::new(&url).expect("valid URL");

    // Cold scrape: every counter is present and zero.
    let cold = http_get(addr, "/v1/metrics");
    for name in [
        "transform_serve_suite_hits_total",
        "transform_serve_suite_misses_total",
        "transform_serve_puts_accepted_total",
        "transform_serve_puts_rejected_total",
        "transform_serve_bytes_served_total",
        "transform_serve_bytes_received_total",
    ] {
        assert_eq!(metric(&cold, name), 0, "{name} on a cold server");
    }
    assert_eq!(metric(&cold, "transform_serve_entries"), 0);

    // Drive traffic: one miss, one upload, one hit.
    let fp = suite_fingerprint(&mtm, AXIOM, &opts());
    assert!(client.fetch(fp).expect("miss round-trips").is_none());
    let seed = temp_dir("metrics-seed");
    let seeded = TieredCache::new(Store::open(&seed).expect("opens"));
    lookup(&seeded, &mtm).expect("seeds");
    let bytes = seeded
        .local()
        .entry_bytes(fp)
        .expect("readable")
        .expect("entry sealed");
    client.publish(fp, &bytes).expect("uploads");
    let served = client
        .fetch(fp)
        .expect("hit round-trips")
        .expect("entry present");
    assert_eq!(served, bytes);

    settle(&handle);
    let warm = http_get(addr, "/v1/metrics");
    assert_eq!(metric(&warm, "transform_serve_suite_hits_total"), 1);
    assert_eq!(metric(&warm, "transform_serve_suite_misses_total"), 1);
    assert_eq!(metric(&warm, "transform_serve_puts_accepted_total"), 1);
    assert_eq!(metric(&warm, "transform_serve_puts_rejected_total"), 0);
    assert_eq!(metric(&warm, "transform_serve_entries"), 1);
    assert_eq!(
        metric(&warm, "transform_serve_bytes_received_total"),
        bytes.len() as u64,
        "the PUT body is the only ingested payload"
    );
    assert_eq!(
        metric(&warm, "transform_serve_bytes_served_total"),
        bytes.len() as u64,
        "the served entry is the only payload sent"
    );
    assert!(metric(&warm, "transform_serve_requests_total") >= 4);

    // A rejected upload counts as rejected and as received bytes.
    let mut damaged = bytes.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xff;
    assert!(
        client.publish(fp, &damaged).is_err(),
        "damaged upload bytes must be refused even for a present entry"
    );
    settle(&handle);
    let after = http_get(addr, "/v1/metrics");
    assert_eq!(metric(&after, "transform_serve_puts_rejected_total"), 1);
    assert_eq!(
        metric(&after, "transform_serve_bytes_received_total"),
        2 * bytes.len() as u64
    );

    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&seed).ok();
}

/// The fused all-axiom path through a tiered cache: axioms the remote
/// holds are remote hits, the rest synthesize in one fused run, and
/// push-on-seal publishes each freshly sealed suite to the server.
#[test]
fn fused_all_axiom_run_reads_through_and_pushes_per_axiom() {
    let mtm = x86t_elt();

    // The origin serves one pre-sealed axiom.
    let origin = temp_dir("all-origin");
    {
        let seeded = TieredCache::new(Store::open(&origin).expect("opens"));
        lookup(&seeded, &mtm).expect("seeds the origin");
    }
    let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let url = format!("http://{}", server.local_addr());
    let handle = server.spawn();

    let local = temp_dir("all-client");
    let cache = TieredCache::new(Store::open(&local).expect("store opens"))
        .with_remote(Box::new(HttpTier::new(&url).expect("valid URL")));
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let all = cache
        .cached_or_synthesize(&mtm, &axioms, &opts(), 2, None)
        .expect("fused all");
    assert_eq!(all.len(), mtm.axioms().len());
    let origin_store = Store::open(&origin).expect("opens");
    for (&axiom, (suite, status)) in axioms.iter().zip(&all) {
        let reference = transform_synth::synthesize_suite(&mtm, axiom, &opts());
        assert_eq!(render(suite), render(&reference), "{axiom}");
        let fp = suite_fingerprint(&mtm, axiom, &opts());
        if axiom == AXIOM {
            assert!(status.is_remote_hit(), "{axiom}: {status:?}");
        } else {
            assert_eq!(status, &CacheStatus::Miss, "{axiom}");
            // Push-on-seal: the freshly synthesized axiom reached the
            // served origin store.
            assert!(
                origin_store.contains(fp),
                "{axiom}: push-on-seal never reached the server"
            );
        }
        assert!(cache.local().contains(fp), "{axiom}: local tier missing");
    }

    handle.shutdown();
    std::fs::remove_dir_all(&origin).ok();
    std::fs::remove_dir_all(&local).ok();
}

/// One raw HTTP/1.1 GET, returning (head, body) — for asserting on
/// response headers, not just payloads.
fn http_get_raw(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n"
    )
    .expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

/// One raw HTTP/1.1 PUT, returning the status code.
fn http_put(addr: std::net::SocketAddr, path: &str, body: &[u8]) -> u16 {
    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    write!(
        stream,
        "PUT {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("writes head");
    stream.write_all(body).expect("writes body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("reads");
    let head = String::from_utf8_lossy(&response);
    head.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status parses")
}

/// The run-journal fleet path end to end: a client publishes a journal
/// (`PUT /v1/runs/<id>`), the fleet list serves its manifest
/// (`GET /v1/runs`), the full journal round-trips byte-identically
/// (`GET /v1/runs/<id>`), and damaged uploads are refused.
#[test]
fn run_journals_publish_list_and_fetch_over_loopback() {
    use transform_par::{JournalEvent, JournalEventKind};
    use transform_store::{decode_run, decode_run_list, encode_run, RunJournal, RunOutcome};

    let root = temp_dir("runs");
    let server = Server::bind(&root, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let addr = server.local_addr();
    let url = format!("http://{}", addr);
    let handle = server.spawn();
    let client = HttpTier::new(&url).expect("valid URL");

    // An empty server lists no runs and 404s unknown ids.
    assert_eq!(client.runs().expect("empty list decodes").len(), 0);
    assert_eq!(client.fetch_run(0x1234).expect("fetch works"), None);

    // Build a small journal by hand (the CLI layer normally does this
    // from a live ProgressState) and publish it.
    let manifest = transform_store::RunManifest {
        id: 0xfeed_f00d,
        mtm: "x86t_elt".into(),
        bound: 4,
        allow_fences: false,
        allow_rmw: false,
        jobs: 2,
        started_unix_micros: 1_700_000_000_000_000,
        elapsed_micros: 250_000,
        outcome: RunOutcome::Complete,
        partitions_total: 10,
        partitions_retired: 10,
        programs: 42,
        items_planned: 17,
        batches: 3,
        peak_live_candidates: 5,
        cut_at_partition: None,
        axioms: Vec::new(),
    };
    let journal = RunJournal {
        manifest,
        events: vec![JournalEvent {
            t_micros: 1,
            kind: JournalEventKind::RunStart,
            axiom: None,
            a: 10,
            b: 0,
            c: 2,
        }],
    };
    let bytes = encode_run(&journal);
    client
        .publish_run(journal.manifest.id, &bytes)
        .expect("publishes");

    // The fleet list now carries the manifest, and the journal fetches
    // back byte-identically.
    let listed = client.runs().expect("list decodes");
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0], journal.manifest);
    let fetched = client
        .fetch_run(journal.manifest.id)
        .expect("fetches")
        .expect("present");
    assert_eq!(fetched, bytes);
    assert_eq!(decode_run(&fetched).expect("decodes"), journal);

    // Re-publishing (the heartbeat path) is accepted with 200.
    let path = format!("/v1/runs/{:016x}", journal.manifest.id);
    assert_eq!(http_put(addr, &path, &bytes), 200);

    // Damage is refused: wrong id in the URL, corrupt bytes, bad id.
    assert_eq!(http_put(addr, "/v1/runs/0000000000000001", &bytes), 400);
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert_eq!(http_put(addr, &path, &corrupt), 400);
    assert_eq!(http_put(addr, "/v1/runs/not-hex", &bytes), 400);
    // The list still serves only the intact journal.
    assert_eq!(client.runs().expect("list decodes").len(), 1);
    // And unsupported methods on runs paths answer 405, not 404.
    let still_listed = decode_run_list(
        &Store::open(&root)
            .expect("store opens")
            .runs()
            .map(|m| transform_store::encode_run_list(&m))
            .expect("encodes"),
    )
    .expect("decodes");
    assert_eq!(still_listed.len(), 1);

    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// A legal Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `/v1/metrics` conforms to the Prometheus text format (0.0.4): the
/// versioned Content-Type, a `# HELP` and `# TYPE` line preceding every
/// family's samples, legal metric names, parseable values, and the
/// per-route breakdown covering every route class.
#[test]
fn metrics_conform_to_prometheus_text_format() {
    let root = temp_dir("prom");
    let server = Server::bind(&root, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Touch two routes so the breakdown has something to count.
    http_get_raw(addr, "/healthz");
    http_get_raw(addr, "/no/such/path");

    settle(&handle);
    let (head, body) = http_get_raw(addr, "/v1/metrics");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "scrapers negotiate on the 0.0.4 version tag, got:\n{head}"
    );

    let mut helped = std::collections::HashSet::new();
    let mut typed = std::collections::HashMap::new();
    let mut samples = 0usize;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().expect("HELP names a family");
            assert!(rest.len() > family.len(), "HELP without text: {line}");
            helped.insert(family.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("TYPE names a family");
            let kind = parts.next().expect("TYPE names a kind");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ),
                "unknown TYPE: {line}"
            );
            typed.insert(family.to_string(), kind.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "stray comment form: {line}");
        assert!(!line.is_empty(), "blank line inside the exposition");

        // `name{labels} value` or `name value`.
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable value: {line}"));
        let name = name_and_labels
            .split_once('{')
            .map_or(name_and_labels, |(n, _)| n);
        assert!(is_metric_name(name), "illegal metric name: {name}");
        // A summary or histogram family declares `x` but samples
        // `x_sum`/`x_count` — and, for histograms, `x_bucket`.
        let family = name
            .strip_suffix("_bucket")
            .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
            .or_else(|| {
                name.strip_suffix("_sum")
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|f| {
                        matches!(
                            typed.get(*f).map(String::as_str),
                            Some("summary") | Some("histogram")
                        )
                    })
            })
            .unwrap_or(name);
        assert!(
            typed.contains_key(family),
            "sample before its # TYPE: {line}"
        );
        assert!(helped.contains(family), "sample before its # HELP: {line}");
        samples += 1;
    }
    assert!(samples > 0, "no samples at all:\n{body}");

    // The per-route breakdown names every route class, and the traffic
    // above landed where it should.
    let labeled = |route: &str| {
        let needle = format!("transform_serve_route_requests_total{{route=\"{route}\"}} ");
        body.lines()
            .find_map(|l| l.strip_prefix(needle.as_str()))
            .unwrap_or_else(|| panic!("route {route} missing from:\n{body}"))
            .parse::<u64>()
            .expect("route counter parses")
    };
    for route in transform_serve::ROUTE_NAMES {
        labeled(route);
    }
    assert_eq!(labeled("healthz"), 1);
    assert_eq!(labeled("other"), 1);
    assert!(metric(&body, "transform_serve_in_flight") <= 1);
    // Latency counts mirror the request counts, per route.
    for route in transform_serve::ROUTE_NAMES {
        let needle = format!("transform_serve_route_latency_seconds_count{{route=\"{route}\"}} ");
        let count: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(needle.as_str()))
            .unwrap_or_else(|| panic!("latency count for {route} missing"))
            .parse()
            .expect("count parses");
        assert_eq!(count, labeled(route), "{route}");
    }
    // Histogram buckets are cumulative per route, and the +Inf bucket
    // equals the request count (Prometheus' histogram invariant).
    let bucket = |route: &str, le: &str| -> u64 {
        let needle = format!(
            "transform_serve_route_latency_seconds_bucket{{route=\"{route}\",le=\"{le}\"}} "
        );
        body.lines()
            .find_map(|l| l.strip_prefix(needle.as_str()))
            .unwrap_or_else(|| panic!("bucket le={le} for {route} missing"))
            .parse()
            .expect("bucket parses")
    };
    for route in transform_serve::ROUTE_NAMES {
        let mut prev = 0u64;
        for le in transform_serve::LATENCY_BUCKETS_SECONDS {
            let v = bucket(route, &le.to_string());
            assert!(v >= prev, "{route}: buckets must be cumulative");
            prev = v;
        }
        let inf = bucket(route, "+Inf");
        assert!(inf >= prev, "{route}: +Inf caps the finite buckets");
        assert_eq!(inf, labeled(route), "{route}: +Inf equals the count");
    }

    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
