//! The suite-store server: a bounded thread-per-connection accept pool
//! over one [`Store`] directory.
//!
//! # Concurrency
//!
//! The accept loop feeds a bounded connection queue drained by a fixed
//! pool of worker threads — the same bounded-queue-of-work idiom as
//! `transform-par`'s shard pool, applied to connections instead of
//! shards. A full queue blocks the accept loop (TCP's listen backlog
//! absorbs the burst), so a slow disk degrades to queueing, never to
//! unbounded thread spawning.
//!
//! # Safety of writes
//!
//! `PUT` ingests through [`Store::install_bytes`]: the body is staged to
//! a temporary file, *every byte* is validated (header checksum, each
//! record, the trailer, and the fingerprint in the header against the
//! one in the URL), and only then atomically renamed into place. Two
//! concurrent `PUT`s of the same fingerprint stage to disjoint files
//! and both rename to identical content — idempotence falls out of
//! content addressing.

use crate::fleet::{FleetState, StagedOutcome};
use crate::http::{read_request, respond, respond_text, write_head, Request, RequestError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use transform_store::fleet::{JobSpec, StageOutcome};
use transform_store::{suite_fingerprint, Fingerprint, Store, StoreError};

/// The route classes `/v1/metrics` breaks request and latency counters
/// down by, in rendering order. `other` absorbs unknown paths and
/// disallowed methods.
pub const ROUTE_NAMES: [&str; 13] = [
    "healthz",
    "metrics",
    "index",
    "suite_get",
    "suite_put",
    "runs_list",
    "run_get",
    "run_put",
    "jobs",
    "lease",
    "heartbeat",
    "shard_put",
    "other",
];

/// Classifies a parsed request into a [`ROUTE_NAMES`] slot.
fn route_slot(method: &str, path: &str) -> usize {
    match (method, path) {
        ("GET" | "HEAD", "/healthz") => 0,
        ("GET" | "HEAD", "/v1/metrics") => 1,
        ("GET", "/v1/index") => 2,
        ("GET" | "HEAD", p) if p.starts_with("/v1/suite/") => 3,
        ("PUT", p) if p.starts_with("/v1/suite/") => 4,
        ("GET" | "HEAD", "/v1/runs") => 5,
        ("GET" | "HEAD", p) if p.starts_with("/v1/runs/") => 6,
        ("PUT", p) if p.starts_with("/v1/runs/") => 7,
        ("POST", "/v1/jobs") => 8,
        ("GET" | "HEAD" | "POST", p) if p.starts_with("/v1/jobs/") => 8,
        ("POST", "/v1/lease") => 9,
        ("POST", p) if p.starts_with("/v1/lease/") && p.ends_with("/heartbeat") => 10,
        ("PUT", p) if p.starts_with("/v1/shard/") => 11,
        _ => 12,
    }
}

/// The route-latency histogram's fixed upper bounds, in seconds —
/// the `le` labels of `transform_serve_route_latency_seconds_bucket`
/// (the implicit `+Inf` bucket rides on the request count). Chosen to
/// bracket the server's real spread: sub-millisecond metadata routes
/// through multi-second cold suite transfers.
pub const LATENCY_BUCKETS_SECONDS: [f64; 6] = [0.001, 0.005, 0.025, 0.1, 0.5, 2.5];

/// One route class's share of the traffic: how many requests it
/// answered, how long answering took (summed), and the latency
/// distribution over [`LATENCY_BUCKETS_SECONDS`].
#[derive(Debug, Default)]
pub struct RouteMetrics {
    /// Requests dispatched to this route.
    pub requests: AtomicU64,
    /// Total time spent answering them, in microseconds (the
    /// histogram's `_sum` sample, rendered in seconds).
    pub latency_micros: AtomicU64,
    /// Requests whose latency landed in each
    /// [`LATENCY_BUCKETS_SECONDS`] band (non-cumulative; the render
    /// step accumulates them into Prometheus' cumulative `_bucket`
    /// convention). Latencies above the last bound count only toward
    /// the implicit `+Inf` bucket, i.e. [`RouteMetrics::requests`].
    pub latency_buckets: [AtomicU64; 6],
}

/// Request counters, readable while the server runs (`/healthz`
/// reports them human-readably; `/v1/metrics` exposes them as
/// Prometheus text format 0.0.4 for scrapers).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests accepted (any method, any path).
    pub requests: AtomicU64,
    /// `GET /v1/suite/…` responses that served a sealed entry.
    pub suite_hits: AtomicU64,
    /// `GET`/`HEAD /v1/suite/…` responses for absent entries.
    pub suite_misses: AtomicU64,
    /// `PUT /v1/suite/…` uploads validated and published.
    pub puts_accepted: AtomicU64,
    /// `PUT /v1/suite/…` uploads refused (damaged or mis-addressed).
    pub puts_rejected: AtomicU64,
    /// Payload bytes served: sealed-entry bodies and index encodings
    /// (response heads and error text excluded).
    pub bytes_served: AtomicU64,
    /// Payload bytes received: `PUT` bodies, accepted or refused (they
    /// crossed the wire either way).
    pub bytes_received: AtomicU64,
    /// Connections currently being handled (parse through response).
    pub in_flight: AtomicU64,
    /// Fleet jobs registered (`POST /v1/jobs` with an unseen spec).
    pub jobs_created: AtomicU64,
    /// Fleet jobs whose suites merged and sealed.
    pub jobs_completed: AtomicU64,
    /// Partition-range leases handed out.
    pub leases_granted: AtomicU64,
    /// Leases reclaimed after missing their heartbeat.
    pub leases_expired: AtomicU64,
    /// Lease heartbeats received (renewed or refused).
    pub heartbeats: AtomicU64,
    /// Shard uploads staged as new results.
    pub shards_accepted: AtomicU64,
    /// Shard uploads that duplicated an already-staged result.
    pub shards_duplicate: AtomicU64,
    /// Per-route request and latency counters, indexed like
    /// [`ROUTE_NAMES`]. Parse failures never reach a route, so the
    /// route totals can lag `requests` by the malformed share.
    pub routes: [RouteMetrics; 13],
}

impl ServeMetrics {
    /// Credits one answered request to its route class.
    fn observe_route(&self, method: &str, path: &str, elapsed: std::time::Duration) {
        let slot = &self.routes[route_slot(method, path)];
        slot.requests.fetch_add(1, Ordering::Relaxed);
        slot.latency_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        let seconds = elapsed.as_secs_f64();
        if let Some(band) = LATENCY_BUCKETS_SECONDS.iter().position(|&le| seconds <= le) {
            slot.latency_buckets[band].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The Prometheus text-format (0.0.4) rendering `/v1/metrics`
    /// serves: every metric family gets a `# HELP` and `# TYPE` line
    /// before its samples; per-route samples carry a `route` label.
    pub fn render(&self, entries: u64) -> String {
        let counter = |name: &str, help: &str, value: u64| {
            format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n")
        };
        let gauge = |name: &str, help: &str, value: u64| {
            format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n")
        };
        let mut out = String::new();
        out.push_str(&counter(
            "transform_serve_requests_total",
            "Requests accepted (any method, any path).",
            self.requests.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_suite_hits_total",
            "Suite GETs that served a sealed entry.",
            self.suite_hits.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_suite_misses_total",
            "Suite GET/HEAD responses for absent entries.",
            self.suite_misses.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_puts_accepted_total",
            "Suite uploads validated and published.",
            self.puts_accepted.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_puts_rejected_total",
            "Suite uploads refused as damaged or mis-addressed.",
            self.puts_rejected.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_bytes_served_total",
            "Payload bytes served: sealed-entry bodies and index encodings.",
            self.bytes_served.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_bytes_received_total",
            "Payload bytes received in PUT bodies, accepted or refused.",
            self.bytes_received.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_jobs_created_total",
            "Fleet jobs registered.",
            self.jobs_created.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_jobs_completed_total",
            "Fleet jobs merged and sealed.",
            self.jobs_completed.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_leases_granted_total",
            "Partition-range leases handed out.",
            self.leases_granted.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_leases_expired_total",
            "Leases reclaimed after missing their heartbeat.",
            self.leases_expired.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_heartbeats_total",
            "Lease heartbeats received.",
            self.heartbeats.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_shards_accepted_total",
            "Shard uploads staged as new results.",
            self.shards_accepted.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "transform_serve_shards_duplicate_total",
            "Shard uploads duplicating an already-staged result.",
            self.shards_duplicate.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "transform_serve_entries",
            "Sealed suite entries in the served store.",
            entries,
        ));
        out.push_str(&gauge(
            "transform_serve_in_flight",
            "Connections currently being handled.",
            self.in_flight.load(Ordering::Relaxed),
        ));
        out.push_str(
            "# HELP transform_serve_route_requests_total Requests answered, by route class.\n\
             # TYPE transform_serve_route_requests_total counter\n",
        );
        for (name, route) in ROUTE_NAMES.iter().zip(&self.routes) {
            out.push_str(&format!(
                "transform_serve_route_requests_total{{route=\"{name}\"}} {}\n",
                route.requests.load(Ordering::Relaxed),
            ));
        }
        out.push_str(
            "# HELP transform_serve_route_latency_seconds Time spent answering requests, by route class.\n\
             # TYPE transform_serve_route_latency_seconds histogram\n",
        );
        for (name, route) in ROUTE_NAMES.iter().zip(&self.routes) {
            let requests = route.requests.load(Ordering::Relaxed);
            // Prometheus buckets are cumulative, and the +Inf bucket
            // must equal the count — accumulate the per-band counters.
            let mut below = 0u64;
            for (le, band) in LATENCY_BUCKETS_SECONDS.iter().zip(&route.latency_buckets) {
                below += band.load(Ordering::Relaxed);
                out.push_str(&format!(
                    "transform_serve_route_latency_seconds_bucket{{route=\"{name}\",le=\"{le}\"}} {below}\n",
                ));
            }
            out.push_str(&format!(
                "transform_serve_route_latency_seconds_bucket{{route=\"{name}\",le=\"+Inf\"}} {requests}\n",
            ));
            let sum = route.latency_micros.load(Ordering::Relaxed) as f64 / 1e6;
            out.push_str(&format!(
                "transform_serve_route_latency_seconds_sum{{route=\"{name}\"}} {sum:.6}\n\
                 transform_serve_route_latency_seconds_count{{route=\"{name}\"}} {requests}\n",
            ));
        }
        out
    }
}

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads handling connections (the accept pool size).
    pub threads: usize,
    /// Log one line per request to stderr.
    pub verbose: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 4,
            verbose: false,
        }
    }
}

/// A bound suite-store server, ready to [`Server::run`] (blocking) or
/// [`Server::spawn`] (background, with a shutdown handle).
///
/// # Examples
///
/// Serving a store and checking liveness through the client half:
///
/// ```
/// use transform_serve::{ServeOptions, Server};
/// use transform_store::HttpTier;
///
/// let dir = std::env::temp_dir().join(format!("serve-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).expect("mkdir");
/// // Port 0: the OS picks a free loopback port.
/// let server = Server::bind(&dir, "127.0.0.1:0", ServeOptions::default()).expect("binds");
/// let url = format!("http://{}", server.local_addr());
/// let handle = server.spawn();
///
/// let client = HttpTier::new(&url).expect("valid URL");
/// assert!(client.health().expect("server is up").contains("ok"));
/// assert!(client.index().expect("index serves").is_empty());
///
/// handle.shutdown();
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct Server {
    store: Arc<Store>,
    listener: TcpListener,
    addr: SocketAddr,
    opts: ServeOptions,
    metrics: Arc<ServeMetrics>,
    fleet: Arc<FleetState>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Opens (creating if needed) the store at `root` and binds `addr`
    /// (e.g. `127.0.0.1:7171`; port `0` lets the OS pick).
    ///
    /// # Errors
    ///
    /// Store-open or bind failure.
    pub fn bind(root: impl AsRef<Path>, addr: &str, opts: ServeOptions) -> io::Result<Server> {
        let store = Store::open(root).map_err(io::Error::other)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            store: Arc::new(store),
            listener,
            addr,
            opts,
            metrics: Arc::new(ServeMetrics::default()),
            fleet: Arc::new(FleetState::new()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's request counters.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Serves until [`ServerHandle::shutdown`] flips the stop flag (or
    /// forever, when no handle exists). Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// A failed `accept` on the listening socket; per-connection errors
    /// are contained to their connection.
    pub fn run(self) -> io::Result<()> {
        let queue = Arc::new(ConnQueue::new(self.opts.threads * 2));
        let mut workers = Vec::with_capacity(self.opts.threads);
        for _ in 0..self.opts.threads.max(1) {
            let queue = Arc::clone(&queue);
            let store = Arc::clone(&self.store);
            let metrics = Arc::clone(&self.metrics);
            let fleet = Arc::clone(&self.fleet);
            let verbose = self.opts.verbose;
            workers.push(std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    handle_connection(&store, &metrics, &fleet, stream, verbose);
                }
            }));
        }
        let mut accept_error = None;
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            match stream {
                Ok(stream) => queue.push(stream),
                Err(e) => {
                    accept_error = Some(e);
                    break;
                }
            }
        }
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        match accept_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs the server on a background thread, returning a handle that
    /// can stop it — the shape tests and benches use; the CLI calls
    /// [`Server::run`] directly.
    pub fn spawn(self) -> ServerHandle {
        let stop = Arc::clone(&self.stop);
        let addr = self.addr;
        let metrics = Arc::clone(&self.metrics);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            stop,
            metrics,
            thread,
        }
    }
}

/// Controls a [`Server::spawn`]ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The served address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served endpoint as a client URL, `http://host:port`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The server's request counters.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops the accept loop, drains in-flight connections, and joins
    /// the server thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

/// The bounded connection queue between the accept loop and workers. A
/// full queue blocks the producer (backpressure to the TCP backlog); a
/// closed queue drains remaining connections, then releases workers.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn push(&self, stream: TcpStream) {
        let mut st = self.state.lock().expect("queue lock is never poisoned");
        while st.0.len() >= self.capacity && !st.1 {
            st = self
                .writable
                .wait(st)
                .expect("queue lock is never poisoned");
        }
        if !st.1 {
            st.0.push_back(stream);
            self.readable.notify_one();
        }
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut st = self.state.lock().expect("queue lock is never poisoned");
        loop {
            if let Some(stream) = st.0.pop_front() {
                self.writable.notify_one();
                return Some(stream);
            }
            if st.1 {
                return None;
            }
            st = self
                .readable
                .wait(st)
                .expect("queue lock is never poisoned");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("queue lock is never poisoned");
        st.1 = true;
        self.readable.notify_all();
        self.writable.notify_all();
    }
}

/// Serves one connection: parse, route, respond, close. All failures
/// are contained here — a bad request gets an error status, a dead
/// socket is dropped.
fn handle_connection(
    store: &Store,
    metrics: &ServeMetrics,
    fleet: &FleetState,
    stream: TcpStream,
    verbose: bool,
) {
    metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    serve_connection(store, metrics, fleet, stream, verbose);
    // Release: whoever reads the gauge back at zero also sees every
    // counter this connection updated after its response was written.
    metrics.in_flight.fetch_sub(1, Ordering::Release);
}

/// The body of [`handle_connection`], split out so the in-flight gauge
/// brackets every exit path (parse failures return early).
fn serve_connection(
    store: &Store,
    metrics: &ServeMetrics,
    fleet: &FleetState,
    mut stream: TcpStream,
    verbose: bool,
) {
    // A stuck peer must not pin a worker forever.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(30)));
    metrics.requests.fetch_add(1, Ordering::Relaxed);
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(RequestError::Io(_)) => return,
        Err(RequestError::Bad(m)) => {
            let _ = respond_text(&mut stream, 400, &format!("{m}\n"));
            return;
        }
        Err(RequestError::LengthRequired) => {
            let _ = respond_text(&mut stream, 411, "Content-Length required\n");
            return;
        }
        Err(RequestError::TooLarge) => {
            let _ = respond_text(&mut stream, 413, "request body too large\n");
            return;
        }
    };
    let begun = std::time::Instant::now();
    let status = route(store, metrics, fleet, &mut stream, &request).unwrap_or(0);
    metrics.observe_route(&request.method, &request.path, begun.elapsed());
    if verbose {
        eprintln!(
            "transform-serve: {} {} -> {status}",
            request.method, request.path
        );
    }
}

/// Dispatches one request, returning the status it answered with (for
/// logging; `Err` means the socket died mid-response).
fn route(
    store: &Store,
    metrics: &ServeMetrics,
    fleet: &FleetState,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<u16> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET" | "HEAD", "/healthz") => {
            let entries = store.entries().map(|e| e.len()).unwrap_or(0);
            let body = format!(
                "transform-serve ok\nentries: {entries}\nrequests: {}\nsuite hits: {}\nsuite misses: {}\nputs accepted: {}\nputs rejected: {}\n",
                metrics.requests.load(Ordering::Relaxed),
                metrics.suite_hits.load(Ordering::Relaxed),
                metrics.suite_misses.load(Ordering::Relaxed),
                metrics.puts_accepted.load(Ordering::Relaxed),
                metrics.puts_rejected.load(Ordering::Relaxed),
            );
            if request.method == "HEAD" {
                write_head(stream, 200, body.len() as u64, "text/plain; charset=utf-8")?;
            } else {
                respond_text(stream, 200, &body)?;
            }
            Ok(200)
        }
        ("GET" | "HEAD", "/v1/metrics") => {
            let entries = store.entries().map(|e| e.len()).unwrap_or(0);
            let body = metrics.render(entries as u64);
            // Prometheus scrapers negotiate on this exact version tag.
            if request.method == "HEAD" {
                write_head(stream, 200, body.len() as u64, "text/plain; version=0.0.4")?;
            } else {
                respond(stream, 200, body.as_bytes(), "text/plain; version=0.0.4")?;
            }
            Ok(200)
        }
        ("GET", "/v1/index") => match transform_store::index::scan(store) {
            Ok(entries) => {
                let bytes = transform_store::index::encode(&entries);
                respond(stream, 200, &bytes, "application/octet-stream")?;
                metrics
                    .bytes_served
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                Ok(200)
            }
            Err(e) => {
                respond_text(stream, 500, &format!("{e}\n"))?;
                Ok(500)
            }
        },
        (method @ ("GET" | "HEAD"), path) if path.starts_with("/v1/suite/") => {
            let Some(fp) = parse_suite_path(path) else {
                respond_text(stream, 400, "malformed fingerprint\n")?;
                return Ok(400);
            };
            // Validate the header before serving a single byte: a
            // damaged entry is a miss, not a payload.
            let reader = match store.open_suite(fp) {
                Ok(reader) => reader,
                Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                    metrics.suite_misses.fetch_add(1, Ordering::Relaxed);
                    respond_text(stream, 404, "no such entry\n")?;
                    return Ok(404);
                }
                Err(_) => {
                    metrics.suite_misses.fetch_add(1, Ordering::Relaxed);
                    respond_text(stream, 404, "entry failed validation\n")?;
                    return Ok(404);
                }
            };
            drop(reader);
            // The entry can vanish between validation and this open
            // (`store gc` against a served root): still answer a clean
            // 404 rather than dropping the connection headerless.
            let path = store.entry_path(fp);
            let opened = std::fs::File::open(&path).and_then(|f| {
                let len = f.metadata()?.len();
                Ok((f, len))
            });
            let (mut file, len) = match opened {
                Ok(opened) => opened,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    metrics.suite_misses.fetch_add(1, Ordering::Relaxed);
                    respond_text(stream, 404, "no such entry\n")?;
                    return Ok(404);
                }
                Err(e) => return Err(e),
            };
            write_head(stream, 200, len, "application/octet-stream")?;
            if method == "GET" {
                // Stream in chunks — suite entries can be large, and the
                // worker never needs the whole file in memory.
                let mut chunk = vec![0u8; 64 * 1024];
                loop {
                    let n = file.read(&mut chunk)?;
                    if n == 0 {
                        break;
                    }
                    stream.write_all(&chunk[..n])?;
                }
                metrics.suite_hits.fetch_add(1, Ordering::Relaxed);
                metrics.bytes_served.fetch_add(len, Ordering::Relaxed);
            }
            Ok(200)
        }
        ("PUT", path) if path.starts_with("/v1/suite/") => {
            // The body crossed the wire regardless of what happens to
            // it — count it before any refusal.
            metrics
                .bytes_received
                .fetch_add(request.body.len() as u64, Ordering::Relaxed);
            let Some(fp) = parse_suite_path(path) else {
                respond_text(stream, 400, "malformed fingerprint\n")?;
                return Ok(400);
            };
            let already = store.contains(fp);
            match store.install_bytes(fp, &request.body) {
                Ok(()) => {
                    metrics.puts_accepted.fetch_add(1, Ordering::Relaxed);
                    let status = if already { 200 } else { 201 };
                    respond_text(stream, status, "sealed\n")?;
                    Ok(status)
                }
                Err(e @ (StoreError::Corrupt(_) | StoreError::Version { .. })) => {
                    metrics.puts_rejected.fetch_add(1, Ordering::Relaxed);
                    respond_text(stream, 400, &format!("{e}\n"))?;
                    Ok(400)
                }
                Err(e) => {
                    respond_text(stream, 500, &format!("{e}\n"))?;
                    Ok(500)
                }
            }
        }
        (method @ ("GET" | "HEAD"), "/v1/runs") => {
            // Scan-backed (corrupt journals are skipped, never served);
            // the encoding carries its own checksum, like the index.
            match store.runs() {
                Ok(manifests) => {
                    let bytes = transform_store::encode_run_list(&manifests);
                    if method == "HEAD" {
                        write_head(stream, 200, bytes.len() as u64, "application/octet-stream")?;
                    } else {
                        respond(stream, 200, &bytes, "application/octet-stream")?;
                        metrics
                            .bytes_served
                            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    }
                    Ok(200)
                }
                Err(e) => {
                    respond_text(stream, 500, &format!("{e}\n"))?;
                    Ok(500)
                }
            }
        }
        (method @ ("GET" | "HEAD"), path) if path.starts_with("/v1/runs/") => {
            let Some(id) = parse_run_path(path) else {
                respond_text(stream, 400, "malformed run id\n")?;
                return Ok(400);
            };
            match store.run_bytes(id) {
                Ok(Some(bytes)) => {
                    if method == "HEAD" {
                        write_head(stream, 200, bytes.len() as u64, "application/octet-stream")?;
                    } else {
                        respond(stream, 200, &bytes, "application/octet-stream")?;
                        metrics
                            .bytes_served
                            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    }
                    Ok(200)
                }
                Ok(None) => {
                    respond_text(stream, 404, "no such run\n")?;
                    Ok(404)
                }
                Err(e) => {
                    respond_text(stream, 500, &format!("{e}\n"))?;
                    Ok(500)
                }
            }
        }
        ("PUT", path) if path.starts_with("/v1/runs/") => {
            // The body crossed the wire regardless of what happens to
            // it — count it before any refusal.
            metrics
                .bytes_received
                .fetch_add(request.body.len() as u64, Ordering::Relaxed);
            let Some(id) = parse_run_path(path) else {
                respond_text(stream, 400, "malformed run id\n")?;
                return Ok(400);
            };
            let already = store.run_path(id).is_file();
            match store.install_run_bytes(id, &request.body) {
                Ok(()) => {
                    // 200 on a rewrite (run journals heartbeat in
                    // place), 201 on first sight — mirroring suite PUT.
                    let status = if already { 200 } else { 201 };
                    respond_text(stream, status, "journaled\n")?;
                    Ok(status)
                }
                Err(e @ (StoreError::Corrupt(_) | StoreError::Version { .. })) => {
                    respond_text(stream, 400, &format!("{e}\n"))?;
                    Ok(400)
                }
                Err(e) => {
                    respond_text(stream, 500, &format!("{e}\n"))?;
                    Ok(500)
                }
            }
        }
        ("POST", "/v1/jobs") => {
            metrics
                .bytes_received
                .fetch_add(request.body.len() as u64, Ordering::Relaxed);
            let spec = match JobSpec::decode(&request.body) {
                Ok(spec) => spec,
                Err(e) => {
                    respond_text(stream, 400, &format!("{e}\n"))?;
                    return Ok(400);
                }
            };
            if let Err(e) = validate_job_spec(&spec) {
                respond_text(stream, 400, &format!("{e}\n"))?;
                return Ok(400);
            }
            let (job, new) = fleet.create_job(spec);
            if new {
                metrics.jobs_created.fetch_add(1, Ordering::Relaxed);
            }
            let status = if new { 201 } else { 200 };
            respond_text(stream, status, &format!("{job:016x}\n"))?;
            Ok(status)
        }
        (method @ ("GET" | "HEAD"), path) if path.starts_with("/v1/jobs/") => {
            let Some(job) = parse_job_path(path) else {
                respond_text(stream, 400, "malformed job id\n")?;
                return Ok(400);
            };
            match fleet.status(job) {
                Some(status) => {
                    let body = status.to_json(job);
                    if method == "HEAD" {
                        write_head(stream, 200, body.len() as u64, "application/json")?;
                    } else {
                        respond(stream, 200, body.as_bytes(), "application/json")?;
                    }
                    Ok(200)
                }
                None => {
                    respond_text(stream, 404, "no such job\n")?;
                    Ok(404)
                }
            }
        }
        ("POST", path) if path.starts_with("/v1/jobs/") && path.ends_with("/cut") => {
            let Some(job) = path.strip_suffix("/cut").and_then(parse_job_path) else {
                respond_text(stream, 400, "malformed job id\n")?;
                return Ok(400);
            };
            if fleet.cut(job) {
                respond_text(stream, 200, "cut\n")?;
                Ok(200)
            } else {
                respond_text(stream, 404, "no such job\n")?;
                Ok(404)
            }
        }
        ("POST", "/v1/lease") => {
            let (grant, expired) = fleet.lease();
            if expired > 0 {
                metrics.leases_expired.fetch_add(expired, Ordering::Relaxed);
            }
            match grant {
                Some(grant) => {
                    metrics.leases_granted.fetch_add(1, Ordering::Relaxed);
                    let bytes = grant.encode();
                    respond(stream, 200, &bytes, "application/octet-stream")?;
                    metrics
                        .bytes_served
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    Ok(200)
                }
                None => {
                    // 204: the fleet is healthy but has nothing pending
                    // — workers back off and poll again.
                    respond(stream, 204, b"", "text/plain; charset=utf-8")?;
                    Ok(204)
                }
            }
        }
        ("POST", path) if path.starts_with("/v1/lease/") && path.ends_with("/heartbeat") => {
            metrics.heartbeats.fetch_add(1, Ordering::Relaxed);
            let Some(lease) = parse_heartbeat_path(path) else {
                respond_text(stream, 400, "malformed lease id\n")?;
                return Ok(400);
            };
            if fleet.heartbeat(lease) {
                respond_text(stream, 200, "renewed\n")?;
                Ok(200)
            } else {
                // 410: the lease lapsed (or never existed) — the range
                // may already be re-leased; the worker should drop it.
                respond_text(stream, 410, "lease not honored\n")?;
                Ok(410)
            }
        }
        ("PUT", path) if path.starts_with("/v1/shard/") => {
            metrics
                .bytes_received
                .fetch_add(request.body.len() as u64, Ordering::Relaxed);
            let Some((job, lo, hi)) = parse_shard_path(path) else {
                respond_text(stream, 400, "malformed shard path\n")?;
                return Ok(400);
            };
            match store.stage_shard(job, lo, hi, &request.body) {
                Ok(outcome @ (StageOutcome::New | StageOutcome::Duplicate)) => {
                    if outcome == StageOutcome::New {
                        metrics.shards_accepted.fetch_add(1, Ordering::Relaxed);
                    } else {
                        metrics.shards_duplicate.fetch_add(1, Ordering::Relaxed);
                    }
                    // Record with the coordinator; the last range in
                    // merges and seals before this response goes out.
                    match fleet.shard_staged(store, job, lo, hi) {
                        StagedOutcome::Sealed => {
                            metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
                        }
                        StagedOutcome::UnknownJob => {
                            // Staged bytes for a job this coordinator
                            // never saw (e.g. it restarted): conflict,
                            // not success — the upload cannot complete
                            // a job.
                            respond_text(stream, 404, "no such job\n")?;
                            return Ok(404);
                        }
                        StagedOutcome::Recorded
                        | StagedOutcome::SealFailed
                        | StagedOutcome::UnknownRange => {}
                    }
                    let status = if outcome == StageOutcome::New {
                        201
                    } else {
                        200
                    };
                    respond_text(stream, status, "staged\n")?;
                    Ok(status)
                }
                Ok(StageOutcome::Mismatch) => {
                    respond_text(
                        stream,
                        409,
                        "shard conflicts with its address or an already-staged upload\n",
                    )?;
                    Ok(409)
                }
                Err(e @ (StoreError::Corrupt(_) | StoreError::Version { .. })) => {
                    respond_text(stream, 400, &format!("{e}\n"))?;
                    Ok(400)
                }
                Err(e) => {
                    respond_text(stream, 500, &format!("{e}\n"))?;
                    Ok(500)
                }
            }
        }
        (_, path)
            if path.starts_with("/v1/suite/")
                || path.starts_with("/v1/runs")
                || path.starts_with("/v1/jobs")
                || path.starts_with("/v1/lease")
                || path.starts_with("/v1/shard/")
                || path == "/v1/index"
                || path == "/v1/metrics"
                || path == "/healthz" =>
        {
            respond_text(stream, 405, "method not allowed\n")?;
            Ok(405)
        }
        _ => {
            respond_text(stream, 404, "not found\n")?;
            Ok(404)
        }
    }
}

/// `/v1/suite/<32 hex chars>` → the fingerprint.
fn parse_suite_path(path: &str) -> Option<Fingerprint> {
    Fingerprint::from_hex(path.strip_prefix("/v1/suite/")?)
}

/// `/v1/runs/<16 hex chars>` → the run id.
fn parse_run_path(path: &str) -> Option<u64> {
    let hex = path.strip_prefix("/v1/runs/")?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// `/v1/jobs/<16 hex chars>` → the job id.
fn parse_job_path(path: &str) -> Option<u64> {
    parse_hex16(path.strip_prefix("/v1/jobs/")?)
}

/// `/v1/lease/<16 hex chars>/heartbeat` → the lease id.
fn parse_heartbeat_path(path: &str) -> Option<u64> {
    parse_hex16(
        path.strip_prefix("/v1/lease/")?
            .strip_suffix("/heartbeat")?,
    )
}

/// `/v1/shard/<16 hex chars>/<lo>-<hi>` → the shard address.
fn parse_shard_path(path: &str) -> Option<(u64, u32, u32)> {
    let rest = path.strip_prefix("/v1/shard/")?;
    let (job_hex, range) = rest.split_once('/')?;
    let job = parse_hex16(job_hex)?;
    let (lo, hi) = range.split_once('-')?;
    Some((job, lo.parse().ok()?, hi.parse().ok()?))
}

/// A 16-hex-digit id (jobs, leases — same shape as run ids).
fn parse_hex16(hex: &str) -> Option<u64> {
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Server-side vetting of a posted job spec, beyond its own codec
/// checks: the model must parse, its name and suite fingerprints must
/// match what the spec claims, and the ranges must tile the partition
/// plan. Catching drift here turns a would-be merge failure (or worse,
/// suites sealed under wrong fingerprints) into a `400` at submission.
fn validate_job_spec(spec: &JobSpec) -> Result<(), String> {
    spec.validate().map_err(|e| e.to_string())?;
    let mtm = transform_core::spec::parse_mtm(&spec.model)
        .map_err(|e| format!("job spec model does not parse: {e}"))?;
    if mtm.name() != spec.mtm_name {
        return Err(format!(
            "job spec names MTM `{}` but its model parses as `{}`",
            spec.mtm_name,
            mtm.name()
        ));
    }
    let opts = spec.key.synth_options().map_err(|e| e.to_string())?;
    for (axiom, fp) in &spec.axioms {
        let expected = suite_fingerprint(&mtm, axiom, &opts);
        if expected != *fp {
            return Err(format!(
                "job spec fingerprint for axiom `{axiom}` does not match its parameters"
            ));
        }
    }
    let partitions = transform_synth::EnumSpace::new(&opts.enumeration).partition_count();
    let covered = spec.ranges.last().map(|&(_, hi)| hi as usize).unwrap_or(0);
    if covered != partitions {
        return Err(format!(
            "job spec ranges cover {covered} partitions but the plan has {partitions}"
        ));
    }
    Ok(())
}
