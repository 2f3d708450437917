//! `transform-cli` — the `transform` command-line tool.
//!
//! A thin, dependency-free front end over the TransForm workspace:
//!
//! * `table1` — print the paper's Table I (the MTM vocabulary);
//! * `figures` — evaluate every paper figure under `x86t_elt`;
//! * `check` — parse an ELT file (or stdin) and report its verdict;
//! * `synthesize` — generate a per-axiom spanning-set suite, optionally
//!   through the persistent suite cache (`--cache DIR`);
//! * `compare` — the §VI-B COATCheck comparison;
//! * `simulate` — run an ELT program on the operational reference
//!   machine, optionally with an injected bug;
//! * `query` — filter the ELTs of a suite cache by axiom, bound, shape,
//!   fences, and rmw without resynthesizing anything;
//! * `export` — dump cached ELTs in the text syntax;
//! * `store verify` — offline re-checksum of every cached suite,
//!   reporting (and optionally removing) corrupt entries;
//! * `store gc` — age out cached suites by mtime and/or a keep-list of
//!   fingerprints, and sweep leftover shard directories;
//! * `serve` — serve a suite store over HTTP as a fleet-wide shared
//!   cache (`transform-serve`); clients point `--cache-url` at it; the
//!   same instance doubles as the synthesis-fleet coordinator;
//! * `worker` — a fleet worker: lease mass-balanced partition ranges
//!   from a coordinator, run the fused pipeline over each, heartbeat
//!   while computing, and upload content-addressed shard results;
//! * `top` — a live fleet view of a `serve` instance, polled from its
//!   Prometheus `/v1/metrics` endpoint and merged with the recent run
//!   manifests of `/v1/runs`;
//! * `runs` — list, inspect, and export the journals that cached
//!   synthesis runs record (`export --chrome` emits a Chrome
//!   trace-event file for `about://tracing`);
//! * `store push` / `store pull` — bulk-replicate sealed entries to /
//!   from a served cache.
//!
//! Every subcommand answers `--help` with its flags and one worked
//! example (the `help` module).
//!
//! The command logic lives in this library crate (returning the output as
//! a `String`) so it is unit-testable; `main.rs` only prints.

mod heartbeat;
mod help;
mod opts;
mod progress;
mod runs;

use opts::Opts;
use progress::{parse_progress, ProgressMode, Reporter};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;
use transform_core::axiom::Mtm;
use transform_core::rel::MAX_EVENTS;
use transform_core::spec::parse_mtm;
use transform_core::{figures, pretty, vocab};
use transform_litmus::format::{parse_elt, print_elt};
use transform_par::{synthesize, ProgressState};
use transform_sim::{check_conformance, explore, Bugs, SimConfig, SimProgram};
use transform_store::{
    execute_lease, CacheTier, EntryMeta, Fingerprint, HttpTier, JobSpec, Store, StoreError,
    TieredCache,
};
use transform_synth::engine::{Backend, Suite, SynthOptions};
use transform_synth::programs::{Program, SlotOp};
use transform_synth::SuiteRecord;
use transform_x86::{compare_suite, synthesized_keys, x86_tso, x86t_elt};

/// The usage banner `transform --help` prints.
pub const USAGE: &str = "\
usage: transform <command> [options]

commands:
  table1                        print the MTM vocabulary (Table I)
  figures [--dot NAME]          evaluate the paper figures under x86t_elt
  check FILE|- [--mtm M]        verdict for an ELT file (text syntax)
  synthesize --axiom A|--all --bound N [--mtm M] [--max-threads T]
             [--fences] [--rmw] [--timeout-secs S] [--quiet]
             [--jobs N|auto] [--backend explicit|relational]
             [--progress[=human|json]]
             [--cache DIR] [--cache-url URL] [--out FILE]
             [--workers URL[,URL...]] [--lease-ttl-secs S]
             [--fleet-ranges N]
  compare --bound N [--timeout-secs S] [--jobs N|auto]
          [--progress[=human|json]]
          [--cache DIR] [--cache-url URL]
  simulate FILE|- [--bug invlpg-noop|shootdown|dirty-bit] [--evictions]
  query --cache DIR [--mtm-name M] [--axiom A] [--bound N]
        [--backend B] [--shape S] [--fences] [--rmw]
  export --cache DIR [same filters as query] [--out FILE]
  serve --root DIR [--addr HOST:PORT] [--threads N] [--verbose]
  worker --url URL [--jobs N|auto] [--poll-secs N] [--drain]
         [--idle-secs N] [--name NAME]
  top --url URL [--interval-secs N] [--once]
  runs list [--outcome O] [--since ISO8601]
       |show ID|export ID --chrome [--out FILE]
       (--cache DIR | --url URL)
  store verify --cache DIR [--remove-corrupt]
  store gc --cache DIR [--older-than-days N] [--keep-list FILE]
        [--dry-run]
  store push --cache DIR --url URL [--fingerprint FP]
  store pull --cache DIR --url URL [--fingerprint FP]

Every command answers `transform <command> --help` with its flags and a
worked example.

--mtm accepts `x86t_elt` (default), `x86tso`, or a path to a spec file.
--jobs runs synthesis on N worker threads (`auto` = all cores); the
suite is byte-identical for every N. `synthesize --all` streams every
axiom of the MTM through one fused run (the program space is
enumerated once; no shared plan is built up front). The work units
are the enumeration's root shapes: each one's programs are examined
as one batch.
--progress streams live per-axiom telemetry (partitions retired,
programs, ELTs, an ETA from the partitions retired) to stderr while
synthesis runs — `json` emits one object per line; stdout stays
byte-identical either way. `top` polls a serve instance's /v1/metrics and /v1/runs for a
live fleet view, in-flight synthesis runs included.
--cache makes synthesis stream from / seal into a persistent suite
store keyed on (MTM, axiom, bound, options); corrupt or stale entries
are detected by checksums and rebuilt. Cached runs also record a
checksummed run journal (manifest + timestamped span events) into the
store — `runs` lists and inspects them, and `runs export --chrome`
turns one into a Chrome trace-event file. --cache-url adds a shared
`transform serve` endpoint behind the local store: local miss, remote
fetch (validated byte-for-byte), push-on-seal. `check -` and
`simulate -` read the ELT from stdin. `serve` exposes a store directory
over HTTP for a fleet-wide shared cache; `store push`/`store pull`
bulk-replicate sealed entries to/from one. A `serve` instance is also the
synthesis-fleet coordinator: `synthesize --workers URL` registers the
run as a fleet job there, `transform worker --url URL` processes lease
partition ranges and upload shard results, and the client pulls the
fleet-sealed suites — byte-identical to a single-machine run at any
worker count, including under worker death and lease expiry.";

/// Runs a command line, returning its stdout text.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags,
/// unreadable files, and parse failures.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut opts = Opts::new(args);
    let Some(cmd) = opts.positional() else {
        if opts.flag("--help") {
            return Ok(format!("{USAGE}\n"));
        }
        return Err("missing command".into());
    };
    // `store` resolves --help against its subcommand inside cmd_store.
    if cmd != "store" && opts.flag("--help") {
        return help::help_for(&cmd, None).ok_or(format!("unknown command `{cmd}`"));
    }
    match cmd.as_str() {
        "table1" => {
            opts.finish()?;
            Ok(vocab::render_table_i())
        }
        "figures" => cmd_figures(opts),
        "check" => cmd_check(opts),
        "synthesize" => cmd_synthesize(opts),
        "compare" => cmd_compare(opts),
        "simulate" => cmd_simulate(opts),
        "query" => cmd_query(opts),
        "export" => cmd_export(opts),
        "serve" => cmd_serve(opts),
        "worker" => cmd_worker(opts),
        "top" => cmd_top(opts),
        "runs" => cmd_runs(opts),
        "store" => cmd_store(opts),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Reads an ELT source: a file path, or stdin for `-`.
fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut src = String::new();
        std::io::stdin()
            .read_to_string(&mut src)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        return Ok(src);
    }
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn load_mtm(spec: Option<String>) -> Result<Mtm, String> {
    match spec.as_deref() {
        None | Some("x86t_elt") => Ok(x86t_elt()),
        Some("x86tso") | Some("x86-tso") => Ok(x86_tso()),
        Some(path) => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read MTM spec `{path}`: {e}"))?;
            parse_mtm(&src).map_err(|e| format!("{path}: {e}"))
        }
    }
}

fn cmd_figures(mut opts: Opts) -> Result<String, String> {
    let dot = opts.value("--dot");
    opts.finish()?;
    let mtm = x86t_elt();
    let mut out = String::new();
    for (name, x, expect) in figures::all_figures() {
        if let Some(want) = &dot {
            if want == name {
                let a = x.analyze().map_err(|e| e.to_string())?;
                return Ok(pretty::dot(&a));
            }
            continue;
        }
        let v = mtm.permits(&x);
        let verdict = if v.is_permitted() {
            "permitted".to_string()
        } else {
            format!("forbidden ({})", v.violated.join(", "))
        };
        debug_assert_eq!(v.is_permitted(), expect);
        out.push_str(&format!("{name:28} {:2} events  {verdict}\n", x.size()));
    }
    if out.is_empty() {
        return Err("no figure with that name (try without --dot for the list)".into());
    }
    Ok(out)
}

fn cmd_check(mut opts: Opts) -> Result<String, String> {
    let file = opts.positional().ok_or("check needs an ELT file (or -)")?;
    let mtm = load_mtm(opts.value("--mtm"))?;
    opts.finish()?;
    let src = read_source(&file)?;
    let (name, x) = parse_elt(&src).map_err(|e| format!("{file}: {e}"))?;
    let a = x.analyze().map_err(|e| malformed_elt(&name, e))?;
    let v = mtm.evaluate(&a);
    let mut out = pretty::render(&a);
    out.push_str(&format!(
        "\n{} under {}: {}\n",
        if name.is_empty() { "<elt>" } else { &name },
        mtm.name(),
        if v.is_permitted() {
            "permitted".to_string()
        } else {
            format!("forbidden — violates {}", v.violated.join(", "))
        }
    ));
    Ok(out)
}

/// The one-line error `check` and `simulate` report for an ELT that
/// parses but is not a well-formed execution.
fn malformed_elt(name: &str, e: impl std::fmt::Display) -> String {
    format!("`{name}` is not a well-formed ELT: {e}")
}

fn cmd_synthesize(mut opts: Opts) -> Result<String, String> {
    let axiom = opts.value("--axiom");
    let all = opts.flag("--all");
    let bound = check_bound(
        opts.number("--bound")?
            .ok_or("synthesize needs --bound <events>")?,
    )?;
    let mtm = load_mtm(opts.value("--mtm"))?;
    let mut sopts = SynthOptions::new(bound);
    sopts.enumeration.max_threads = opts.number("--max-threads")?;
    sopts.enumeration.allow_fences = opts.flag("--fences");
    sopts.enumeration.allow_rmw = opts.flag("--rmw");
    sopts.timeout = opts.number("--timeout-secs")?.map(Duration::from_secs);
    if let Some(b) = opts.value("--backend") {
        sopts.backend = parse_backend(&b)?;
    }
    let jobs = opts.jobs()?;
    let quiet = opts.flag("--quiet");
    let progress_mode = parse_progress(opts.optional_value("--progress"))?;
    let cache = opts.value("--cache");
    let cache_url = opts.value("--cache-url");
    let out_file = opts.value("--out");
    let workers = opts.value("--workers");
    let lease_ttl = Duration::from_secs(opts.number("--lease-ttl-secs")?.unwrap_or(30).max(1));
    let fleet_ranges: usize = opts
        .number("--fleet-ranges")?
        .unwrap_or_else(|| (jobs * 2).max(4))
        .max(1);
    opts.finish()?;
    let axioms: Vec<String> = match (axiom, all) {
        (Some(_), true) => return Err("--axiom and --all are mutually exclusive".into()),
        (None, false) => return Err("synthesize needs --axiom <name> or --all".into()),
        (Some(axiom), false) => {
            if mtm.axiom(&axiom).is_none() {
                return Err(format!(
                    "axiom `{axiom}` is not part of {}; it has: {}",
                    mtm.name(),
                    mtm.axioms()
                        .iter()
                        .map(|a| a.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            vec![axiom]
        }
        (None, true) => mtm.axioms().iter().map(|a| a.name.clone()).collect(),
    };
    // --workers: the fleet client. The run becomes a coordinator job;
    // remote `transform worker` processes compute the leased ranges and
    // the sealed suites are pulled back — byte-identical to the local
    // paths below at any worker count.
    if let Some(urls) = workers {
        if cache_url.is_some() {
            return Err(
                "--workers and --cache-url are mutually exclusive (the first --workers URL \
                 already serves as the shared remote tier)"
                    .into(),
            );
        }
        let dir = cache.as_deref().ok_or(
            "--workers needs --cache DIR for the local tier (the fleet-sealed suites are \
             pulled and validated into it)",
        )?;
        let suites = fleet_synthesize(
            &mtm,
            &axioms,
            &sopts,
            jobs,
            dir,
            &urls,
            fleet_ranges,
            lease_ttl,
            progress_mode,
        )?;
        return render_synthesize_output(&axioms, bound, jobs, &suites, quiet, out_file.as_deref());
    }
    let suites = synthesize_observed(
        &mtm,
        &axioms,
        &sopts,
        jobs,
        cache.as_deref(),
        cache_url.as_deref(),
        progress_mode,
    )?;
    render_synthesize_output(&axioms, bound, jobs, &suites, quiet, out_file.as_deref())
}

/// The tail every `synthesize` path shares — fleet-pulled and locally
/// synthesized suites print identically.
fn render_synthesize_output(
    axioms: &[String],
    bound: usize,
    jobs: usize,
    suites: &BTreeMap<String, Suite>,
    quiet: bool,
    out_file: Option<&str>,
) -> Result<String, String> {
    let mut out = String::new();
    let render_all = || -> String { axioms.iter().map(|ax| render_suite(&suites[ax])).collect() };
    if let Some(path) = out_file {
        std::fs::write(path, render_all()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        let elts: usize = suites.values().map(|s| s.elts.len()).sum();
        out.push_str(&format!("wrote {elts} ELTs to {path}\n"));
    } else if !quiet {
        out.push_str(&render_all());
    }
    for ax in axioms {
        out.push_str(&suite_summary(ax, bound, &suites[ax], jobs));
    }
    Ok(out)
}

/// The `--workers` client: registers the run as a fleet job on every
/// listed coordinator (idempotent — the job id is the spec's content
/// hash), waits while `transform worker` processes lease the
/// mass-balanced partition ranges and upload shard results, and pulls
/// the fleet-sealed suites (validated byte-for-byte) through the tiered
/// cache. The coordinator's deterministic ordinal merge makes the
/// sealed suites byte-identical to a single-machine run at any worker
/// count, including under worker death, lease expiry, and duplicate
/// uploads.
#[allow(clippy::too_many_arguments)]
fn fleet_synthesize(
    mtm: &Mtm,
    axioms: &[String],
    sopts: &SynthOptions,
    jobs: usize,
    dir: &str,
    urls: &str,
    ranges: usize,
    lease_ttl: Duration,
    progress: Option<ProgressMode>,
) -> Result<BTreeMap<String, Suite>, String> {
    let urls: Vec<&str> = urls
        .split(',')
        .map(str::trim)
        .filter(|u| !u.is_empty())
        .collect();
    if urls.is_empty() {
        return Err("--workers needs at least one coordinator URL".into());
    }
    // URLs first: a bad URL must not leave an empty store behind.
    let coordinators: Vec<HttpTier> = urls
        .iter()
        .map(|u| HttpTier::new(u).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let store = Store::open(dir).map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;

    let names: Vec<&str> = axioms.iter().map(String::as_str).collect();
    let spec = JobSpec::for_run(
        mtm,
        &names,
        sopts,
        jobs.max(1) as u32,
        ranges,
        lease_ttl.as_millis() as u64,
    );
    let job = spec.id();
    for c in &coordinators {
        let accepted = c
            .create_job(&spec.encode())
            .map_err(|e| format!("coordinator `{}`: {e}", c.url()))?;
        if accepted != job {
            return Err(format!(
                "coordinator `{}` registered job {accepted:016x} for spec {job:016x} — \
                 coordinator/client version skew",
                c.url()
            ));
        }
    }
    // Poll the primary coordinator until every range's shard is staged
    // and the merge sealed the suites (or the deadline cuts the job).
    let primary = &coordinators[0];
    let started = std::time::Instant::now();
    let mut last = String::new();
    loop {
        let status = primary
            .job_status(job)
            .map_err(|e| format!("coordinator `{}`: {e}", primary.url()))?
            .ok_or_else(|| {
                format!(
                    "coordinator `{}` lost job {job:016x} (restarted?); re-run to re-register",
                    primary.url()
                )
            })?;
        if let Some(mode) = progress {
            let line = match mode {
                ProgressMode::Human => format!(
                    "fleet {job:016x}: {}/{} ranges staged, {} leased",
                    status.staged, status.ranges, status.leased
                ),
                ProgressMode::Json => format!(
                    "{{\"fleet\":\"{job:016x}\",\"ranges\":{},\"staged\":{},\"leased\":{},\
                     \"complete\":{}}}",
                    status.ranges, status.staged, status.leased, status.complete
                ),
            };
            if line != last {
                eprintln!("{line}");
                last = line;
            }
        }
        if status.cut {
            return Err(format!(
                "fleet job {job:016x} was cut on the coordinator; the suites never sealed"
            ));
        }
        if status.complete {
            break;
        }
        if let Some(deadline) = sopts.timeout {
            if started.elapsed() >= deadline {
                for c in &coordinators {
                    c.cut_job(job).ok();
                }
                return Err(format!(
                    "fleet job {job:016x} hit the --timeout-secs deadline after {:.0?}; cut on \
                     the coordinator with {}/{} ranges staged",
                    started.elapsed(),
                    status.staged,
                    status.ranges,
                ));
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    // Every suite is sealed on the coordinator: read them through the
    // tiered cache in one request, so the bytes are validated into the
    // local store and served exactly like any other remote hit.
    let remote = HttpTier::new(urls[0]).map_err(|e| e.to_string())?;
    let tiered = TieredCache::new(store).with_remote(Box::new(remote));
    let served = tiered
        .cached_or_synthesize(mtm, &names, sopts, jobs, None)
        .map_err(|e| format!("cache `{dir}` + `{}`: {e}", urls[0]))?;
    Ok(axioms
        .iter()
        .cloned()
        .zip(served.into_iter().map(|(suite, _status)| suite))
        .collect())
}

/// `transform worker`: the fleet worker loop. Leases mass-balanced
/// partition ranges from a coordinator, runs the fused pipeline over
/// each leased range (only the leased partitions are enumerated and
/// examined), heartbeats while it
/// computes, and uploads the content-addressed shard result. Uploads
/// are idempotent and checksummed, so retries and duplicate completions
/// are conflict-free.
fn cmd_worker(mut opts: Opts) -> Result<String, String> {
    let url = opts
        .value("--url")
        .ok_or("worker needs --url http://host:port (the coordinator)")?;
    let jobs = opts.jobs()?;
    let poll = Duration::from_secs(opts.number("--poll-secs")?.unwrap_or(1).max(1));
    let drain = opts.flag("--drain");
    let idle = Duration::from_secs(opts.number("--idle-secs")?.unwrap_or(5).max(1));
    let name = opts
        .value("--name")
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    opts.finish()?;
    let client = HttpTier::new(&url).map_err(|e| e.to_string())?;
    let mut completed = 0usize;
    let mut idle_since: Option<std::time::Instant> = None;
    loop {
        let grant = match client.lease(&name) {
            Ok(grant) => grant,
            Err(e) => {
                if drain {
                    return Err(format!("coordinator `{url}`: {e}"));
                }
                eprintln!("transform worker: coordinator `{url}`: {e}");
                std::thread::sleep(poll);
                continue;
            }
        };
        let Some(grant) = grant else {
            // No work right now. A draining worker waits out the idle
            // grace first — a fleet client may still be registering the
            // job, or a peer's death may put a range back on offer.
            let since = *idle_since.get_or_insert_with(std::time::Instant::now);
            if drain && since.elapsed() >= idle {
                break;
            }
            std::thread::sleep(poll.min(Duration::from_millis(250)));
            continue;
        };
        idle_since = None;
        eprintln!(
            "transform worker: leased job {:016x} range {}..{} (lease {:016x}, ttl {}ms)",
            grant.job, grant.lo, grant.hi, grant.lease, grant.ttl_ms
        );
        if work_one_lease(&url, &grant, jobs)? {
            completed += 1;
        }
    }
    Ok(format!(
        "worker `{name}`: {completed} range{} computed and uploaded\n",
        if completed == 1 { "" } else { "s" }
    ))
}

/// Computes one leased range and uploads its shard result, renewing the
/// lease from a side thread the whole time. Returns whether the upload
/// landed; a failed range is abandoned (`false`) so its lease expires
/// and the coordinator reassigns it.
fn work_one_lease(
    url: &str,
    grant: &transform_store::LeaseGrant,
    jobs: usize,
) -> Result<bool, String> {
    let mut beat = {
        let client = HttpTier::new(url).map_err(|e| e.to_string())?;
        let lease = grant.lease;
        // Renew at a third of the TTL, floored so tiny TTLs still beat.
        let cadence = Duration::from_millis((grant.ttl_ms / 3).clamp(50, 10_000));
        heartbeat::Heartbeat::start(cadence, move |pulse| {
            // A refused renewal means the lease lapsed and the range was
            // reassigned. Keep computing anyway — uploads are
            // idempotent, so a duplicate completion is harmless — but
            // stop beating a dead lease.
            while !matches!(client.heartbeat(lease), Ok(false)) && pulse.wait() {}
        })
    };
    let result = execute_lease(grant, jobs);
    beat.stop();
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!(
                "transform worker: range {}..{} failed: {e} (lease left to expire)",
                grant.lo, grant.hi
            );
            return Ok(false);
        }
    };
    let bytes = result.encode();
    let client = HttpTier::new(url).map_err(|e| e.to_string())?;
    let mut delay = Duration::from_millis(200);
    for attempt in 1..=3 {
        match client.put_shard(grant.job, grant.lo, grant.hi, &bytes) {
            Ok(outcome) => {
                eprintln!(
                    "transform worker: uploaded job {:016x} range {}..{} ({} bytes, {:?})",
                    grant.job,
                    grant.lo,
                    grant.hi,
                    bytes.len(),
                    outcome
                );
                return Ok(true);
            }
            Err(e) if attempt < 3 => {
                eprintln!("transform worker: upload attempt {attempt} failed: {e}; retrying");
                std::thread::sleep(delay);
                delay *= 2;
            }
            Err(e) => {
                return Err(format!(
                    "upload of job {:016x} range {}..{} failed after {attempt} attempts: {e}",
                    grant.job, grant.lo, grant.hi
                ))
            }
        }
    }
    unreachable!("the retry loop returns on success or final failure")
}

/// The one-line per-suite summary `synthesize` prints (per axiom, for
/// `--all` runs).
fn suite_summary(axiom: &str, bound: usize, suite: &Suite, jobs: usize) -> String {
    format!(
        "suite `{}` @ bound {}: {} ELTs ({} programs explored, {} executions, {} forbidden, {} minimal) in {:.2?} on {} worker{}{}\n",
        axiom,
        bound,
        suite.elts.len(),
        suite.stats.programs,
        suite.stats.executions,
        suite.stats.forbidden,
        suite.stats.minimal,
        suite.stats.elapsed,
        jobs,
        if jobs == 1 { "" } else { "s" },
        if suite.stats.timed_out { " [timed out]" } else { "" },
    )
}

/// [`synthesize_maybe_cached`] under observation. `--progress` gets a
/// shared atomics block the run publishes into and a reporter thread
/// that renders it (stderr only — stdout is identical to an unobserved
/// run). A cached run always observes, for its journal: a heartbeat
/// keeps a `Running` manifest in the store (and on the remote tier)
/// while the run executes, and the full journal is sealed at the end.
/// With neither, the run takes the plain, un-instrumented entry points.
/// Observation never changes the suite.
fn synthesize_observed(
    mtm: &Mtm,
    axioms: &[String],
    sopts: &SynthOptions,
    jobs: usize,
    cache: Option<&str>,
    cache_url: Option<&str>,
    progress_mode: Option<ProgressMode>,
) -> Result<BTreeMap<String, Suite>, String> {
    let progress = (progress_mode.is_some() || cache.is_some()).then(|| {
        Arc::new(match cache {
            Some(_) => ProgressState::with_journal(axioms),
            None => ProgressState::new(axioms),
        })
    });
    let reporter = progress_mode
        .zip(progress.as_ref())
        .map(|(mode, state)| Reporter::start(Arc::clone(state), mode));
    let recorder = match (&progress, cache) {
        (Some(progress), Some(dir)) => Some(runs::JournalRecorder::start(
            dir,
            cache_url,
            mtm.name(),
            sopts.enumeration.bound,
            sopts.enumeration.allow_fences,
            sopts.enumeration.allow_rmw,
            jobs,
            Arc::clone(progress),
        )?),
        _ => None,
    };
    let suites = synthesize_maybe_cached(
        mtm,
        axioms,
        sopts,
        jobs,
        cache,
        cache_url,
        progress.as_ref(),
    )?;
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    if let Some(recorder) = recorder {
        recorder.finish();
    }
    Ok(suites)
}

/// The `synthesize`/`compare` synthesis step: every suite of `axioms`
/// from **one fused run** — straight through the engine, through the
/// persistent suite store when `--cache` is given (tier hits served per
/// axiom, all misses synthesized together and each sealed when the run
/// finishes), and through the tiered local+remote cache when
/// `--cache-url` names a shared `transform serve` endpoint too. Cached
/// and fresh runs print identically — a warm run (local or remote)
/// serves the sealed artifact of the cold one, statistics included. A
/// `progress` handle observes the run (cache hits marked cached, live
/// runs publishing their counters) without changing any of that.
fn synthesize_maybe_cached(
    mtm: &Mtm,
    axioms: &[String],
    sopts: &SynthOptions,
    jobs: usize,
    cache: Option<&str>,
    cache_url: Option<&str>,
    progress: Option<&Arc<ProgressState>>,
) -> Result<BTreeMap<String, Suite>, String> {
    let names: Vec<&str> = axioms.iter().map(String::as_str).collect();
    let suites = match (cache, cache_url) {
        (None, None) => synthesize(mtm, &names, sopts, jobs, progress),
        (None, Some(_)) => {
            return Err(
                "--cache-url needs --cache DIR for the local tier (remote hits are \
                 validated into it, and fresh suites are sealed there before the push)"
                    .into(),
            )
        }
        (Some(dir), url) => {
            // URL first: a bad URL must not leave an empty store behind.
            let remote = url
                .map(HttpTier::new)
                .transpose()
                .map_err(|e| e.to_string())?;
            let store = Store::open(dir).map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
            let mut tiered = TieredCache::new(store);
            if let Some(remote) = remote {
                tiered = tiered.with_remote(Box::new(remote));
            }
            let served = tiered
                .cached_or_synthesize(mtm, &names, sopts, jobs, progress)
                .map_err(|e| match url {
                    Some(url) => format!("cache `{dir}` + `{url}`: {e}"),
                    None => format!("cache `{dir}`: {e}"),
                })?;
            served.into_iter().map(|(suite, _status)| suite).collect()
        }
    };
    Ok(axioms.iter().cloned().zip(suites).collect())
}

/// Renders a suite's members exactly as `synthesize` prints them.
fn render_suite(suite: &Suite) -> String {
    let mut out = String::new();
    for (i, elt) in suite.elts.iter().enumerate() {
        out.push_str(&print_elt(&format!("{}_{i}", suite.axiom), &elt.witness));
        out.push('\n');
    }
    out
}

fn parse_backend(name: &str) -> Result<Backend, String> {
    match name {
        "explicit" => Ok(Backend::Explicit),
        "relational" | "sat" => Ok(Backend::Relational),
        other => Err(format!(
            "unknown --backend `{other}` (expected `explicit` or `relational`)"
        )),
    }
}

/// Checks a synthesis `--bound`. An execution's events must fit one
/// relation row, so a larger bound is refused up front rather than
/// leaving every wider candidate unexamined.
fn check_bound(bound: usize) -> Result<usize, String> {
    if bound > MAX_EVENTS {
        return Err(format!(
            "--bound must be at most {MAX_EVENTS} (the events one relation row holds)"
        ));
    }
    Ok(bound)
}

fn cmd_compare(mut opts: Opts) -> Result<String, String> {
    let bound = check_bound(opts.number("--bound")?.unwrap_or(7))?;
    let timeout = Duration::from_secs(opts.number("--timeout-secs")?.unwrap_or(300));
    let jobs = opts.jobs()?;
    let mut sopts = SynthOptions::new(bound);
    sopts.timeout = Some(timeout);
    let progress_mode = parse_progress(opts.optional_value("--progress"))?;
    let cache = opts.value("--cache");
    let cache_url = opts.value("--cache-url");
    opts.finish()?;
    let mtm = x86t_elt();
    let axioms: Vec<String> = mtm.axioms().iter().map(|a| a.name.clone()).collect();
    // One fused run covers every axiom (the budget spans the whole
    // run); cached axioms stream from their sealed entries.
    let suites = synthesize_observed(
        &mtm,
        &axioms,
        &sopts,
        jobs,
        cache.as_deref(),
        cache_url.as_deref(),
        progress_mode,
    )?;
    let keys = synthesized_keys(suites.values());
    let cmp = compare_suite(&transform_x86::coatcheck::suite(), &keys);
    Ok(transform_x86::compare::render(&cmp))
}

/// `transform top`: a live fleet view of a `transform serve` instance,
/// polled from its `/v1/metrics` endpoint. `--once` prints a single
/// frame (scripts, CI smoke tests); otherwise redraws until killed.
fn cmd_top(mut opts: Opts) -> Result<String, String> {
    let url = opts
        .value("--url")
        .ok_or("top needs --url http://host:port")?;
    let interval: u64 = opts.number("--interval-secs")?.unwrap_or(2).max(1);
    let once = opts.flag("--once");
    opts.finish()?;
    let remote = HttpTier::new(&url).map_err(|e| e.to_string())?;
    let scrape = || -> Result<std::collections::BTreeMap<String, f64>, String> {
        let text = remote
            .metrics()
            .map_err(|e| format!("cannot scrape `{url}`: {e}"))?;
        Ok(progress::parse_prometheus(&text))
    };
    // The runs section is best-effort: a server predating /v1/runs
    // still renders its metrics, with the section marked unavailable.
    let runs_section = || match remote.runs() {
        Ok(manifests) => runs::render_runs_section(&manifests),
        Err(_) => "runs: unavailable (server has no /v1/runs)\n".to_string(),
    };
    let first = scrape()?;
    if once {
        return Ok(format!(
            "{}{}",
            progress::render_top(&url, None, &first, interval as f64),
            runs_section(),
        ));
    }
    use std::io::IsTerminal;
    let tty = std::io::stdout().is_terminal();
    let mut prev = first;
    let initial = format!(
        "{}{}",
        progress::render_top(&url, None, &prev, interval as f64),
        runs_section(),
    );
    // The frame height varies (runs appear and finish), so redraws
    // climb over the *previous* frame, not the new one.
    let mut drawn = initial.lines().count();
    print!("{initial}");
    loop {
        std::thread::sleep(Duration::from_secs(interval));
        // A transient scrape failure (server restarting) keeps polling.
        let cur = match scrape() {
            Ok(cur) => cur,
            Err(e) => {
                eprintln!("transform top: {e}");
                continue;
            }
        };
        let frame = format!(
            "{}{}",
            progress::render_top(&url, Some(&prev), &cur, interval as f64),
            runs_section(),
        );
        if tty {
            // Redraw in place.
            print!("\x1b[{drawn}A");
            for line in frame.lines() {
                println!("\x1b[2K{line}");
            }
            drawn = frame.lines().count();
        } else {
            print!("{frame}");
        }
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        prev = cur;
    }
}

/// Where `transform runs` reads journals from: a local store directory
/// or a served fleet cache.
enum RunSource {
    Local(Store),
    Remote(HttpTier),
}

impl RunSource {
    /// Resolves the `--cache DIR | --url URL` pair (exactly one).
    fn parse(opts: &mut Opts) -> Result<RunSource, String> {
        match (opts.value("--cache"), opts.value("--url")) {
            (Some(dir), None) => Store::open(&dir)
                .map(RunSource::Local)
                .map_err(|e| format!("cannot open cache `{dir}`: {e}")),
            (None, Some(url)) => HttpTier::new(&url)
                .map(RunSource::Remote)
                .map_err(|e| e.to_string()),
            (None, None) => Err("runs needs --cache DIR or --url http://host:port".into()),
            (Some(_), Some(_)) => Err("--cache and --url are mutually exclusive for `runs`".into()),
        }
    }

    /// Every recorded manifest, newest first.
    fn manifests(&self) -> Result<Vec<transform_store::RunManifest>, String> {
        match self {
            RunSource::Local(store) => store.runs().map_err(|e| e.to_string()),
            RunSource::Remote(remote) => remote.runs().map_err(|e| e.to_string()),
        }
    }

    /// One run's full journal; a missing or corrupt one is an error.
    fn journal(&self, id: u64) -> Result<transform_store::RunJournal, String> {
        match self {
            RunSource::Local(store) => store
                .read_run(id)
                .map_err(|e| format!("run {id:016x}: {e}")),
            RunSource::Remote(remote) => {
                let bytes = remote
                    .fetch_run(id)
                    .map_err(|e| e.to_string())?
                    .ok_or(format!("the remote has no run {id:016x}"))?;
                transform_store::decode_run(&bytes).map_err(|e| format!("run {id:016x}: {e}"))
            }
        }
    }
}

/// `transform runs`: list, inspect, and export the journals that
/// cached synthesis runs record.
fn cmd_runs(mut opts: Opts) -> Result<String, String> {
    let sub = opts
        .positional()
        .ok_or("runs needs a subcommand: list | show | export")?;
    match sub.as_str() {
        "list" => {
            let outcome = opts
                .value("--outcome")
                .map(|s| runs::parse_outcome(&s))
                .transpose()?;
            let since = opts
                .value("--since")
                .map(|s| runs::parse_since(&s))
                .transpose()?;
            let source = RunSource::parse(&mut opts)?;
            opts.finish()?;
            let mut manifests = source.manifests()?;
            if let Some(outcome) = outcome {
                manifests.retain(|m| m.outcome == outcome);
            }
            if let Some(since) = since {
                manifests.retain(|m| m.started_unix_micros >= since);
            }
            Ok(runs::render_runs_list(&manifests))
        }
        "show" => {
            let id = opts.positional().ok_or("runs show needs a run id")?;
            let source = RunSource::parse(&mut opts)?;
            opts.finish()?;
            let journal = source.journal(runs::parse_run_id(&id)?)?;
            Ok(runs::render_run_show(&journal))
        }
        "export" => {
            let id = opts.positional().ok_or("runs export needs a run id")?;
            if !opts.flag("--chrome") {
                return Err(
                    "runs export needs --chrome (the Chrome trace-event format is the only \
                     exporter today)"
                        .into(),
                );
            }
            let out_file = opts.value("--out");
            let source = RunSource::parse(&mut opts)?;
            opts.finish()?;
            let journal = source.journal(runs::parse_run_id(&id)?)?;
            let trace = runs::chrome_trace(&journal);
            match out_file {
                Some(path) => {
                    std::fs::write(&path, &trace)
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    Ok(format!(
                        "wrote {} trace events to {path}\n",
                        journal.events.len()
                    ))
                }
                None => Ok(trace),
            }
        }
        other => Err(format!(
            "unknown runs subcommand `{other}` (expected `list`, `show`, or `export`)"
        )),
    }
}

/// Entry- and test-level filters shared by `query` and `export`.
struct CacheFilter {
    mtm: Option<String>,
    axiom: Option<String>,
    bound: Option<usize>,
    backend: Option<String>,
    shape: Option<String>,
    fences: bool,
    rmw: bool,
}

impl CacheFilter {
    /// Consumes the filter flags from `opts`.
    fn parse(opts: &mut Opts) -> Result<CacheFilter, String> {
        Ok(CacheFilter {
            mtm: opts.value("--mtm-name"),
            axiom: opts.value("--axiom"),
            bound: opts.number("--bound")?,
            backend: opts.value("--backend"),
            shape: opts.value("--shape"),
            fences: opts.flag("--fences"),
            rmw: opts.flag("--rmw"),
        })
    }

    fn admits_entry(&self, meta: &EntryMeta) -> bool {
        self.mtm.as_deref().is_none_or(|m| m == meta.mtm)
            && self.axiom.as_deref().is_none_or(|a| a == meta.axiom)
            && self.bound.is_none_or(|b| b == meta.bound)
            && self.backend.as_deref().is_none_or(|b| b == meta.backend)
    }

    fn admits_record(&self, record: &SuiteRecord) -> bool {
        let program = &record.elt.program;
        self.shape.as_deref().is_none_or(|s| s == shape_of(program))
            && (!self.fences
                || program
                    .threads
                    .iter()
                    .flatten()
                    .any(|op| matches!(op, SlotOp::Fence)))
            && (!self.rmw || !program.rmw.is_empty())
    }
}

/// The slots-per-thread signature of a program, e.g. `2+1`.
fn shape_of(program: &Program) -> String {
    program
        .threads
        .iter()
        .map(|t| t.len().to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// Streams matching records out of a cache: one callback per match,
/// entry metadata included. Unreadable entries are reported, skipped,
/// and never partially served. Returns (entries scanned, entries
/// matched, records matched).
fn scan_cache(
    dir: &str,
    filter: &CacheFilter,
    mut on_match: impl FnMut(&EntryMeta, usize, &SuiteRecord),
    warnings: &mut String,
) -> Result<(usize, usize, usize), String> {
    let store = Store::open(dir).map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
    let entries = store.entries().map_err(|e| format!("cache `{dir}`: {e}"))?;
    let scanned = entries.len();
    let mut entries_matched = 0usize;
    let mut records_matched = 0usize;
    for fp in entries {
        let reader = match store.open_suite(fp) {
            Ok(reader) => reader,
            Err(e) => {
                warnings.push_str(&format!("# skipping {fp}: {e}\n"));
                continue;
            }
        };
        let meta = reader.meta().clone();
        if !filter.admits_entry(&meta) {
            continue;
        }
        // Matches are buffered until the whole entry validates: a
        // corrupt tail record must not leave half an entry in the
        // output ("detect and rebuild, never serve" applies to query
        // and export too).
        let mut matches: Vec<(usize, SuiteRecord)> = Vec::new();
        let mut broken = false;
        for (i, record) in reader.enumerate() {
            match record {
                Ok(record) => {
                    if filter.admits_record(&record) {
                        matches.push((i, record));
                    }
                }
                Err(e) => {
                    warnings.push_str(&format!("# skipping {fp}: {e}\n"));
                    broken = true;
                    break;
                }
            }
        }
        if broken {
            continue;
        }
        entries_matched += 1;
        records_matched += matches.len();
        for (i, record) in &matches {
            on_match(&meta, *i, record);
        }
    }
    Ok((scanned, entries_matched, records_matched))
}

fn cmd_query(mut opts: Opts) -> Result<String, String> {
    let dir = opts.value("--cache").ok_or("query needs --cache DIR")?;
    let filter = CacheFilter::parse(&mut opts)?;
    opts.finish()?;
    let mut body = String::new();
    let mut warnings = String::new();
    let (scanned, entries, records) = scan_cache(
        &dir,
        &filter,
        |meta, i, record| {
            body.push_str(&format!(
                "{axiom}@{bound} {backend:<10} {name:<20} shape={shape:<7} events={events:<2} violates={violates}\n",
                axiom = meta.axiom,
                bound = meta.bound,
                backend = meta.backend,
                name = format!("{}_{i}", meta.axiom),
                shape = shape_of(&record.elt.program),
                events = record.elt.program.size(),
                violates = record.elt.violated.join(","),
            ));
        },
        &mut warnings,
    )?;
    Ok(format!(
        "{warnings}{body}{records} matching ELT{} in {entries} suite{} ({scanned} cached suite{} scanned)\n",
        if records == 1 { "" } else { "s" },
        if entries == 1 { "" } else { "s" },
        if scanned == 1 { "" } else { "s" },
    ))
}

fn cmd_export(mut opts: Opts) -> Result<String, String> {
    let dir = opts.value("--cache").ok_or("export needs --cache DIR")?;
    let filter = CacheFilter::parse(&mut opts)?;
    let out_file = opts.value("--out");
    opts.finish()?;
    let mut body = String::new();
    let mut warnings = String::new();
    let (_, _, records) = scan_cache(
        &dir,
        &filter,
        |meta, i, record| {
            body.push_str(&format!(
                "# suite {} @ bound {} ({})\n",
                meta.axiom, meta.bound, meta.backend
            ));
            body.push_str(&print_elt(
                &format!("{}_{i}", meta.axiom),
                &record.elt.witness,
            ));
            body.push('\n');
        },
        &mut warnings,
    )?;
    match out_file {
        Some(path) => {
            std::fs::write(&path, &body).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            Ok(format!("{warnings}exported {records} ELTs to {path}\n"))
        }
        None => Ok(format!("{warnings}{body}")),
    }
}

/// `transform serve`: expose a store directory over HTTP as a
/// fleet-wide shared cache. Blocks until the process is stopped.
fn cmd_serve(mut opts: Opts) -> Result<String, String> {
    let root = opts.value("--root").ok_or("serve needs --root DIR")?;
    let addr = opts
        .value("--addr")
        .unwrap_or_else(|| "127.0.0.1:7171".into());
    let threads: usize = opts.number("--threads")?.unwrap_or(4).max(1);
    let verbose = opts.flag("--verbose");
    opts.finish()?;
    let server = transform_serve::Server::bind(
        &root,
        &addr,
        transform_serve::ServeOptions { threads, verbose },
    )
    .map_err(|e| format!("cannot serve `{root}` on `{addr}`: {e}"))?;
    eprintln!(
        "transform-serve: serving {root} on http://{} ({threads} worker{})",
        server.local_addr(),
        if threads == 1 { "" } else { "s" },
    );
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(String::new())
}

fn cmd_store(mut opts: Opts) -> Result<String, String> {
    let sub = opts.positional();
    if opts.flag("--help") {
        return help::help_for("store", sub.as_deref())
            .ok_or_else(|| format!("unknown store subcommand `{}`", sub.unwrap_or_default()));
    }
    let sub = sub.ok_or("store needs a subcommand: verify | gc | push | pull")?;
    match sub.as_str() {
        "verify" => cmd_store_verify(opts),
        "gc" => cmd_store_gc(opts),
        "push" => cmd_store_push(opts),
        "pull" => cmd_store_pull(opts),
        other => Err(format!(
            "unknown store subcommand `{other}` (expected `verify`, `gc`, `push`, or `pull`)"
        )),
    }
}

/// The `--cache DIR --url URL` pair shared by `store push` and
/// `store pull`.
fn store_remote_args(opts: &mut Opts, what: &str) -> Result<(Store, HttpTier), String> {
    let dir = opts
        .value("--cache")
        .ok_or_else(|| format!("store {what} needs --cache DIR"))?;
    let url = opts
        .value("--url")
        .ok_or_else(|| format!("store {what} needs --url http://host:port"))?;
    let store = Store::open(&dir).map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
    let remote = HttpTier::new(&url).map_err(|e| e.to_string())?;
    Ok((store, remote))
}

fn parse_fingerprint_flag(opts: &mut Opts) -> Result<Option<Fingerprint>, String> {
    opts.value("--fingerprint")
        .map(|s| Fingerprint::from_hex(&s).ok_or(format!("`{s}` is not a fingerprint")))
        .transpose()
}

fn cmd_store_push(mut opts: Opts) -> Result<String, String> {
    let (store, remote) = store_remote_args(&mut opts, "push")?;
    let only = parse_fingerprint_flag(&mut opts)?;
    opts.finish()?;
    let entries = match only {
        Some(fp) => vec![fp],
        None => store.entries().map_err(|e| e.to_string())?,
    };
    // One index fetch enumerates the remote instead of a HEAD per
    // entry; a remote whose index endpoint fails degrades to HEADs.
    let present: Option<BTreeSet<Fingerprint>> = remote
        .index()
        .ok()
        .map(|index| index.into_iter().map(|e| e.fingerprint).collect());
    let mut out = String::new();
    let (mut pushed, mut skipped) = (0usize, 0usize);
    for fp in entries {
        let already = match &present {
            Some(present) => present.contains(&fp),
            None => remote.exists(fp).map_err(|e| e.to_string())?,
        };
        if already {
            skipped += 1;
            continue;
        }
        let bytes = store
            .entry_bytes(fp)
            .map_err(|e| e.to_string())?
            .ok_or(format!("no sealed entry {fp} in the local store"))?;
        CacheTier::publish(&remote, fp, &bytes).map_err(|e| e.to_string())?;
        out.push_str(&format!("pushed {fp} ({} bytes)\n", bytes.len()));
        pushed += 1;
    }
    out.push_str(&format!(
        "{pushed} entr{} pushed to {}, {skipped} already present\n",
        if pushed == 1 { "y" } else { "ies" },
        remote.url(),
    ));
    Ok(out)
}

fn cmd_store_pull(mut opts: Opts) -> Result<String, String> {
    let (store, remote) = store_remote_args(&mut opts, "pull")?;
    let only = parse_fingerprint_flag(&mut opts)?;
    opts.finish()?;
    let wanted = match only {
        Some(fp) => vec![fp],
        None => remote
            .index()
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|e| e.fingerprint)
            .collect(),
    };
    let mut out = String::new();
    let (mut pulled, mut skipped, mut refused) = (0usize, 0usize, 0usize);
    for fp in wanted {
        if store.contains(fp) {
            skipped += 1;
            continue;
        }
        let Some(bytes) = CacheTier::fetch(&remote, fp).map_err(|e| e.to_string())? else {
            out.push_str(&format!("refused {fp}: the remote has no such entry\n"));
            refused += 1;
            continue;
        };
        // Full byte-for-byte validation before anything is published. A
        // damaged entry is reported and skipped, so it cannot hold back
        // the entries listed after it.
        match store.install_bytes(fp, &bytes) {
            Ok(()) => {
                out.push_str(&format!("pulled {fp} ({} bytes)\n", bytes.len()));
                pulled += 1;
            }
            Err(e @ (StoreError::Corrupt(_) | StoreError::Version { .. })) => {
                out.push_str(&format!("refused {fp}: {e}\n"));
                refused += 1;
            }
            Err(e) => return Err(format!("{fp}: {e}")),
        }
    }
    out.push_str(&format!(
        "{pulled} entr{} pulled from {}, {skipped} already present\n",
        if pulled == 1 { "y" } else { "ies" },
        remote.url(),
    ));
    if refused > 0 {
        return Err(format!(
            "store pull refused {refused} entr{}\n{out}",
            if refused == 1 { "y" } else { "ies" },
        ));
    }
    Ok(out)
}

/// Fully re-validates one sealed entry: header, every record checksum,
/// and the trailer.
fn validate_entry(store: &Store, fp: Fingerprint) -> Result<(u64, EntryMeta), StoreError> {
    let mut reader = store.open_suite(fp)?;
    let meta = reader.meta().clone();
    let mut records = 0u64;
    for record in reader.by_ref() {
        record?;
        records += 1;
    }
    Ok((records, meta))
}

fn cmd_store_verify(mut opts: Opts) -> Result<String, String> {
    let dir = opts
        .value("--cache")
        .ok_or("store verify needs --cache DIR")?;
    let remove = opts.flag("--remove-corrupt");
    opts.finish()?;
    let store = Store::open(&dir).map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
    let entries = store.entries().map_err(|e| format!("cache `{dir}`: {e}"))?;
    let mut out = String::new();
    let mut corrupt = Vec::new();
    for &fp in &entries {
        match validate_entry(&store, fp) {
            Ok((records, meta)) => out.push_str(&format!(
                "{fp} ok       {records:>6} records  {}@{} ({})\n",
                meta.axiom, meta.bound, meta.backend
            )),
            Err(e) => {
                out.push_str(&format!("{fp} CORRUPT  {e}\n"));
                corrupt.push(fp);
            }
        }
    }
    // Run journals re-validate the same way: decode is checksummed end
    // to end, so a damaged journal surfaces here instead of at read.
    let run_ids = store.run_ids().map_err(|e| format!("cache `{dir}`: {e}"))?;
    let mut runs_corrupt = Vec::new();
    for &id in &run_ids {
        if let Err(e) = store.read_run(id) {
            out.push_str(&format!("run {id:016x} CORRUPT  {e}\n"));
            runs_corrupt.push(id);
        }
    }
    out.push_str(&format!(
        "run journals: {} ok, {} corrupt\n",
        run_ids.len() - runs_corrupt.len(),
        runs_corrupt.len(),
    ));
    if remove {
        for &id in &runs_corrupt {
            store
                .remove_run(id)
                .map_err(|e| format!("cannot remove run {id:016x}: {e}"))?;
        }
    }
    if remove {
        for &fp in &corrupt {
            store
                .remove(fp)
                .map_err(|e| format!("cannot remove {fp}: {e}"))?;
        }
    }
    out.push_str(&format!(
        "{} ok, {} corrupt of {} sealed entr{}{}\n",
        entries.len() - corrupt.len(),
        corrupt.len(),
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" },
        if remove && !corrupt.is_empty() {
            " (corrupt entries removed)"
        } else {
            ""
        },
    ));
    Ok(out)
}

fn cmd_store_gc(mut opts: Opts) -> Result<String, String> {
    let dir = opts.value("--cache").ok_or("store gc needs --cache DIR")?;
    let days: Option<u64> = opts.number("--older-than-days")?;
    let keep_path = opts.value("--keep-list");
    let dry = opts.flag("--dry-run");
    opts.finish()?;
    let store = Store::open(&dir).map_err(|e| format!("cannot open cache `{dir}`: {e}"))?;
    let keep: Option<BTreeSet<Fingerprint>> = keep_path
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read keep-list `{path}`: {e}"))?;
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| {
                    Fingerprint::from_hex(l)
                        .ok_or_else(|| format!("{path}: `{l}` is not a fingerprint"))
                })
                .collect::<Result<BTreeSet<_>, _>>()
        })
        .transpose()?;
    let now = std::time::SystemTime::now();
    let mut out = String::new();
    let mut removed = 0usize;
    let mut kept = 0usize;
    for fp in store.entries().map_err(|e| format!("cache `{dir}`: {e}"))? {
        let protected = keep.as_ref().is_some_and(|k| k.contains(&fp));
        // Aged out: older than the mtime cutoff when one is given;
        // otherwise (keep-list alone) any unlisted entry goes.
        let aged = match days {
            Some(d) => {
                let mtime = store
                    .entry_mtime(fp)
                    .map_err(|e| format!("cannot stat {fp}: {e}"))?;
                now.duration_since(mtime)
                    .is_ok_and(|age| age >= Duration::from_secs(d.saturating_mul(86_400)))
            }
            None => keep.is_some(),
        };
        if protected || !aged {
            kept += 1;
            continue;
        }
        removed += 1;
        if dry {
            out.push_str(&format!("would remove {fp}\n"));
        } else {
            store
                .remove(fp)
                .map_err(|e| format!("cannot remove {fp}: {e}"))?;
            out.push_str(&format!("removed {fp}\n"));
        }
    }
    // Admission digests (`*.tfd`) and the entry index (`index.tfx`)
    // that older builds wrote: nothing reads them, so every one is a
    // leftover.
    let legacy = store
        .legacy_files()
        .map_err(|e| format!("cache `{dir}`: {e}"))?;
    for path in &legacy {
        if dry {
            out.push_str(&format!("would sweep legacy file {}\n", path.display()));
        } else {
            std::fs::remove_file(path)
                .map_err(|e| format!("cannot sweep {}: {e}", path.display()))?;
        }
    }
    // Run journals age out by the same mtime cutoff (the keep-list
    // names suite fingerprints, so it never pins a run).
    let mut runs_removed = 0usize;
    if let Some(d) = days {
        for id in store.run_ids().map_err(|e| format!("cache `{dir}`: {e}"))? {
            let mtime = store
                .run_mtime(id)
                .map_err(|e| format!("cannot stat run {id:016x}: {e}"))?;
            let aged = now
                .duration_since(mtime)
                .is_ok_and(|age| age >= Duration::from_secs(d.saturating_mul(86_400)));
            if !aged {
                continue;
            }
            runs_removed += 1;
            if dry {
                out.push_str(&format!("would remove run {id:016x}\n"));
            } else {
                store
                    .remove_run(id)
                    .map_err(|e| format!("cannot remove run {id:016x}: {e}"))?;
                out.push_str(&format!("removed run {id:016x}\n"));
            }
        }
    }
    let tmp = if dry {
        store
            .stale_tmp_entries()
            .map_err(|e| format!("cache `{dir}`: {e}"))?
            .len()
    } else {
        store
            .sweep_tmp()
            .map_err(|e| format!("cache `{dir}`: {e}"))?
    };
    out.push_str(&format!(
        "{}{} entr{} removed, {} kept, {} tmp dir{} swept, {} legacy file{} swept, {} run journal{} removed\n",
        if dry { "[dry-run] " } else { "" },
        removed,
        if removed == 1 { "y" } else { "ies" },
        kept,
        tmp,
        if tmp == 1 { "" } else { "s" },
        legacy.len(),
        if legacy.len() == 1 { "" } else { "s" },
        runs_removed,
        if runs_removed == 1 { "" } else { "s" },
    ));
    Ok(out)
}

fn cmd_simulate(mut opts: Opts) -> Result<String, String> {
    let file = opts
        .positional()
        .ok_or("simulate needs an ELT file (or -)")?;
    let mut cfg = SimConfig::correct();
    if let Some(bug) = opts.value("--bug") {
        cfg.bugs = match bug.as_str() {
            "invlpg-noop" => Bugs {
                invlpg_noop: true,
                ..Bugs::none()
            },
            "shootdown" => Bugs {
                missing_remote_shootdown: true,
                ..Bugs::none()
            },
            "dirty-bit" => Bugs {
                missing_dirty_update: true,
                ..Bugs::none()
            },
            other => return Err(format!("unknown --bug `{other}`")),
        };
    }
    cfg.capacity_evictions = opts.flag("--evictions");
    let mtm = load_mtm(opts.value("--mtm"))?;
    opts.finish()?;
    let src = read_source(&file)?;
    let (name, x) = parse_elt(&src).map_err(|e| format!("{file}: {e}"))?;
    // The simulator assumes a well-formed ELT: reject malformed input
    // with `check`'s error instead of running it.
    x.analyze().map_err(|e| malformed_elt(&name, e))?;
    let prog = SimProgram::from_execution(&x);
    let exploration = explore(&prog, &cfg);
    let conf = check_conformance(&prog, &mtm, &cfg);
    let mut out = format!(
        "{}: {} outcomes over {} states{}\n",
        if name.is_empty() { "<elt>" } else { &name },
        exploration.outcomes.len(),
        exploration.stats.states,
        if exploration.stats.truncated {
            " [truncated]"
        } else {
            ""
        }
    );
    for o in &exploration.outcomes {
        let mark = if conf.violations.contains(o) {
            "  FORBIDDEN "
        } else {
            "  ok        "
        };
        out.push_str(&format!("{mark}{}\n", o.render()));
    }
    out.push_str(&format!(
        "conformance vs {}: {}\n",
        mtm.name(),
        if conf.conforms() {
            "observed ⊆ permitted".to_string()
        } else {
            format!("{} forbidden outcome(s) observed", conf.violations.len())
        }
    ));
    Ok(out)
}

/// Re-export for tests: the program-level canonical key of a synthesized
/// witness (used to deduplicate CLI output).
pub fn program_of(x: &transform_core::exec::Execution) -> Program {
    Program::from_execution(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(line: &str) -> Result<String, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        run(&args)
    }

    #[test]
    fn table1_lists_the_vocabulary() {
        let out = run_str("table1").expect("runs");
        for name in [
            "rf_ptw", "rf_pa", "co_pa", "fr_pa", "fr_va", "remap", "ghost",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn figures_reports_verdicts() {
        let out = run_str("figures").expect("runs");
        assert!(out.contains("fig10a_ptwalk2"));
        assert!(out.contains("forbidden"));
        assert!(out.contains("permitted"));
        assert!(out.contains("ext_cross_core_flush"));
    }

    #[test]
    fn figures_dot_produces_graphviz() {
        let out = run_str("figures --dot fig10a_ptwalk2").expect("runs");
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn synthesize_minimal_invlpg_suite() {
        let out = run_str("synthesize --axiom invlpg --bound 4 --quiet").expect("runs");
        assert!(out.contains("suite `invlpg` @ bound 4"), "{out}");
    }

    #[test]
    fn synthesize_jobs_produce_identical_suites() {
        let base = run_str("synthesize --axiom invlpg --bound 4").expect("runs");
        for line in [
            "synthesize --axiom invlpg --bound 4 --jobs 4",
            "synthesize --axiom invlpg --bound 4 --jobs auto",
            "synthesize --axiom invlpg --bound 4 --jobs 4 --backend relational",
        ] {
            let out = run_str(line).expect("runs");
            // Everything except the trailing summary line (whose timing
            // and worker count legitimately differ) is byte-identical.
            let elts = |s: &str| {
                s.lines()
                    .filter(|l| !l.starts_with("suite `"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(elts(&base), elts(&out), "{line}");
        }
    }

    #[test]
    fn synthesize_summary_reports_workers() {
        let out = run_str("synthesize --axiom invlpg --bound 4 --quiet --jobs 2").expect("runs");
        assert!(out.contains("on 2 workers"), "{out}");
        let out = run_str("synthesize --axiom invlpg --bound 4 --quiet").expect("runs");
        assert!(out.contains("on 1 worker"), "{out}");
    }

    #[test]
    fn jobs_zero_normalizes_to_detected_parallelism() {
        let detected = transform_par::default_jobs();
        for flag in ["--jobs 0", "--jobs auto"] {
            let out = run_str(&format!(
                "synthesize --axiom invlpg --bound 4 --quiet {flag}"
            ))
            .expect("runs");
            assert!(
                out.contains(&format!("on {detected} worker")),
                "{flag}: {out}"
            );
        }
    }

    /// The acceptance bar for the fused cross-axiom run: `--all` on any
    /// worker count prints exactly the sequential engine's per-axiom
    /// suites.
    #[test]
    fn synthesize_all_is_jobs_invariant() {
        let elts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("suite `"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let mtm = x86t_elt();
        let mut sopts = SynthOptions::new(4);
        sopts.enumeration.allow_fences = false;
        sopts.enumeration.allow_rmw = false;
        let mut reference = transform_synth::synthesize_all(&mtm, &sopts);
        let expected: String = mtm
            .axioms()
            .iter()
            .map(|a| render_suite(&reference.remove(&a.name).expect("one suite per axiom")))
            .collect();
        assert!(!expected.is_empty());
        for jobs in [1, 3, 4] {
            let out = run_str(&format!("synthesize --all --bound 4 --jobs {jobs}")).expect("runs");
            assert_eq!(elts(&out), elts(&expected), "--jobs {jobs}");
        }
        // Every axiom's suite appears, identical to its solo run.
        for axiom in ["sc_per_loc", "invlpg", "tlb_causality"] {
            let solo = run_str(&format!("synthesize --axiom {axiom} --bound 4")).expect("runs");
            assert!(
                expected.contains(&elts(&solo)),
                "{axiom} suite missing from --all"
            );
        }
    }

    #[test]
    fn synthesize_axiom_selection_is_validated() {
        let e = run_str("synthesize --all --axiom invlpg --bound 4").unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = run_str("synthesize --bound 4").unwrap_err();
        assert!(e.contains("--all"), "{e}");
    }

    /// Partitioning and batch sizing are not options: the flags that
    /// once chose them are unknown arguments.
    #[test]
    fn removed_scheduling_flags_are_unknown() {
        for cmd in ["synthesize --axiom invlpg --bound 4", "compare --bound 4"] {
            for flag in ["--balance mass", "--partition-size 7"] {
                let e = run_str(&format!("{cmd} {flag}")).unwrap_err();
                assert!(e.contains("unrecognized arguments"), "{cmd} {flag}: {e}");
            }
        }
    }

    #[test]
    fn bad_jobs_and_backend_values_are_rejected() {
        let e = run_str("synthesize --axiom invlpg --bound 4 --jobs many").unwrap_err();
        assert!(e.contains("--jobs"), "{e}");
        let e = run_str("synthesize --axiom invlpg --bound 4 --backend alloy").unwrap_err();
        assert!(e.contains("alloy"), "{e}");
    }

    #[test]
    fn synthesize_rejects_unknown_axiom() {
        let e = run_str("synthesize --axiom nope --bound 4").unwrap_err();
        assert!(e.contains("nope"), "{e}");
    }

    #[test]
    fn a_bound_wider_than_a_relation_row_is_a_usage_error() {
        for line in [
            "synthesize --all --bound 65",
            "synthesize --axiom invlpg --bound 1000",
            "compare --bound 65",
        ] {
            let e = run_str(line).unwrap_err();
            assert!(e.contains("--bound must be at most 64"), "{line}: {e}");
        }
        assert!(run_str("synthesize --axiom invlpg --bound 3 --quiet").is_ok());
    }

    #[test]
    fn top_level_help_prints_the_usage_banner() {
        assert_eq!(run_str("--help").expect("help"), format!("{USAGE}\n"));
        assert_eq!(run_str("").unwrap_err(), "missing command");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = run_str("table1 --frobnicate").unwrap_err();
        assert!(e.contains("frobnicate"), "{e}");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("transform-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn cached_synthesize_is_byte_identical_warm_and_cold() {
        let dir = temp_dir("cache");
        let cache = dir.join("store");
        let line = format!(
            "synthesize --axiom invlpg --bound 4 --cache {}",
            cache.display()
        );
        let cold = run_str(&line).expect("cold run");
        let warm = run_str(&line).expect("warm run");
        assert_eq!(cold, warm, "a warm cache hit must reproduce the cold run");
        // And both match the uncached engine's ELTs.
        let uncached = run_str("synthesize --axiom invlpg --bound 4").expect("runs");
        let elts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("suite `"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(elts(&uncached), elts(&warm));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_synthesize_all_is_byte_identical_warm_and_cold() {
        let dir = temp_dir("cache-all");
        let cache = dir.join("store");
        let line = format!(
            "synthesize --all --bound 4 --jobs 2 --cache {}",
            cache.display()
        );
        let cold = run_str(&line).expect("cold all");
        let warm = run_str(&line).expect("warm all");
        assert_eq!(cold, warm, "a warm --all run must reproduce the cold one");
        // A later single-axiom lookup hits the entries the fused run
        // sealed per axiom.
        let solo = run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --cache {}",
            cache.display()
        ))
        .expect("warm solo");
        let elts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("suite `"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert!(elts(&cold).contains(&elts(&solo)), "shared entries diverge");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_filters_cached_suites() {
        let dir = temp_dir("query");
        let cache = dir.join("store");
        let c = cache.display();
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds invlpg");
        run_str(&format!(
            "synthesize --axiom sc_per_loc --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds sc_per_loc");

        let all = run_str(&format!("query --cache {c}")).expect("queries");
        assert!(all.contains("invlpg_0"), "{all}");
        assert!(all.contains("sc_per_loc_0"), "{all}");
        assert!(all.contains("2 cached suites scanned"), "{all}");

        let only_invlpg = run_str(&format!("query --cache {c} --axiom invlpg")).expect("queries");
        assert!(only_invlpg.contains("invlpg_0"), "{only_invlpg}");
        assert!(!only_invlpg.contains("sc_per_loc_0"), "{only_invlpg}");

        // Nothing at bound 4 without fences has an rmw pair.
        let rmw = run_str(&format!("query --cache {c} --rmw")).expect("queries");
        assert!(rmw.contains("0 matching ELTs"), "{rmw}");

        let shaped = run_str(&format!("query --cache {c} --shape 3")).expect("queries");
        assert!(shaped.contains("shape=3"), "{shaped}");

        let empty = run_str(&format!("query --cache {c} --bound 9")).expect("queries");
        assert!(empty.contains("0 matching ELTs"), "{empty}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_never_partially_serves_a_corrupt_entry() {
        let dir = temp_dir("query-corrupt");
        let cache = dir.join("store");
        let c = cache.display();
        run_str(&format!(
            "synthesize --axiom sc_per_loc --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds");
        // Damage the *last* record: earlier records stream fine before
        // the error, and none of them may reach the output.
        let entry = std::fs::read_dir(&cache)
            .expect("store exists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "tfs"))
            .expect("one sealed entry");
        let mut bytes = std::fs::read(&entry).expect("readable");
        let near_end = bytes.len() - 12;
        bytes[near_end] ^= 0xff;
        std::fs::write(&entry, &bytes).expect("writable");

        let out = run_str(&format!("query --cache {c}")).expect("queries");
        assert!(out.contains("# skipping"), "{out}");
        assert!(!out.contains("sc_per_loc_0"), "partially served: {out}");
        assert!(out.contains("0 matching ELTs in 0 suites"), "{out}");
        let exported = run_str(&format!("export --cache {c}")).expect("exports");
        assert!(!exported.contains("elt \""), "partially served: {exported}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_dumps_parseable_elt_text() {
        let dir = temp_dir("export");
        let cache = dir.join("store");
        let c = cache.display();
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds");
        let text = run_str(&format!("export --cache {c} --axiom invlpg")).expect("exports");
        assert!(text.contains("elt \"invlpg_0\""), "{text}");
        // Each exported test parses back through the text syntax.
        for chunk in text.split("\n\n").filter(|s| s.contains("elt \"")) {
            parse_elt(chunk).unwrap_or_else(|e| panic!("{e}\n{chunk}"));
        }
        // --out writes the same dump to a file.
        let out = dir.join("dump.elt");
        let msg = run_str(&format!(
            "export --cache {c} --axiom invlpg --out {}",
            out.display()
        ))
        .expect("exports to file");
        assert!(msg.contains("exported"), "{msg}");
        assert_eq!(std::fs::read_to_string(&out).expect("written"), text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthesize_out_writes_the_suite_to_a_file() {
        let dir = temp_dir("out");
        let path = dir.join("suite.elt");
        let out = run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --out {}",
            path.display()
        ))
        .expect("runs");
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("suite `invlpg`"), "{out}");
        let written = std::fs::read_to_string(&path).expect("file exists");
        let printed = run_str("synthesize --axiom invlpg --bound 4").expect("runs");
        let elts: String = printed
            .lines()
            .filter(|l| !l.starts_with("suite `"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(written, elts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_entries_are_rebuilt_through_the_cli() {
        let dir = temp_dir("corrupt");
        let cache = dir.join("store");
        let line = format!(
            "synthesize --axiom invlpg --bound 4 --cache {}",
            cache.display()
        );
        let cold = run_str(&line).expect("cold run");
        // Damage the sealed entry behind the CLI's back.
        let entry = std::fs::read_dir(&cache)
            .expect("store exists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "tfs"))
            .expect("one sealed entry");
        let mut bytes = std::fs::read(&entry).expect("readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&entry, &bytes).expect("writable");
        // The CLI must detect, rebuild, and print the identical ELTs
        // (the summary line's elapsed is the fresh resynthesis time).
        let rebuilt = run_str(&line).expect("rebuild run");
        let elts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("suite `"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(elts(&cold), elts(&rebuilt));
        // And the reseal restores warm hits: two more runs are identical
        // bytes, summary included.
        let warm_a = run_str(&line).expect("warm");
        let warm_b = run_str(&line).expect("warm");
        assert_eq!(warm_a, warm_b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_verify_reports_and_removes_corruption() {
        let dir = temp_dir("verify");
        let cache = dir.join("store");
        let c = cache.display();
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds invlpg");
        run_str(&format!(
            "synthesize --axiom sc_per_loc --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds sc_per_loc");

        let clean = run_str(&format!("store verify --cache {c}")).expect("verifies");
        assert!(
            clean.contains("2 ok, 0 corrupt of 2 sealed entries"),
            "{clean}"
        );
        assert!(!clean.contains("index"), "no index to report:\n{clean}");

        // Damage one entry mid-file.
        let entry = std::fs::read_dir(&cache)
            .expect("store exists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "tfs"))
            .expect("a sealed entry");
        let mut bytes = std::fs::read(&entry).expect("readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&entry, &bytes).expect("writable");

        let dirty = run_str(&format!("store verify --cache {c}")).expect("verifies");
        assert!(dirty.contains("CORRUPT"), "{dirty}");
        assert!(
            dirty.contains("1 ok, 1 corrupt of 2 sealed entries"),
            "{dirty}"
        );

        let removed =
            run_str(&format!("store verify --cache {c} --remove-corrupt")).expect("verifies");
        assert!(removed.contains("corrupt entries removed"), "{removed}");
        let after = run_str(&format!("store verify --cache {c}")).expect("verifies");
        assert!(
            after.contains("1 ok, 0 corrupt of 1 sealed entry"),
            "{after}"
        );
        assert!(!cache.join("index.tfx").exists(), "removal writes no index");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_gc_ages_out_entries_and_honors_the_keep_list() {
        let dir = temp_dir("gc");
        let cache = dir.join("store");
        let c = cache.display();
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds invlpg");
        run_str(&format!(
            "synthesize --axiom sc_per_loc --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds sc_per_loc");
        // A leftover shard directory from a crashed run.
        std::fs::create_dir_all(cache.join("tmp-deadbeef-1-0")).expect("mkdir");
        // An admission digest an older build wrote beside its entry.
        let legacy = cache.join("0123456789abcdef0123456789abcdef.tfd");
        std::fs::write(&legacy, b"TFDIGST\0").expect("plants a legacy digest");

        // Dry run: nothing is touched.
        let dry = run_str(&format!(
            "store gc --cache {c} --older-than-days 0 --dry-run"
        ))
        .expect("dry-runs");
        assert!(dry.contains("would remove"), "{dry}");
        assert!(dry.contains("would sweep legacy file"), "{dry}");
        assert!(
            dry.contains(
                "[dry-run] 2 entries removed, 0 kept, 1 tmp dir swept, 1 legacy file swept"
            ),
            "{dry}"
        );
        assert!(cache.join("tmp-deadbeef-1-0").exists());
        assert!(legacy.exists());

        // Keep-list protects one fingerprint; everything else ages out.
        let store = Store::open(&cache).expect("opens");
        let protected = store.entries().expect("listable")[0];
        let keep = dir.join("keep.txt");
        std::fs::write(&keep, format!("# pinned\n{protected}\n")).expect("writable");
        let out = run_str(&format!(
            "store gc --cache {c} --older-than-days 0 --keep-list {}",
            keep.display()
        ))
        .expect("gcs");
        assert!(
            out.contains(
                "1 entry removed, 1 kept, 1 tmp dir swept, 1 legacy file swept, \
                 2 run journals removed"
            ),
            "{out}"
        );
        assert!(!cache.join("tmp-deadbeef-1-0").exists());
        assert!(!legacy.exists(), "gc sweeps every legacy digest");
        assert!(store.run_ids().expect("listable").is_empty());
        assert_eq!(store.entries().expect("listable"), vec![protected]);
        assert!(!cache.join("index.tfx").exists(), "gc writes no index");

        // Keep-list alone: unlisted entries go regardless of age.
        run_str(&format!(
            "synthesize --axiom causality --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds causality");
        let out = run_str(&format!(
            "store gc --cache {c} --keep-list {}",
            keep.display()
        ))
        .expect("gcs");
        assert!(out.contains("1 entry removed, 1 kept"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Stores sealed by earlier builds hold an `index.tfx` beside their
    /// entries. Nothing reads it: `query`, `export` and `GET /v1/index`
    /// answer the same with a fresh one, a stale one, or none, and
    /// `store gc` sweeps it.
    #[test]
    fn leftover_index_files_change_no_output_and_gc_sweeps_them() {
        use transform_serve::{ServeOptions, Server};
        use transform_store::index::{self, IndexEntry};
        let dir = temp_dir("leftover-index");
        let cache = dir.join("store");
        let c = cache.display();
        for axiom in ["invlpg", "sc_per_loc"] {
            run_str(&format!(
                "synthesize --axiom {axiom} --bound 4 --quiet --cache {c}"
            ))
            .expect("seeds");
        }
        let store = Store::open(&cache).expect("opens");
        let server = Server::bind(&cache, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();
        let client = HttpTier::new(&url).expect("valid URL");
        let outputs = || {
            let wire = index::encode(&client.index().expect("index serves"));
            [
                run_str(&format!("query --cache {c}")).expect("queries"),
                run_str(&format!("query --cache {c} --axiom invlpg")).expect("queries"),
                run_str(&format!("export --cache {c}")).expect("exports"),
                String::from_utf8_lossy(&wire).into_owned(),
            ]
        };
        assert!(!cache.join("index.tfx").exists(), "no command writes one");
        let without = outputs();
        assert!(
            without[0].contains("(2 cached suites scanned)"),
            "{}",
            without[0]
        );

        // An index that matches the store, as an earlier build left it.
        let listed = index::scan(&store).expect("scans");
        assert_eq!(listed.len(), 2);
        std::fs::write(cache.join("index.tfx"), index::encode(&listed)).expect("plants");
        assert_eq!(outputs(), without, "a fresh leftover index changes nothing");

        // A stale one: an entry missing, a phantom listed in its place.
        let phantom = IndexEntry {
            fingerprint: Fingerprint(7),
            meta: listed[0].meta.clone(),
        };
        let stale = index::encode(&[listed[1].clone(), phantom]);
        std::fs::write(cache.join("index.tfx"), stale).expect("plants");
        assert_eq!(outputs(), without, "a stale leftover index changes nothing");
        handle.shutdown();

        let out = run_str(&format!("store gc --cache {c}")).expect("gcs");
        assert!(
            out.contains("0 entries removed, 2 kept, 0 tmp dirs swept, 1 legacy file swept"),
            "{out}"
        );
        assert!(!cache.join("index.tfx").exists(), "gc sweeps the leftover");
        assert_eq!(store.entries().expect("listable").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The --help audit: every subcommand answers --help with a worked
    /// example, and the cache flags are described in the same words
    /// wherever they apply.
    #[test]
    fn every_subcommand_help_has_an_example_and_consistent_cache_flags() {
        let commands: &[&str] = &[
            "table1",
            "figures",
            "check",
            "synthesize",
            "compare",
            "simulate",
            "query",
            "export",
            "serve",
            "worker",
            "top",
            "runs",
            "store",
            "store verify",
            "store gc",
            "store push",
            "store pull",
        ];
        for cmd in commands {
            let help = run_str(&format!("{cmd} --help")).unwrap_or_else(|e| panic!("{cmd}: {e}"));
            assert!(help.starts_with("usage: transform"), "{cmd}:\n{help}");
            assert!(help.contains("example:"), "{cmd} lacks an example:\n{help}");
            assert!(
                help.contains(&format!("transform {cmd}")),
                "{cmd}'s example must invoke it:\n{help}"
            );
        }
        // Cache-flag consistency: the same wording everywhere the flag
        // exists, and every flag in the usage line is described below.
        let cache_line = "a persistent local suite store";
        let cache_url_line = "a shared `transform serve` endpoint";
        for cmd in ["synthesize", "compare"] {
            let help = run_str(&format!("{cmd} --help")).expect("help");
            assert!(help.contains("--cache DIR"), "{cmd}:\n{help}");
            assert!(help.contains(cache_line), "{cmd}:\n{help}");
            assert!(help.contains("--cache-url URL"), "{cmd}:\n{help}");
            assert!(help.contains(cache_url_line), "{cmd}:\n{help}");
        }
        for cmd in ["synthesize", "compare"] {
            let help = run_str(&format!("{cmd} --help")).expect("help");
            assert!(help.contains("never changes the suite"), "{cmd}:\n{help}");
        }
        let synth = run_str("synthesize --help").expect("help");
        assert!(synth.contains("--all"), "{synth}");
        for cmd in [
            "query",
            "export",
            "store verify",
            "store gc",
            "store push",
            "store pull",
        ] {
            let help = run_str(&format!("{cmd} --help")).expect("help");
            assert!(help.contains("--cache DIR"), "{cmd}:\n{help}");
        }
        for cmd in ["store push", "store pull"] {
            let help = run_str(&format!("{cmd} --help")).expect("help");
            assert!(help.contains("--url URL"), "{cmd}:\n{help}");
        }
        let serve = run_str("serve --help").expect("help");
        assert!(serve.contains("--root DIR"), "{serve}");
        assert!(serve.contains("--cache-url"), "{serve}");
        for cmd in ["synthesize", "compare"] {
            let help = run_str(&format!("{cmd} --help")).expect("help");
            assert!(help.contains("--progress[=human|json]"), "{cmd}:\n{help}");
            assert!(help.contains("never changes the suite"), "{cmd}:\n{help}");
        }
        let top = run_str("top --help").expect("help");
        assert!(top.contains("--url URL"), "{top}");
        assert!(top.contains("--once"), "{top}");
        assert!(top.contains("/v1/runs"), "{top}");
        let runs_help = run_str("runs --help").expect("help");
        assert!(runs_help.contains("--chrome"), "{runs_help}");
        assert!(runs_help.contains("--cache DIR"), "{runs_help}");
        assert!(runs_help.contains("--url URL"), "{runs_help}");
        assert!(runs_help.contains("--outcome O"), "{runs_help}");
        assert!(runs_help.contains("--since ISO8601"), "{runs_help}");
        // The fleet trio: client flag, worker daemon, coordinator routes.
        assert!(synth.contains("--workers URL"), "{synth}");
        assert!(synth.contains("--lease-ttl-secs S"), "{synth}");
        let worker = run_str("worker --help").expect("help");
        assert!(worker.contains("--url URL"), "{worker}");
        assert!(worker.contains("--drain"), "{worker}");
        assert!(serve.contains("/v1/lease"), "{serve}");
        assert!(serve.contains("/v1/shard"), "{serve}");
    }

    #[test]
    fn cache_url_without_cache_is_rejected() {
        let e = run_str("synthesize --axiom invlpg --bound 4 --cache-url http://127.0.0.1:7171")
            .unwrap_err();
        assert!(e.contains("--cache"), "{e}");
        // A malformed URL is refused before anything creates the store.
        let dir = temp_dir("bad-cache-url");
        let cache = dir.join("store");
        for cmd in ["synthesize --axiom invlpg --bound 4", "compare --bound 4"] {
            let line = format!("{cmd} --cache {} --cache-url nonsense", cache.display());
            let e = run_str(&line).unwrap_err();
            assert!(e.contains("http://"), "{cmd}: {e}");
            assert!(!cache.exists(), "{cmd} created {}", cache.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthesize_reads_through_a_loopback_served_cache() {
        use transform_serve::{ServeOptions, Server};
        let dir = temp_dir("cache-url");
        let origin = dir.join("origin");
        let local = dir.join("local");
        // Seed the origin store, then serve it.
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {}",
            origin.display()
        ))
        .expect("seeds the origin");
        let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();

        // A cold client with an empty local tier streams the suite from
        // the server, byte-identical to plain local synthesis.
        let line = format!(
            "synthesize --axiom invlpg --bound 4 --cache {} --cache-url {url}",
            local.display()
        );
        let remote_served = run_str(&line).expect("remote read");
        let fresh = run_str("synthesize --axiom invlpg --bound 4").expect("runs");
        let elts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("suite `"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(elts(&fresh), elts(&remote_served));

        // Read-through populated the local tier: the next run is a warm
        // local hit even with the server gone.
        handle.shutdown();
        let warm = run_str(&line).expect("local warm read");
        assert_eq!(remote_served, warm, "local tier must now hold the entry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_push_and_pull_replicate_sealed_entries() {
        use transform_serve::{ServeOptions, Server};
        let dir = temp_dir("push-pull");
        let local = dir.join("local");
        let served = dir.join("served");
        let mirror = dir.join("mirror");
        let c = local.display();
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds invlpg");
        run_str(&format!(
            "synthesize --axiom sc_per_loc --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds sc_per_loc");

        let server = Server::bind(&served, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();

        // Push everything; a re-push skips what the remote holds.
        let out = run_str(&format!("store push --cache {c} --url {url}")).expect("pushes");
        assert!(out.contains("2 entries pushed"), "{out}");
        let again = run_str(&format!("store push --cache {c} --url {url}")).expect("pushes");
        assert!(again.contains("0 entries pushed"), "{again}");
        assert!(again.contains("2 already present"), "{again}");

        // Pull into a fresh mirror: both entries arrive and verify clean.
        let out = run_str(&format!(
            "store pull --cache {} --url {url}",
            mirror.display()
        ))
        .expect("pulls");
        assert!(out.contains("2 entries pulled"), "{out}");
        let verify =
            run_str(&format!("store verify --cache {}", mirror.display())).expect("verifies");
        assert!(
            verify.contains("2 ok, 0 corrupt of 2 sealed entries"),
            "{verify}"
        );
        // Pulled and pushed stores hold byte-identical entries.
        let a = Store::open(&local).expect("opens");
        let b = Store::open(&mirror).expect("opens");
        assert_eq!(a.entries().expect("lists"), b.entries().expect("lists"));
        for fp in a.entries().expect("lists") {
            assert_eq!(
                a.entry_bytes(fp).expect("readable"),
                b.entry_bytes(fp).expect("readable"),
                "{fp}"
            );
        }
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One damaged entry on the server (its header intact, so the server
    /// lists and serves it) is refused and reported, and every intact
    /// entry listed around it still arrives byte-identical; the pull then
    /// fails with the number refused.
    #[test]
    fn store_pull_skips_a_damaged_entry_and_pulls_the_rest() {
        use transform_serve::{ServeOptions, Server};
        let dir = temp_dir("pull-damaged");
        let served = dir.join("served");
        let mirror = dir.join("mirror");
        for axiom in ["invlpg", "sc_per_loc", "causality"] {
            run_str(&format!(
                "synthesize --axiom {axiom} --bound 4 --quiet --cache {}",
                served.display()
            ))
            .expect("seeds the served store");
        }
        let server = Server::bind(&served, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();

        // Damage the entry the pull reaches first: flip the last byte
        // of its last record, just before the 8-byte trailer.
        let listed: Vec<Fingerprint> = HttpTier::new(&url)
            .expect("valid URL")
            .index()
            .expect("lists")
            .into_iter()
            .map(|e| e.fingerprint)
            .collect();
        assert_eq!(listed.len(), 3);
        let damaged = listed[0];
        let origin = Store::open(&served).expect("opens");
        let path = origin.entry_path(damaged);
        let mut bytes = std::fs::read(&path).expect("readable");
        let at = bytes.len() - 9;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("writable");
        assert!(
            origin.open_suite(damaged).is_ok(),
            "the header stays intact"
        );
        assert!(
            validate_entry(&origin, damaged).is_err(),
            "a record is damaged"
        );

        let e = run_str(&format!(
            "store pull --cache {} --url {url}",
            mirror.display()
        ))
        .expect_err("a refused entry fails the pull");
        assert!(e.starts_with("store pull refused 1 entry\n"), "{e}");
        assert!(e.contains(&format!("refused {damaged}: ")), "{e}");
        assert!(e.contains("2 entries pulled"), "{e}");
        let local = Store::open(&mirror).expect("opens");
        assert_eq!(local.entries().expect("lists"), listed[1..].to_vec());
        for &fp in &listed[1..] {
            assert_eq!(
                local.entry_bytes(fp).expect("readable"),
                origin.entry_bytes(fp).expect("readable"),
                "{fp}"
            );
        }
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The tentpole's end-to-end acceptance: one `synthesize --workers`
    /// invocation drives a loopback coordinator plus two `transform
    /// worker` loops, and the fleet-sealed suites print identically to
    /// a single-machine run — then replicate byte-identically over
    /// `store pull`/`store push`.
    #[test]
    fn fleet_workers_and_client_reproduce_the_local_run() {
        use transform_serve::{ServeOptions, Server};
        let dir = temp_dir("fleet");
        let origin = dir.join("origin");
        let local = dir.join("local");
        let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();

        // Two draining workers; their idle grace outlives the moment
        // the client registers the job.
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let url = url.clone();
                std::thread::spawn(move || {
                    run_str(&format!(
                        "worker --url {url} --jobs 2 --poll-secs 1 --drain --idle-secs 3 \
                         --name w{i}"
                    ))
                })
            })
            .collect();

        // One fleet invocation drives the whole run.
        let fleet = run_str(&format!(
            "synthesize --all --bound 4 --jobs 2 --cache {} --workers {url} --fleet-ranges 3",
            local.display()
        ))
        .expect("the fleet run completes");
        let local_run = run_str("synthesize --all --bound 4 --jobs 2").expect("local run");

        // Byte-identical ELT listings; summary counters equal up to the
        // wall-clock tail.
        let split = |s: &str| {
            let elts: Vec<&str> = s.lines().filter(|l| !l.starts_with("suite `")).collect();
            let sums: Vec<&str> = s
                .lines()
                .filter(|l| l.starts_with("suite `"))
                .map(|l| l.split(" in ").next().expect("summary has a duration"))
                .collect();
            (elts.join("\n"), sums.join("\n"))
        };
        assert_eq!(split(&fleet), split(&local_run));

        // Between them, the drained workers computed every range once.
        let mut ranges = 0usize;
        for worker in workers {
            let out = worker.join().expect("joins").expect("the worker drains");
            let n: usize = out
                .split_whitespace()
                .nth(2)
                .expect("worker summary counts ranges")
                .parse()
                .expect("a number");
            ranges += n;
        }
        assert_eq!(ranges, 3, "three leasable ranges, each computed once");

        // The client's local tier now serves the suites with the fleet
        // gone entirely.
        handle.shutdown();
        let warm = run_str(&format!(
            "synthesize --all --bound 4 --jobs 2 --cache {}",
            local.display()
        ))
        .expect("warm local run");
        assert_eq!(split(&warm).0, split(&local_run).0);

        // Replication: `store pull` fetches the fleet-sealed entries
        // from the coordinator store, and `store push` sends them on.
        let server = Server::bind(&origin, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();
        let mirror = dir.join("mirror");
        let out = run_str(&format!(
            "store pull --cache {} --url {url}",
            mirror.display()
        ))
        .expect("pulls");
        assert!(out.contains("pulled from"), "{out}");
        assert!(out.contains(", 0 already present"), "{out}");
        handle.shutdown();

        let second = dir.join("second");
        let server = Server::bind(&second, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();
        let out = run_str(&format!(
            "store push --cache {} --url {url}",
            mirror.display()
        ))
        .expect("pushes");
        assert!(out.contains("pushed to"), "{out}");
        assert!(out.contains(", 0 already present"), "{out}");
        handle.shutdown();
        // The entries arrived byte-identical at the second coordinator.
        let a = Store::open(&origin).expect("opens");
        let b = Store::open(&second).expect("opens");
        assert_eq!(a.entries().expect("lists"), b.entries().expect("lists"));
        for fp in a.entries().expect("lists") {
            assert_eq!(
                a.entry_bytes(fp).expect("readable"),
                b.entry_bytes(fp).expect("readable"),
                "{fp}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_flag_misuse_is_rejected() {
        let e = run_str("synthesize --axiom invlpg --bound 4 --workers http://127.0.0.1:1")
            .unwrap_err();
        assert!(e.contains("--cache"), "{e}");
        let e = run_str(
            "synthesize --axiom invlpg --bound 4 --cache x --cache-url http://127.0.0.1:1 \
             --workers http://127.0.0.1:1",
        )
        .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        // A draining worker against a dead coordinator reports it.
        let e = run_str("worker --url http://127.0.0.1:1 --drain").unwrap_err();
        assert!(e.contains("coordinator"), "{e}");
    }

    /// The tentpole's acceptance bar: `--progress` may only ever add a
    /// stderr stream. Stdout is byte-identical at any mode and worker
    /// count, and the sealed store entries hold the same suite.
    #[test]
    fn progress_changes_neither_stdout_nor_the_sealed_bytes() {
        let base = run_str("synthesize --axiom invlpg --bound 4").expect("runs");
        let elts = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("suite `"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for line in [
            "synthesize --axiom invlpg --bound 4 --progress=json",
            "synthesize --axiom invlpg --bound 4 --progress=json --jobs 3",
            "synthesize --axiom invlpg --bound 4 --progress --jobs 2",
        ] {
            let out = run_str(line).expect("runs");
            assert_eq!(elts(&base), elts(&out), "{line}");
        }
        // --all with --progress: same fused-run output.
        let all = run_str("synthesize --all --bound 4").expect("runs");
        let observed =
            run_str("synthesize --all --bound 4 --progress=json --jobs 4").expect("runs");
        assert_eq!(elts(&all), elts(&observed));

        // Sealed content: one cache populated observed at --jobs 3, one
        // plain on one worker — every entry holds the same suite. (Raw
        // entry bytes are *not* comparable across independent cold runs:
        // the sealed header records the run's wall-clock `elapsed`.
        // Byte-exactness holds for warm re-reads of the same artifact,
        // covered below and by the store tests.)
        let dir = temp_dir("progress-bytes");
        let plain = dir.join("plain");
        let observed = dir.join("observed");
        run_str(&format!(
            "synthesize --all --bound 4 --quiet --cache {}",
            plain.display()
        ))
        .expect("plain seeds");
        run_str(&format!(
            "synthesize --all --bound 4 --quiet --jobs 3 --progress=json --cache {}",
            observed.display()
        ))
        .expect("observed seeds");
        let a = Store::open(&plain).expect("opens");
        let b = Store::open(&observed).expect("opens");
        let entries = a.entries().expect("lists");
        assert_eq!(entries, b.entries().expect("lists"));
        assert!(!entries.is_empty());
        let content = |store: &Store, fp: Fingerprint| {
            let suite =
                transform_store::read_suite(store.open_suite(fp).expect("opens")).expect("reads");
            let elts: Vec<String> = suite
                .elts
                .iter()
                .map(|e| format!("{:?} {:?} {:?}", e.program, e.witness, e.violated))
                .collect();
            (
                suite.axiom,
                elts,
                suite.stats.programs,
                suite.stats.executions,
                suite.stats.forbidden,
                suite.stats.minimal,
            )
        };
        for fp in entries {
            assert_eq!(
                content(&a, fp),
                content(&b, fp),
                "{fp}: observed sealing must preserve the suite"
            );
        }
        // A warm observed run serves the cache (axioms render cached —
        // covered by unit tests) and still prints identically.
        let warm = run_str(&format!(
            "synthesize --all --bound 4 --quiet --progress=json --cache {}",
            observed.display()
        ))
        .expect("warm observed");
        let cold = run_str(&format!(
            "synthesize --all --bound 4 --quiet --cache {}",
            plain.display()
        ))
        .expect("warm plain");
        assert_eq!(elts(&warm), elts(&cold));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_rejects_unknown_modes() {
        let e = run_str("synthesize --axiom invlpg --bound 4 --progress=wat").unwrap_err();
        assert!(e.contains("wat"), "{e}");
    }

    #[test]
    fn top_once_renders_a_fleet_snapshot_of_a_loopback_serve() {
        use transform_serve::{ServeOptions, Server};
        let dir = temp_dir("top");
        let served = dir.join("served");
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {}",
            served.display()
        ))
        .expect("seeds");
        let server = Server::bind(&served, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();

        let frame = run_str(&format!("top --once --url {url}")).expect("scrapes");
        assert!(frame.contains("transform top"), "{frame}");
        assert!(frame.contains("entries 1"), "{frame}");
        assert!(frame.contains("in-flight"), "{frame}");
        for route in transform_serve::ROUTE_NAMES {
            assert!(frame.contains(route), "{route} missing:\n{frame}");
        }

        handle.shutdown();
        let e = run_str(&format!("top --once --url {url}")).unwrap_err();
        assert!(e.contains("cannot scrape"), "{e}");
        let e = run_str("top --once").unwrap_err();
        assert!(e.contains("--url"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The journal tentpole end to end: every `--cache` run records a
    /// listable, inspectable, exportable journal — and recording it
    /// never changes what synthesis prints (the byte-identity of the
    /// sealed suites themselves is held by
    /// `progress_changes_neither_stdout_nor_the_sealed_bytes` and the
    /// par-level property tests).
    #[test]
    fn cached_runs_are_journaled_listable_and_exportable() {
        let dir = temp_dir("runs");
        let cache = dir.join("store");
        let c = cache.display();
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds");
        let store = Store::open(&cache).expect("opens");
        let manifests = store.runs().expect("lists");
        assert_eq!(manifests.len(), 1, "one run recorded");
        let m = &manifests[0];
        assert_eq!(m.outcome, transform_store::RunOutcome::Complete);
        assert_eq!((m.mtm.as_str(), m.bound, m.jobs), ("x86t_elt", 4, 1));
        let id = format!("{:016x}", m.id);

        let list = run_str(&format!("runs list --cache {c}")).expect("lists");
        assert!(list.contains(&id), "{list}");
        assert!(list.contains("complete"), "{list}");
        assert!(list.contains("1 run"), "{list}");

        let show = run_str(&format!("runs show {id} --cache {c}")).expect("shows");
        assert!(show.contains("invlpg"), "{show}");
        assert!(show.contains("outcome complete"), "{show}");
        assert!(show.contains("run_start 1"), "{show}");
        assert!(show.contains("run_end 1"), "{show}");

        let trace = run_str(&format!("runs export {id} --chrome --cache {c}")).expect("exports");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("examine_batch"), "{trace}");
        assert!(trace.contains("axiom invlpg"), "{trace}");
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());

        let out = dir.join("run.trace.json");
        let msg = run_str(&format!(
            "runs export {id} --chrome --cache {c} --out {}",
            out.display()
        ))
        .expect("writes");
        assert!(msg.contains("trace events"), "{msg}");
        assert_eq!(std::fs::read_to_string(&out).expect("written"), trace);

        // A warm (fully cached) run is a run too: it records its own
        // journal with the axiom served from the cache.
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("warm");
        assert_eq!(store.runs().expect("lists").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A deadline-cut run's manifest records outcome `cut` with the
    /// *exact* retired counts, not an estimate: a zero budget cuts the
    /// run before its first partition retires, so the manifest retires
    /// no partition and no program, and the journal holds no batch.
    #[test]
    fn deadline_cut_runs_record_outcome_cut_with_exact_retired_counts() {
        let dir = temp_dir("runs-cut");
        let cache = dir.join("store");
        run_str(&format!(
            "synthesize --all --bound 4 --quiet --timeout-secs 0 --jobs 2 --cache {}",
            cache.display()
        ))
        .expect("cut run");
        let store = Store::open(&cache).expect("opens");
        let manifests = store.runs().expect("lists");
        assert_eq!(manifests.len(), 1);
        let m = &manifests[0];
        assert_eq!(m.outcome, transform_store::RunOutcome::Cut, "{m:?}");
        assert_eq!(m.cut_at_partition, Some(0), "{m:?}");
        assert_eq!((m.partitions_retired, m.programs), (0, 0), "{m:?}");
        let journal = store.read_run(m.id).expect("reads");
        assert!(!journal
            .events
            .iter()
            .any(|e| e.kind == transform_par::JournalEventKind::BatchExamined));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal of the earlier run format — a recorded run's bytes
    /// under that format's magic, re-checksummed — is listed by no one:
    /// `store verify` reports it corrupt and `--remove-corrupt` deletes
    /// it.
    #[test]
    fn store_verify_reports_and_removes_journals_of_the_earlier_format() {
        let dir = temp_dir("runs-earlier");
        let cache = dir.join("store");
        let c = cache.display();
        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {c}"
        ))
        .expect("seeds");
        let store = Store::open(&cache).expect("opens");
        let id = store.run_ids().expect("ids")[0];
        let path = store.run_path(id);
        let bytes = std::fs::read(&path).expect("reads");
        let mut body = bytes[..bytes.len() - 8].to_vec();
        body[..8].copy_from_slice(b"TFRUNJL\0");
        let checksum = transform_store::codec::fnv1a64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &body).expect("rewrites");
        assert!(store.runs().expect("lists").is_empty(), "listings skip it");

        let report = run_str(&format!("store verify --cache {c}")).expect("verifies");
        assert!(
            report.contains(&format!("run {id:016x} CORRUPT")),
            "{report}"
        );
        assert!(report.contains("run journals: 0 ok, 1 corrupt"), "{report}");
        run_str(&format!("store verify --cache {c} --remove-corrupt")).expect("removes");
        assert!(!path.exists(), "the journal is removed");
        let after = run_str(&format!("store verify --cache {c}")).expect("verifies");
        assert!(after.contains("run journals: 0 ok, 0 corrupt"), "{after}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_commands_validate_their_sources_and_ids() {
        let dir = temp_dir("runs-validate");
        let c = dir.join("store").display().to_string();
        let e = run_str("runs list").unwrap_err();
        assert!(e.contains("--cache"), "{e}");
        let e = run_str(&format!("runs list --cache {c} --url http://x:1")).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = run_str(&format!("runs wat --cache {c}")).unwrap_err();
        assert!(e.contains("wat"), "{e}");
        let e = run_str(&format!("runs show zzz --cache {c}")).unwrap_err();
        assert!(e.contains("zzz"), "{e}");
        let e = run_str(&format!("runs show 0123456789abcdef --cache {c}")).unwrap_err();
        assert!(e.contains("0123456789abcdef"), "{e}");
        let e = run_str(&format!("runs export 0123456789abcdef --cache {c}")).unwrap_err();
        assert!(e.contains("--chrome"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The fleet half of the tentpole: a live run's heartbeat manifest
    /// published to a serve instance renders in `transform top` with
    /// its per-axiom progress, and `runs list`/`show` read over --url.
    #[test]
    fn top_once_shows_live_fleet_runs_from_v1_runs() {
        use transform_serve::{ServeOptions, Server};
        let dir = temp_dir("top-runs");
        let served = dir.join("served");
        let server = Server::bind(&served, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();

        let frame = run_str(&format!("top --once --url {url}")).expect("scrapes");
        assert!(frame.contains("runs: none recorded"), "{frame}");

        // A live synthesis run elsewhere in the fleet: its heartbeat
        // publishes a Running manifest.
        let manifest = transform_store::RunManifest {
            id: 0x00c0_ffee_0a11_ce00,
            mtm: "x86t_elt".into(),
            bound: 6,
            allow_fences: false,
            allow_rmw: false,
            jobs: 4,
            started_unix_micros: 1_700_000_000_000_000,
            elapsed_micros: 12_000_000,
            outcome: transform_store::RunOutcome::Running,
            partitions_total: 100,
            partitions_retired: 42,
            programs: 77,
            items_planned: 300,
            batches: 9,
            peak_live_candidates: 50,
            cut_at_partition: None,
            axioms: vec![transform_par::AxiomSnapshot {
                name: "sc_per_loc".into(),
                state: transform_par::AxiomState::Running,
                elts: 3,
                items_examined: 99,
                batches_done: 9,
            }],
        };
        let journal = transform_store::RunJournal {
            manifest,
            events: Vec::new(),
        };
        let remote = HttpTier::new(&url).expect("connects");
        remote
            .publish_run(
                0x00c0_ffee_0a11_ce00,
                &transform_store::encode_run(&journal),
            )
            .expect("publishes");

        let frame = run_str(&format!("top --once --url {url}")).expect("scrapes");
        assert!(frame.contains("00c0ffee0a11ce00"), "{frame}");
        assert!(frame.contains("running"), "{frame}");
        assert!(frame.contains("x86t_elt@6"), "{frame}");
        assert!(frame.contains("sc_per_loc"), "{frame}");
        assert!(frame.contains("99 items"), "{frame}");

        let list = run_str(&format!("runs list --url {url}")).expect("lists");
        assert!(list.contains("00c0ffee0a11ce00"), "{list}");
        let show = run_str(&format!("runs show 00c0ffee0a11ce00 --url {url}")).expect("shows");
        assert!(show.contains("sc_per_loc"), "{show}");
        assert!(show.contains("outcome running"), "{show}");

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `--cache --cache-url` run publishes its sealed journal to the
    /// remote tier, so the whole fleet sees finished runs.
    #[test]
    fn cached_runs_publish_their_journals_to_the_remote_tier() {
        use transform_serve::{ServeOptions, Server};
        let dir = temp_dir("runs-publish");
        let served = dir.join("served");
        let local = dir.join("local");
        let server = Server::bind(&served, "127.0.0.1:0", ServeOptions::default()).expect("binds");
        let url = format!("http://{}", server.local_addr());
        let handle = server.spawn();

        run_str(&format!(
            "synthesize --axiom invlpg --bound 4 --quiet --cache {} --cache-url {url}",
            local.display()
        ))
        .expect("runs");
        let remote = HttpTier::new(&url).expect("connects");
        let manifests = remote.runs().expect("lists");
        assert_eq!(manifests.len(), 1, "the sealed journal was pushed");
        assert_eq!(
            manifests[0].outcome,
            transform_store::RunOutcome::Complete,
            "{:?}",
            manifests[0]
        );
        // Remote and local journals are byte-identical.
        let store = Store::open(&local).expect("opens");
        let id = manifests[0].id;
        assert_eq!(
            remote.fetch_run(id).expect("fetches").expect("present"),
            store.run_bytes(id).expect("reads").expect("present"),
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_and_simulate_roundtrip_through_a_file() {
        let dir = std::env::temp_dir().join("transform-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ptwalk2.elt");
        std::fs::write(&path, print_elt("ptwalk2", &figures::fig10a_ptwalk2())).expect("write");
        let p = path.to_str().expect("utf-8 path");

        let out = run_str(&format!("check {p}")).expect("runs");
        assert!(out.contains("forbidden"), "{out}");
        assert!(out.contains("invlpg"), "{out}");

        let out = run_str(&format!("simulate {p}")).expect("runs");
        assert!(out.contains("observed ⊆ permitted"), "{out}");

        let out = run_str(&format!("simulate {p} --bug shootdown")).expect("runs");
        assert!(out.contains("outcomes"), "{out}");
    }

    /// ELTs that parse but are not well-formed executions: `check`
    /// rejects them, and `simulate` must report the same one-line error
    /// instead of panicking inside the simulator.
    #[test]
    fn malformed_elts_are_rejected_by_check_and_simulate() {
        let dir = temp_dir("malformed");
        for (i, src) in [
            "elt \"e0\" {\n  thread C0 {\n    WPTE x -> b\n    R x walk\n  }\n}\n",
            "elt \"e1\" {\n  thread C0 {\n    WPTE x -> b\n    INVLPG x\n  }\n}\n",
            "elt \"e0\" {\n  thread C0 {\n    W x -> b\n    R x walk\n    INVLPG x\n  }\n  \
             remap C0:0 -> C0:2\n}\n",
        ]
        .into_iter()
        .enumerate()
        {
            let path = dir.join(format!("bad{i}.elt"));
            std::fs::write(&path, src).expect("write");
            let p = path.display();
            let check = run_str(&format!("check {p}")).expect_err("check rejects it");
            assert!(check.contains("is not a well-formed ELT"), "{check}");
            let simulate = run_str(&format!("simulate {p}")).expect_err("simulate rejects it");
            assert_eq!(simulate, check, "simulate reports check's error");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
