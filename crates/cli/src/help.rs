//! Per-subcommand `--help` text.
//!
//! Every subcommand answers `transform <cmd> --help` with its usage,
//! its flags — shared flags (`--cache`, `--cache-url`, `--progress`)
//! are described in the same words everywhere they apply — and one
//! worked example.

/// The shared description of the cache flags, verbatim in every
/// subcommand that accepts them.
const CACHE_FLAGS: &str = "\
  --cache DIR            a persistent local suite store: sealed suites are
                         streamed back instead of resynthesized; corrupt or
                         stale entries are detected by checksums and rebuilt.
                         Cached runs also record a run journal into the
                         store (`transform runs --help`) — journaling never
                         changes the sealed suites
  --cache-url URL        a shared `transform serve` endpoint (http://host:port)
                         behind the local store: a local miss fetches from the
                         remote (validated byte-for-byte, then installed
                         locally), and freshly sealed suites are pushed back —
                         requires --cache for the local tier";

/// The shared description of `--progress`, verbatim wherever it
/// applies.
const PROGRESS_FLAG: &str = "\
  --progress[=human|json]  live per-axiom telemetry on stderr while the run
                         executes: partitions retired of the run's
                         total, programs planned, ELTs found, and an ETA
                         from the partitions retired; cache-served axioms
                         render as `cached`.
                         `json` emits one object per line (pipes, CI).
                         Observation never changes the suite — stdout is
                         byte-identical with and without it";

/// The `--help` text of one subcommand (`store` takes the sub-subcommand
/// when one was given). `None` for unknown commands.
pub fn help_for(cmd: &str, store_sub: Option<&str>) -> Option<String> {
    let text = match cmd {
        "table1" => "\
usage: transform table1

Print the MTM vocabulary (the paper's Table I): every primitive and
derived relation of the transistency model DSL.

example:
  transform table1
"
        .to_string(),
        "figures" => "\
usage: transform figures [--dot NAME]

Evaluate every paper figure under x86t_elt and print its verdict
(permitted / forbidden, with the violated axioms). With --dot, print
one figure's candidate execution as Graphviz instead.

flags:
  --dot NAME             emit the named figure as a digraph

example:
  transform figures --dot fig10a_ptwalk2 | dot -Tsvg > ptwalk2.svg
"
        .to_string(),
        "check" => "\
usage: transform check FILE|- [--mtm M]

Parse an ELT file (`-` reads stdin) and report its verdict under an
MTM: permitted, or forbidden with the violated axioms.

flags:
  --mtm M                `x86t_elt` (default), `x86tso`, or a spec file path

example:
  transform check test.elt --mtm x86tso
"
        .to_string(),
        "synthesize" => format!(
            "\
usage: transform synthesize --axiom A|--all --bound N [--mtm M]
           [--max-threads T] [--fences] [--rmw] [--timeout-secs S]
           [--quiet] [--jobs N|auto] [--backend explicit|relational]
           [--progress[=human|json]]
           [--cache DIR] [--cache-url URL] [--out FILE]
           [--workers URL[,URL...]] [--lease-ttl-secs S]
           [--fleet-ranges N]

Synthesize the per-axiom spanning-set suite of enhanced litmus tests at
an instruction bound — one axiom, or with --all every axiom of the MTM
through one fused run (the program space is enumerated once and each
program is examined once for every axiom; no shared plan is built
before workers start, and every suite is sealed into the cache when
the run finishes). Every suite is byte-identical for every --jobs.

flags:
  --axiom A              the MTM axiom to violate
  --all                  every axiom of the MTM, in one fused run
  --bound N              instruction bound, at most 64 (required)
  --mtm M                `x86t_elt` (default), `x86tso`, or a spec file path
  --max-threads T        cap threads in enumerated programs
  --fences               include MFENCE in the program space
  --rmw                  include RMW pairs in the program space
  --timeout-secs S       best-effort budget; timed-out suites are partial
                         and never cached
  --jobs N|auto          worker threads (`auto` = all cores)
  --backend B            `explicit` or `relational` (SAT)
  --quiet                suppress the ELT listing
  --out FILE             write the ELTs to FILE instead of stdout
{PROGRESS_FLAG}

fleet (distributed synthesis):
  --workers URL[,URL...]  run the synthesis on a worker fleet instead of
                         locally: the run is registered as a job on the
                         coordinator (a `transform serve` instance; the
                         first URL), `transform worker` processes lease
                         its mass-balanced partition ranges and upload
                         shard results, and the fleet-sealed suites are
                         pulled back into --cache (required) — byte-
                         identical to a local run at any worker count,
                         including under worker death and lease expiry.
                         --timeout-secs cuts the job instead of sealing
  --lease-ttl-secs S     how long a worker may go without a heartbeat
                         before its range is reclaimed (default 30)
  --fleet-ranges N       how many leasable ranges the plan splits into
                         (default 2x --jobs, at least 4); scheduling
                         only — it never changes the suite

caching:
{CACHE_FLAGS}

example:
  transform synthesize --all --bound 5 --fences --rmw --jobs auto \\
      --progress --cache store --cache-url http://cache.internal:7171

  # drive a worker fleet from one invocation (workers run elsewhere):
  transform synthesize --all --bound 5 --jobs auto --cache store \\
      --workers http://coordinator:7171
"
        ),
        "compare" => format!(
            "\
usage: transform compare [--bound N] [--timeout-secs S] [--jobs N|auto]
           [--progress[=human|json]] [--cache DIR] [--cache-url URL]

The paper's §VI-B comparison: synthesize every x86t_elt per-axiom suite
(one fused run — the program space is enumerated once for all axioms)
and compare the synthesized programs against the reconstructed
COATCheck suite.

flags:
  --bound N              instruction bound, at most 64 (default 7)
  --timeout-secs S       budget for the whole fused run (default 300);
                         axioms that finished before the cut stay complete
  --jobs N|auto          worker threads (`auto` = all cores)
{PROGRESS_FLAG}

caching:
{CACHE_FLAGS}

example:
  transform compare --bound 6 --jobs auto --progress --cache store \\
      --cache-url http://cache.internal:7171
"
        ),
        "simulate" => "\
usage: transform simulate FILE|- [--bug invlpg-noop|shootdown|dirty-bit]
           [--evictions] [--mtm M]

Run an ELT program (`-` reads stdin) on the operational x86-TSO + VM
reference machine, enumerate its outcomes, and check conformance
against the MTM — optionally with an injected transistency bug.

flags:
  --bug B                inject `invlpg-noop`, `shootdown`, or `dirty-bit`
  --evictions            model capacity evictions
  --mtm M                `x86t_elt` (default), `x86tso`, or a spec file path

example:
  transform simulate elt.txt --bug shootdown
"
        .to_string(),
        "query" => "\
usage: transform query --cache DIR [--mtm-name M] [--axiom A] [--bound N]
           [--backend B] [--shape S] [--fences] [--rmw]

List the ELTs of a local suite cache, filtered by entry key and test
shape, without resynthesizing anything. (To query a fleet-wide cache,
`transform store pull` it into a local directory first.)

flags:
  --mtm-name M           keep entries of the named MTM
  --axiom A              keep entries for one axiom
  --bound N              keep entries at one bound
  --backend B            keep entries of one backend
  --shape S              keep tests with the slots-per-thread shape (e.g. 2+1)
  --fences               keep tests containing a fence
  --rmw                  keep tests containing an RMW pair

caching:
  --cache DIR            the local suite store to query (required)

example:
  transform query --cache store --axiom invlpg --shape 2+1 --fences
"
        .to_string(),
        "export" => "\
usage: transform export --cache DIR [query filters] [--out FILE]

Dump cached ELTs in the text syntax (parseable back by `check`), with
the same filters as `query`.

flags:
  same filters as `transform query --help`
  --out FILE             write to FILE instead of stdout

caching:
  --cache DIR            the local suite store to export from (required)

example:
  transform export --cache store --bound 5 --out suite.elt
"
        .to_string(),
        "serve" => "\
usage: transform serve --root DIR [--addr HOST:PORT] [--threads N]
           [--verbose]

Serve a suite store over HTTP as a fleet-wide shared cache. Clients
point `--cache-url` at it: GET/HEAD /v1/suite/<fingerprint> serves
sealed entries, PUT uploads them (validated byte-for-byte before
sealing, idempotent), GET /v1/index lists every readable entry's key
(read from the entry headers on each request), GET /healthz reports
liveness, and GET /v1/metrics exposes the request
counters (requests, hits, puts, bytes, per-route request counts and
latency histograms, in-flight connections) in the Prometheus text
format — scrape it, or watch it live with `transform top`. Run
journals replicate too: GET /v1/runs lists the recorded run manifests,
GET/PUT /v1/runs/<id> fetch and publish full journals (validated, and
rewritable so live runs can heartbeat). Entries are content-addressed
and immutable, so serving is replication-safe by construction.

The same instance is the synthesis-fleet coordinator: POST /v1/jobs
registers a job (`synthesize --workers` does this), POST /v1/lease
hands mass-balanced partition ranges to `transform worker` processes,
heartbeats renew leases (a silent worker's range is reclaimed and
reassigned), PUT /v1/shard/... stages checksummed shard results
idempotently, and the last range in triggers the deterministic merge
that seals suites byte-identical to a single-machine run.

flags:
  --root DIR             the store directory to serve (required; created
                         if missing)
  --addr HOST:PORT       listen address (default 127.0.0.1:7171; port 0
                         picks a free port)
  --threads N            connection worker threads (default 4)
  --verbose              log one line per request to stderr

example:
  transform serve --root /srv/transform-store --addr 0.0.0.0:7171
"
        .to_string(),
        "worker" => "\
usage: transform worker --url URL [--jobs N|auto] [--poll-secs N]
           [--drain] [--idle-secs N] [--name NAME]

A synthesis-fleet worker. Polls the coordinator (a `transform serve`
instance) for leases over POST /v1/lease, runs the fused pipeline over
each leased partition range (a range plans only its own partitions,
numbered from 0; the coordinator renumbers them into the plan of a
single-machine run), heartbeats while computing, and uploads the
checksummed shard result over PUT /v1/shard. Uploads are idempotent:
retries and duplicate completions (for example after this worker's
lease expired and the range was reassigned) merge conflict-free. A
failed range is abandoned so its lease expires and the coordinator
reassigns it.

flags:
  --url URL              the coordinator endpoint (http://host:port)
  --jobs N|auto          worker threads per leased range (`auto` = all
                         cores); never changes the uploaded shard
  --poll-secs N          how often to re-poll an idle coordinator
                         (default 1)
  --drain                exit once the coordinator has had no work for
                         --idle-secs; without it the worker serves
                         forever
  --idle-secs N          the --drain grace period (default 5) — long
                         enough for a fleet client to register its job
  --name NAME            the worker name in coordinator logs (default
                         worker-<pid>)

example:
  transform worker --url http://coordinator:7171 --jobs auto --drain
"
        .to_string(),
        "top" => "\
usage: transform top --url URL [--interval-secs N] [--once]

A live fleet view of a `transform serve` instance: polls its
/v1/metrics endpoint and renders entries, suite hits/misses, puts,
byte counters, in-flight connections, and a per-route table of request
counts, delta-based rates, and average latencies — then merges in
/v1/runs, so recent synthesis runs appear below with in-flight ones
expanded to their live per-axiom progress. Redraws in place on a TTY;
prints one frame per poll otherwise.

flags:
  --url URL              the `transform serve` endpoint (http://host:port)
  --interval-secs N      polling interval (default 2)
  --once                 print a single snapshot and exit (scripts, CI
                         smoke tests)

example:
  transform top --url http://cache.internal:7171 --once
"
        .to_string(),
        "runs" => "\
usage: transform runs list [--outcome O] [--since ISO8601]
           |show ID|export ID --chrome [--out FILE]
           (--cache DIR | --url URL)

Every `--cache` synthesis run records a checksummed run journal — a
manifest (spec, bound, options, outcome, final counters) plus
timestamped span events — into the store, heartbeating a `running`
manifest while it executes; a run that died leaves its last `running`
manifest behind. `list` prints the recorded manifests newest first,
each with its partitions retired/total, `show` renders one run's
manifest, per-axiom table, and event counts, and `export --chrome`
turns its journal into a Chrome trace-event JSON file (load it in
about://tracing or Perfetto).

flags:
  --outcome O            keep `list` rows with one outcome: `running`,
                         `complete`, or `cut`
  --since ISO8601        keep `list` rows started at or after a UTC
                         instant (`2026-08-01` or
                         `2026-08-01T12:30:00`; trailing `Z` optional)
  --chrome               export as Chrome trace-event JSON (required
                         for `export`; the only format today)
  --out FILE             write the trace to FILE instead of stdout

sources (exactly one):
  --cache DIR            read journals from a local suite store
  --url URL              read them from a `transform serve` endpoint
                         (http://host:port) via GET /v1/runs

example:
  transform runs export 00c0ffee00c0ffee --chrome --cache store \\
      --out run.trace.json
"
        .to_string(),
        "store" => match store_sub {
            None => "\
usage: transform store <verify|gc|push|pull> [options]

Maintain a suite store: `verify` re-checksums every entry offline,
`gc` ages entries out, `push` uploads sealed entries to a shared
`transform serve` cache, `pull` downloads its entries. Each has its
own --help.

example:
  transform store verify --cache store
"
            .to_string(),
            Some("verify") => "\
usage: transform store verify --cache DIR [--remove-corrupt]

Re-checksum every sealed suite of a local store offline: header, every
record, and the trailer — and every recorded run journal end to end.
Reports (and with --remove-corrupt deletes) entries and journals that
fail. Each entry's header is its only key record, so there is no
separate index to check.

flags:
  --remove-corrupt       delete entries and journals that fail validation

caching:
  --cache DIR            the local suite store to verify (required)

example:
  transform store verify --cache store --remove-corrupt
"
            .to_string(),
            Some("gc") => "\
usage: transform store gc --cache DIR [--older-than-days N]
           [--keep-list FILE] [--dry-run]

Age out cached suites by mtime and/or a keep-list of fingerprints,
sweep leftover tmp-* shard directories and the legacy files older
builds wrote beside their entries (the admission digests *.tfd and
the entry index, index.tfx), and (with --older-than-days) age out run
journals by the same cutoff.

flags:
  --older-than-days N    remove entries and run journals older than N days
  --keep-list FILE       fingerprints (one per line) to keep; without
                         --older-than-days, unlisted entries are removed
                         (run journals age only by mtime — the keep-list
                         names suite fingerprints, never runs)
  --dry-run              report without deleting

caching:
  --cache DIR            the local suite store to collect (required)

example:
  transform store gc --cache store --older-than-days 30 --dry-run
"
            .to_string(),
            Some("push") => "\
usage: transform store push --cache DIR --url URL [--fingerprint FP]

Upload sealed entries of a local store to a shared `transform serve`
cache. Entries the remote already holds are skipped (content addressing
makes them immutable); the server validates every uploaded byte before
sealing.

flags:
  --fingerprint FP       push one entry instead of all
  --url URL              the `transform serve` endpoint (http://host:port)

caching:
  --cache DIR            the local suite store to push from (required)

example:
  transform store push --cache store --url http://cache.internal:7171
"
            .to_string(),
            Some("pull") => "\
usage: transform store pull --cache DIR --url URL [--fingerprint FP]

Download sealed entries from a shared `transform serve` cache into a
local store. Every fetched entry is validated byte-for-byte before it
is installed; entries already present locally are skipped. An entry
that fails validation is reported and not installed, the rest are
still pulled, and the command then exits nonzero with the number
refused.

flags:
  --fingerprint FP       pull one entry instead of the remote's index
  --url URL              the `transform serve` endpoint (http://host:port)

caching:
  --cache DIR            the local suite store to pull into (required)

example:
  transform store pull --cache store --url http://cache.internal:7171
"
            .to_string(),
            Some(_) => return None,
        },
        _ => return None,
    };
    Some(text)
}
