//! Run journals from the CLI side: the recorder that makes every
//! cached synthesis run a first-class store artifact, and the renderers
//! behind `transform runs list|show|export`.
//!
//! The recorder wraps a run's [`ProgressState`]: a heartbeat thread
//! periodically writes a `Running` manifest into the store (and pushes
//! it to the remote tier when one is configured) so `transform runs`
//! and the serve fleet view see in-flight runs, and `finish` seals the
//! final journal — manifest plus the full drained event stream — with
//! the run's real outcome. Recording is strictly best-effort: a store
//! or remote that refuses a journal never fails the synthesis, and the
//! sealed suites are byte-identical with and without it (the par and
//! CLI test suites hold that line).

use crate::heartbeat::Heartbeat;
use crate::progress::{fmt_secs, json_str};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use transform_par::{AxiomState, JournalEventKind, ProgressSnapshot, ProgressState};
use transform_store::{
    encode_run, fresh_run_id, HttpTier, RunJournal, RunManifest, RunOutcome, Store,
};

/// Microseconds since the Unix epoch, saturating at zero on a clock
/// before 1970.
fn now_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// The constant head of a run's manifests: everything that never
/// changes between the first heartbeat and the final seal.
#[derive(Clone)]
struct ManifestHead {
    id: u64,
    mtm: String,
    bound: usize,
    fences: bool,
    rmw: bool,
    jobs: usize,
    started_unix_micros: u64,
}

impl ManifestHead {
    fn manifest(&self, outcome: RunOutcome, snap: &ProgressSnapshot) -> RunManifest {
        RunManifest::from_snapshot(
            self.id,
            &self.mtm,
            self.bound,
            self.fences,
            self.rmw,
            self.jobs,
            self.started_unix_micros,
            outcome,
            snap,
        )
    }
}

/// Records one synthesis run into a store (and optionally a remote
/// `transform serve` tier) while it executes.
pub struct JournalRecorder {
    heartbeat: Heartbeat,
    store: Store,
    remote: Option<HttpTier>,
    progress: Arc<ProgressState>,
    head: ManifestHead,
}

impl JournalRecorder {
    /// How often the heartbeat republishes the `Running` manifest.
    const HEARTBEAT: Duration = Duration::from_secs(1);

    /// Starts recording: writes the first `Running` manifest
    /// immediately, then heartbeats until [`JournalRecorder::finish`].
    ///
    /// # Errors
    ///
    /// An unopenable store directory or a malformed remote URL — the
    /// same errors the synthesis call itself would hit.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        dir: &str,
        url: Option<&str>,
        mtm: &str,
        bound: usize,
        fences: bool,
        rmw: bool,
        jobs: usize,
        progress: Arc<ProgressState>,
    ) -> Result<JournalRecorder, String> {
        let open = || Store::open(dir).map_err(|e| format!("cannot open cache `{dir}`: {e}"));
        let connect = |url: Option<&str>| {
            url.map(HttpTier::new)
                .transpose()
                .map_err(|e| e.to_string())
        };
        // URL first: a bad URL must not leave an empty store behind.
        let remote = connect(url)?;
        let store = open()?;
        let head = ManifestHead {
            id: fresh_run_id(),
            mtm: mtm.to_string(),
            bound,
            fences,
            rmw,
            jobs,
            started_unix_micros: now_micros(),
        };
        let heartbeat = {
            let (store, remote) = (open()?, connect(url)?);
            let (head, progress) = (head.clone(), Arc::clone(&progress));
            Heartbeat::start(Self::HEARTBEAT, move |pulse| loop {
                let journal = RunJournal {
                    manifest: head.manifest(RunOutcome::Running, &progress.snapshot()),
                    events: Vec::new(),
                };
                // Best-effort on both tiers: a full disk or an
                // unreachable remote never disturbs the run.
                if store.write_run(&journal).is_ok() {
                    if let Some(remote) = &remote {
                        remote.publish_run(head.id, &encode_run(&journal)).ok();
                    }
                }
                if !pulse.wait() {
                    break;
                }
            })
        };
        Ok(JournalRecorder {
            heartbeat,
            store,
            remote,
            progress,
            head,
        })
    }

    /// Stops the heartbeat and seals the final journal — the settled
    /// manifest (outcome `Cut` when the deadline hit, `Complete`
    /// otherwise) plus the run's full drained event stream. Returns the
    /// run id.
    pub fn finish(mut self) -> u64 {
        self.heartbeat.stop();
        let snap = self.progress.snapshot();
        let outcome = if snap.cut_at_partition.is_some() {
            RunOutcome::Cut
        } else {
            RunOutcome::Complete
        };
        let journal = RunJournal {
            manifest: self.head.manifest(outcome, &snap),
            events: self.progress.take_journal(),
        };
        match self.store.write_run(&journal) {
            Ok(()) => {
                if let Some(remote) = &self.remote {
                    remote.publish_run(self.head.id, &encode_run(&journal)).ok();
                }
            }
            Err(e) => eprintln!("transform: run journal not recorded: {e}"),
        }
        self.head.id
    }
}

/// Parses a run id as `transform runs` prints it: exactly the 16-hex
/// `run-<id>.tfr` stem.
pub fn parse_run_id(s: &str) -> Result<u64, String> {
    if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
        u64::from_str_radix(s, 16).map_err(|_| format!("`{s}` is not a run id"))
    } else {
        Err(format!("`{s}` is not a run id (16 hex digits)"))
    }
}

/// Parses `--outcome` exactly as `transform runs list` prints outcomes.
pub fn parse_outcome(s: &str) -> Result<RunOutcome, String> {
    match s {
        "running" => Ok(RunOutcome::Running),
        "complete" => Ok(RunOutcome::Complete),
        "cut" => Ok(RunOutcome::Cut),
        other => Err(format!(
            "unknown --outcome `{other}` (expected `running`, `complete`, or `cut`)"
        )),
    }
}

/// Parses a `--since` instant — ISO 8601 UTC, date or date-time
/// (`2026-08-01`, `2026-08-01T12:30:00`, seconds and a trailing `Z`
/// optional) — to microseconds since the Unix epoch, the unit run
/// manifests carry.
pub fn parse_since(s: &str) -> Result<u64, String> {
    let bad = || {
        format!(
            "`{s}` is not an ISO 8601 UTC instant (expected YYYY-MM-DD or \
             YYYY-MM-DDTHH:MM[:SS], optionally suffixed Z)"
        )
    };
    // Every field is plain ASCII digits: `u64::from_str` alone would
    // also take a leading `+`.
    let fields = |text: &str, sep: char| -> Result<Vec<u64>, String> {
        text.split(sep)
            .map(|p| {
                if p.bytes().all(|b| b.is_ascii_digit()) {
                    p.parse().map_err(|_| bad())
                } else {
                    Err(bad())
                }
            })
            .collect()
    };
    let text = s.strip_suffix('Z').unwrap_or(s);
    let (date, time) = match text.split_once('T') {
        Some((date, time)) => (date, Some(time)),
        None => (text, None),
    };
    let date = fields(date, '-')?;
    let [year, month, day] = date[..] else {
        return Err(bad());
    };
    let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    let month_days = [
        31,
        if leap { 29 } else { 28 },
        31,
        30,
        31,
        30,
        31,
        31,
        30,
        31,
        30,
        31,
    ];
    // Years stop at 9999, so the day count below stays small.
    if !(1970..=9999).contains(&year)
        || !(1..=12).contains(&month)
        || day < 1
        || day > month_days[month as usize - 1]
    {
        return Err(bad());
    }
    let (hour, minute, second) = match time {
        None => (0, 0, 0),
        Some(time) => {
            let parts = fields(time, ':')?;
            match parts[..] {
                [h, m] => (h, m, 0),
                [h, m, s] => (h, m, s),
                _ => return Err(bad()),
            }
        }
    };
    if hour > 23 || minute > 59 || second > 59 {
        return Err(bad());
    }
    // Days since the epoch: whole years first, then whole months.
    let mut days = 0u64;
    for y in 1970..year {
        days += if y % 4 == 0 && (y % 100 != 0 || y % 400 == 0) {
            366
        } else {
            365
        };
    }
    days += month_days[..month as usize - 1].iter().sum::<u64>() + (day - 1);
    Ok((days * 86_400 + hour * 3_600 + minute * 60 + second) * 1_000_000)
}

/// `retired/total` partitions — a run's progress figure.
fn partitions(m: &RunManifest) -> String {
    format!("{}/{}", m.partitions_retired, m.partitions_total)
}

fn total_elts(m: &RunManifest) -> usize {
    m.axioms.iter().map(|a| a.elts).sum()
}

/// The `transform runs list` table, newest first.
pub fn render_runs_list(manifests: &[RunManifest]) -> String {
    let mut out = format!(
        "{:<16}  {:<8}  {:<14}  {:>4}  {:>8}  {:>9}  {:>11}  {:>5}\n",
        "run", "outcome", "mtm@bound", "jobs", "elapsed", "programs", "partitions", "elts"
    );
    for m in manifests {
        out.push_str(&format!(
            "{:016x}  {:<8}  {:<14}  {:>4}  {:>8}  {:>9}  {:>11}  {:>5}\n",
            m.id,
            m.outcome.name(),
            format!("{}@{}", m.mtm, m.bound),
            m.jobs,
            fmt_secs(Duration::from_micros(m.elapsed_micros)),
            m.programs,
            partitions(m),
            total_elts(m),
        ));
    }
    out.push_str(&format!(
        "{} run{}\n",
        manifests.len(),
        if manifests.len() == 1 { "" } else { "s" }
    ));
    out
}

/// The `transform runs show` detail page: the manifest, the per-axiom
/// table, and the journal's per-kind event counts.
pub fn render_run_show(journal: &RunJournal) -> String {
    let m = &journal.manifest;
    let mut out = format!("run {:016x}\n", m.id);
    out.push_str(&format!(
        "  {} @ bound {}  fences {}  rmw {}  jobs {}\n",
        m.mtm,
        m.bound,
        if m.allow_fences { "on" } else { "off" },
        if m.allow_rmw { "on" } else { "off" },
        m.jobs,
    ));
    out.push_str(&format!(
        "  started {}.{:06}  elapsed {}  outcome {}\n",
        m.started_unix_micros / 1_000_000,
        m.started_unix_micros % 1_000_000,
        fmt_secs(Duration::from_micros(m.elapsed_micros)),
        m.outcome.name(),
    ));
    out.push_str(&format!(
        "  partitions {}  programs {}  plan items {}\n",
        partitions(m),
        m.programs,
        m.items_planned,
    ));
    out.push_str(&format!(
        "  batches {}  peak live {}{}\n",
        m.batches,
        m.peak_live_candidates,
        match m.cut_at_partition {
            Some(at) => format!("  CUT at partition {at}"),
            None => String::new(),
        },
    ));
    let width = m.axioms.iter().map(|a| a.name.len()).max().unwrap_or(0);
    for ax in &m.axioms {
        out.push_str(&format!(
            "  {:width$}  {:<8}  {:>5} elts  {:>8} items  {:>5} batches\n",
            ax.name,
            ax.state.name(),
            ax.elts,
            ax.items_examined,
            ax.batches_done,
        ));
    }
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for ev in &journal.events {
        *counts.entry(ev.kind.name()).or_default() += 1;
    }
    let detail: Vec<String> = counts.iter().map(|(k, n)| format!("{k} {n}")).collect();
    out.push_str(&format!(
        "  events {}{}\n",
        journal.events.len(),
        if detail.is_empty() {
            String::new()
        } else {
            format!(" ({})", detail.join(", "))
        },
    ));
    out
}

/// One Chrome trace-event JSON document (`about://tracing`,
/// Perfetto's legacy loader) for a run journal: per-axiom named
/// threads, an `X` complete event per examine batch (on the run lane
/// when the batch covers every axiom), and instants for the structural
/// transitions.
pub fn chrome_trace(journal: &RunJournal) -> String {
    let m = &journal.manifest;
    let mut events: Vec<String> = Vec::with_capacity(journal.events.len() + m.axioms.len() + 2);
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        json_str(&format!(
            "transform run {:016x} ({}@{})",
            m.id, m.mtm, m.bound
        )),
    ));
    events.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"run\"}}"
            .to_string(),
    );
    for (slot, ax) in m.axioms.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            slot + 1,
            json_str(&format!("axiom {}", ax.name)),
        ));
    }
    for ev in &journal.events {
        let tid = ev.axiom.map_or(0, |slot| u64::from(slot) + 1);
        match ev.kind {
            JournalEventKind::BatchExamined => {
                // The span's duration was journaled in `c`; the event was
                // recorded at its end, so the span starts at `t - c`.
                events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"examine_batch\",\"args\":{{\"items\":{},\"found\":{}}}}}",
                    ev.t_micros.saturating_sub(ev.c),
                    ev.c.max(1),
                    ev.a,
                    ev.b,
                ));
            }
            kind => {
                // Structural transitions render as instants — global
                // scope for run-wide events, thread scope for
                // axiom-scoped ones.
                let scope = if ev.axiom.is_some() { "t" } else { "g" };
                events.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"{scope}\",\
                     \"name\":{},\"args\":{{\"a\":{},\"b\":{},\"c\":{}}}}}",
                    ev.t_micros,
                    json_str(kind.name()),
                    ev.a,
                    ev.b,
                    ev.c,
                ));
            }
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\
         \"run\":{},\"mtm\":{},\"bound\":{},\"jobs\":{},\"outcome\":{}}}}}\n",
        events.join(","),
        json_str(&format!("{:016x}", m.id)),
        json_str(&m.mtm),
        m.bound,
        m.jobs,
        json_str(m.outcome.name()),
    )
}

/// The `transform top` runs section: recent runs from `/v1/runs`,
/// in-flight ones expanded with their live per-axiom progress. Empty
/// input renders an explicit "none" line so the section is always
/// present in a frame.
pub fn render_runs_section(manifests: &[RunManifest]) -> String {
    const SHOWN: usize = 6;
    if manifests.is_empty() {
        return "runs: none recorded\n".to_string();
    }
    let mut out = format!(
        "runs: {} recorded{}\n",
        manifests.len(),
        if manifests.len() > SHOWN {
            format!(", {SHOWN} shown")
        } else {
            String::new()
        },
    );
    for m in manifests.iter().take(SHOWN) {
        out.push_str(&format!(
            "  {:016x}  {:<8}  {:<14}  jobs {:<3}  {:>8}  partitions {:>11}  {:>5} elts\n",
            m.id,
            m.outcome.name(),
            format!("{}@{}", m.mtm, m.bound),
            m.jobs,
            fmt_secs(Duration::from_micros(m.elapsed_micros)),
            partitions(m),
            total_elts(m),
        ));
        // A live run's per-axiom progress, straight from its latest
        // heartbeat manifest.
        if m.outcome == RunOutcome::Running {
            let width = m.axioms.iter().map(|a| a.name.len()).max().unwrap_or(0);
            for ax in &m.axioms {
                if ax.state == AxiomState::Pending {
                    continue;
                }
                out.push_str(&format!(
                    "    {:width$}  {:<8}  {:>5} elts  {:>8} items\n",
                    ax.name,
                    ax.state.name(),
                    ax.elts,
                    ax.items_examined,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_par::{AxiomSnapshot, JournalEvent};

    fn manifest(outcome: RunOutcome) -> RunManifest {
        RunManifest {
            id: 0xdead_beef_0000_0001,
            mtm: "x86t_elt".into(),
            bound: 4,
            allow_fences: false,
            allow_rmw: false,
            jobs: 2,
            started_unix_micros: 1_700_000_000_000_000,
            elapsed_micros: 1_500_000,
            outcome,
            partitions_total: 10,
            partitions_retired: 4,
            programs: 7,
            items_planned: 21,
            batches: 3,
            peak_live_candidates: 5,
            cut_at_partition: None,
            axioms: vec![
                AxiomSnapshot {
                    name: "sc_per_loc".into(),
                    state: AxiomState::Running,
                    elts: 2,
                    items_examined: 14,
                    batches_done: 2,
                },
                AxiomSnapshot {
                    name: "invlpg".into(),
                    state: AxiomState::Pending,
                    elts: 0,
                    items_examined: 0,
                    batches_done: 0,
                },
            ],
        }
    }

    #[test]
    fn outcome_filters_parse_the_printed_spellings() {
        assert_eq!(parse_outcome("running"), Ok(RunOutcome::Running));
        assert_eq!(parse_outcome("complete"), Ok(RunOutcome::Complete));
        assert_eq!(parse_outcome("cut"), Ok(RunOutcome::Cut));
        assert!(parse_outcome("crashed").is_err());
        assert!(parse_outcome("done").is_err());
    }

    #[test]
    fn since_instants_parse_iso8601_utc() {
        assert_eq!(parse_since("1970-01-01"), Ok(0));
        assert_eq!(parse_since("1970-01-02T00:00:01"), Ok(86_401_000_000));
        // A known fixed point: 2020-01-01T00:00:00Z.
        assert_eq!(parse_since("2020-01-01T00:00Z"), Ok(1_577_836_800_000_000));
        // Leap day 2024 parses; the same day in 2023 does not exist.
        assert_eq!(
            parse_since("2024-02-29"),
            Ok((1_577_836_800 + (366 + 365 + 365 + 365 + 59) as u64 * 86_400) * 1_000_000)
        );
        assert!(parse_since("2023-02-29").is_err());
        for bad in [
            "yesterday",
            "2026-13-01",
            "2026-00-01",
            "2026-01-32",
            "1969-12-31",
            "2026-08-08T24:00",
            "2026-08-08T12",
            "2026-08",
            "99999999999-01-01",
            "600000-01-01",
            "10000-01-01",
            "+2026-08-01",
            "2026-+8-01",
            "2026-08-01T+1:00",
            "2026-08-01T12:00:+5",
        ] {
            assert!(parse_since(bad).is_err(), "{bad}");
        }
        assert_eq!(
            parse_since("9999-12-31T23:59:59Z"),
            Ok(253_402_300_799_000_000)
        );
    }

    #[test]
    fn run_ids_parse_exactly_sixteen_hex_digits() {
        assert_eq!(parse_run_id("00000000deadbeef"), Ok(0xdead_beef));
        assert!(parse_run_id("deadbeef").is_err(), "too short");
        assert!(parse_run_id("00000000deadbee\u{30}0").is_err(), "too long");
        assert!(parse_run_id("00000000deadbeeg").is_err(), "not hex");
    }

    #[test]
    fn list_and_show_render_the_manifest_counters() {
        let m = manifest(RunOutcome::Complete);
        let list = render_runs_list(std::slice::from_ref(&m));
        assert!(list.contains("deadbeef00000001"), "{list}");
        assert!(list.contains("complete"), "{list}");
        assert!(list.contains("x86t_elt@4"), "{list}");
        assert!(list.contains(" 4/10 "), "{list}");
        assert!(list.contains("1 run\n"), "{list}");

        let journal = RunJournal {
            manifest: m,
            events: vec![JournalEvent {
                t_micros: 0,
                kind: JournalEventKind::RunStart,
                axiom: None,
                a: 10,
                b: 0,
                c: 2,
            }],
        };
        let show = render_run_show(&journal);
        assert!(show.contains("run deadbeef00000001"), "{show}");
        assert!(show.contains("partitions 4/10"), "{show}");
        assert!(show.contains("sc_per_loc"), "{show}");
        assert!(show.contains("events 1 (run_start 1)"), "{show}");
    }

    #[test]
    fn chrome_traces_are_balanced_json_with_named_threads() {
        let journal = RunJournal {
            manifest: manifest(RunOutcome::Cut),
            events: vec![
                JournalEvent {
                    t_micros: 10,
                    kind: JournalEventKind::RunStart,
                    axiom: None,
                    a: 10,
                    b: 0,
                    c: 2,
                },
                JournalEvent {
                    t_micros: 500,
                    kind: JournalEventKind::BatchExamined,
                    axiom: Some(0),
                    a: 8,
                    b: 1,
                    c: 120,
                },
                JournalEvent {
                    t_micros: 550,
                    kind: JournalEventKind::Cut,
                    axiom: None,
                    a: 4,
                    b: 0,
                    c: 0,
                },
                JournalEvent {
                    t_micros: 600,
                    kind: JournalEventKind::AxiomComplete,
                    axiom: Some(0),
                    a: 8,
                    b: 0,
                    c: 0,
                },
            ],
        };
        let trace = chrome_trace(&journal);
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("axiom sc_per_loc"), "{trace}");
        // The batch span starts `dur` before its journal timestamp.
        assert!(
            trace.contains("\"ts\":380,\"dur\":120"),
            "batch span misplaced: {trace}"
        );
        // Run-wide transitions are global instants on the run lane;
        // axiom-scoped ones are thread instants on the axiom's lane.
        assert!(
            trace.contains(
                "\"tid\":0,\"ts\":550,\"s\":\"g\",\"name\":\"cut\",\
                 \"args\":{\"a\":4,\"b\":0,\"c\":0}"
            ),
            "cut instant misplaced: {trace}"
        );
        assert!(
            trace.contains("\"tid\":1,\"ts\":600,\"s\":\"t\",\"name\":\"axiom_complete\""),
            "{trace}"
        );
        assert!(trace.contains("\"outcome\":\"cut\""), "{trace}");
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    }

    #[test]
    fn top_runs_section_expands_live_runs_per_axiom() {
        assert_eq!(render_runs_section(&[]), "runs: none recorded\n");
        let live = render_runs_section(&[manifest(RunOutcome::Running)]);
        assert!(live.contains("running"), "{live}");
        assert!(live.contains("sc_per_loc"), "{live}");
        assert!(live.contains("2 elts"), "{live}");
        assert!(
            !live.contains("invlpg"),
            "pending axioms are elided: {live}"
        );
        // Finished runs stay one line.
        let done = render_runs_section(&[manifest(RunOutcome::Complete)]);
        assert!(!done.contains("sc_per_loc"), "{done}");
    }
}
