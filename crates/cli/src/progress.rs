//! The `--progress` reporter and the `transform top` fleet view.
//!
//! The reporter side: a background thread samples an
//! [`Arc<ProgressState>`] while an observed synthesis run executes
//! and renders it to **stderr** (stdout stays byte-identical to an
//! unobserved run) — a redrawn per-axiom panel on a TTY, periodic
//! plain lines otherwise, or one JSON object per line for machines.
//!
//! The top side: `transform top` polls a `transform serve` instance's
//! `/v1/metrics` endpoint, parses the Prometheus text exposition, and
//! renders a live fleet view with delta-based rates.

use crate::heartbeat::{Heartbeat, Pulse};
use std::io::IsTerminal;
use std::sync::Arc;
use std::time::Duration;
use transform_par::{AxiomState, ProgressSnapshot, ProgressState};

/// How `--progress` renders.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgressMode {
    /// The per-axiom panel (TTY-redrawn) or periodic summary lines.
    Human,
    /// One JSON object per line, for pipes and CI artifacts.
    Json,
}

/// Parses the consumed `--progress[=human|json]` flag value.
///
/// # Errors
///
/// A mode that is neither `human` nor `json`.
pub fn parse_progress(flag: Option<Option<String>>) -> Result<Option<ProgressMode>, String> {
    match flag {
        None => Ok(None),
        Some(None) => Ok(Some(ProgressMode::Human)),
        Some(Some(mode)) => match mode.as_str() {
            "human" => Ok(Some(ProgressMode::Human)),
            "json" => Ok(Some(ProgressMode::Json)),
            other => Err(format!(
                "unknown --progress mode `{other}` (expected `human` or `json`)"
            )),
        },
    }
}

/// Streams a run's progress to stderr until [`Reporter::finish`].
pub struct Reporter {
    heartbeat: Heartbeat,
}

impl Reporter {
    /// Starts the reporter thread over `progress`.
    pub fn start(progress: Arc<ProgressState>, mode: ProgressMode) -> Reporter {
        let tty = std::io::stderr().is_terminal();
        let tick = match (mode, tty) {
            (ProgressMode::Human, true) => Duration::from_millis(250),
            (ProgressMode::Human, false) => Duration::from_secs(2),
            (ProgressMode::Json, _) => Duration::from_millis(500),
        };
        Reporter {
            heartbeat: Heartbeat::start(tick, move |pulse| {
                report_loop(&progress, mode, tty, &pulse)
            }),
        }
    }

    /// Stops the thread and emits the final frame (the run's settled
    /// counters — the same numbers its `StreamMetrics` reports).
    pub fn finish(mut self) {
        self.heartbeat.stop();
    }
}

/// The reporter thread: tick, render, and on stop render once more so
/// the last frame always shows the settled counters.
fn report_loop(progress: &ProgressState, mode: ProgressMode, tty: bool, pulse: &Pulse) {
    let mut drawn_lines = 0usize;
    let emit = |drawn: &mut usize| {
        let snap = progress.snapshot();
        match mode {
            ProgressMode::Json => eprintln!("{}", render_json(&snap)),
            ProgressMode::Human if tty => {
                // Redraw in place: climb over the previous frame and
                // clear each line before rewriting it.
                let frame = render_panel(&snap);
                let mut out = String::new();
                if *drawn > 0 {
                    out.push_str(&format!("\x1b[{}A", *drawn));
                }
                for line in frame.lines() {
                    out.push_str("\x1b[2K");
                    out.push_str(line);
                    out.push('\n');
                }
                eprint!("{out}");
                *drawn = frame.lines().count();
            }
            ProgressMode::Human => eprintln!("{}", render_line(&snap)),
        }
    };
    loop {
        emit(&mut drawn_lines);
        if !pulse.wait() {
            break;
        }
    }
    // The settled frame. On a TTY the panel was live-redrawn; plain and
    // JSON streams get their closing record here.
    match mode {
        ProgressMode::Human if tty => emit(&mut drawn_lines),
        ProgressMode::Human => eprint!("{}", render_panel(&progress.snapshot())),
        ProgressMode::Json => emit(&mut drawn_lines),
    }
}

/// `12.3s`-style compact duration (shared with the `runs` renderers).
pub(crate) fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{:.0}h{:02.0}m", (s / 3600.0).floor(), (s % 3600.0) / 60.0)
    } else if s >= 60.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{s:.1}s")
    }
}

/// The one-line global summary (non-TTY human mode).
fn render_line(snap: &ProgressSnapshot) -> String {
    let done = snap
        .axioms
        .iter()
        .filter(|a| !matches!(a.state, AxiomState::Pending | AxiomState::Running))
        .count();
    format!(
        "progress: {} partitions {}/{} programs {} axioms {}/{} done{}",
        fmt_secs(snap.elapsed),
        snap.partitions_retired,
        snap.partitions_total,
        snap.programs,
        done,
        snap.axioms.len(),
        match snap.enumeration_eta() {
            Some(eta) if eta > Duration::ZERO => format!(" eta ~{}", fmt_secs(eta)),
            _ => String::new(),
        },
    )
}

/// The multi-line per-axiom panel (TTY human mode, and the final frame
/// of the plain stream).
fn render_panel(snap: &ProgressSnapshot) -> String {
    let mut out = render_line(snap);
    out.push('\n');
    out.push_str(&format!(
        "  live {} (peak {})  batches {}{}\n",
        snap.live_candidates,
        snap.peak_live_candidates,
        snap.batches,
        match snap.cut_at_partition {
            Some(at) => format!("  CUT at partition {at}"),
            None => String::new(),
        },
    ));
    let width = snap.axioms.iter().map(|a| a.name.len()).max().unwrap_or(0);
    for ax in &snap.axioms {
        let eta = match snap.axiom_eta(ax) {
            Some(eta) if eta > Duration::ZERO => format!("  eta ~{}", fmt_secs(eta)),
            _ => String::new(),
        };
        let detail = match ax.state {
            AxiomState::Cached => String::new(),
            _ => format!("  {} items, {} batches", ax.items_examined, ax.batches_done),
        };
        out.push_str(&format!(
            "  {:width$}  {:8}  {:>5} elts{detail}{eta}\n",
            ax.name,
            ax.state.name(),
            ax.elts,
        ));
    }
    out
}

/// Minimal JSON string escaping (axiom names are identifiers today,
/// but a spec file could name one anything). Shared with the Chrome
/// trace exporter.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One line-delimited JSON record of a snapshot.
fn render_json(snap: &ProgressSnapshot) -> String {
    let eta = snap
        .enumeration_eta()
        .map_or("null".to_string(), |d| format!("{:.3}", d.as_secs_f64()));
    let cut = snap
        .cut_at_partition
        .map_or("null".to_string(), |p| p.to_string());
    let axioms: Vec<String> = snap
        .axioms
        .iter()
        .map(|ax| {
            let ax_eta = snap
                .axiom_eta(ax)
                .map_or("null".to_string(), |d| format!("{:.3}", d.as_secs_f64()));
            format!(
                "{{\"name\":{},\"state\":{},\"elts\":{},\"items_examined\":{},\"batches_done\":{},\"eta_secs\":{ax_eta}}}",
                json_str(&ax.name),
                json_str(ax.state.name()),
                ax.elts,
                ax.items_examined,
                ax.batches_done,
            )
        })
        .collect();
    format!(
        "{{\"elapsed_secs\":{:.3},\"partitions_retired\":{},\"partitions_total\":{},\
         \"programs\":{},\"items_planned\":{},\
         \"live_candidates\":{},\"peak_live_candidates\":{},\"batches\":{},\
         \"cut_at_partition\":{cut},\"eta_secs\":{eta},\"axioms\":[{}]}}",
        snap.elapsed.as_secs_f64(),
        snap.partitions_retired,
        snap.partitions_total,
        snap.programs,
        snap.items_planned,
        snap.live_candidates,
        snap.peak_live_candidates,
        snap.batches,
        axioms.join(","),
    )
}

/// Parses a Prometheus text exposition into `name{labels}` → value.
/// Comment lines (`# HELP`, `# TYPE`) are skipped; the sample key keeps
/// its label set verbatim.
pub fn parse_prometheus(text: &str) -> std::collections::BTreeMap<String, f64> {
    let mut out = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(value) = value.parse::<f64>() {
                out.insert(key.to_string(), value);
            }
        }
    }
    out
}

/// `1234567` → `1.2 MB`.
fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.1} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// A counter's delta-based rate between two polls, as `N.N/s`.
fn rate(
    prev: Option<&std::collections::BTreeMap<String, f64>>,
    cur: &std::collections::BTreeMap<String, f64>,
    key: &str,
    interval: f64,
) -> String {
    match prev {
        Some(prev) if interval > 0.0 => {
            let d = cur.get(key).copied().unwrap_or(0.0) - prev.get(key).copied().unwrap_or(0.0);
            format!("{:.1}/s", (d / interval).max(0.0))
        }
        _ => "-".to_string(),
    }
}

/// Renders one `transform top` frame from a parsed `/v1/metrics`
/// scrape (`prev` is the previous poll, for rates; `None` on the
/// first).
pub fn render_top(
    url: &str,
    prev: Option<&std::collections::BTreeMap<String, f64>>,
    cur: &std::collections::BTreeMap<String, f64>,
    interval: f64,
) -> String {
    let get = |key: &str| cur.get(key).copied().unwrap_or(0.0);
    let mut out = format!("transform top — {url}\n");
    out.push_str(&format!(
        "entries {}   in-flight {}   requests {} ({})\n",
        get("transform_serve_entries"),
        get("transform_serve_in_flight"),
        get("transform_serve_requests_total"),
        rate(prev, cur, "transform_serve_requests_total", interval),
    ));
    out.push_str(&format!(
        "suite: {} hits ({}) / {} misses   puts: {} accepted / {} rejected\n",
        get("transform_serve_suite_hits_total"),
        rate(prev, cur, "transform_serve_suite_hits_total", interval),
        get("transform_serve_suite_misses_total"),
        get("transform_serve_puts_accepted_total"),
        get("transform_serve_puts_rejected_total"),
    ));
    out.push_str(&format!(
        "bytes: {} served ({})   {} received\n",
        fmt_bytes(get("transform_serve_bytes_served_total")),
        rate(prev, cur, "transform_serve_bytes_served_total", interval),
        fmt_bytes(get("transform_serve_bytes_received_total")),
    ));
    out.push_str(&format!(
        "{:<11}{:>10}  {:>8}  {:>12}\n",
        "route", "requests", "rate", "avg latency"
    ));
    for route in transform_serve::ROUTE_NAMES {
        let requests_key = format!("transform_serve_route_requests_total{{route=\"{route}\"}}");
        let sum_key = format!("transform_serve_route_latency_seconds_sum{{route=\"{route}\"}}");
        let count_key = format!("transform_serve_route_latency_seconds_count{{route=\"{route}\"}}");
        let count = get(&count_key);
        let avg = if count > 0.0 {
            format!("{:.1} ms", get(&sum_key) / count * 1e3)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{route:<11}{:>10}  {:>8}  {avg:>12}\n",
            get(&requests_key),
            rate(prev, cur, &requests_key, interval),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_flag_parses_its_three_spellings() {
        assert_eq!(parse_progress(None), Ok(None));
        assert_eq!(parse_progress(Some(None)), Ok(Some(ProgressMode::Human)));
        assert_eq!(
            parse_progress(Some(Some("human".into()))),
            Ok(Some(ProgressMode::Human))
        );
        assert_eq!(
            parse_progress(Some(Some("json".into()))),
            Ok(Some(ProgressMode::Json))
        );
        let e = parse_progress(Some(Some("wat".into()))).unwrap_err();
        assert!(e.contains("wat"), "{e}");
    }

    #[test]
    fn json_frames_are_one_balanced_object_per_snapshot() {
        let state = ProgressState::new(&["sc_per_loc", "invlpg"]);
        state.mark_cached("invlpg", 7);
        let line = render_json(&state.snapshot());
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "{line}"
        );
        assert!(
            line.contains("\"name\":\"invlpg\",\"state\":\"cached\",\"elts\":7"),
            "{line}"
        );
        assert!(line.contains("\"eta_secs\":null"), "{line}");
    }

    #[test]
    fn panel_renders_cached_and_pending_axioms_distinctly() {
        let state = ProgressState::new(&["sc_per_loc", "invlpg"]);
        state.mark_cached("invlpg", 7);
        let panel = render_panel(&state.snapshot());
        assert!(panel.contains("cached"), "{panel}");
        assert!(panel.contains("pending"), "{panel}");
        assert!(panel.contains("7 elts"), "{panel}");
    }

    #[test]
    fn prometheus_parsing_keeps_labels_and_skips_comments() {
        let text = "\
# HELP x_total help text
# TYPE x_total counter
x_total 3
y{route=\"healthz\"} 1.5
";
        let parsed = parse_prometheus(text);
        assert_eq!(parsed.get("x_total"), Some(&3.0));
        assert_eq!(parsed.get("y{route=\"healthz\"}"), Some(&1.5));
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn prometheus_parsing_survives_escaped_help_strings() {
        // HELP text may contain escaped quotes, backslashes, and `\n` —
        // and even text that looks like a sample. Comment lines are
        // skipped wholesale, so none of it leaks into the sample map.
        let text = "\
# HELP tricky \"quoted \\\" text\\n with\\\\escapes\" x_total 99
# TYPE tricky counter
tricky 1
";
        let parsed = parse_prometheus(text);
        assert_eq!(parsed.get("tricky"), Some(&1.0));
        assert_eq!(parsed.len(), 1, "{parsed:?}");
    }

    #[test]
    fn prometheus_parsing_accepts_nan_and_inf_samples() {
        // Summaries of an idle server legitimately expose NaN
        // quantiles, and +Inf histogram buckets carry the value as a
        // *label* but other gauges may be infinite.
        let text = "\
q{quantile=\"0.99\"} NaN
g_pos +Inf
g_neg -Inf
h_bucket{le=\"+Inf\"} 7
";
        let parsed = parse_prometheus(text);
        assert!(parsed
            .get("q{quantile=\"0.99\"}")
            .is_some_and(|v| v.is_nan()));
        assert_eq!(parsed.get("g_pos"), Some(&f64::INFINITY));
        assert_eq!(parsed.get("g_neg"), Some(&f64::NEG_INFINITY));
        assert_eq!(parsed.get("h_bucket{le=\"+Inf\"}"), Some(&7.0));
    }

    #[test]
    fn prometheus_parsing_keeps_unknown_families_and_drops_garbage() {
        // Families `top` has never heard of still parse (forward
        // compatibility with newer servers); lines whose value is not a
        // number are dropped rather than aborting the scrape.
        let text = "\
brand_new_metric_total 5
malformed_line_without_value
also_malformed not-a-number
";
        let parsed = parse_prometheus(text);
        assert_eq!(parsed.get("brand_new_metric_total"), Some(&5.0));
        assert_eq!(parsed.len(), 1, "{parsed:?}");
    }

    #[test]
    fn prometheus_parsing_keys_histogram_buckets_by_le_label() {
        // The serve histogram upgrade: every `_bucket{route,le}` line
        // keys separately, cumulative across `le`, with `_sum`/`_count`
        // still present for the avg-latency column.
        let text = "\
# TYPE transform_serve_route_latency_seconds histogram
transform_serve_route_latency_seconds_bucket{route=\"healthz\",le=\"0.001\"} 2
transform_serve_route_latency_seconds_bucket{route=\"healthz\",le=\"0.005\"} 3
transform_serve_route_latency_seconds_bucket{route=\"healthz\",le=\"+Inf\"} 3
transform_serve_route_latency_seconds_sum{route=\"healthz\"} 0.004
transform_serve_route_latency_seconds_count{route=\"healthz\"} 3
";
        let parsed = parse_prometheus(text);
        let bucket = |le: &str| {
            parsed
                .get(&format!(
                    "transform_serve_route_latency_seconds_bucket{{route=\"healthz\",le=\"{le}\"}}"
                ))
                .copied()
        };
        assert_eq!(bucket("0.001"), Some(2.0));
        assert_eq!(bucket("0.005"), Some(3.0));
        assert_eq!(bucket("+Inf"), Some(3.0));
        // And the summary keys render_top relies on survive alongside.
        let frame = render_top("http://x:1", None, &parsed, 2.0);
        assert!(frame.contains("1.3 ms"), "avg = 0.004/3: {frame}");
    }

    #[test]
    fn top_frames_report_rates_from_deltas() {
        let mut prev = std::collections::BTreeMap::new();
        prev.insert("transform_serve_requests_total".to_string(), 10.0);
        let mut cur = prev.clone();
        cur.insert("transform_serve_requests_total".to_string(), 30.0);
        let frame = render_top("http://x:1", Some(&prev), &cur, 2.0);
        assert!(frame.contains("(10.0/s)"), "{frame}");
        // First poll: no rates yet.
        let first = render_top("http://x:1", None, &cur, 2.0);
        assert!(first.contains("(-)"), "{first}");
        for route in transform_serve::ROUTE_NAMES {
            assert!(frame.contains(route), "{route} missing:\n{frame}");
        }
    }
}
