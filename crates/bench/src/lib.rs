//! `transform-bench` — the harness that regenerates every table and
//! figure of the TransForm paper's evaluation.
//!
//! * `fig9` binary — the per-axiom suite sweep of Fig. 9a (ELT counts per
//!   instruction bound) and Fig. 9b (synthesis runtimes), under a
//!   configurable time budget standing in for the paper's one-week
//!   timeout.
//! * `comparison` binary — the §VI-B comparison against the reconstructed
//!   COATCheck suite, plus the §V-A per-axiom attribution.
//! * Criterion benches (`fig9a_counts`, `fig9b_runtime`, `comparison`,
//!   `ablations`) measure the same pipelines.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use transform_core::axiom::Mtm;
use transform_par::{synthesize, ProgressSnapshot, ProgressState};
use transform_store::{HttpTier, Store, TieredCache};
use transform_synth::{Suite, SynthOptions};

/// One point of the Fig. 9 sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Axiom under synthesis.
    pub axiom: String,
    /// Instruction bound.
    pub bound: usize,
    /// Number of spanning-set ELTs synthesized.
    pub elts: usize,
    /// Synthesis wall-clock time.
    pub runtime: Duration,
    /// Whether the point hit the time budget (plotted as missing in the
    /// paper).
    pub timed_out: bool,
}

/// How `--progress` renders a sweep's live telemetry: one line per
/// sample on **stderr**, so the Fig. 9 tables on stdout stay clean
/// enough to redirect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepProgress {
    /// Compact human-readable lines.
    Human,
    /// One JSON object per sample — the same `progress.jsonl` shape the
    /// CLI's `--progress=json` streams, keyed by `axiom` and `bound`.
    Json,
}

impl SweepProgress {
    /// Parses a `--progress=` value; `human` and `json` are accepted.
    pub fn parse(s: &str) -> Option<SweepProgress> {
        match s {
            "human" => Some(SweepProgress::Human),
            "json" => Some(SweepProgress::Json),
            _ => None,
        }
    }
}

/// One progress sample of a sweep point. The sweep runs one axiom per
/// point, so the snapshot's single axiom slot carries the per-axiom
/// counters.
fn render_sample(mode: SweepProgress, bound: usize, snap: &ProgressSnapshot, done: bool) -> String {
    let ax = &snap.axioms[0];
    match mode {
        SweepProgress::Human => format!(
            "fig9 {}@{}: partitions {}/{}, {} elts, {} items, {} batches{}",
            ax.name,
            bound,
            snap.partitions_retired,
            snap.partitions_total,
            ax.elts,
            ax.items_examined,
            ax.batches_done,
            if done { " — done" } else { "" },
        ),
        SweepProgress::Json => format!(
            concat!(
                "{{\"axiom\": \"{}\", \"bound\": {}, \"elapsed_secs\": {:.6}, ",
                "\"partitions_retired\": {}, ",
                "\"partitions_total\": {}, \"programs\": {}, \"items_examined\": {}, ",
                "\"elts\": {}, \"batches\": {}, \"done\": {}}}"
            ),
            ax.name,
            bound,
            snap.elapsed.as_secs_f64(),
            snap.partitions_retired,
            snap.partitions_total,
            snap.programs,
            ax.items_examined,
            ax.elts,
            ax.batches_done,
            done,
        ),
    }
}

/// Prints a sample of `progress` to stderr every 100 ms until the
/// returned sender is dropped. The sampler waits on that channel, so
/// dropping the sender wakes it at once — a finished millisecond-scale
/// point is not held up by the rest of a period.
fn start_sampler(
    mode: SweepProgress,
    bound: usize,
    progress: Arc<ProgressState>,
) -> (Sender<()>, JoinHandle<()>) {
    let (stop, stopped) = channel();
    let sampler = std::thread::spawn(move || loop {
        eprintln!(
            "{}",
            render_sample(mode, bound, &progress.snapshot(), false)
        );
        if !matches!(
            stopped.recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutError::Timeout)
        ) {
            break;
        }
    });
    (stop, sampler)
}

/// Sweep configuration for the Fig. 9 reproduction.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Lowest instruction bound to try.
    pub min_bound: usize,
    /// Highest instruction bound to try.
    pub max_bound: usize,
    /// Per-point time budget (the paper used one week per run).
    pub budget: Duration,
    /// Include `MFENCE` in the program space.
    pub allow_fences: bool,
    /// Include RMW pairs in the program space.
    pub allow_rmw: bool,
    /// Worker threads per suite (`transform-par`); the suites are the
    /// same at every count.
    pub jobs: usize,
    /// A persistent suite store (`transform-store`): completed points
    /// are sealed into it and later sweeps stream them back instead of
    /// resynthesizing. `None` = always synthesize.
    pub cache: Option<PathBuf>,
    /// A shared `transform serve` endpoint (`http://host:port`) behind
    /// the local store: local miss → remote fetch (validated into the
    /// local tier), and freshly sealed points are pushed back. Requires
    /// `cache` for the local tier.
    pub cache_url: Option<String>,
    /// Live per-point telemetry on stderr (`--progress[=human|json]`).
    /// Pure observation — never changes a suite.
    pub progress: Option<SweepProgress>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            min_bound: 4,
            max_bound: 6,
            budget: Duration::from_secs(60),
            allow_fences: false,
            allow_rmw: false,
            jobs: 1,
            cache: None,
            cache_url: None,
            progress: None,
        }
    }
}

/// Runs the per-axiom bound sweep of Fig. 9, one suite per (axiom,
/// bound). Sweeping stops per axiom once a bound times out, exactly as
/// the paper's missing data points.
pub fn sweep(mtm: &Mtm, cfg: &SweepConfig) -> Vec<SweepPoint> {
    assert!(
        cfg.cache_url.is_none() || cfg.cache.is_some(),
        "cache_url needs cache for the local tier"
    );
    let cache = cfg.cache.as_ref().map(|dir| {
        let store =
            Store::open(dir).unwrap_or_else(|e| panic!("cannot open cache {}: {e}", dir.display()));
        let tiered = TieredCache::new(store);
        match &cfg.cache_url {
            Some(url) => tiered.with_remote(Box::new(
                HttpTier::new(url).unwrap_or_else(|e| panic!("{e}")),
            )),
            None => tiered,
        }
    });
    let mut out = Vec::new();
    for ax in mtm.axioms() {
        for bound in cfg.min_bound..=cfg.max_bound {
            let mut opts = SynthOptions::new(bound);
            opts.enumeration.allow_fences = cfg.allow_fences;
            opts.enumeration.allow_rmw = cfg.allow_rmw;
            opts.timeout = Some(cfg.budget);
            // An observed point gets a per-point `ProgressState` with a
            // single axiom slot, sampled on a side thread at the
            // coalesced 100 ms cadence (hot polling visibly taxes small
            // runs — see the `progress_overhead_pct` points in
            // `BENCH_enum.json`).
            let observed = cfg.progress.map(|mode| {
                let progress = Arc::new(ProgressState::new(&[ax.name.as_str()]));
                let sampler = start_sampler(mode, bound, Arc::clone(&progress));
                (mode, progress, sampler)
            });
            let progress = observed.as_ref().map(|(_, progress, _)| progress);
            let axioms = [ax.name.as_str()];
            let suite = match &cache {
                Some(cache) => {
                    cache
                        .cached_or_synthesize(mtm, &axioms, &opts, cfg.jobs, progress)
                        .unwrap_or_else(|e| panic!("suite cache: {e}"))
                        .remove(0)
                        .0
                }
                None => synthesize(mtm, &axioms, &opts, cfg.jobs, progress).remove(0),
            };
            if let Some((mode, progress, (stop, sampler))) = observed {
                drop(stop);
                sampler.join().expect("sampler joins");
                eprintln!("{}", render_sample(mode, bound, &progress.snapshot(), true));
            }
            let timed_out = suite.stats.timed_out;
            out.push(SweepPoint {
                axiom: ax.name.clone(),
                bound,
                elts: suite.elts.len(),
                runtime: suite.stats.elapsed,
                timed_out,
            });
            if timed_out {
                break;
            }
        }
    }
    out
}

/// Renders the Fig. 9a table (ELT counts) and Fig. 9b table (runtimes).
pub fn render_sweep(points: &[SweepPoint]) -> String {
    let mut bounds: Vec<usize> = points.iter().map(|p| p.bound).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut axes: Vec<&str> = points.iter().map(|p| p.axiom.as_str()).collect();
    axes.dedup();

    let by: BTreeMap<(&str, usize), &SweepPoint> = points
        .iter()
        .map(|p| ((p.axiom.as_str(), p.bound), p))
        .collect();

    let mut out = String::new();
    out.push_str("Fig. 9a — number of ELTs per per-axiom suite, by instruction bound\n");
    out.push_str(&format!("{:<16}", "axiom"));
    for b in &bounds {
        out.push_str(&format!("{b:>8}"));
    }
    out.push('\n');
    for ax in &axes {
        out.push_str(&format!("{ax:<16}"));
        for b in &bounds {
            match by.get(&(ax, *b)) {
                Some(p) if !p.timed_out => out.push_str(&format!("{:>8}", p.elts)),
                Some(_) => out.push_str(&format!("{:>8}", "t/o")),
                None => out.push_str(&format!("{:>8}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str("\nFig. 9b — synthesis runtime (seconds), by instruction bound\n");
    out.push_str(&format!("{:<16}", "axiom"));
    for b in &bounds {
        out.push_str(&format!("{b:>8}"));
    }
    out.push('\n');
    for ax in &axes {
        out.push_str(&format!("{ax:<16}"));
        for b in &bounds {
            match by.get(&(ax, *b)) {
                Some(p) if !p.timed_out => {
                    out.push_str(&format!("{:>8.3}", p.runtime.as_secs_f64()))
                }
                Some(_) => out.push_str(&format!("{:>8}", "t/o")),
                None => out.push_str(&format!("{:>8}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Synthesizes every per-axiom suite at one bound (used by the comparison
/// pipeline and benches). `jobs` worker threads per suite; the result is
/// identical for every worker count.
pub fn all_suites(
    mtm: &Mtm,
    bound: usize,
    budget: Duration,
    jobs: usize,
) -> BTreeMap<String, Suite> {
    let mut opts = SynthOptions::new(bound);
    opts.enumeration.allow_fences = false;
    opts.enumeration.allow_rmw = false;
    opts.timeout = Some(budget);
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    synthesize(mtm, &axioms, &opts, jobs, None)
        .into_iter()
        .map(|suite| (suite.axiom.clone(), suite))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_x86::x86t_elt;

    #[test]
    fn sweep_produces_points_for_every_axiom() {
        let mtm = x86t_elt();
        let cfg = SweepConfig {
            min_bound: 4,
            max_bound: 4,
            budget: Duration::from_secs(60),
            ..SweepConfig::default()
        };
        let points = sweep(&mtm, &cfg);
        assert_eq!(points.len(), mtm.axioms().len());
        let table = render_sweep(&points);
        assert!(table.contains("sc_per_loc"));
        assert!(table.contains("Fig. 9a"));
        assert!(table.contains("Fig. 9b"));
    }

    /// Sweeps on one and on four workers find the sequential engine's
    /// suite sizes.
    #[test]
    fn sweep_is_jobs_invariant() {
        let mtm = x86t_elt();
        let mut cfg = SweepConfig {
            min_bound: 4,
            max_bound: 4,
            budget: Duration::from_secs(60),
            ..SweepConfig::default()
        };
        let mut opts = SynthOptions::new(4);
        opts.enumeration.allow_fences = false;
        opts.enumeration.allow_rmw = false;
        let reference = transform_synth::synthesize_all(&mtm, &opts);
        for jobs in [1, 4] {
            cfg.jobs = jobs;
            let points = sweep(&mtm, &cfg);
            assert_eq!(points.len(), reference.len(), "jobs {jobs}");
            for point in &points {
                assert_eq!(point.bound, 4);
                assert_eq!(
                    point.elts,
                    reference[&point.axiom].elts.len(),
                    "{} on {jobs} workers: suite size diverged",
                    point.axiom
                );
            }
        }
    }

    #[test]
    fn observed_sweep_matches_the_plain_one_and_modes_parse() {
        assert_eq!(SweepProgress::parse("human"), Some(SweepProgress::Human));
        assert_eq!(SweepProgress::parse("json"), Some(SweepProgress::Json));
        assert_eq!(SweepProgress::parse("verbose"), None);
        let mtm = x86t_elt();
        let mut cfg = SweepConfig {
            min_bound: 4,
            max_bound: 4,
            budget: Duration::from_secs(60),
            ..SweepConfig::default()
        };
        let plain = sweep(&mtm, &cfg);
        cfg.progress = Some(SweepProgress::Json);
        let observed = sweep(&mtm, &cfg);
        assert_eq!(plain.len(), observed.len());
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.axiom, b.axiom);
            assert_eq!(a.elts, b.elts, "{}: observed sweep diverged", a.axiom);
        }
        // The sample renderer reports the single-axiom slot both ways.
        let progress = ProgressState::new(&["sc_per_loc"]);
        let snap = progress.snapshot();
        let human = render_sample(SweepProgress::Human, 5, &snap, true);
        assert!(human.contains("sc_per_loc@5"), "{human}");
        assert!(human.ends_with("— done"), "{human}");
        let json = render_sample(SweepProgress::Json, 5, &snap, false);
        assert!(json.contains("\"axiom\": \"sc_per_loc\""), "{json}");
        assert!(json.contains("\"bound\": 5"), "{json}");
        assert!(json.contains("\"done\": false"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn cached_sweep_matches_the_uncached_one() {
        let mtm = x86t_elt();
        let dir = std::env::temp_dir().join(format!("tfs-sweep-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = SweepConfig {
            min_bound: 4,
            max_bound: 4,
            budget: Duration::from_secs(60),
            ..SweepConfig::default()
        };
        let uncached = sweep(&mtm, &cfg);
        cfg.cache = Some(dir.clone());
        let cold = sweep(&mtm, &cfg);
        let warm = sweep(&mtm, &cfg);
        for ((a, b), c) in uncached.iter().zip(&cold).zip(&warm) {
            assert_eq!(a.elts, b.elts, "{}: cold cache diverged", a.axiom);
            assert_eq!(a.elts, c.elts, "{}: warm cache diverged", a.axiom);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
