//! Regenerates Fig. 9a (ELT counts per per-axiom suite by instruction
//! bound) and Fig. 9b (synthesis runtimes).
//!
//! Usage: `fig9 [max_bound] [budget_seconds] [--fences] [--rmw]
//! [--jobs N] [--cache DIR] [--cache-url URL] [--progress[=human|json]]`
//!
//! `--progress` streams each point's live telemetry to stderr (stdout
//! keeps the Fig. 9 tables): `human` prints compact one-line samples,
//! `json` prints one JSON object per sample — the same `progress.jsonl`
//! shape the CLI's `--progress=json` emits, keyed by axiom and bound.
//!
//! With `--cache`, completed points are sealed into a persistent suite
//! store and later sweeps stream them back instead of resynthesizing —
//! re-running a week-long sweep costs seconds. With `--cache-url`, a
//! shared `transform serve` endpoint sits behind the local store:
//! points anyone in the fleet already swept stream from the remote, and
//! freshly completed points are pushed back for everyone else.
//!
//! The paper ran each point under a one-week timeout on a server; the
//! default budget here is 60 s per point, and points that exceed it are
//! printed as `t/o` (the paper plots them as missing).

use std::time::Duration;
use transform_bench::{render_sweep, sweep, SweepConfig, SweepProgress};
use transform_x86::x86t_elt;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SweepConfig {
        jobs: transform_par::default_jobs(),
        ..SweepConfig::default()
    };
    let mut positional = Vec::new();
    let mut take_jobs = false;
    let mut take_cache = false;
    let mut take_cache_url = false;
    for a in &args {
        if take_jobs {
            cfg.jobs = a.parse().unwrap_or_else(|_| {
                eprintln!("error: --jobs takes a number, got `{a}`");
                std::process::exit(2);
            });
            take_jobs = false;
            continue;
        }
        if take_cache {
            cfg.cache = Some(a.into());
            take_cache = false;
            continue;
        }
        if take_cache_url {
            cfg.cache_url = Some(a.into());
            take_cache_url = false;
            continue;
        }
        match a.as_str() {
            "--fences" => cfg.allow_fences = true,
            "--rmw" => cfg.allow_rmw = true,
            "--jobs" => take_jobs = true,
            "--cache" => take_cache = true,
            "--cache-url" => take_cache_url = true,
            "--progress" => cfg.progress = Some(SweepProgress::Human),
            other if other.starts_with("--progress=") => {
                let v = &other["--progress=".len()..];
                cfg.progress = Some(SweepProgress::parse(v).unwrap_or_else(|| {
                    eprintln!("error: --progress takes `human` or `json`, got `{v}`");
                    std::process::exit(2);
                }));
            }
            other => positional.push(other.to_string()),
        }
    }
    if take_jobs {
        eprintln!("error: --jobs takes a number");
        std::process::exit(2);
    }
    if take_cache {
        eprintln!("error: --cache takes a directory");
        std::process::exit(2);
    }
    if take_cache_url {
        eprintln!("error: --cache-url takes http://host:port");
        std::process::exit(2);
    }
    if cfg.cache_url.is_some() && cfg.cache.is_none() {
        eprintln!("error: --cache-url needs --cache DIR for the local tier");
        std::process::exit(2);
    }
    if let Some(b) = positional.first().and_then(|s| s.parse().ok()) {
        cfg.max_bound = b;
    }
    if let Some(s) = positional.get(1).and_then(|s| s.parse().ok()) {
        cfg.budget = Duration::from_secs(s);
    }

    let mtm = x86t_elt();
    eprintln!(
        "sweeping bounds {}..={} with a {:?} budget per point (fences: {}, rmw: {}, jobs: {}{})",
        cfg.min_bound,
        cfg.max_bound,
        cfg.budget,
        cfg.allow_fences,
        cfg.allow_rmw,
        cfg.jobs,
        match &cfg.cache {
            Some(dir) => format!(
                ", cache: {}{}",
                dir.display(),
                match &cfg.cache_url {
                    Some(url) => format!(" + {url}"),
                    None => String::new(),
                }
            ),
            None => String::new(),
        }
    );
    let points = sweep(&mtm, &cfg);
    println!("{}", render_sweep(&points));

    let total: usize = {
        use std::collections::BTreeMap;
        let mut best: BTreeMap<&str, usize> = BTreeMap::new();
        for p in &points {
            if !p.timed_out {
                let e = best.entry(p.axiom.as_str()).or_insert(0);
                *e = (*e).max(p.elts);
            }
        }
        best.values().sum()
    };
    println!("total ELTs across per-axiom suites (largest completed bound each): {total}");
}
