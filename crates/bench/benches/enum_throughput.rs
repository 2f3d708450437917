//! Enumeration throughput and what the fused parallel pipeline buys
//! over the sequential engine (`transform_synth::engine`), the
//! reference every parallel run reproduces.
//!
//! Measured per configuration:
//!
//! * programs/second of the sequential `programs()` enumeration vs the
//!   partition-streamed `EnumSpace::stream()` (same sequence, proven by
//!   count);
//! * wall-clock of the sequential engine (`synthesize_suite`) vs the
//!   fused streaming pipeline on the pool, same suite;
//! * peak live candidates: the sequential engine materializes the whole
//!   enumeration at once, the streamed pipeline holds at most a few
//!   partitions (`StreamMetrics::peak_live_candidates`).
//!
//! * fused cross-axiom synthesis at bound 6: the sequential
//!   `synthesize_all` vs the fused all-axiom stream
//!   (`transform_par::synthesize`), same per-axiom suites;
//! * examination on one thread: the bound-6 and bound-7 plans examined
//!   by five one-axiom `Examiner`s (one candidate walk per axiom) vs one
//!   all-axiom `Examiner` (one walk per program), median and min/max of
//!   five alternating rounds, with equal per-axiom counters asserted —
//!   the `examine` section;
//! * progress-instrumentation overhead: the fused run with a subscribed
//!   journaling `ProgressState` (published counters, span-event journal
//!   recording, plus a polling sampler thread at the coalesced 100 ms
//!   cadence `--progress` actually samples at) vs the unobserved fused
//!   run, medians of fifteen alternating rounds each (the fused
//!   timings of the point are those medians too), recorded as
//!   `progress_overhead_pct` per point, next to the
//!   observed run's `journal_events` (one enumerated/retired pair per
//!   enumeration task plus one event per batch, so the count follows
//!   the work, not the number of root partitions). Acceptance bar: ≤ 5%
//!   even at the short bound-5 point, where a hot-polling sampler used
//!   to steal a visible slice of a two-core budget.
//!
//! * fleet wire tax: the all-axiom bound-5 run driven through a
//!   loopback coordinator by two leasing workers (`JobSpec` →
//!   `POST /v1/lease` → `execute_lease` → `PUT /v1/shard` → ordinal
//!   merge) vs the same fused run in-process, recorded as the `fleet`
//!   section — the per-job overhead a real multi-machine fleet
//!   amortizes across hosts.
//!
//! Besides the per-point measurements, the run writes the numbers to
//! `BENCH_enum.json` at the workspace root so the perf trajectory is
//! tracked across PRs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transform_core::axiom::Mtm;
use transform_par::{
    default_jobs, synthesize, synthesize_streamed, ProgressState, StreamMetrics, SuiteSink,
};
use transform_store::{execute_lease, read_suite, suite_fingerprint, HttpTier, JobSpec, Store};
use transform_synth::programs::EnumSpace;
use transform_synth::{plan_suite, Examiner, ShardStats, SuiteRecord, SynthOptions};
use transform_x86::x86t_elt;

const AXIOM: &str = "sc_per_loc";

fn opts(bound: usize) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.enumeration.allow_fences = true;
    o.enumeration.allow_rmw = true;
    o
}

fn jobs() -> usize {
    default_jobs().max(2)
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enum_throughput");
    group.sample_size(10);
    let o = opts(5);
    group.bench_function("sequential/bound5", |b| {
        b.iter(|| transform_synth::programs::programs(&o.enumeration).len())
    });
    group.bench_function("streamed/bound5", |b| {
        b.iter(|| EnumSpace::new(&o.enumeration).stream().count())
    });
    group.finish();
}

/// A collecting sink, deliberately implemented against the public
/// [`SuiteSink`] trait (the same API the store streams through) rather
/// than any internal collector, so the bench measures the external
/// contract.
struct Collect(Mutex<Vec<SuiteRecord>>);

impl SuiteSink for Collect {
    fn shard_done(&self, _stats: ShardStats, records: Vec<SuiteRecord>) {
        self.0.lock().expect("collect lock").extend(records);
    }
}

struct Point {
    bound: usize,
    programs: usize,
    elts: usize,
    enum_sequential: Duration,
    enum_streamed: Duration,
    synth_sequential: Duration,
    /// Median of [`OVERHEAD_ROUNDS`] unobserved fused runs.
    synth_fused: Duration,
    /// Median of [`OVERHEAD_ROUNDS`] observed fused runs.
    synth_observed: Duration,
    /// Events the observed run journaled.
    journal_events: usize,
    peak_live_sequential: usize,
    metrics: StreamMetrics,
}

/// Alternating rounds of the unobserved and the observed fused run per
/// point. One run is about 10 ms at bound 5, where a single pair moved
/// the ratio by ±30%, so the progress overhead is the ratio of the two
/// medians.
const OVERHEAD_ROUNDS: usize = 15;

/// One fused run of [`AXIOM`].
struct FusedRun {
    elapsed: Duration,
    /// Suite members in plan order.
    records: Vec<SuiteRecord>,
    programs: usize,
    metrics: StreamMetrics,
    /// Events journaled (0 for an unobserved run).
    journal_events: usize,
}

/// Runs the fused pipeline once, unobserved or with a live observer
/// subscribed: publishing the progress atomics, recording the
/// span-event journal (the way any `--cache` run does), plus a sampling
/// thread polling snapshots at the 100 ms cadence the `--progress`
/// reporter coalesces to. The cadence matters on small runs: a 10 ms
/// hot poll used to charge ~27% to a half-second bound-5 point on a
/// two-core runner, all of it sampler-thread contention rather than
/// instrumentation cost. Like the reporter, the sampler waits on a
/// stop channel, so stopping it leaves no idle gap before the next
/// round.
fn fused_run(mtm: &Mtm, o: &SynthOptions, jobs: usize, observed: bool) -> FusedRun {
    let sink = Collect(Mutex::new(Vec::new()));
    let (elapsed, stats, metrics, journal_events) = if observed {
        let progress = Arc::new(ProgressState::with_journal(&[AXIOM]));
        let (stop, stopped) = channel::<()>();
        let sampler = {
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || loop {
                let _ = progress.snapshot();
                if !matches!(
                    stopped.recv_timeout(Duration::from_millis(100)),
                    Err(RecvTimeoutError::Timeout)
                ) {
                    break;
                }
            })
        };
        let start = Instant::now();
        let (stats, metrics) =
            synthesize_streamed(mtm, &[AXIOM], o, jobs, Some(&progress), None, &[&sink]);
        let elapsed = start.elapsed();
        drop(stop);
        sampler.join().expect("sampler joins");
        (elapsed, stats, metrics, progress.take_journal().len())
    } else {
        let start = Instant::now();
        let (stats, metrics) = synthesize_streamed(mtm, &[AXIOM], o, jobs, None, None, &[&sink]);
        (start.elapsed(), stats, metrics, 0)
    };
    let mut records = sink.0.into_inner().expect("collect lock");
    records.sort_by_key(|r| r.index);
    FusedRun {
        elapsed,
        records,
        programs: stats[0].programs,
        metrics,
        journal_events,
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn measure(bound: usize) -> Point {
    let mtm = x86t_elt();
    let o = opts(bound);
    let jobs = jobs();

    let start = Instant::now();
    let all_programs = transform_synth::programs::programs(&o.enumeration);
    let enum_sequential = start.elapsed();
    let peak_live_sequential = all_programs.len();

    let start = Instant::now();
    let streamed_count = EnumSpace::new(&o.enumeration).stream().count();
    let enum_streamed = start.elapsed();
    assert_eq!(
        peak_live_sequential, streamed_count,
        "stream diverged from the sequential enumeration"
    );

    let start = Instant::now();
    let sequential = transform_synth::synthesize_suite(&mtm, AXIOM, &o);
    let synth_sequential = start.elapsed();

    // The delta between the observed and the unobserved fused runs is
    // the instrumentation overhead (acceptance bar: ≤ 5% at bound 5,
    // < 2% at bound 6).
    let mut fused = Vec::new();
    let mut observed = Vec::new();
    let mut metrics = StreamMetrics::default();
    let mut journal_events = 0;
    for round in 0..OVERHEAD_ROUNDS {
        // Alternate which run goes first, so warm-up and host drift
        // favour neither.
        for observe in [round % 2 == 1, round % 2 == 0] {
            let run = fused_run(&mtm, &o, jobs, observe);
            assert_eq!(
                run.records.len(),
                sequential.elts.len(),
                "suite sizes diverge"
            );
            for (r, e) in run.records.iter().zip(&sequential.elts) {
                assert_eq!(
                    r.elt.program, e.program,
                    "fused suite diverged from sequential"
                );
            }
            assert_eq!(run.programs, sequential.stats.programs);
            if observe {
                // The overhead number must cover a *recording* run: the
                // journal has to have actually captured the run's span
                // events.
                assert!(
                    run.journal_events > run.metrics.batches,
                    "journal captured only {} events across {} batches",
                    run.journal_events,
                    run.metrics.batches
                );
                journal_events = run.journal_events;
                observed.push(run.elapsed);
            } else {
                metrics = run.metrics;
                fused.push(run.elapsed);
            }
        }
    }
    // The whole point: the pipeline never materializes the full
    // enumeration at once.
    if peak_live_sequential > 100 {
        assert!(
            metrics.peak_live_candidates < peak_live_sequential,
            "peak live {} should stay below the full enumeration {}",
            metrics.peak_live_candidates,
            peak_live_sequential
        );
    }

    Point {
        bound,
        programs: sequential.stats.programs,
        elts: sequential.elts.len(),
        enum_sequential,
        enum_streamed,
        synth_sequential,
        synth_fused: median(fused),
        synth_observed: median(observed),
        journal_events,
        peak_live_sequential,
        metrics,
    }
}

fn json_point(p: &Point) -> String {
    format!(
        concat!(
            "{{\"bound\": {}, \"fences\": true, \"rmw\": true, ",
            "\"programs\": {}, \"elts\": {}, ",
            "\"enum_sequential_secs\": {:.6}, \"enum_streamed_secs\": {:.6}, ",
            "\"enum_sequential_programs_per_sec\": {:.1}, ",
            "\"enum_streamed_programs_per_sec\": {:.1}, ",
            "\"synth_sequential_secs\": {:.6}, \"synth_fused_secs\": {:.6}, ",
            "\"fused_speedup\": {:.3}, ",
            "\"synth_observed_secs\": {:.6}, \"progress_overhead_pct\": {:.2}, ",
            "\"overhead_rounds\": {}, \"journal_events\": {}, ",
            "\"peak_live_sequential\": {}, \"peak_live_streamed\": {}, ",
            "\"partitions\": {}, \"batches\": {}, \"final_batch_size\": {}}}"
        ),
        p.bound,
        p.programs,
        p.elts,
        p.enum_sequential.as_secs_f64(),
        p.enum_streamed.as_secs_f64(),
        p.programs as f64 / p.enum_sequential.as_secs_f64().max(f64::EPSILON),
        p.programs as f64 / p.enum_streamed.as_secs_f64().max(f64::EPSILON),
        p.synth_sequential.as_secs_f64(),
        p.synth_fused.as_secs_f64(),
        p.synth_sequential.as_secs_f64() / p.synth_fused.as_secs_f64().max(f64::EPSILON),
        p.synth_observed.as_secs_f64(),
        (p.synth_observed.as_secs_f64() / p.synth_fused.as_secs_f64().max(f64::EPSILON) - 1.0)
            * 100.0,
        OVERHEAD_ROUNDS,
        p.journal_events,
        p.peak_live_sequential,
        p.metrics.peak_live_candidates,
        p.metrics.partitions,
        p.metrics.batches,
        p.metrics.final_batch_size,
    )
}

/// The fused cross-axiom run vs the sequential engine: every axiom of
/// x86t_elt, same suites both ways.
struct AllAxiomsPoint {
    bound: usize,
    axioms: usize,
    elts_total: usize,
    sequential_secs: f64,
    fused_secs: f64,
}

fn measure_all_axioms(bound: usize) -> AllAxiomsPoint {
    let mtm = x86t_elt();
    let o = opts(bound);
    let jobs = jobs();

    let start = Instant::now();
    let sequential = transform_synth::synthesize_all(&mtm, &o);
    let sequential_secs = start.elapsed().as_secs_f64();

    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let start = Instant::now();
    let fused = synthesize(&mtm, &axioms, &o, jobs, None);
    let fused_secs = start.elapsed().as_secs_f64();

    assert_eq!(sequential.len(), fused.len());
    for b in &fused {
        let axiom = &b.axiom;
        let a = &sequential[axiom];
        assert_eq!(
            a.elts.len(),
            b.elts.len(),
            "{axiom}: fused all-axiom run diverged from the sequential engine"
        );
        for (x, y) in a.elts.iter().zip(&b.elts) {
            assert_eq!(x.program, y.program, "{axiom}");
        }
    }
    AllAxiomsPoint {
        bound,
        axioms: fused.len(),
        elts_total: fused.iter().map(|s| s.elts.len()).sum(),
        sequential_secs,
        fused_secs,
    }
}

/// Rounds of the one-thread examination comparison.
const EXAMINE_ROUNDS: usize = 5;

/// One plan examined on one thread, per axiom and shared.
struct ExaminePoint {
    bound: usize,
    axioms: usize,
    items: usize,
    /// Seconds per round: one one-axiom examiner per axiom, in turn.
    per_axiom: Vec<f64>,
    /// Seconds per round: one all-axiom examiner.
    shared: Vec<f64>,
    /// Per-axiom counters, identical both ways.
    stats: Vec<ShardStats>,
}

/// (median, min, max) of `xs`.
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        sorted[sorted.len() / 2],
        sorted[0],
        sorted[sorted.len() - 1],
    )
}

fn measure_examine(bound: usize) -> ExaminePoint {
    let mtm = x86t_elt();
    let o = opts(bound);
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let plan = plan_suite(&mtm, axioms[0], &o, None);
    let mut per_axiom = Vec::new();
    let mut shared = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..EXAMINE_ROUNDS {
        let start = Instant::now();
        let mut single = vec![ShardStats::new(0); axioms.len()];
        for (axiom, stats) in axioms.iter().zip(&mut single) {
            let mut examiner = Examiner::new(&mtm, axiom, o.backend, plan.branch_co_pa);
            for item in &plan.items {
                stats.absorb(&examiner.examine(&item.program));
            }
        }
        per_axiom.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut all = vec![ShardStats::new(0); axioms.len()];
        let mut examiner = Examiner::for_axioms(&mtm, &axioms, o.backend, plan.branch_co_pa);
        for item in &plan.items {
            for (stats, examined) in all.iter_mut().zip(examiner.examine_axioms(&item.program)) {
                stats.absorb(&examined);
            }
        }
        shared.push(start.elapsed().as_secs_f64());
        assert_eq!(
            single, all,
            "bound {bound}: the shared examiner's counters diverge"
        );
        stats = all;
    }
    ExaminePoint {
        bound,
        axioms: axioms.len(),
        items: plan.items.len(),
        per_axiom,
        shared,
        stats,
    }
}

fn json_examine(p: &ExaminePoint) -> String {
    let (pm, plo, phi) = spread(&p.per_axiom);
    let (sm, slo, shi) = spread(&p.shared);
    format!(
        concat!(
            "{{\"bound\": {}, \"fences\": true, \"rmw\": true, \"axioms\": {}, ",
            "\"items\": {}, \"rounds\": {}, \"threads\": 1, ",
            "\"per_axiom_median_secs\": {:.6}, \"per_axiom_min_secs\": {:.6}, ",
            "\"per_axiom_max_secs\": {:.6}, \"shared_median_secs\": {:.6}, ",
            "\"shared_min_secs\": {:.6}, \"shared_max_secs\": {:.6}, ",
            "\"shared_speedup\": {:.3}, \"executions\": {}, \"forbidden\": {}, ",
            "\"elts\": {}}}"
        ),
        p.bound,
        p.axioms,
        p.items,
        p.per_axiom.len(),
        pm,
        plo,
        phi,
        sm,
        slo,
        shi,
        pm / sm.max(f64::EPSILON),
        p.stats.iter().map(|s| s.executions).sum::<usize>(),
        p.stats.iter().map(|s| s.forbidden).sum::<usize>(),
        p.stats.iter().map(|s| s.minimal).sum::<usize>(),
    )
}

/// The distributed headline: an all-axiom run driven through a loopback
/// coordinator by two leasing workers vs the same fused run in-process.
/// The fleet pays the HTTP round-trips, shard encode/upload, and the
/// coordinator's ordinal merge; the suites must come out identical
/// program-for-program, and the wall-clock ratio is the wire tax a real
/// multi-machine fleet amortizes across hosts.
struct FleetPoint {
    bound: usize,
    workers: usize,
    ranges: usize,
    axioms: usize,
    elts_total: usize,
    local_secs: f64,
    fleet_secs: f64,
}

fn measure_fleet(bound: usize, workers: usize) -> FleetPoint {
    use transform_serve::{ServeOptions, Server};
    let mtm = x86t_elt();
    let o = opts(bound);
    let jobs = jobs();
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();

    let start = Instant::now();
    let local = synthesize(&mtm, &axioms, &o, jobs, None);
    let local_secs = start.elapsed().as_secs_f64();

    let root = std::env::temp_dir().join(format!(
        "transform-bench-fleet-{}-{bound}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    let server = Server::bind(&root, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    let url = format!("http://{}", server.local_addr());
    let handle = server.spawn();

    let spec = JobSpec::for_run(&mtm, &axioms, &o, jobs as u32, workers * 2, 60_000);
    let ranges = spec.ranges.len();
    let start = Instant::now();
    let client = HttpTier::new(&url).expect("valid URL");
    let job = client.create_job(&spec.encode()).expect("job accepted");
    let crews: Vec<_> = (0..workers)
        .map(|_| {
            let url = url.clone();
            std::thread::spawn(move || {
                let client = HttpTier::new(&url).expect("valid URL");
                while let Some(grant) = client.lease("bench-worker").expect("lease call") {
                    let bytes = execute_lease(&grant, jobs).expect("range runs").encode();
                    client
                        .put_shard(grant.job, grant.lo, grant.hi, &bytes)
                        .expect("upload");
                }
            })
        })
        .collect();
    for crew in crews {
        crew.join().expect("worker joins");
    }
    let status = client.job_status(job).expect("status").expect("known");
    assert!(status.complete, "the drained fleet sealed the job");
    let fleet_secs = start.elapsed().as_secs_f64();
    handle.shutdown();

    let store = Store::open(&root).expect("opens");
    let mut elts_total = 0usize;
    for (axiom, reference) in axioms.iter().zip(&local) {
        let fp = suite_fingerprint(&mtm, axiom, &o);
        let sealed = read_suite(store.open_suite(fp).expect("sealed")).expect("reads");
        assert_eq!(sealed.elts.len(), reference.elts.len(), "{axiom}");
        for (a, b) in sealed.elts.iter().zip(&reference.elts) {
            assert_eq!(a.program, b.program, "{axiom}: fleet diverged from local");
        }
        elts_total += sealed.elts.len();
    }
    std::fs::remove_dir_all(&root).ok();
    FleetPoint {
        bound,
        workers,
        ranges,
        axioms: axioms.len(),
        elts_total,
        local_secs,
        fleet_secs,
    }
}

fn throughput_summary(_c: &mut Criterion) {
    let points: Vec<Point> = [5usize, 6].iter().map(|&b| measure(b)).collect();
    for p in &points {
        println!(
            "enum_throughput summary: `{AXIOM}` @ bound {} --fences --rmw on {} workers: \
             enum sequential {:?} vs streamed {:?}; synth sequential {:?} vs fused {:?} \
             ({:.2}x); observed fused {:?} ({:+.2}% progress overhead, {} journal events); \
             peak live {} -> {} (of {} programs, {} partitions, {} batches)",
            p.bound,
            jobs(),
            p.enum_sequential,
            p.enum_streamed,
            p.synth_sequential,
            p.synth_fused,
            p.synth_sequential.as_secs_f64() / p.synth_fused.as_secs_f64().max(f64::EPSILON),
            p.synth_observed,
            (p.synth_observed.as_secs_f64() / p.synth_fused.as_secs_f64().max(f64::EPSILON) - 1.0)
                * 100.0,
            p.journal_events,
            p.peak_live_sequential,
            p.metrics.peak_live_candidates,
            p.programs,
            p.metrics.partitions,
            p.metrics.batches,
        );
    }
    let examine: Vec<ExaminePoint> = [6usize, 7].iter().map(|&b| measure_examine(b)).collect();
    for p in &examine {
        let (pm, plo, phi) = spread(&p.per_axiom);
        let (sm, slo, shi) = spread(&p.shared);
        println!(
            "enum_throughput examine: {} axioms @ bound {} --fences --rmw, {} plan items on one \
             thread, {} rounds: per-axiom examiners {pm:.3}s [{plo:.3}, {phi:.3}] vs one shared \
             examiner {sm:.3}s [{slo:.3}, {shi:.3}] ({:.2}x), counters identical",
            p.axioms,
            p.bound,
            p.items,
            p.per_axiom.len(),
            pm / sm.max(f64::EPSILON),
        );
    }
    let all = measure_all_axioms(6);
    println!(
        "enum_throughput all-axioms: {} axioms @ bound {} --fences --rmw on {} workers: \
         sequential {:.3}s vs fused {:.3}s ({:.2}x), {} ELTs total",
        all.axioms,
        all.bound,
        jobs(),
        all.sequential_secs,
        all.fused_secs,
        all.sequential_secs / all.fused_secs.max(f64::EPSILON),
        all.elts_total,
    );
    let fleet = measure_fleet(5, 2);
    println!(
        "enum_throughput fleet: {} axioms @ bound {} --fences --rmw, {} loopback workers \
         over {} leased ranges: local fused {:.3}s vs fleet {:.3}s ({:.2}x wire tax), \
         {} ELTs total, merged suites identical",
        fleet.axioms,
        fleet.bound,
        fleet.workers,
        fleet.ranges,
        fleet.local_secs,
        fleet.fleet_secs,
        fleet.fleet_secs / fleet.local_secs.max(f64::EPSILON),
        fleet.elts_total,
    );

    let body = points
        .iter()
        .map(json_point)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let all_body = format!(
        concat!(
            "{{\"bound\": {}, \"fences\": true, \"rmw\": true, \"axioms\": {}, ",
            "\"elts_total\": {}, \"synth_all_sequential_secs\": {:.6}, ",
            "\"synth_all_fused_secs\": {:.6}, \"fused_speedup\": {:.3}}}"
        ),
        all.bound,
        all.axioms,
        all.elts_total,
        all.sequential_secs,
        all.fused_secs,
        all.sequential_secs / all.fused_secs.max(f64::EPSILON),
    );
    let fleet_body = format!(
        concat!(
            "{{\"bound\": {}, \"fences\": true, \"rmw\": true, \"workers\": {}, ",
            "\"ranges\": {}, \"axioms\": {}, \"elts_total\": {}, ",
            "\"local_secs\": {:.6}, \"fleet_secs\": {:.6}, \"fleet_vs_local\": {:.3}}}"
        ),
        fleet.bound,
        fleet.workers,
        fleet.ranges,
        fleet.axioms,
        fleet.elts_total,
        fleet.local_secs,
        fleet.fleet_secs,
        fleet.fleet_secs / fleet.local_secs.max(f64::EPSILON),
    );
    let examine_body = examine
        .iter()
        .map(json_examine)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"enum_throughput\",\n  \"axiom\": \"{AXIOM}\",\n  \
         \"jobs\": {},\n  \"points\": [\n    {}\n  ],\n  \
         \"examine\": [\n    {}\n  ],\n  \
         \"all_axioms\": {},\n  \"fleet\": {}\n}}\n",
        jobs(),
        body,
        examine_body,
        all_body,
        fleet_body,
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_enum.json");
    std::fs::write(&path, json).expect("BENCH_enum.json is writable");
    println!("enum_throughput: wrote {}", path.display());
}

criterion_group!(benches, bench_enumeration, throughput_summary);
criterion_main!(benches);
