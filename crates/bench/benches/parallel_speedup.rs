//! Parallel synthesis speedup: wall-clock for the `transform-par`
//! orchestrator at jobs ∈ {1, 2, 8}, at a fixed bound, on both backends.
//!
//! Besides the per-point measurements, the run prints a one-line speedup
//! summary (jobs=1 time over jobs=8 time). On a single-core host the
//! ratio hovers around 1.0 — the orchestrator's overhead — and grows
//! toward the core count on real hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;
use transform_par::synthesize;
use transform_synth::{Backend, SynthOptions};
use transform_x86::x86t_elt;

const BOUND: usize = 5;
const AXIOM: &str = "sc_per_loc";

fn opts(backend: Backend) -> SynthOptions {
    let mut o = SynthOptions::new(BOUND);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o.backend = backend;
    o
}

fn bench_jobs_sweep(c: &mut Criterion) {
    let mtm = x86t_elt();
    let mut group = c.benchmark_group("parallel_speedup/jobs");
    group.sample_size(10);
    for backend in [Backend::Explicit, Backend::Relational] {
        for jobs in [1usize, 2, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("{backend:?}"), jobs),
                &jobs,
                |b, &jobs| {
                    let o = opts(backend);
                    b.iter(|| synthesize(&mtm, &[AXIOM], &o, jobs, None))
                },
            );
        }
    }
    group.finish();
}

fn speedup_summary(_c: &mut Criterion) {
    let mtm = x86t_elt();
    let o = opts(Backend::Explicit);
    let time = |jobs: usize| {
        let start = Instant::now();
        let suite = synthesize(&mtm, &[AXIOM], &o, jobs, None).remove(0);
        (start.elapsed(), suite.elts.len())
    };
    let (t1, n1) = time(1);
    let (t8, n8) = time(8);
    assert_eq!(n1, n8, "the jobs=8 suite diverged from jobs=1");
    println!(
        "parallel_speedup summary: `{AXIOM}` @ bound {BOUND}: jobs=1 {t1:?}, jobs=8 {t8:?} \
         => {:.2}x on {} core(s)",
        t1.as_secs_f64() / t8.as_secs_f64().max(f64::EPSILON),
        transform_par::default_jobs(),
    );
}

criterion_group!(benches, bench_jobs_sweep, speedup_summary);
criterion_main!(benches);
