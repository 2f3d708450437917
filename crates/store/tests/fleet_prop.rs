//! Fleet merge determinism under fault injection.
//!
//! The property the coordinator's ordinal merge must hold: for any
//! range tiling and worker thread count — with shards
//! uploaded out of order, uploaded twice, or recomputed after a lease
//! expired — the merged suites carry exactly the records and lossless
//! counters of a single-machine fused run of the same plan, and seal
//! the same bytes as that run's store entries.

use proptest::prelude::*;
use std::time::Duration;
use transform_par::SuiteSink;
use transform_store::fleet::StageOutcome;
use transform_store::{
    execute_lease, merge_fleet_job, read_suite, suite_fingerprint, EntryMeta, JobSpec, LeaseGrant,
    PendingSuite, Store,
};
use transform_synth::SynthOptions;
use transform_x86::x86t_elt;

fn temp_store(tag: &str, case: u64) -> (std::path::PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("tffleetprop-{tag}-{case}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("store opens");
    (dir, store)
}

proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    // Satellite acceptance: kill-a-worker (recompute a granted range
    // under a fresh lease), duplicate uploads, and arbitrary staging
    // order never change the sealed bytes.
    #[test]
    fn faulty_fleets_seal_the_single_machine_suite(
        plan_jobs in 1u32..=3,
        chunks in 1usize..=4,
        duplicate in any::<bool>(),
        reverse in any::<bool>(),
        case in 0u64..1_000_000,
    ) {
        let mtm = x86t_elt();
        let axioms: Vec<&str> = mtm
            .axioms()
            .iter()
            .take(2)
            .map(|a| a.name.as_str())
            .collect();
        let mut o = SynthOptions::new(4);
        o.enumeration.allow_fences = false;
        o.enumeration.allow_rmw = false;

        let spec = JobSpec::for_run(&mtm, &axioms, &o, plan_jobs, chunks, 60_000);
        prop_assert!(spec.validate().is_ok());
        let job = spec.id();
        let (dir, store) = temp_store("merge", case);

        // "Workers": compute every range from its grant. The first
        // range is computed twice under different lease ids — the
        // expired-lease reassignment path, where the original worker
        // died and a second one redid the work.
        let mut order: Vec<usize> = (0..spec.ranges.len()).collect();
        if reverse {
            order.reverse();
        }
        for &i in &order {
            let (lo, hi) = spec.ranges[i];
            let grant = LeaseGrant {
                lease: i as u64 + 1,
                job,
                lo,
                hi,
                ttl_ms: spec.lease_ttl_ms,
                spec: spec.clone(),
            };
            let bytes = execute_lease(&grant, 2).expect("range runs").encode();
            if i == 0 {
                let retry = LeaseGrant { lease: 900, ..grant.clone() };
                let redone = execute_lease(&retry, 1).expect("rerun").encode();
                prop_assert_eq!(
                    &redone, &bytes,
                    "a reassigned range recomputes identical bytes at any jobs"
                );
            }
            prop_assert_eq!(
                store.stage_shard(job, lo, hi, &bytes).expect("stages"),
                StageOutcome::New
            );
            if duplicate {
                prop_assert_eq!(
                    store.stage_shard(job, lo, hi, &bytes).expect("re-stages"),
                    StageOutcome::Duplicate
                );
            }
        }

        let sealed = merge_fleet_job(&store, &spec, Duration::ZERO).expect("merges");
        prop_assert_eq!(sealed.len(), axioms.len());
        for (axiom, fp) in axioms.iter().zip(&sealed) {
            let suite = read_suite(store.open_suite(*fp).expect("sealed")).expect("reads");
            let reference =
                transform_par::synthesize(&mtm, &[axiom], &o, plan_jobs as usize, None).remove(0);
            prop_assert_eq!(suite.elts.len(), reference.elts.len());
            for (a, b) in suite.elts.iter().zip(&reference.elts) {
                prop_assert_eq!(&a.program, &b.program);
                prop_assert_eq!(&a.witness, &b.witness);
                prop_assert_eq!(&a.violated, &b.violated);
            }
            prop_assert_eq!(suite.stats.programs, reference.stats.programs);
            prop_assert_eq!(suite.stats.executions, reference.stats.executions);
            prop_assert_eq!(suite.stats.forbidden, reference.stats.forbidden);
            prop_assert_eq!(suite.stats.minimal, reference.stats.minimal);
        }
        // The merge seals suites and nothing else beside them.
        prop_assert!(store.legacy_files().expect("lists").is_empty());

        // A single-machine cached run of the same axioms, sealed with the
        // merge's zero `elapsed`, writes the fleet's entries byte for byte.
        let (local_dir, local) = temp_store("local", case);
        let pending: Vec<PendingSuite> = axioms
            .iter()
            .map(|axiom| {
                let fp = suite_fingerprint(&mtm, axiom, &o);
                local.begin(fp, EntryMeta::describe(&mtm, axiom, &o)).expect("begins")
            })
            .collect();
        let sinks: Vec<&dyn SuiteSink> = pending.iter().map(|p| p as &dyn SuiteSink).collect();
        let (stats, _) = transform_par::synthesize_streamed(
            &mtm, &axioms, &o, plan_jobs as usize, None, &sinks,
        );
        for ((pending, mut stats), &fp) in pending.into_iter().zip(stats).zip(&sealed) {
            stats.elapsed = Duration::ZERO;
            prop_assert_eq!(pending.seal(&stats).expect("seals"), fp);
            let fleet_bytes = store.entry_bytes(fp).expect("reads").expect("sealed");
            let local_bytes = local.entry_bytes(fp).expect("reads").expect("sealed");
            prop_assert!(fleet_bytes == local_bytes, "fleet and local entries differ");
        }

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&local_dir).ok();
    }
}
