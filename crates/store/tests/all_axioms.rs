//! The fused all-axiom cache path: one pass serves every per-axiom
//! suite — tier hits from sealed entries, misses through a single
//! fused synthesis run that examines each program once for every
//! missing axiom and seals every suite when it finishes — and the
//! result is indistinguishable from per-axiom lookups.

use std::collections::BTreeMap;
use transform_core::axiom::Mtm;
use transform_store::{suite_fingerprint, CacheStatus, Store, StoreError, TieredCache};
use transform_synth::{Suite, SynthOptions};
use transform_x86::x86t_elt;

fn opts() -> SynthOptions {
    let mut o = SynthOptions::new(4);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

fn temp_cache(tag: &str) -> (std::path::PathBuf, TieredCache) {
    let dir = std::env::temp_dir().join(format!("tfs-all-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("store opens");
    (dir, TieredCache::new(store))
}

/// Every axiom of `mtm` through one cached request, keyed by axiom.
fn cached_all(
    cache: &TieredCache,
    mtm: &Mtm,
    o: &SynthOptions,
) -> Result<BTreeMap<String, (Suite, CacheStatus)>, StoreError> {
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    let served = cache.cached_or_synthesize(mtm, &axioms, o, 2, None)?;
    Ok(served
        .into_iter()
        .map(|(suite, status)| (suite.axiom.clone(), (suite, status)))
        .collect())
}

/// One axiom's suite straight from the engine on two workers.
fn solo(mtm: &Mtm, axiom: &str, o: &SynthOptions) -> Suite {
    transform_par::synthesize(mtm, &[axiom], o, 2, None).remove(0)
}

fn assert_same_suite(a: &Suite, b: &Suite, axiom: &str) {
    assert_eq!(a.elts.len(), b.elts.len(), "{axiom}");
    for (x, y) in a.elts.iter().zip(&b.elts) {
        assert_eq!(x.program, y.program, "{axiom}");
        assert_eq!(x.witness, y.witness, "{axiom}");
        assert_eq!(x.violated, y.violated, "{axiom}");
    }
    assert_eq!(a.stats.programs, b.stats.programs, "{axiom}");
    assert_eq!(a.stats.executions, b.stats.executions, "{axiom}");
    assert_eq!(a.stats.forbidden, b.stats.forbidden, "{axiom}");
    assert_eq!(a.stats.minimal, b.stats.minimal, "{axiom}");
}

#[test]
fn cold_all_seals_every_axiom_and_warm_all_hits() {
    let mtm = x86t_elt();
    let (dir, cache) = temp_cache("cold-warm");
    let store = cache.local();
    let o = opts();

    let cold = cached_all(&cache, &mtm, &o).expect("cold all");
    assert_eq!(cold.len(), mtm.axioms().len());
    for (axiom, (suite, status)) in &cold {
        assert_eq!(status, &CacheStatus::Miss, "{axiom}");
        // Sealed from inside the fused pool: the entry exists now.
        assert!(
            store.contains(suite_fingerprint(&mtm, axiom, &o)),
            "{axiom}"
        );
        // And matches the per-axiom engine.
        assert_same_suite(suite, &solo(&mtm, axiom, &o), axiom);
    }

    let warm = cached_all(&cache, &mtm, &o).expect("warm all");
    for (axiom, (suite, status)) in &warm {
        assert!(status.is_hit(), "{axiom}: {status:?}");
        assert_same_suite(suite, &cold[axiom].0, axiom);
        // A warm hit reproduces the cold run's stats byte for byte.
        assert_eq!(suite.stats.elapsed, cold[axiom].0.stats.elapsed, "{axiom}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_temperatures_serve_hits_and_synthesize_only_misses() {
    let mtm = x86t_elt();
    let (dir, cache) = temp_cache("mixed");
    let store = cache.local();
    let o = opts();

    // Seed exactly one axiom through a one-axiom request.
    let (seeded, status) = cache
        .cached_or_synthesize(&mtm, &["invlpg"], &o, 2, None)
        .expect("seeds invlpg")
        .remove(0);
    assert_eq!(status, CacheStatus::Miss);

    let all = cached_all(&cache, &mtm, &o).expect("mixed all");
    for (axiom, (suite, status)) in &all {
        if axiom == "invlpg" {
            assert!(status.is_hit(), "{axiom}: {status:?}");
            assert_same_suite(suite, &seeded, axiom);
        } else {
            assert_eq!(status, &CacheStatus::Miss, "{axiom}");
            assert!(
                store.contains(suite_fingerprint(&mtm, axiom, &o)),
                "{axiom}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timed_out_all_run_is_returned_but_never_sealed() {
    let mtm = x86t_elt();
    let (dir, cache) = temp_cache("timeout");
    let store = cache.local();
    let mut o = opts();
    o.enumeration.bound = 6;
    o.timeout = Some(std::time::Duration::ZERO);

    let all = cached_all(&cache, &mtm, &o).expect("timed-out all");
    for (axiom, (suite, status)) in &all {
        assert!(
            matches!(status, CacheStatus::Uncached { .. }),
            "{axiom}: {status:?}"
        );
        assert!(suite.stats.timed_out, "{axiom}");
        assert!(
            !store.contains(suite_fingerprint(&mtm, axiom, &o)),
            "{axiom}: partial suite must never be sealed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_entry_is_rebuilt_by_the_all_path() {
    let mtm = x86t_elt();
    let (dir, cache) = temp_cache("rebuild");
    let store = cache.local();
    let o = opts();
    cached_all(&cache, &mtm, &o).expect("cold all");

    // Damage one sealed entry behind the cache's back.
    let fp = suite_fingerprint(&mtm, "sc_per_loc", &o);
    let path = store.entry_path(fp);
    let mut bytes = std::fs::read(&path).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("writable");

    let all = cached_all(&cache, &mtm, &o).expect("rebuild all");
    let (suite, status) = &all["sc_per_loc"];
    assert!(
        matches!(status, CacheStatus::Rebuilt { .. }),
        "expected a rebuild, got {status:?}"
    );
    assert_same_suite(suite, &solo(&mtm, "sc_per_loc", &o), "sc_per_loc");
    // Everyone else stayed a clean hit.
    for (axiom, (_, status)) in &all {
        if axiom != "sc_per_loc" {
            assert!(status.is_hit(), "{axiom}: {status:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
