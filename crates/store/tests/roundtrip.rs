//! Codec and store round-trips: every synthesized suite at bound ≤ 4,
//! on both candidate-execution backends, survives the binary codec and
//! the sealed store byte-identically — both as structures and as
//! `print_elt`/`parse_elt` text.

use transform_core::axiom::Mtm;
use transform_litmus::format::{parse_elt, print_elt};
use transform_store::codec::{decode_record, encode_record};
use transform_store::{suite_fingerprint, CacheStatus, Store, StoreError, TieredCache};
use transform_synth::{synthesize_suite, Backend, Suite, SuiteRecord, SynthOptions};
use transform_x86::x86t_elt;

fn opts(bound: usize, backend: Backend) -> SynthOptions {
    let mut o = SynthOptions::new(bound);
    o.backend = backend;
    o
}

fn temp_cache(tag: &str) -> (TieredCache, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tfs-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    (
        TieredCache::new(Store::open(&dir).expect("store opens")),
        dir,
    )
}

/// One axiom through the local-only cache.
fn cached(
    cache: &TieredCache,
    mtm: &Mtm,
    axiom: &str,
    o: &SynthOptions,
    jobs: usize,
) -> Result<(Suite, CacheStatus), StoreError> {
    Ok(cache
        .cached_or_synthesize(mtm, &[axiom], o, jobs, None)?
        .remove(0))
}

/// Renders a whole suite exactly as `transform synthesize` prints it.
fn render(suite: &Suite) -> String {
    let mut out = String::new();
    for (i, elt) in suite.elts.iter().enumerate() {
        out.push_str(&print_elt(&format!("{}_{i}", suite.axiom), &elt.witness));
        out.push('\n');
    }
    out
}

#[test]
fn every_bound_4_suite_round_trips_byte_identically_on_both_backends() {
    let mtm = x86t_elt();
    let mut checked = 0usize;
    for backend in [Backend::Explicit, Backend::Relational] {
        for bound in [3, 4] {
            // Fences and RMW pairs stay enabled (the EnumOptions
            // default): the full bound-4 program space.
            let o = opts(bound, backend);
            for ax in mtm.axioms() {
                let suite = synthesize_suite(&mtm, &ax.name, &o);
                for (i, elt) in suite.elts.iter().enumerate() {
                    let record = SuiteRecord {
                        index: i,
                        elt: elt.clone(),
                    };
                    // Binary: decode(encode(r)) is structurally equal, so
                    // re-encoding is byte-identical.
                    let bytes = encode_record(&record);
                    let decoded = decode_record(&bytes)
                        .unwrap_or_else(|e| panic!("{}[{i}] {backend:?}: {e}", ax.name));
                    assert_eq!(decoded, record, "{}[{i}] {backend:?}", ax.name);
                    assert_eq!(encode_record(&decoded), bytes);

                    // Text: the decoded witness prints byte-identically,
                    // and the text parses back to the same execution.
                    let name = format!("{}_{i}", ax.name);
                    let printed = print_elt(&name, &elt.witness);
                    assert_eq!(print_elt(&name, &decoded.elt.witness), printed);
                    let (parsed_name, parsed) = parse_elt(&printed)
                        .unwrap_or_else(|e| panic!("{name} {backend:?}: {e}\n{printed}"));
                    assert_eq!(parsed_name, name);
                    assert_eq!(parsed, elt.witness, "{name} {backend:?}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 20, "only {checked} members checked");
}

#[test]
fn warm_cache_reads_are_byte_identical_to_cold_runs() {
    let mtm = x86t_elt();
    let (cache, dir) = temp_cache("warmcold");
    for backend in [Backend::Explicit, Backend::Relational] {
        let o = opts(4, backend);
        for axiom in ["sc_per_loc", "invlpg"] {
            let (cold, cold_status) = cached(&cache, &mtm, axiom, &o, 4).expect("cold run");
            assert!(!cold_status.is_hit(), "{axiom} {backend:?}");
            let (warm, warm_status) = cached(&cache, &mtm, axiom, &o, 4).expect("warm run");
            assert!(warm_status.is_hit(), "{axiom} {backend:?}");

            // The rendered suites — what the CLI prints — are identical
            // bytes, and so are the preserved statistics.
            assert_eq!(render(&cold), render(&warm), "{axiom} {backend:?}");
            assert_eq!(cold.stats.programs, warm.stats.programs);
            assert_eq!(cold.stats.executions, warm.stats.executions);
            assert_eq!(cold.stats.forbidden, warm.stats.forbidden);
            assert_eq!(cold.stats.minimal, warm.stats.minimal);
            assert_eq!(cold.stats.elapsed, warm.stats.elapsed);
            assert_eq!(cold.stats.shards, warm.stats.shards);

            // And both equal the uncached engine's suite.
            let direct = synthesize_suite(&mtm, axiom, &o);
            assert_eq!(render(&direct), render(&warm), "{axiom} {backend:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_reader_iterates_without_materializing() {
    let mtm = x86t_elt();
    let (cache, dir) = temp_cache("stream");
    let store = cache.local();
    let o = opts(4, Backend::Explicit);
    let (suite, _) = cached(&cache, &mtm, "sc_per_loc", &o, 2).expect("seeds");
    let fp = suite_fingerprint(&mtm, "sc_per_loc", &o);

    let mut reader = store.open_suite(fp).expect("opens");
    assert_eq!(reader.meta().axiom, "sc_per_loc");
    assert_eq!(reader.meta().bound, 4);
    assert_eq!(reader.record_count() as usize, suite.elts.len());
    assert_eq!(reader.stats().programs, suite.stats.programs);
    let mut seen = 0usize;
    for (record, elt) in reader.by_ref().zip(&suite.elts) {
        let record = record.expect("validates");
        assert_eq!(&record.elt, elt);
        seen += 1;
    }
    assert_eq!(seen, suite.elts.len());
    assert_eq!(store.entries().expect("lists"), vec![fp]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distinct_options_get_distinct_entries() {
    let mtm = x86t_elt();
    let (cache, dir) = temp_cache("distinct");
    let store = cache.local();
    let base = opts(4, Backend::Explicit);
    let mut no_fences = base.clone();
    no_fences.enumeration.allow_fences = false;
    no_fences.enumeration.allow_rmw = false;
    cached(&cache, &mtm, "sc_per_loc", &base, 2).expect("runs");
    cached(&cache, &mtm, "sc_per_loc", &no_fences, 2).expect("runs");
    cached(&cache, &mtm, "invlpg", &no_fences, 2).expect("runs");
    assert_eq!(store.entries().expect("lists").len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timed_out_runs_are_returned_but_never_sealed() {
    let mtm = x86t_elt();
    let (cache, dir) = temp_cache("timeout");
    let store = cache.local();
    let mut o = opts(6, Backend::Explicit);
    o.timeout = Some(std::time::Duration::ZERO);
    let (suite, status) = cached(&cache, &mtm, "sc_per_loc", &o, 2).expect("runs");
    assert!(suite.stats.timed_out);
    assert!(matches!(
        status,
        transform_store::CacheStatus::Uncached { .. }
    ));
    assert!(store.entries().expect("lists").is_empty(), "nothing sealed");
    // No temp litter either: pending directories are cleaned up.
    let leftovers: Vec<_> = std::fs::read_dir(store.root()).expect("readable").collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}
