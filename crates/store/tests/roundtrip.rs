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
            assert_eq!(cold.stats.items, warm.stats.items);

            // And both equal the uncached engine's suite.
            let direct = synthesize_suite(&mtm, axiom, &o);
            assert_eq!(render(&direct), render(&warm), "{axiom} {backend:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    // Cold all-axiom runs seal the same entries at every worker count:
    // the same records and counters, in the same number of bytes. Only
    // `elapsed` is the run's own.
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    for bound in [5, 6] {
        let o = opts(bound, Backend::Explicit);
        let sealed: Vec<_> = [1, 2, 3]
            .into_iter()
            .map(|jobs| {
                let (cache, dir) = temp_cache(&format!("sched-b{bound}-j{jobs}"));
                cache
                    .cached_or_synthesize(&mtm, &axioms, &o, jobs, None)
                    .expect("cold run");
                let entries: Vec<_> = axioms
                    .iter()
                    .map(|axiom| {
                        let fp = suite_fingerprint(&mtm, axiom, &o);
                        let size = cache
                            .local()
                            .entry_bytes(fp)
                            .expect("reads")
                            .map(|b| b.len());
                        let reader = cache.local().open_suite(fp).expect("sealed");
                        let s = reader.stats().clone();
                        let stats = (
                            size,
                            s.programs,
                            s.items,
                            s.executions,
                            s.forbidden,
                            s.minimal,
                            s.timed_out,
                        );
                        let records: Vec<SuiteRecord> =
                            reader.collect::<Result<_, _>>().expect("records validate");
                        (stats, records)
                    })
                    .collect();
                std::fs::remove_dir_all(&dir).ok();
                entries
            })
            .collect();
        assert!(sealed[0].iter().all(|((_, _, items, ..), _)| *items > 0));
        assert_eq!(sealed[0], sealed[1], "bound {bound}: jobs 1 vs 2");
        assert_eq!(sealed[0], sealed[2], "bound {bound}: jobs 1 vs 3");
    }
}

/// A bound-4 `invlpg` entry (no fences, no RMW) sealed by a build that
/// listed one shard per examine batch in its header: 338 bytes, 17
/// shards whose plan items sum to 37, sealed after 2.346531 ms.
const PER_BATCH_ENTRY: &str = include_str!("fixtures/invlpg-b4-per-batch.tfs.hex");

#[test]
fn entries_listing_per_batch_shards_still_serve() {
    let hex: Vec<u8> = PER_BATCH_ENTRY
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    let bytes: Vec<u8> = hex
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex"))
        .collect();
    assert_eq!(bytes.len(), 338);
    let mtm = x86t_elt();
    let mut o = opts(4, Backend::Explicit);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    let fp = suite_fingerprint(&mtm, "invlpg", &o);

    let (cache, dir) = temp_cache("perbatch");
    cache
        .local()
        .install_bytes(fp, &bytes)
        .expect("the per-batch layout validates");
    let (served, status) = cached(&cache, &mtm, "invlpg", &o, 2).expect("serves");
    assert!(matches!(status, CacheStatus::Hit), "{status:?}");
    assert_eq!(served.stats.items, 37, "the sum of the shards' plan items");
    assert_eq!(
        served.stats.elapsed,
        std::time::Duration::from_nanos(2_346_531)
    );
    let direct = synthesize_suite(&mtm, "invlpg", &o);
    assert_eq!(render(&served), render(&direct));
    assert_eq!(served.stats.items, direct.stats.items);
    assert_eq!(served.stats.executions, direct.stats.executions);
    std::fs::remove_dir_all(&dir).ok();

    // This build seals the same suite with one shard of five one-byte
    // counters instead of 17, so its header is 80 bytes shorter and its
    // length varint one byte shorter.
    let (cache, dir) = temp_cache("onebatch");
    cached(&cache, &mtm, "invlpg", &o, 2).expect("synthesizes");
    let sealed = cache
        .local()
        .entry_bytes(fp)
        .expect("reads")
        .expect("sealed");
    assert_eq!(sealed.len(), bytes.len() - 16 * 5 - 1);
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
