//! The wire path end to end: sealed bytes must survive `PUT` → `GET`
//! byte-identically, damaged bytes must be refused on *both* sides of
//! the wire, and concurrent `PUT`s of one entry must all land on the
//! identical sealed artifact.

use proptest::proptest;
use std::sync::OnceLock;
use transform_core::axiom::Mtm;
use transform_core::spec::parse_mtm;
use transform_serve::{ServeOptions, Server, ServerHandle};
use transform_store::{suite_fingerprint, Fingerprint, HttpTier, Store, StoreError, TieredCache};
use transform_synth::SynthOptions;

fn mtm() -> Mtm {
    parse_mtm(
        "mtm wiretest {
           axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
           axiom invlpg:     acyclic(fr_va | ^po | remap)
         }",
    )
    .expect("spec parses")
}

fn opts() -> SynthOptions {
    let mut o = SynthOptions::new(4);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tfserve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Every bound-4 suite of the test MTM, synthesized and sealed once
/// for the whole test file: (axiom, fingerprint, sealed bytes).
fn sealed_suites() -> &'static Vec<(String, Fingerprint, Vec<u8>)> {
    static SEALED: OnceLock<Vec<(String, Fingerprint, Vec<u8>)>> = OnceLock::new();
    SEALED.get_or_init(|| {
        let dir = temp_dir("seed");
        let cache = TieredCache::new(Store::open(&dir).expect("store opens"));
        let m = mtm();
        let axioms = ["sc_per_loc", "invlpg"];
        cache
            .cached_or_synthesize(&m, &axioms, &opts(), 2, None)
            .expect("seeds");
        let mut out = Vec::new();
        for axiom in axioms {
            let fp = suite_fingerprint(&m, axiom, &opts());
            let bytes = cache
                .local()
                .entry_bytes(fp)
                .expect("readable")
                .expect("entry sealed");
            out.push((axiom.to_string(), fp, bytes));
        }
        std::fs::remove_dir_all(&dir).ok();
        out
    })
}

/// The invlpg entry — the fixed subject of the non-property tests.
fn sealed_suite() -> (&'static Fingerprint, &'static Vec<u8>) {
    let (_, fp, bytes) = &sealed_suites()[1];
    (fp, bytes)
}

fn spawn_server(tag: &str) -> (ServerHandle, std::path::PathBuf) {
    let dir = temp_dir(tag);
    let server = Server::bind(&dir, "127.0.0.1:0", ServeOptions::default()).expect("binds");
    (server.spawn(), dir)
}

#[test]
fn reupload_is_idempotent_and_indexed() {
    let (fp, bytes) = sealed_suite();
    let (handle, dir) = spawn_server("roundtrip");
    let client = HttpTier::new(&handle.url()).expect("valid URL");

    // Nothing there yet.
    assert!(!client.exists(*fp).expect("HEAD answers"));
    assert_eq!(client.fetch(*fp).expect("GET answers"), None);

    client
        .publish(*fp, bytes)
        .expect("PUT accepts sealed bytes");
    assert!(client.exists(*fp).expect("HEAD answers"));

    // Re-upload is idempotent, and the index lists the entry.
    client.publish(*fp, bytes).expect("re-PUT is idempotent");
    let index = client.index().expect("index serves");
    assert_eq!(index.len(), 1);
    assert_eq!(index[0].fingerprint, *fp);
    assert_eq!(index[0].meta.axiom, "invlpg");
    assert_eq!(index[0].meta.bound, 4);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(16))]

    /// Any sealed suite round-trips PUT → GET byte-identically.
    #[test]
    fn put_get_round_trips_byte_identically(which in 0usize..4) {
        let suites = sealed_suites();
        let (axiom, fp, bytes) = &suites[which % suites.len()];
        let (handle, dir) = spawn_server("roundtrip-prop");
        let client = HttpTier::new(&handle.url()).expect("valid URL");
        client.publish(*fp, bytes).expect("PUT accepts sealed bytes");
        let served = client
            .fetch(*fp)
            .expect("GET answers")
            .expect("entry now exists");
        assert_eq!(&served, bytes, "{axiom}: served bytes must be identical");
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single flipped byte in an upload is refused: the server
    /// publishes nothing, and the entry stays absent.
    #[test]
    fn corrupt_uploads_are_rejected_and_never_published(at in 0usize..1 << 20, bit in 0u8..8) {
        let (fp, bytes) = sealed_suite();
        let (handle, dir) = spawn_server("put-corrupt");
        let client = HttpTier::new(&handle.url()).expect("valid URL");
        let mut damaged = bytes.clone();
        let at = at % damaged.len();
        damaged[at] ^= 1 << bit;
        match client.publish(*fp, &damaged) {
            Err(StoreError::Remote(m)) => assert!(m.contains("400"), "{m}"),
            other => panic!("bit {bit} of byte {at}: expected a 400 rejection, got {other:?}"),
        }
        assert!(!client.exists(*fp).expect("HEAD answers"), "damage published");
        // The rejected upload left no entry and no staged litter behind.
        let server_store = Store::open(&dir).expect("opens");
        assert!(server_store.entries().expect("lists").is_empty());
        assert!(server_store.stale_tmp_entries().expect("lists").is_empty());
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An upload addressed to the wrong fingerprint is refused even
    /// though its bytes are internally valid.
    #[test]
    fn mis_addressed_uploads_are_rejected(nonce in 0u64..u64::MAX) {
        let (fp, bytes) = sealed_suite();
        let wrong = Fingerprint(fp.0 ^ u128::from(nonce | 1));
        let (handle, dir) = spawn_server("put-misaddr");
        let client = HttpTier::new(&handle.url()).expect("valid URL");
        match client.publish(wrong, bytes) {
            Err(StoreError::Remote(m)) => assert!(m.contains("400"), "{m}"),
            other => panic!("expected a 400 rejection, got {other:?}"),
        }
        assert!(!client.exists(wrong).expect("HEAD answers"));
        assert!(!client.exists(*fp).expect("HEAD answers"));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn concurrent_puts_of_one_entry_are_idempotent() {
    let (fp, bytes) = sealed_suite();
    let (handle, dir) = spawn_server("put-race");
    let url = handle.url();

    // Eight clients race to publish the same sealed entry.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let url = &url;
            scope.spawn(move || {
                let client = HttpTier::new(url).expect("valid URL");
                client.publish(*fp, bytes).expect("concurrent PUT succeeds");
            });
        }
    });

    let client = HttpTier::new(&url).expect("valid URL");
    let served = client
        .fetch(*fp)
        .expect("GET answers")
        .expect("entry exists");
    assert_eq!(&served, bytes, "racing PUTs must land identical content");
    let server_store = Store::open(&dir).expect("opens");
    assert_eq!(server_store.entries().expect("lists"), vec![*fp]);
    assert!(
        server_store.stale_tmp_entries().expect("lists").is_empty(),
        "no staged litter may survive the race"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_and_unknown_routes_answer() {
    let (handle, dir) = spawn_server("routes");
    let client = HttpTier::new(&handle.url()).expect("valid URL");
    let health = client.health().expect("healthz serves");
    assert!(health.contains("transform-serve ok"), "{health}");
    assert!(health.contains("entries: 0"), "{health}");
    // A malformed fingerprint is a 400, not a panic or a 404.
    match client.fetch(Fingerprint(0)) {
        Ok(None) => {}
        other => panic!("absent entry must be a clean miss, got {other:?}"),
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
