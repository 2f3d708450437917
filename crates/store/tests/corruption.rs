//! Corruption injection: flipped bytes, truncation, and version skew in
//! a sealed entry must be *detected* (checksums/version field) and the
//! suite transparently *rebuilt* — damaged bytes are never served.

use proptest::proptest;
use transform_core::axiom::Mtm;
use transform_litmus::format::print_elt;
use transform_store::{cached_or_synthesize, suite_fingerprint, CacheStatus, Store};
use transform_synth::{Suite, SynthOptions};
use transform_x86::x86t_elt;

fn opts() -> SynthOptions {
    let mut o = SynthOptions::new(4);
    o.enumeration.allow_fences = false;
    o.enumeration.allow_rmw = false;
    o
}

fn render(suite: &Suite) -> String {
    let mut out = String::new();
    for (i, elt) in suite.elts.iter().enumerate() {
        out.push_str(&print_elt(&format!("{}_{i}", suite.axiom), &elt.witness));
        out.push('\n');
    }
    out
}

/// Seeds a fresh store with one sealed entry and returns the harness.
struct Harness {
    store: Store,
    dir: std::path::PathBuf,
    mtm: Mtm,
    path: std::path::PathBuf,
    clean_bytes: Vec<u8>,
    clean_rendering: String,
}

impl Harness {
    fn new(tag: &str) -> Harness {
        let dir = std::env::temp_dir().join(format!("tfs-corrupt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).expect("store opens");
        let mtm = x86t_elt();
        let (suite, _) =
            cached_or_synthesize(&store, &mtm, "sc_per_loc", &opts(), 2).expect("seeds");
        let path = store.entry_path(suite_fingerprint(&mtm, "sc_per_loc", &opts()));
        let clean_bytes = std::fs::read(&path).expect("sealed entry exists");
        Harness {
            store,
            dir,
            mtm,
            path,
            clean_rendering: render(&suite),
            clean_bytes,
        }
    }

    /// Overwrites the entry with `bytes`, then asserts the cache layer
    /// detects the damage, rebuilds, and serves the correct suite.
    fn assert_detected_and_rebuilt(&self, bytes: &[u8], what: &str) {
        std::fs::write(&self.path, bytes).expect("plants damage");
        let (suite, status) =
            cached_or_synthesize(&self.store, &self.mtm, "sc_per_loc", &opts(), 2)
                .expect("rebuild succeeds");
        assert!(
            matches!(status, CacheStatus::Rebuilt { .. }),
            "{what}: expected a rebuild, got {status:?}"
        );
        assert_eq!(
            render(&suite),
            self.clean_rendering,
            "{what}: rebuilt suite must match the clean one"
        );
        // The rebuild resealed a valid entry: the next read is a hit.
        let (_, status) = cached_or_synthesize(&self.store, &self.mtm, "sc_per_loc", &opts(), 2)
            .expect("post-rebuild read");
        assert!(status.is_hit(), "{what}: reseal must restore the entry");
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn every_single_flipped_byte_is_detected() {
    let h = Harness::new("flip-sweep");
    // Reading a damaged entry directly must error for *every* position
    // (the whole file is covered by header, record, or trailer
    // checksums); the cheap direct read makes an exhaustive sweep
    // affordable.
    let fp = suite_fingerprint(&h.mtm, "sc_per_loc", &opts());
    for at in 0..h.clean_bytes.len() {
        let mut bytes = h.clean_bytes.clone();
        bytes[at] ^= 0x40;
        std::fs::write(&h.path, &bytes).expect("plants damage");
        let outcome = h.store.open_suite(fp).and_then(|r| {
            for record in r {
                record?;
            }
            Ok(())
        });
        assert!(outcome.is_err(), "flip at byte {at} went undetected");
    }
    // Restore so the harness drop leaves a consistent directory.
    std::fs::write(&h.path, &h.clean_bytes).expect("restores");
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(24))]
    #[test]
    fn flipped_bytes_are_rebuilt_not_served(at in 0usize..4096, bit in 0u8..8) {
        let h = Harness::new("flip");
        let at = at % h.clean_bytes.len();
        let mut bytes = h.clean_bytes.clone();
        bytes[at] ^= 1 << bit;
        h.assert_detected_and_rebuilt(&bytes, &format!("bit {bit} of byte {at}"));
    }

    #[test]
    fn truncation_is_rebuilt_not_served(cut in 0usize..4096) {
        let h = Harness::new("trunc");
        let cut = cut % h.clean_bytes.len();
        h.assert_detected_and_rebuilt(&h.clean_bytes[..cut], &format!("truncation at {cut}"));
    }
}

#[test]
fn stale_format_versions_are_rebuilt_not_served() {
    let h = Harness::new("version");
    // Bytes 8..12 hold the little-endian format version, right after the
    // 8-byte magic. A future (or ancient) version must be refused before
    // any structure is trusted, then rebuilt. Version 1 is what every
    // entry sealed before the shard-result frame changed carries.
    let fp = suite_fingerprint(&h.mtm, "sc_per_loc", &opts());
    for stale in [1, transform_store::FORMAT_VERSION + 1] {
        let mut bytes = h.clean_bytes.clone();
        bytes[8..12].copy_from_slice(&stale.to_le_bytes());
        std::fs::write(&h.path, &bytes).expect("plants version skew");
        match h.store.open_suite(fp) {
            Err(transform_store::StoreError::Version { found }) => assert_eq!(found, stale),
            Err(other) => panic!("expected a version error, got {other}"),
            Ok(_) => panic!("expected a version error, got a reader"),
        }
        h.assert_detected_and_rebuilt(&bytes, &format!("stale version {stale}"));
    }
}

#[test]
fn garbage_files_are_rebuilt_not_served() {
    let h = Harness::new("garbage");
    h.assert_detected_and_rebuilt(b"definitely not a suite", "garbage file");
    h.assert_detected_and_rebuilt(&[], "empty file");
    // A delta entry sealed by an older build: its magic is no suite's.
    let mut legacy_delta = b"TFDELTA\0".to_vec();
    legacy_delta.extend_from_slice(&h.clean_bytes[8..]);
    h.assert_detected_and_rebuilt(&legacy_delta, "legacy delta entry");
}
