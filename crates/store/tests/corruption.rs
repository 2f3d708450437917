//! Corruption injection: flipped bytes, truncation, and version skew in
//! a sealed entry must be *detected* (checksums/version field) and the
//! suite transparently *rebuilt* — damaged bytes are never served — and
//! the `tmp-*` leftovers of a crashed write must be swept.

use proptest::proptest;
use transform_core::axiom::Mtm;
use transform_litmus::format::print_elt;
use transform_store::{suite_fingerprint, CacheStatus, Store, TieredCache};
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
    cache: TieredCache,
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
        let cache = TieredCache::new(Store::open(&dir).expect("store opens"));
        let mtm = x86t_elt();
        let path = cache
            .local()
            .entry_path(suite_fingerprint(&mtm, "sc_per_loc", &opts()));
        let mut h = Harness {
            cache,
            dir,
            mtm,
            path,
            clean_bytes: Vec::new(),
            clean_rendering: String::new(),
        };
        let (suite, _) = h.lookup().expect("seeds");
        h.clean_rendering = render(&suite);
        h.clean_bytes = std::fs::read(&h.path).expect("sealed entry exists");
        h
    }

    /// The one-axiom cached request every check goes through.
    fn lookup(&self) -> Result<(Suite, CacheStatus), transform_store::StoreError> {
        let mut served =
            self.cache
                .cached_or_synthesize(&self.mtm, &["sc_per_loc"], &opts(), 2, None)?;
        Ok(served.remove(0))
    }

    fn store(&self) -> &Store {
        self.cache.local()
    }

    /// Overwrites the entry with `bytes`, then asserts the cache layer
    /// detects the damage, rebuilds, and serves the correct suite.
    fn assert_detected_and_rebuilt(&self, bytes: &[u8], what: &str) {
        std::fs::write(&self.path, bytes).expect("plants damage");
        let (suite, status) = self.lookup().expect("rebuild succeeds");
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
        let (_, status) = self.lookup().expect("post-rebuild read");
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
        let outcome = h.store().open_suite(fp).and_then(|r| {
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
        match h.store().open_suite(fp) {
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

#[test]
fn tmp_entries_are_listed_and_swept() {
    let dir = std::env::temp_dir().join(format!("tfs-corrupt-tmp-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("store opens");
    // A crashed synthesis leaves a shard directory; a crashed index
    // rewrite of an earlier build leaves a staging file. Both must be
    // swept.
    std::fs::create_dir_all(dir.join("tmp-deadbeef-123-0")).expect("mkdir");
    std::fs::write(dir.join("tmp-deadbeef-123-0/shard-0000.bin"), b"junk").expect("write");
    std::fs::write(dir.join("tmp-index-123-0"), b"junk").expect("write");
    assert_eq!(store.stale_tmp_entries().expect("listable").len(), 2);
    assert_eq!(store.sweep_tmp().expect("sweeps"), 2);
    assert!(store.stale_tmp_entries().expect("listable").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
