//! Content addressing: the cache key of a synthesized suite.
//!
//! A suite is a pure function of (MTM, axiom, enumeration options,
//! backend) — the engine is deterministic and byte-identical across
//! worker counts — so those inputs, and nothing else, form the store
//! key. The MTM enters through its *canonical rendering*
//! ([`Mtm`]'s `Display`), not the raw spec file: comments, whitespace,
//! and axiom formatting differences hash identically, while any change
//! to an axiom's structure changes the key. Wall-clock knobs
//! (`timeout`) and the worker count are deliberately excluded — they
//! never change a completed suite's content (timed-out partial suites
//! are never stored at all).

use std::fmt;
use transform_core::axiom::Mtm;
use transform_synth::{Backend, SynthOptions};

/// A 128-bit content fingerprint (FNV-1a 128).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fingerprint(pub u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

impl Fingerprint {
    /// Fingerprints a byte stream.
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let mut h = FNV128_OFFSET;
        for &b in bytes {
            h ^= u128::from(b);
            h = h.wrapping_mul(FNV128_PRIME);
        }
        Fingerprint(h)
    }

    /// The 32-character lowercase hex form — the store's file name stem.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the hex form back.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hex())
    }
}

/// A short stable tag for a backend, part of the fingerprint stream and
/// the entry metadata.
pub fn backend_tag(backend: Backend) -> &'static str {
    match backend {
        Backend::Explicit => "explicit",
        Backend::Relational => "relational",
    }
}

/// The store key of one per-axiom suite synthesis.
///
/// Fields are length-delimited before hashing so adjacent inputs cannot
/// alias (e.g. axiom `"ab"` + bound `1` vs axiom `"a"` + bound `11`).
pub fn suite_fingerprint(mtm: &Mtm, axiom: &str, opts: &SynthOptions) -> Fingerprint {
    let mut stream = Vec::new();
    let mut field = |bytes: &[u8]| {
        stream.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        stream.extend_from_slice(bytes);
    };
    field(b"transform-store suite key v1");
    field(mtm.to_string().as_bytes());
    field(axiom.as_bytes());
    let e = &opts.enumeration;
    field(&(e.bound as u64).to_le_bytes());
    match e.max_threads {
        Some(t) => field(&(t as u64).to_le_bytes()),
        None => field(b"unbounded-threads"),
    }
    field(&[
        u8::from(e.allow_fences),
        u8::from(e.allow_rmw),
        u8::from(e.allow_identity_remap),
        u8::from(e.symmetry_reduction),
    ]);
    field(backend_tag(opts.backend).as_bytes());
    Fingerprint::of_bytes(&stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_core::spec::parse_mtm;

    fn mtm() -> Mtm {
        parse_mtm(
            "mtm m {
               axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
               axiom invlpg:     acyclic(fr_va | ^po | remap)
             }",
        )
        .expect("parses")
    }

    #[test]
    fn hex_round_trips() {
        let fp = Fingerprint::of_bytes(b"hello");
        assert_eq!(Fingerprint::from_hex(&fp.hex()), Some(fp));
        assert_eq!(fp.hex().len(), 32);
        assert!(Fingerprint::from_hex("xyz").is_none());
    }

    #[test]
    fn every_semantic_input_changes_the_key() {
        let m = mtm();
        let base = SynthOptions::new(4);
        let fp = |m: &Mtm, axiom: &str, o: &SynthOptions| suite_fingerprint(m, axiom, o);
        let reference = fp(&m, "invlpg", &base);
        assert_eq!(reference, fp(&m, "invlpg", &base), "stable");

        assert_ne!(reference, fp(&m, "sc_per_loc", &base), "axiom");
        let mut o = base.clone();
        o.enumeration.bound = 5;
        assert_ne!(reference, fp(&m, "invlpg", &o), "bound");
        let mut o = base.clone();
        o.enumeration.allow_fences = !o.enumeration.allow_fences;
        assert_ne!(reference, fp(&m, "invlpg", &o), "fences");
        let mut o = base.clone();
        o.enumeration.allow_rmw = !o.enumeration.allow_rmw;
        assert_ne!(reference, fp(&m, "invlpg", &o), "rmw");
        let mut o = base.clone();
        o.enumeration.max_threads = Some(2);
        assert_ne!(reference, fp(&m, "invlpg", &o), "max_threads");
        let mut o = base.clone();
        o.enumeration.symmetry_reduction = false;
        assert_ne!(reference, fp(&m, "invlpg", &o), "symmetry");
        let mut o = base.clone();
        o.backend = Backend::Relational;
        assert_ne!(reference, fp(&m, "invlpg", &o), "backend");

        let other = parse_mtm("mtm m { axiom invlpg: acyclic(fr_va | remap) }").expect("parses");
        assert_ne!(reference, fp(&other, "invlpg", &base), "mtm");
    }

    #[test]
    fn timeout_does_not_split_the_cache() {
        let m = mtm();
        let mut with_timeout = SynthOptions::new(4);
        with_timeout.timeout = Some(std::time::Duration::from_secs(60));
        assert_eq!(
            suite_fingerprint(&m, "invlpg", &SynthOptions::new(4)),
            suite_fingerprint(&m, "invlpg", &with_timeout)
        );
    }

    #[test]
    fn spec_comments_and_whitespace_hash_identically() {
        let tidy = mtm();
        let noisy = parse_mtm(
            "mtm m {
               # coherence
               axiom   sc_per_loc:   acyclic(rf | co | fr | po_loc)

               axiom invlpg: acyclic(fr_va | ^po | remap)   # the paper's axiom
             }",
        )
        .expect("parses");
        let o = SynthOptions::new(4);
        assert_eq!(
            suite_fingerprint(&tidy, "invlpg", &o),
            suite_fingerprint(&noisy, "invlpg", &o)
        );
    }
}
