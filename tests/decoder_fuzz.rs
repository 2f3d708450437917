//! Malformed input to a decoder or parser returns an error and never
//! panics.
//!
//! Each property damages a valid encoding — flips bytes, truncates it,
//! or appends junk — and feeds the mutant to its decoder. Binary fleet
//! frames are re-sealed with `fnv1a64` after the damage, so the mutant
//! reaches the field decoders instead of stopping at the checksum. A
//! truncated or extended frame or record must be rejected; a flipped one
//! may still decode, but must not panic.

use proptest::prelude::*;
use std::sync::OnceLock;
use transform_core::spec::parse_mtm;
use transform_litmus::format::{parse_elt, print_elt};
use transform_store::codec::{decode_record, encode_record, fnv1a64};
use transform_store::{AxiomShard, JobSpec, LeaseGrant, ShardResult};
use transform_synth::{synthesize_suite, SuiteRecord, SynthOptions};
use transform_x86::x86t_elt;

/// How [`damage`] breaks its input.
const FLIP: u8 = 0;
const TRUNCATE: u8 = 1;
const EXTEND: u8 = 2;

/// Valid encodings to damage, built once per test binary.
struct Seeds {
    spec: Vec<u8>,
    grant: Vec<u8>,
    shard: Vec<u8>,
    record: Vec<u8>,
    model: String,
    elt: String,
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let mtm = x86t_elt();
        let mut opts = SynthOptions::new(4);
        opts.enumeration.allow_fences = false;
        opts.enumeration.allow_rmw = false;
        let spec = JobSpec::for_run(&mtm, &["sc_per_loc", "invlpg"], &opts, 2, 3, 10_000);
        let (lo, hi) = spec.ranges[0];
        let grant = LeaseGrant {
            lease: 7,
            job: spec.id(),
            lo,
            hi,
            ttl_ms: spec.lease_ttl_ms,
            spec: spec.clone(),
        };
        let suite = synthesize_suite(&mtm, "invlpg", &opts);
        let records: Vec<SuiteRecord> = suite
            .elts
            .iter()
            .enumerate()
            .map(|(index, elt)| SuiteRecord {
                index,
                elt: elt.clone(),
            })
            .collect();
        let shard = ShardResult {
            job: spec.id(),
            lo,
            hi,
            programs: suite.stats.programs,
            per_axiom: vec![AxiomShard {
                stats: suite.stats.totals(),
                records: records.clone(),
            }],
        };
        Seeds {
            spec: spec.encode(),
            grant: grant.encode(),
            shard: shard.encode(),
            record: encode_record(&records[0]),
            model: mtm.to_string(),
            elt: print_elt("seed", &records[0].elt.witness),
        }
    })
}

/// Damages `input`: `edits` name the flipped positions (taken modulo
/// the length) and XOR masks, the truncation point, or the appended
/// bytes.
fn damage(input: &[u8], kind: u8, edits: &[(usize, u8)]) -> Vec<u8> {
    let mut out = input.to_vec();
    match kind {
        FLIP => {
            for &(at, mask) in edits {
                let i = at % out.len();
                out[i] ^= mask.max(1);
            }
        }
        TRUNCATE => out.truncate(edits[0].0 % out.len()),
        _ => out.extend(edits.iter().map(|&(_, b)| b)),
    }
    out
}

/// Appends the frame checksum to `body`.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a64(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Damages the body of a sealed frame and seals the result again.
fn damage_frame(frame: &[u8], kind: u8, edits: &[(usize, u8)]) -> Vec<u8> {
    seal(damage(&frame[..frame.len() - 8], kind, edits))
}

fn edits() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0usize..1 << 16, 0u8..=255), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn job_spec_decode_rejects_damage(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage_frame(&seeds().spec, kind, &edits);
        let decoded = JobSpec::decode(&mutant);
        prop_assert!(kind == FLIP || decoded.is_err(), "kind {} accepted", kind);
    }

    #[test]
    fn lease_grant_decode_rejects_damage(
        kind in 0u8..=EXTEND,
        edits in edits(),
        inner in any::<bool>(),
    ) {
        let grant = &seeds().grant;
        let mutant = if inner {
            // Flip bytes of the embedded spec, re-sealing it and then the
            // grant, so the spec decoder sees the damage.
            let spec = &seeds().spec;
            let mut body = grant[..grant.len() - 8].to_vec();
            let at = body.len() - spec.len();
            body[at..].copy_from_slice(&damage_frame(spec, FLIP, &edits));
            seal(body)
        } else {
            damage_frame(grant, kind, &edits)
        };
        let decoded = LeaseGrant::decode(&mutant);
        prop_assert!(inner || kind == FLIP || decoded.is_err(), "kind {} accepted", kind);
    }

    #[test]
    fn shard_result_decode_rejects_damage(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage_frame(&seeds().shard, kind, &edits);
        let decoded = ShardResult::decode(&mutant);
        prop_assert!(kind == FLIP || decoded.is_err(), "kind {} accepted", kind);
    }

    #[test]
    fn decode_record_rejects_damage(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage(&seeds().record, kind, &edits);
        let decoded = decode_record(&mutant);
        prop_assert!(kind == FLIP || decoded.is_err(), "kind {} accepted", kind);
    }

    #[test]
    fn parse_mtm_never_panics(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage(seeds().model.as_bytes(), kind, &edits);
        let _ = parse_mtm(&String::from_utf8_lossy(&mutant));
    }

    #[test]
    fn parse_elt_never_panics(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage(seeds().elt.as_bytes(), kind, &edits);
        let _ = parse_elt(&String::from_utf8_lossy(&mutant));
    }
}
