//! Malformed input to a decoder or parser returns an error and never
//! panics.
//!
//! Each property damages a valid encoding — flips bytes, truncates it,
//! or appends junk — and feeds the mutant to its decoder. Binary frames
//! (fleet messages, the `/v1/index` body, run journals and run lists)
//! are re-sealed with `fnv1a64` after the damage, so the mutant
//! reaches the field decoders instead of stopping at the checksum. A
//! truncated or extended frame or record must be rejected; a flipped one
//! may still decode, but must not panic.

use proptest::prelude::*;
use std::sync::OnceLock;
use transform_core::spec::parse_mtm;
use transform_litmus::format::{parse_elt, print_elt};
use transform_par::{AxiomSnapshot, AxiomState, JournalEvent, JournalEventKind};
use transform_store::codec::{decode_record, encode_record, fnv1a64};
use transform_store::index::{self, IndexEntry};
use transform_store::{
    decode_run, decode_run_list, encode_run, encode_run_list, suite_fingerprint, AxiomShard,
    EntryMeta, JobSpec, LeaseGrant, RunJournal, RunManifest, RunOutcome, ShardResult,
};
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
    index: Vec<u8>,
    run: Vec<u8>,
    runs: Vec<u8>,
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
        let listed: Vec<IndexEntry> = ["sc_per_loc", "invlpg"]
            .iter()
            .map(|axiom| IndexEntry {
                fingerprint: suite_fingerprint(&mtm, axiom, &opts),
                meta: EntryMeta::describe(&mtm, axiom, &opts),
            })
            .collect();
        let manifest = |id, outcome| RunManifest {
            id,
            mtm: mtm.name().to_string(),
            bound: 4,
            allow_fences: false,
            allow_rmw: false,
            jobs: 2,
            started_unix_micros: 1_700_000_000_000_000 + id,
            elapsed_micros: 4_321,
            outcome,
            partitions_total: 12,
            partitions_retired: 12,
            programs: suite.stats.programs as u64,
            items_planned: 40,
            batches: 9,
            peak_live_candidates: 17,
            cut_at_partition: (outcome == RunOutcome::Cut).then_some(5),
            axioms: vec![AxiomSnapshot {
                name: "invlpg".to_string(),
                state: AxiomState::Complete,
                elts: suite.elts.len(),
                items_examined: 40,
                batches_done: 9,
            }],
        };
        let event = |t_micros, kind, axiom, a| JournalEvent {
            t_micros,
            kind,
            axiom,
            a,
            b: 3,
            c: 200,
        };
        let journal = RunJournal {
            manifest: manifest(1, RunOutcome::Complete),
            events: vec![
                event(0, JournalEventKind::RunStart, None, 12),
                event(150, JournalEventKind::Cut, None, 0),
                event(180, JournalEventKind::BatchExamined, None, 40),
                event(900, JournalEventKind::AxiomComplete, Some(0), 0),
            ],
        };
        Seeds {
            spec: spec.encode(),
            grant: grant.encode(),
            shard: shard.encode(),
            index: index::encode(&listed),
            run: encode_run(&journal),
            runs: encode_run_list(&[journal.manifest.clone(), manifest(2, RunOutcome::Cut)]),
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
    fn index_decode_rejects_damage(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage_frame(&seeds().index, kind, &edits);
        let decoded = index::decode(&mutant);
        prop_assert!(kind == FLIP || decoded.is_err(), "kind {} accepted", kind);
    }

    #[test]
    fn decode_run_rejects_damage(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage_frame(&seeds().run, kind, &edits);
        let decoded = decode_run(&mutant);
        prop_assert!(kind == FLIP || decoded.is_err(), "kind {} accepted", kind);
    }

    #[test]
    fn decode_run_list_rejects_damage(kind in 0u8..=EXTEND, edits in edits()) {
        let mutant = damage_frame(&seeds().runs, kind, &edits);
        let decoded = decode_run_list(&mutant);
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
