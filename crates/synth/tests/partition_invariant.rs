//! The invariant that lets every root partition plan itself: no
//! canonical key is emitted by two root partitions.
//!
//! Isomorphism (thread permutation plus VA/page renaming) keeps every
//! thread's first-use-numbered shape, so isomorphic programs share one
//! shape multiset — one `combine` node under one root shape. If this
//! failed, per-partition dedup would keep a program the sequential
//! planner drops, and parallel plan indices would drift from the
//! sequential engine's. With symmetry reduction off, write-free programs
//! carry no key, so the test keys them itself.
//!
//! Tier-1 covers every option mix at bounds ≤ 5 with symmetry reduction
//! on and off, identity remaps at bound 5, and bound 6 with fences and
//! RMW. The ignored case (run by the nightly in release) covers the
//! other bound-6 mixes, bound 7 and bound 8 with fences and RMW.

use std::collections::HashMap;
use transform_synth::canon::canonical_key;
use transform_synth::programs::{EnumOptions, EnumSpace};

const MIXES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn options(bound: usize, fences: bool, rmw: bool, symmetry: bool) -> EnumOptions {
    let mut o = EnumOptions::new(bound);
    o.allow_fences = fences;
    o.allow_rmw = rmw;
    o.symmetry_reduction = symmetry;
    o
}

/// Asserts that every canonical key of the space comes from one
/// partition only; returns the number of distinct keys.
fn assert_partitions_disjoint(opts: &EnumOptions) -> usize {
    let space = EnumSpace::new(opts);
    let mut owner: HashMap<Vec<u64>, usize> = HashMap::new();
    for p in 0..space.partition_count() {
        for kp in space.enumerate_keyed(p) {
            let key = kp.key.unwrap_or_else(|| canonical_key(&kp.program));
            let first = *owner.entry(key).or_insert(p);
            assert_eq!(
                first, p,
                "a key of partition {p} was emitted by partition {first} ({opts:?})"
            );
        }
    }
    owner.len()
}

#[test]
fn no_key_is_emitted_by_two_partitions_up_to_bound_5() {
    for bound in 2..=5 {
        for (fences, rmw) in MIXES {
            for symmetry in [true, false] {
                let keys = assert_partitions_disjoint(&options(bound, fences, rmw, symmetry));
                assert!(keys > 0, "bound {bound}: empty space");
            }
        }
    }
}

#[test]
fn no_key_is_emitted_by_two_partitions_with_identity_remaps() {
    for symmetry in [true, false] {
        let mut opts = options(5, true, true, symmetry);
        opts.allow_identity_remap = true;
        assert_partitions_disjoint(&opts);
    }
}

#[test]
fn no_key_is_emitted_by_two_partitions_at_bound_6() {
    assert_partitions_disjoint(&options(6, true, true, true));
}

#[test]
#[ignore = "seconds in release: the other bound-6 mixes, bound 7, and bound 8"]
fn no_key_is_emitted_by_two_partitions_at_bounds_6_to_8() {
    for (fences, rmw) in &MIXES[..3] {
        assert_partitions_disjoint(&options(6, *fences, *rmw, true));
    }
    for (fences, rmw) in MIXES {
        assert_partitions_disjoint(&options(7, fences, rmw, true));
    }
    assert_partitions_disjoint(&options(8, true, true, true));
}
