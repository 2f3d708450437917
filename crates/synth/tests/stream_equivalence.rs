//! The partitioned enumeration's core contract: the plain
//! concatenation of [`EnumSpace::enumerate_keyed`] over all root-shape
//! partitions, in ordinal order and with no dedup across them, is
//! exactly the sequence of the eager [`programs`] enumeration — same
//! programs, same order, same symmetry-reduction outcomes — while the
//! partitions give every program a stable, scheduling-independent
//! position.

use proptest::prelude::*;
use transform_synth::programs::{programs, EnumOptions, EnumSpace, Program};

fn options(bound: usize, fences: bool, rmw: bool, symmetry: bool) -> EnumOptions {
    let mut o = EnumOptions::new(bound);
    o.allow_fences = fences;
    o.allow_rmw = rmw;
    o.symmetry_reduction = symmetry;
    o
}

/// Every partition's programs, concatenated in ordinal order.
fn concatenated(opts: &EnumOptions) -> Vec<Program> {
    let space = EnumSpace::new(opts);
    (0..space.partition_count())
        .flat_map(|p| space.enumerate_keyed(p))
        .map(|kp| kp.program)
        .collect()
}

#[test]
fn bound_5_stream_matches_eager() {
    let opts = options(5, false, false, true);
    let eager = programs(&opts);
    assert!(!eager.is_empty());
    let streamed = concatenated(&opts);
    assert_eq!(eager, streamed);
}

#[test]
fn bound_5_with_fences_and_rmw_streams_identically() {
    // The nightly stress configuration, at the partitioning the parallel
    // pool actually uses.
    let opts = options(5, true, true, true);
    let eager = programs(&opts);
    assert_eq!(EnumSpace::new(&opts).partition_count(), 125);
    assert_eq!(eager, concatenated(&opts));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any bound ≤ 4, any option mix: the concatenated partitions are
    /// the eager enumeration.
    #[test]
    fn stream_equals_programs(
        bound in 2usize..=4,
        fences in any::<bool>(),
        rmw in any::<bool>(),
        symmetry in any::<bool>(),
    ) {
        let opts = options(bound, fences, rmw, symmetry);
        let eager = programs(&opts);
        let streamed = concatenated(&opts);
        prop_assert_eq!(
            eager, streamed,
            "bound={} fences={} rmw={} symmetry={}",
            bound, fences, rmw, symmetry
        );
    }

    /// A max-threads cap partitions identically too.
    #[test]
    fn stream_respects_max_threads(
        bound in 2usize..=4,
        max_threads in 1usize..=3,
    ) {
        let mut opts = options(bound, false, false, true);
        opts.max_threads = Some(max_threads);
        let eager = programs(&opts);
        let streamed = concatenated(&opts);
        prop_assert_eq!(eager, streamed);
    }
}
