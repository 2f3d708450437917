//! The streaming enumeration's core contract: [`EnumSpace::stream`]
//! yields exactly the sequence of the eager [`programs`] enumeration —
//! same programs, same order, same symmetry-reduction outcomes — while
//! the root-shape partitions give every program a stable,
//! scheduling-independent position.

use proptest::prelude::*;
use transform_synth::programs::{programs, EnumOptions, EnumSpace, Program};

fn options(bound: usize, fences: bool, rmw: bool, symmetry: bool) -> EnumOptions {
    let mut o = EnumOptions::new(bound);
    o.allow_fences = fences;
    o.allow_rmw = rmw;
    o.symmetry_reduction = symmetry;
    o
}

#[test]
fn bound_5_stream_matches_eager() {
    let opts = options(5, false, false, true);
    let eager = programs(&opts);
    assert!(!eager.is_empty());
    let streamed: Vec<Program> = EnumSpace::new(&opts).stream().collect();
    assert_eq!(eager, streamed);
}

#[test]
fn bound_5_with_fences_and_rmw_streams_identically() {
    // The nightly stress configuration, at the partitioning the parallel
    // pool actually uses.
    let opts = options(5, true, true, true);
    let eager = programs(&opts);
    let space = EnumSpace::new(&opts);
    assert_eq!(space.partition_count(), 3_798);
    assert_eq!(eager, space.stream().collect::<Vec<Program>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any bound ≤ 4, any option mix: the stream is the eager
    /// enumeration.
    #[test]
    fn stream_equals_programs(
        bound in 2usize..=4,
        fences in any::<bool>(),
        rmw in any::<bool>(),
        symmetry in any::<bool>(),
    ) {
        let opts = options(bound, fences, rmw, symmetry);
        let eager = programs(&opts);
        let streamed: Vec<Program> = EnumSpace::new(&opts).stream().collect();
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
        let streamed: Vec<Program> = EnumSpace::new(&opts).stream().collect();
        prop_assert_eq!(eager, streamed);
    }
}
