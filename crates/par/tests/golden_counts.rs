//! Golden per-axiom counter table: every counter a synthesis run
//! reports, pinned per (bound, option mix) for the x86t_elt model —
//! programs, executions, forbidden and minimal executions, and ELTs per
//! axiom, plus the unique union and the exclusive attribution across
//! the five suites.
//!
//! Both the sequential engine (`transform_synth::synthesize_all`) and
//! the fused two-worker pipeline (`transform_par::synthesize` on two
//! workers) must reproduce the table exactly. The pins were computed
//! before the examiner learned to walk each program's candidates once
//! for all axioms, so they hold every optimisation of the examination to
//! the counters of the one-axiom-at-a-time walk; the bound-7 rows for
//! the plain, fences-only and RMW-only mixes were computed before the
//! synthesis entry points were collapsed into one call per layer.
//!
//! Tier-1 covers bounds 4–5 × {plain, fences, rmw, both} and bound 6
//! with fences and RMW; the other bound-6 mixes and bound 7 (all four
//! mixes) are `#[ignore]`d and run in release by the nightly workflow:
//!
//! ```text
//! cargo test --release -p transform-par --test golden_counts -- --ignored
//! ```

use std::collections::BTreeMap;
use transform_core::axiom::Mtm;
use transform_par::synthesize;
use transform_synth::{exclusive_attribution, unique_union, Suite, SynthOptions};
use transform_x86::x86t_elt;

/// One axiom's pinned counters: (axiom, programs, executions,
/// forbidden, minimal, ELTs).
type AxiomRow = (&'static str, usize, usize, usize, usize, usize);

/// One pinned (bound, option mix): the per-axiom rows in model order,
/// the unique union, and the exclusive attribution in model order.
struct Golden {
    bound: usize,
    fences: bool,
    rmw: bool,
    axioms: [AxiomRow; 5],
    union: usize,
    exclusive: [usize; 5],
}

fn opts(g: &Golden) -> SynthOptions {
    let mut o = SynthOptions::new(g.bound);
    o.enumeration.allow_fences = g.fences;
    o.enumeration.allow_rmw = g.rmw;
    o
}

/// One axiom's measured counters, in the [`AxiomRow`] layout.
type MeasuredRow = (String, usize, usize, usize, usize, usize);

/// The table row a set of suites produces, in the golden layout.
fn measured(suites: &BTreeMap<String, Suite>) -> (Vec<MeasuredRow>, usize, Vec<usize>) {
    let mtm = x86t_elt();
    let attribution = exclusive_attribution(suites);
    let mut rows = Vec::new();
    let mut exclusive = Vec::new();
    for axiom in mtm.axioms() {
        let suite = &suites[&axiom.name];
        rows.push((
            axiom.name.clone(),
            suite.stats.programs,
            suite.stats.executions,
            suite.stats.forbidden,
            suite.stats.minimal,
            suite.elts.len(),
        ));
        exclusive.push(attribution[&axiom.name]);
    }
    (rows, unique_union(suites.values()).len(), exclusive)
}

/// Every axiom's suite from one two-worker run, keyed by axiom.
fn fused(mtm: &Mtm, o: &SynthOptions) -> BTreeMap<String, Suite> {
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    synthesize(mtm, &axioms, o, 2, None)
        .into_iter()
        .map(|suite| (suite.axiom.clone(), suite))
        .collect()
}

fn check(g: &Golden) {
    let mtm = x86t_elt();
    let o = opts(g);
    let label = format!("bound {} fences {} rmw {}", g.bound, g.fences, g.rmw);
    let expected: Vec<MeasuredRow> = g
        .axioms
        .iter()
        .map(|&(name, p, x, f, m, e)| (name.to_string(), p, x, f, m, e))
        .collect();
    for (engine, suites) in [
        ("sequential", transform_synth::synthesize_all(&mtm, &o)),
        ("fused --jobs 2", fused(&mtm, &o)),
    ] {
        assert!(
            suites.values().all(|s| !s.stats.timed_out),
            "{label} ({engine}) timed out"
        );
        let (rows, union, exclusive) = measured(&suites);
        assert_eq!(rows, expected, "{label} ({engine}): per-axiom counters");
        assert_eq!(union, g.union, "{label} ({engine}): unique union");
        assert_eq!(
            exclusive, g.exclusive,
            "{label} ({engine}): exclusive attribution"
        );
    }
}

const B4_PLAIN: Golden = Golden {
    bound: 4,
    fences: false,
    rmw: false,
    axioms: [
        ("sc_per_loc", 47, 45, 11, 11, 11),
        ("rmw_atomicity", 47, 48, 0, 0, 0),
        ("causality", 47, 48, 6, 6, 6),
        ("invlpg", 47, 46, 2, 2, 2),
        ("tlb_causality", 47, 47, 2, 2, 2),
    ],
    union: 11,
    exclusive: [1, 0, 0, 0, 0],
};

const B4_FENCES: Golden = Golden {
    bound: 4,
    fences: true,
    rmw: false,
    axioms: [
        ("sc_per_loc", 51, 47, 11, 11, 11),
        ("rmw_atomicity", 51, 50, 0, 0, 0),
        ("causality", 51, 50, 6, 6, 6),
        ("invlpg", 51, 48, 2, 2, 2),
        ("tlb_causality", 51, 49, 2, 2, 2),
    ],
    union: 11,
    exclusive: [1, 0, 0, 0, 0],
};

const B4_RMW: Golden = Golden {
    bound: 4,
    fences: false,
    rmw: true,
    axioms: [
        ("sc_per_loc", 48, 47, 12, 11, 11),
        ("rmw_atomicity", 48, 50, 0, 0, 0),
        ("causality", 48, 50, 6, 6, 6),
        ("invlpg", 48, 48, 2, 2, 2),
        ("tlb_causality", 48, 49, 3, 2, 2),
    ],
    union: 11,
    exclusive: [1, 0, 0, 0, 0],
};

const B4_BOTH: Golden = Golden {
    bound: 4,
    fences: true,
    rmw: true,
    axioms: [
        ("sc_per_loc", 52, 49, 12, 11, 11),
        ("rmw_atomicity", 52, 52, 0, 0, 0),
        ("causality", 52, 52, 6, 6, 6),
        ("invlpg", 52, 50, 2, 2, 2),
        ("tlb_causality", 52, 51, 3, 2, 2),
    ],
    union: 11,
    exclusive: [1, 0, 0, 0, 0],
};

const B5_PLAIN: Golden = Golden {
    bound: 5,
    fences: false,
    rmw: false,
    axioms: [
        ("sc_per_loc", 137, 144, 39, 22, 22),
        ("rmw_atomicity", 137, 167, 0, 0, 0),
        ("causality", 137, 166, 7, 7, 7),
        ("invlpg", 137, 155, 15, 8, 8),
        ("tlb_causality", 137, 165, 12, 3, 3),
    ],
    union: 24,
    exclusive: [7, 0, 0, 2, 0],
};

const B5_FENCES: Golden = Golden {
    bound: 5,
    fences: true,
    rmw: false,
    axioms: [
        ("sc_per_loc", 234, 257, 65, 22, 22),
        ("rmw_atomicity", 234, 280, 0, 0, 0),
        ("causality", 234, 279, 26, 7, 7),
        ("invlpg", 234, 268, 19, 8, 8),
        ("tlb_causality", 234, 278, 14, 3, 3),
    ],
    union: 24,
    exclusive: [7, 0, 0, 2, 0],
};

const B5_RMW: Golden = Golden {
    bound: 5,
    fences: false,
    rmw: true,
    axioms: [
        ("sc_per_loc", 141, 156, 47, 22, 22),
        ("rmw_atomicity", 141, 179, 0, 0, 0),
        ("causality", 141, 178, 7, 7, 7),
        ("invlpg", 141, 167, 15, 8, 8),
        ("tlb_causality", 141, 177, 18, 3, 3),
    ],
    union: 24,
    exclusive: [7, 0, 0, 2, 0],
};

const B5_BOTH: Golden = Golden {
    bound: 5,
    fences: true,
    rmw: true,
    axioms: [
        ("sc_per_loc", 238, 269, 73, 22, 22),
        ("rmw_atomicity", 238, 292, 0, 0, 0),
        ("causality", 238, 291, 26, 7, 7),
        ("invlpg", 238, 280, 19, 8, 8),
        ("tlb_causality", 238, 290, 20, 3, 3),
    ],
    union: 24,
    exclusive: [7, 0, 0, 2, 0],
};

const B6_BOTH: Golden = Golden {
    bound: 6,
    fences: true,
    rmw: true,
    axioms: [
        ("sc_per_loc", 2725, 4628, 2010, 54, 54),
        ("rmw_atomicity", 2725, 4726, 4, 0, 0),
        ("causality", 2725, 4701, 1314, 22, 22),
        ("invlpg", 2725, 4691, 356, 23, 23),
        ("tlb_causality", 2725, 4718, 258, 4, 4),
    ],
    union: 65,
    exclusive: [18, 0, 0, 11, 0],
};

const B6_PLAIN: Golden = Golden {
    bound: 6,
    fences: false,
    rmw: false,
    axioms: [
        ("sc_per_loc", 2319, 4019, 1765, 54, 54),
        ("rmw_atomicity", 2319, 4117, 0, 0, 0),
        ("causality", 2319, 4092, 1251, 22, 22),
        ("invlpg", 2319, 4082, 304, 23, 23),
        ("tlb_causality", 2319, 4109, 159, 4, 4),
    ],
    union: 65,
    exclusive: [18, 0, 0, 11, 0],
};

const B6_FENCES: Golden = Golden {
    bound: 6,
    fences: true,
    rmw: false,
    axioms: [
        ("sc_per_loc", 2695, 4482, 1897, 54, 54),
        ("rmw_atomicity", 2695, 4580, 0, 0, 0),
        ("causality", 2695, 4555, 1300, 22, 22),
        ("invlpg", 2695, 4545, 348, 23, 23),
        ("tlb_causality", 2695, 4572, 181, 4, 4),
    ],
    union: 65,
    exclusive: [18, 0, 0, 11, 0],
};

const B6_RMW: Golden = Golden {
    bound: 6,
    fences: false,
    rmw: true,
    axioms: [
        ("sc_per_loc", 2346, 4155, 1871, 54, 54),
        ("rmw_atomicity", 2346, 4253, 4, 0, 0),
        ("causality", 2346, 4228, 1263, 22, 22),
        ("invlpg", 2346, 4218, 312, 23, 23),
        ("tlb_causality", 2346, 4245, 231, 4, 4),
    ],
    union: 65,
    exclusive: [18, 0, 0, 11, 0],
};

const B7_BOTH: Golden = Golden {
    bound: 7,
    fences: true,
    rmw: true,
    axioms: [
        ("sc_per_loc", 17098, 33436, 16562, 95, 95),
        ("rmw_atomicity", 17098, 33765, 73, 1, 1),
        ("causality", 17098, 33651, 9231, 28, 28),
        ("invlpg", 17098, 33721, 3871, 33, 33),
        ("tlb_causality", 17098, 33753, 2597, 6, 6),
    ],
    union: 110,
    exclusive: [46, 1, 0, 14, 0],
};

const B7_PLAIN: Golden = Golden {
    bound: 7,
    fences: false,
    rmw: false,
    axioms: [
        ("sc_per_loc", 6788, 14150, 7479, 95, 95),
        ("rmw_atomicity", 6788, 14514, 0, 0, 0),
        ("causality", 6788, 14365, 2802, 28, 28),
        ("invlpg", 6788, 14435, 2606, 33, 33),
        ("tlb_causality", 6788, 14467, 1419, 6, 6),
    ],
    union: 109,
    exclusive: [46, 0, 0, 14, 0],
};

const B7_FENCES: Golden = Golden {
    bound: 7,
    fences: true,
    rmw: false,
    axioms: [
        ("sc_per_loc", 16907, 32014, 15366, 95, 95),
        ("rmw_atomicity", 16907, 32378, 0, 0, 0),
        ("causality", 16907, 32229, 8999, 28, 28),
        ("invlpg", 16907, 32299, 3767, 33, 33),
        ("tlb_causality", 16907, 32331, 1818, 6, 6),
    ],
    union: 109,
    exclusive: [46, 0, 0, 14, 0],
};

const B7_RMW: Golden = Golden {
    bound: 7,
    fences: false,
    rmw: true,
    axioms: [
        ("sc_per_loc", 6940, 15378, 8520, 95, 95),
        ("rmw_atomicity", 6940, 15707, 69, 1, 1),
        ("causality", 6940, 15593, 2998, 28, 28),
        ("invlpg", 6940, 15663, 2694, 33, 33),
        ("tlb_causality", 6940, 15695, 2097, 6, 6),
    ],
    union: 110,
    exclusive: [46, 1, 0, 14, 0],
};

#[test]
fn golden_counts_at_bound_4() {
    for g in [&B4_PLAIN, &B4_FENCES, &B4_RMW, &B4_BOTH] {
        check(g);
    }
}

#[test]
fn golden_counts_at_bound_5() {
    for g in [&B5_PLAIN, &B5_FENCES, &B5_RMW, &B5_BOTH] {
        check(g);
    }
}

#[test]
fn golden_counts_at_bound_6_with_fences_and_rmw() {
    check(&B6_BOTH);
}

#[test]
#[ignore = "slow in debug (bound 7 alone takes seconds in release); the nightly runs it in release"]
fn golden_counts_at_bound_6_other_mixes_and_bound_7() {
    for g in [
        &B6_PLAIN, &B6_FENCES, &B6_RMW, &B7_PLAIN, &B7_FENCES, &B7_RMW, &B7_BOTH,
    ] {
        check(g);
    }
}
