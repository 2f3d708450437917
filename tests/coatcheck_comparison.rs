//! The §VI-B comparison of the (reconstructed) COATCheck suite against
//! TransForm-synthesized suites.
//!
//! The quick test runs the synthesis at bound 5 — large enough for three
//! of the four verbatim programs. The full paper numbers (7 verbatim tests
//! → 4 unique programs, 15 reducible, 9 + 9 out of scope) need bound 6,
//! checked by the second test below (and by the `comparison` release
//! binary).

use std::time::Duration;
use transform::synth::synthesize_all;
use transform::synth::SynthOptions;
use transform::x86::{coatcheck, compare, x86t_elt};

fn keys_at_bound(bound: usize) -> std::collections::BTreeSet<Vec<u64>> {
    let mtm = x86t_elt();
    let mut opts = SynthOptions::new(bound);
    opts.enumeration.allow_fences = false;
    opts.enumeration.allow_rmw = false;
    opts.timeout = Some(Duration::from_secs(600));
    let suites = synthesize_all(&mtm, &opts);
    compare::synthesized_keys(suites.values())
}

#[test]
fn comparison_at_bound_5_classifies_the_suite() {
    let keys = keys_at_bound(5);
    let suite = coatcheck::suite();
    let cmp = compare::compare_suite(&suite, &keys);

    // At bound 5 the 6-event coRR program (D) is not yet synthesized, so
    // the two corr verbatim tests and the two corr category-2 tests fall
    // outside the spanning set; everything else already classifies as at
    // the full bound.
    assert_eq!(cmp.count(compare::Category::Verbatim), 5);
    assert_eq!(cmp.verbatim_programs, 3);
    assert_eq!(cmp.count(compare::Category::Reducible), 13);
    assert_eq!(cmp.count(compare::Category::NotSpanning), 13);
    assert_eq!(cmp.count(compare::Category::UnsupportedIpi), 9);

    // Specific pins from the paper.
    let by_name = |name: &str| {
        cmp.tests
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .category
    };
    assert_eq!(by_name("ptwalk2"), compare::Category::Verbatim);
    assert_eq!(by_name("dirtybit3"), compare::Category::Reducible);
    assert_eq!(by_name("sb_elt"), compare::Category::NotSpanning);
    assert_eq!(by_name("ipi_resched1"), compare::Category::UnsupportedIpi);
}

/// The full §VI-B numbers (bound-6 synthesis, a few seconds in a debug
/// build).
#[test]
fn comparison_at_bound_6_reproduces_the_paper_composition() {
    let keys = keys_at_bound(6);
    let suite = coatcheck::suite();
    let cmp = compare::compare_suite(&suite, &keys);
    assert_eq!(cmp.count(compare::Category::Verbatim), 7);
    assert_eq!(cmp.verbatim_programs, 4);
    assert_eq!(cmp.count(compare::Category::Reducible), 15);
    assert_eq!(cmp.count(compare::Category::NotSpanning), 9);
    assert_eq!(cmp.count(compare::Category::UnsupportedIpi), 9);
}
