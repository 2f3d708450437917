//! The minimality criterion (§IV-B).
//!
//! An ELT execution is *minimal* when its forbidden outcome becomes
//! permitted under every possible isolated relaxation. Non-minimal
//! forbidden executions (like the paper's Fig. 8, which stays forbidden
//! after removing the unrelated write `W4`) are excluded from the spanning
//! set.

use crate::relax::{apply_analyzed, relaxations, Relaxation};
use transform_core::axiom::Mtm;
use transform_core::exec::Execution;

/// `true` when every applicable relaxation of `x` is permitted by `mtm`.
///
/// The caller is expected to have established that `x` itself is forbidden;
/// this function only checks the relaxations.
pub fn is_minimal(x: &Execution, mtm: &Mtm) -> bool {
    non_minimality_witness(x, mtm).is_none()
}

/// Classifies a forbidden execution: `Some(r)` is a witness relaxation
/// under which it stays forbidden (hence non-minimal), `None` means
/// minimal. Each relaxed execution is evaluated on the analysis its
/// repair built.
pub fn non_minimality_witness(x: &Execution, mtm: &Mtm) -> Option<Relaxation> {
    relaxations(x)
        .into_iter()
        .find(|r| apply_analyzed(x, r, |a| !mtm.evaluate(a).is_permitted()).unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_core::exec::EltBuilder;
    use transform_core::figures;
    use transform_core::ids::Va;
    use transform_core::spec::parse_mtm;

    fn x86t_elt_like() -> Mtm {
        parse_mtm(
            "mtm x86t_elt {
               axiom sc_per_loc:    acyclic(rf | co | fr | po_loc)
               axiom rmw_atomicity: empty(rmw & (fr ; co))
               axiom causality:     acyclic(rfe | co | fr | ppo | fence)
               axiom invlpg:        acyclic(fr_va | ^po | remap)
               axiom tlb_causality: acyclic(ptw_source | com)
             }",
        )
        .expect("spec parses")
    }

    #[test]
    fn ptwalk2_is_minimal() {
        let mtm = x86t_elt_like();
        let x = figures::fig10a_ptwalk2();
        assert!(!mtm.permits(&x).is_permitted());
        assert!(is_minimal(&x, &mtm));
    }

    #[test]
    fn fig11_is_minimal() {
        let mtm = x86t_elt_like();
        let x = figures::fig11_cross_core_invlpg();
        assert!(!mtm.permits(&x).is_permitted());
        assert!(is_minimal(&x, &mtm));
    }

    #[test]
    fn unrelated_write_breaks_minimality() {
        // The Fig. 8 idea at ELT scale: a forbidden coherence test with an
        // unrelated write to another VA stays forbidden when that write is
        // removed — so it is not minimal.
        let mtm = x86t_elt_like();
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (_w, _, _) = b.write_walk(t, Va(0));
        let _r = b.read(t, Va(0)); // reads initial: coherence violation
        let (w2, _, _) = b.write_walk(t, Va(1)); // unrelated
        let x = b.build();
        assert!(!mtm.permits(&x).is_permitted());
        assert!(!is_minimal(&x, &mtm));
        let witness = non_minimality_witness(&x, &mtm).expect("non-minimal");
        assert_eq!(witness, crate::relax::Relaxation::RemoveUserAccess(w2));
    }

    #[test]
    fn minimal_coherence_pair() {
        let mtm = x86t_elt_like();
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.write_walk(t, Va(0));
        b.read(t, Va(0)); // reads initial
        let x = b.build();
        assert!(!mtm.permits(&x).is_permitted());
        assert!(is_minimal(&x, &mtm));
    }
}
