//! Crate-level tests: model-finding examples plus randomized cross-checks
//! between the SAT translation and the ground evaluator.

use crate::{Expr, Formula, Problem, TupleSet, Universe};
use proptest::prelude::*;

fn u3() -> Universe {
    Universe::new(["a", "b", "c"])
}

#[test]
fn unconstrained_binary_relation_has_all_models() {
    let u = Universe::new(["a", "b"]);
    let mut p = Problem::new(u);
    p.declare_free("r", 2);
    // 2^(2*2) = 16 subsets.
    assert_eq!(p.solutions().count(), 16);
}

#[test]
fn bounds_are_respected() {
    let u = u3();
    let mut p = Problem::new(u);
    let lower = TupleSet::from_pairs([(0, 1)]);
    let upper = TupleSet::from_pairs([(0, 1), (1, 2)]);
    let r = p.declare("r", 2, lower, upper);
    let models: Vec<_> = p.solutions().collect();
    assert_eq!(models.len(), 2);
    for m in &models {
        assert!(m.get(r).contains(&[0, 1]));
        for t in m.get(r).iter() {
            assert!(t == &vec![0, 1] || t == &vec![1, 2]);
        }
    }
}

#[test]
fn acyclic_total_orders_count_factorial() {
    for n in 2..=4usize {
        let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let u = Universe::new(names);
        let mut p = Problem::new(u.clone());
        let r = p.declare_free("lt", 2);
        let lt = Expr::rel(r);
        p.require(Formula::acyclic(lt.clone()));
        p.require(Formula::subset(
            Expr::univ(1).product(Expr::univ(1)).diff(Expr::iden()),
            lt.clone().union(lt.transpose()),
        ));
        let fact: usize = (1..=n).product();
        assert_eq!(p.solutions().count(), fact, "n = {n}");
    }
}

#[test]
fn functional_relation_via_one() {
    // f: each atom maps to exactly one atom => n^n models.
    let u = u3();
    let mut p = Problem::new(u.clone());
    let f = p.declare_free("f", 2);
    for a in u.atoms() {
        p.require(Formula::one(Expr::atom(a).join(Expr::rel(f))));
    }
    assert_eq!(p.solutions().count(), 27);
}

#[test]
fn unsat_when_contradictory() {
    let u = u3();
    let mut p = Problem::new(u);
    let r = p.declare_free("r", 2);
    p.require(Formula::some(Expr::rel(r)));
    p.require(Formula::no(Expr::rel(r)));
    assert!(p.solve().is_none());
}

#[test]
fn closure_constraint_forces_path() {
    // r is a subset of a 3-chain; require (a, c) reachable => both edges in.
    let u = u3();
    let mut p = Problem::new(u);
    let upper = TupleSet::from_pairs([(0, 1), (1, 2)]);
    let r = p.declare("r", 2, TupleSet::empty(2), upper);
    p.require(Formula::subset(Expr::pair(0, 2), Expr::rel(r).closure()));
    let models: Vec<_> = p.solutions().collect();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].get(r).len(), 2);
}

#[test]
fn transpose_and_symmetry() {
    let u = Universe::new(["a", "b"]);
    let mut p = Problem::new(u);
    let r = p.declare_free("r", 2);
    // Symmetric and irreflexive over two atoms.
    p.require(Formula::equal(Expr::rel(r), Expr::rel(r).transpose()));
    p.require(Formula::irreflexive(Expr::rel(r)));
    // Models: {} and {(a,b),(b,a)}.
    assert_eq!(p.solutions().count(), 2);
}

#[test]
fn lone_counts_correctly() {
    let u = u3();
    let mut p = Problem::new(u);
    let s = p.declare_free("s", 1);
    p.require(Formula::lone(Expr::rel(s)));
    // {} plus three singletons.
    assert_eq!(p.solutions().count(), 4);
}

#[test]
fn instance_eval_matches_construction() {
    let u = u3();
    let mut p = Problem::new(u);
    let r = p.declare_exact("r", TupleSet::from_pairs([(0, 1), (1, 2)]));
    let inst = p.solve().expect("exact bounds are satisfiable");
    let closure = inst.eval(&Expr::rel(r).closure());
    assert!(closure.contains(&[0, 2]));
    assert!(inst.holds(&Formula::acyclic(Expr::rel(r))));
    assert!(!inst.holds(&Formula::no(Expr::rel(r))));
}

#[test]
fn get_by_name_finds_relations() {
    let u = u3();
    let mut p = Problem::new(u);
    p.declare_exact("edges", TupleSet::from_pairs([(0, 1)]));
    let inst = p.solve().expect("satisfiable");
    assert!(inst.get_by_name("edges").is_some());
    assert!(inst.get_by_name("missing").is_none());
}

// --- randomized cross-checks ---

/// A small random formula AST over two binary and one unary relation.
#[derive(Clone, Debug)]
enum RandExpr {
    R0,
    R1,
    S0,
    Iden,
    Union(Box<RandExpr>, Box<RandExpr>),
    Inter(Box<RandExpr>, Box<RandExpr>),
    Diff(Box<RandExpr>, Box<RandExpr>),
    Join(Box<RandExpr>, Box<RandExpr>),
    Transpose(Box<RandExpr>),
    Closure(Box<RandExpr>),
}

impl RandExpr {
    fn arity(&self) -> usize {
        match self {
            RandExpr::R0 | RandExpr::R1 | RandExpr::Iden => 2,
            RandExpr::S0 => 1,
            RandExpr::Union(a, _) | RandExpr::Inter(a, _) | RandExpr::Diff(a, _) => a.arity(),
            RandExpr::Join(a, b) => a.arity() + b.arity() - 2,
            RandExpr::Transpose(_) | RandExpr::Closure(_) => 2,
        }
    }

    fn to_expr(&self, rels: &[crate::RelId; 3]) -> Expr {
        match self {
            RandExpr::R0 => Expr::rel(rels[0]),
            RandExpr::R1 => Expr::rel(rels[1]),
            RandExpr::S0 => Expr::rel(rels[2]),
            RandExpr::Iden => Expr::iden(),
            RandExpr::Union(a, b) => a.to_expr(rels).union(b.to_expr(rels)),
            RandExpr::Inter(a, b) => a.to_expr(rels).inter(b.to_expr(rels)),
            RandExpr::Diff(a, b) => a.to_expr(rels).diff(b.to_expr(rels)),
            RandExpr::Join(a, b) => a.to_expr(rels).join(b.to_expr(rels)),
            RandExpr::Transpose(a) => a.to_expr(rels).transpose(),
            RandExpr::Closure(a) => a.to_expr(rels).closure(),
        }
    }
}

fn rand_expr() -> impl Strategy<Value = RandExpr> {
    let leaf = prop_oneof![
        Just(RandExpr::R0),
        Just(RandExpr::R1),
        Just(RandExpr::S0),
        Just(RandExpr::Iden),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| { RandExpr::Union(Box::new(a), Box::new(b)) }),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| { RandExpr::Inter(Box::new(a), Box::new(b)) }),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| { RandExpr::Diff(Box::new(a), Box::new(b)) }),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| { RandExpr::Join(Box::new(a), Box::new(b)) }),
            inner.clone().prop_map(|a| RandExpr::Transpose(Box::new(a))),
            inner.prop_map(|a| RandExpr::Closure(Box::new(a))),
        ]
    })
}

/// Repairs a random expression so every operator is applied at legal
/// arities (binary-only transpose/closure, matching set ops, join ≥ 1).
fn legalize(e: RandExpr) -> RandExpr {
    match e {
        RandExpr::Union(a, b) | RandExpr::Inter(a, b) | RandExpr::Diff(a, b) => {
            let (a, b) = (legalize(*a), legalize(*b));
            let (a, b) = if a.arity() == b.arity() {
                (a, b)
            } else {
                (a.clone(), a)
            };
            RandExpr::Union(Box::new(a), Box::new(b))
        }
        RandExpr::Join(a, b) => {
            let (a, b) = (legalize(*a), legalize(*b));
            if a.arity() + b.arity() - 2 >= 1 && a.arity() + b.arity() - 2 <= 2 {
                RandExpr::Join(Box::new(a), Box::new(b))
            } else {
                a
            }
        }
        RandExpr::Transpose(a) => {
            let a = legalize(*a);
            if a.arity() == 2 {
                RandExpr::Transpose(Box::new(a))
            } else {
                RandExpr::Iden
            }
        }
        RandExpr::Closure(a) => {
            let a = legalize(*a);
            if a.arity() == 2 {
                RandExpr::Closure(Box::new(a))
            } else {
                RandExpr::Iden
            }
        }
        leaf => leaf,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every SAT model satisfies the formula under ground evaluation, and
    /// the model count matches a brute-force count over the free tuples.
    #[test]
    fn sat_models_agree_with_ground_eval(e in rand_expr(), nonempty in any::<bool>()) {
        let e = legalize(e);
        let u = Universe::new(["a", "b"]);
        let mut p = Problem::new(u.clone());
        let r0 = p.declare_free("r0", 2);
        // Keep the search space small: r1 and s0 are fixed.
        let r1 = p.declare_exact("r1", TupleSet::from_pairs([(0, 1)]));
        let s0 = p.declare_exact("s0", TupleSet::from_atoms([0]));
        let rels = [r0, r1, s0];
        let expr = e.to_expr(&rels);
        let formula = if nonempty {
            Formula::some(expr)
        } else {
            Formula::no(expr)
        };
        p.require(formula.clone());

        let mut count = 0usize;
        for inst in p.solutions() {
            prop_assert!(inst.holds(&formula), "model violates formula: {inst:?}");
            count += 1;
            prop_assert!(count <= 16);
        }

        // Brute force over all 16 values of r0.
        let mut expected = 0usize;
        for mask in 0u32..16 {
            let mut ts = TupleSet::empty(2);
            for (bit, pair) in [(0, (0, 0)), (1, (0, 1)), (2, (1, 0)), (3, (1, 1))] {
                if (mask >> bit) & 1 == 1 {
                    ts.insert(vec![pair.0, pair.1]);
                }
            }
            let inst = crate::Instance::from_values(
                u.clone(),
                vec!["r0".into(), "r1".into(), "s0".into()],
                vec![ts, TupleSet::from_pairs([(0, 1)]), TupleSet::from_atoms([0])],
            );
            if inst.holds(&formula) {
                expected += 1;
            }
        }
        prop_assert_eq!(count, expected);
    }

    /// Ground-evaluator algebra sanity: closure is a fixpoint containing
    /// the relation, transpose is an involution.
    #[test]
    fn ground_algebra_laws(pairs in proptest::collection::vec((0usize..3, 0usize..3), 0..6)) {
        let r = TupleSet::from_pairs(pairs);
        let c = r.closure();
        prop_assert!(r.is_subset(&c));
        prop_assert_eq!(c.join(&c).union(&c), c.clone());
        prop_assert_eq!(r.transpose().transpose(), r);
    }
}
