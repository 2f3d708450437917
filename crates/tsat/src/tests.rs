//! Solver tests: hand-built instances, classic families, and randomized
//! cross-checks against a brute-force evaluator.

use crate::{Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// Brute-force satisfiability over `n` variables.
fn brute_force_sat(n: usize, cnf: &[Vec<(usize, bool)>]) -> bool {
    assert!(n <= 20);
    'outer: for m in 0u32..(1 << n) {
        for clause in cnf {
            let ok = clause.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos);
            if !ok {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

/// Brute-force model count over `n` variables.
fn brute_force_count(n: usize, cnf: &[Vec<(usize, bool)>]) -> usize {
    assert!(n <= 20);
    (0u32..(1 << n))
        .filter(|m| {
            cnf.iter()
                .all(|clause| clause.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
        })
        .count()
}

fn build(n: usize, cnf: &[Vec<(usize, bool)>]) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars = s.new_vars(n);
    for clause in cnf {
        s.add_clause(clause.iter().map(|&(v, pos)| Lit::new(vars[v], pos)));
    }
    (s, vars)
}

fn check_model(s: &Solver, vars: &[Var], cnf: &[Vec<(usize, bool)>]) {
    for clause in cnf {
        let ok = clause.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos));
        assert!(ok, "model does not satisfy clause {clause:?}");
    }
}

#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn single_unit_clause() {
    let mut s = Solver::new();
    let a = s.new_var();
    s.add_clause([Lit::pos(a)]);
    assert!(s.solve().is_sat());
    assert_eq!(s.value(a), Some(true));
}

#[test]
fn contradictory_units_are_unsat() {
    let mut s = Solver::new();
    let a = s.new_var();
    s.add_clause([Lit::pos(a)]);
    assert!(!s.add_clause([Lit::neg(a)]) || !s.solve().is_sat());
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn tautological_clause_is_ignored() {
    let mut s = Solver::new();
    let a = s.new_var();
    s.add_clause([Lit::pos(a), Lit::neg(a)]);
    assert!(s.solve().is_sat());
}

#[test]
fn chain_of_implications_propagates() {
    // a, a->b, b->c, c->d: all true.
    let mut s = Solver::new();
    let v = s.new_vars(4);
    s.add_clause([Lit::pos(v[0])]);
    for i in 0..3 {
        s.add_clause([Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    assert!(s.solve().is_sat());
    for &x in &v {
        assert_eq!(s.value(x), Some(true));
    }
}

#[test]
fn xor_chain_forces_conflict_analysis() {
    // x0 xor x1, x1 xor x2, x0 = x2 forced inconsistent by odd parity.
    let mut s = Solver::new();
    let v = s.new_vars(3);
    let xor = |s: &mut Solver, a: Var, b: Var, val: bool| {
        if val {
            s.add_clause([Lit::pos(a), Lit::pos(b)]);
            s.add_clause([Lit::neg(a), Lit::neg(b)]);
        } else {
            s.add_clause([Lit::pos(a), Lit::neg(b)]);
            s.add_clause([Lit::neg(a), Lit::pos(b)]);
        }
    };
    xor(&mut s, v[0], v[1], true);
    xor(&mut s, v[1], v[2], true);
    xor(&mut s, v[0], v[2], true); // parity contradiction
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// Pigeonhole principle PHP(n+1, n): unsatisfiable, exercises learning.
fn pigeonhole(pigeons: usize, holes: usize) -> (Solver, Vec<Vec<Var>>) {
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
    for row in &p {
        s.add_clause(row.iter().map(|&v| Lit::pos(v)));
    }
    for i in 0..pigeons {
        for j in (i + 1)..pigeons {
            for (&hole_i, &hole_j) in p[i].iter().zip(&p[j]) {
                s.add_clause([Lit::neg(hole_i), Lit::neg(hole_j)]);
            }
        }
    }
    (s, p)
}

#[test]
fn pigeonhole_unsat() {
    for n in 2..=5 {
        let (mut s, _) = pigeonhole(n + 1, n);
        assert_eq!(s.solve(), SolveResult::Unsat, "PHP({},{})", n + 1, n);
    }
}

#[test]
fn pigeonhole_sat_when_enough_holes() {
    let (mut s, p) = pigeonhole(4, 4);
    assert!(s.solve().is_sat());
    // Each pigeon sits somewhere.
    for row in &p {
        assert!(row.iter().any(|&v| s.value(v) == Some(true)));
    }
}

#[test]
fn model_enumeration_counts_exactly() {
    // (a ∨ b) ∧ (¬a ∨ ¬b) has exactly 2 models over {a, b}.
    let mut s = Solver::new();
    let v = s.new_vars(2);
    s.add_clause([Lit::pos(v[0]), Lit::pos(v[1])]);
    s.add_clause([Lit::neg(v[0]), Lit::neg(v[1])]);
    let mut count = 0;
    while s.solve().is_sat() {
        count += 1;
        assert!(count <= 2, "enumerated too many models");
        if !s.block_model(&v) {
            break;
        }
    }
    assert_eq!(count, 2);
}

#[test]
fn enumeration_over_free_variables() {
    // One clause over 3 vars: 7 models.
    let mut s = Solver::new();
    let v = s.new_vars(3);
    s.add_clause([Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
    let mut count = 0;
    while s.solve().is_sat() {
        count += 1;
        assert!(count <= 7);
        if !s.block_model(&v) {
            break;
        }
    }
    assert_eq!(count, 7);
}

#[test]
fn many_vars_graph_coloring() {
    // Color a cycle of length 9 with 3 colors (sat); with 2 colors (unsat
    // since odd cycle).
    for (colors, expect_sat) in [(3usize, true), (2usize, false)] {
        let n = 9;
        let mut s = Solver::new();
        let grid: Vec<Vec<Var>> = (0..n).map(|_| s.new_vars(colors)).collect();
        for row in &grid {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)));
            for i in 0..colors {
                for j in (i + 1)..colors {
                    s.add_clause([Lit::neg(row[i]), Lit::neg(row[j])]);
                }
            }
        }
        for e in 0..n {
            let a = &grid[e];
            let b = &grid[(e + 1) % n];
            for c in 0..colors {
                s.add_clause([Lit::neg(a[c]), Lit::neg(b[c])]);
            }
        }
        assert_eq!(s.solve().is_sat(), expect_sat, "colors={colors}");
    }
}

/// Random CNF generator for cross-checking.
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<(usize, bool)>>)> {
    (2usize..=8).prop_flat_map(|n| {
        let clause = proptest::collection::vec((0..n, any::<bool>()), 1..=4);
        let cnf = proptest::collection::vec(clause, 0..=24);
        (Just(n), cnf)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_brute_force((n, cnf) in cnf_strategy()) {
        let (mut s, vars) = build(n, &cnf);
        let expected = brute_force_sat(n, &cnf);
        let got = s.solve().is_sat();
        prop_assert_eq!(got, expected);
        if got {
            check_model(&s, &vars, &cnf);
        }
    }

    #[test]
    fn enumeration_matches_brute_force_count((n, cnf) in cnf_strategy()) {
        let (mut s, vars) = build(n, &cnf);
        let expected = brute_force_count(n, &cnf);
        let mut count = 0usize;
        while s.solve().is_sat() {
            check_model(&s, &vars, &cnf);
            count += 1;
            prop_assert!(count <= expected, "enumerated more models than exist");
            if !s.block_model(&vars) {
                break;
            }
        }
        prop_assert_eq!(count, expected);
    }
}

mod dimacs_props {
    use crate::dimacs::{parse_dimacs, write_dimacs, Cnf};
    use crate::{Lit, Var};
    use proptest::prelude::*;

    fn arb_cnf() -> impl Strategy<Value = Cnf> {
        (1usize..6).prop_flat_map(|nv| {
            proptest::collection::vec(
                proptest::collection::vec((0..nv, proptest::bool::ANY), 0..4),
                0..6,
            )
            .prop_map(move |cls| Cnf {
                num_vars: nv,
                clauses: cls
                    .into_iter()
                    .map(|c| {
                        c.into_iter()
                            .map(|(v, pos)| Lit::new(Var::from_index(v), pos))
                            .collect()
                    })
                    .collect(),
            })
        })
    }

    /// Reference: brute-force satisfiability over all assignments.
    fn brute_sat(cnf: &Cnf) -> bool {
        (0u32..1 << cnf.num_vars).any(|m| {
            cnf.clauses.iter().all(|c| {
                c.iter()
                    .any(|l| (m >> l.var().index() & 1 == 1) == l.is_pos())
            })
        })
    }

    proptest! {
        #[test]
        fn dimacs_roundtrips(cnf in arb_cnf()) {
            let text = write_dimacs(&cnf);
            prop_assert_eq!(parse_dimacs(&text).expect("parses"), cnf);
        }

        #[test]
        fn loaded_instances_solve_like_brute_force(cnf in arb_cnf()) {
            let mut s = cnf.into_solver();
            prop_assert_eq!(s.solve().is_sat(), brute_sat(&cnf));
        }
    }
}
