//! Translation of bounded relational logic to CNF (the Kodkod step).
//!
//! Each relation becomes a grid of boolean values — constants for tuples
//! fixed by the bounds, fresh SAT variables for the rest. Expressions
//! evaluate to grids of Tseitin-encoded circuit nodes; formulas evaluate to
//! single nodes asserted true. Transitive closure uses iterative squaring.

use crate::circuit::{Circuit, B};
use crate::expr::{Expr, Formula};
use crate::problem::{Instance, Problem, RelId};
use crate::tuples::TupleSet;
use tsat::Var;

/// A grid of circuit nodes representing a relation's characteristic
/// function: length `n` for unary, `n * n` (row-major) for binary.
#[derive(Clone)]
pub(crate) struct Grid {
    arity: usize,
    n: usize,
    cells: Vec<B>,
}

impl Grid {
    fn empty(arity: usize, n: usize) -> Grid {
        let len = if arity == 1 { n } else { n * n };
        Grid {
            arity,
            n,
            cells: vec![B::F; len],
        }
    }

    fn from_tupleset(ts: &TupleSet, n: usize) -> Grid {
        assert!(ts.arity() <= 2, "SAT translation supports arity 1 and 2");
        let mut g = Grid::empty(ts.arity(), n);
        for t in ts.iter() {
            let idx = if ts.arity() == 1 {
                t[0]
            } else {
                t[0] * n + t[1]
            };
            g.cells[idx] = B::T;
        }
        g
    }

    #[inline]
    fn at2(&self, i: usize, j: usize) -> B {
        debug_assert_eq!(self.arity, 2);
        self.cells[i * self.n + j]
    }
}

/// One problem translated into a solver of its own.
pub(crate) struct Translation {
    circuit: Circuit,
    /// Per relation: the grid and the list of (cell index, var) choices.
    grids: Vec<Grid>,
    free_vars: Vec<Var>,
    n: usize,
}

impl Translation {
    /// Translates `problem` into a fresh solver and asserts its
    /// constraints.
    pub(crate) fn build(problem: &Problem) -> Translation {
        let mut circuit = Circuit::new();
        let n = problem.universe().size();
        let mut grids = Vec::new();
        let mut free_vars = Vec::new();
        for decl in problem.decls() {
            let mut grid = Grid::empty(decl.arity, n);
            for t in decl.upper.iter() {
                let idx = if decl.arity == 1 {
                    t[0]
                } else {
                    t[0] * n + t[1]
                };
                if decl.lower.contains(t) {
                    grid.cells[idx] = B::T;
                } else {
                    let l = circuit.fresh();
                    free_vars.push(l.var());
                    grid.cells[idx] = B::L(l);
                }
            }
            grids.push(grid);
        }
        let mut tr = Translation {
            circuit,
            grids,
            free_vars,
            n,
        };
        let root = tr.formula(&problem.formula(), problem);
        tr.circuit.assert_true(root);
        tr
    }

    pub(crate) fn solve(&mut self) -> bool {
        self.circuit.solver.solve().is_sat()
    }

    /// Forbids the current model; `false` when no model is left.
    pub(crate) fn block_current(&mut self) -> bool {
        self.circuit.solver.block_model(&self.free_vars)
    }

    pub(crate) fn solver_stats(&self) -> tsat::SolverStats {
        self.circuit.solver.stats()
    }

    pub(crate) fn extract(&self, problem: &Problem) -> Instance {
        let mut names = Vec::new();
        let mut values = Vec::new();
        for (r, decl) in problem.decls().iter().enumerate() {
            let grid = &self.grids[r];
            let mut ts = TupleSet::empty(decl.arity);
            for (idx, &cell) in grid.cells.iter().enumerate() {
                let present = match cell {
                    B::T => true,
                    B::F => false,
                    B::L(l) => self.circuit.solver.lit_value_opt(l).unwrap_or(false),
                };
                if present {
                    let t = if decl.arity == 1 {
                        vec![idx]
                    } else {
                        vec![idx / self.n, idx % self.n]
                    };
                    ts.insert(t);
                }
            }
            names.push(decl.name.clone());
            values.push(ts);
        }
        Instance::from_values(problem.universe().clone(), names, values)
    }

    fn rel_arity(&self, problem: &Problem, r: RelId) -> usize {
        problem.decl(r).arity
    }

    fn expr(&mut self, e: &Expr) -> Grid {
        let n = self.n;
        match e {
            Expr::Rel(r) => self.grids[r.0].clone(),
            Expr::Const(ts) => Grid::from_tupleset(ts, n),
            Expr::Iden => {
                let mut g = Grid::empty(2, n);
                for i in 0..n {
                    g.cells[i * n + i] = B::T;
                }
                g
            }
            Expr::None(a) => {
                assert!(*a <= 2, "SAT translation supports arity 1 and 2");
                Grid::empty(*a, n)
            }
            Expr::Univ(a) => {
                assert!(*a <= 2, "SAT translation supports arity 1 and 2");
                let mut g = Grid::empty(*a, n);
                g.cells.fill(B::T);
                g
            }
            Expr::Union(a, b) => {
                let ga = self.expr(a);
                let gb = self.expr(b);
                self.zip(ga, gb, |c, x, y| c.or2(x, y))
            }
            Expr::Inter(a, b) => {
                let ga = self.expr(a);
                let gb = self.expr(b);
                self.zip(ga, gb, |c, x, y| c.and2(x, y))
            }
            Expr::Diff(a, b) => {
                let ga = self.expr(a);
                let gb = self.expr(b);
                self.zip(ga, gb, |c, x, y| {
                    let ny = c.not(y);
                    c.and2(x, ny)
                })
            }
            Expr::Join(a, b) => {
                let ga = self.expr(a);
                let gb = self.expr(b);
                self.join(ga, gb)
            }
            Expr::Product(a, b) => {
                let ga = self.expr(a);
                let gb = self.expr(b);
                assert!(
                    ga.arity == 1 && gb.arity == 1,
                    "product supported for unary × unary only"
                );
                let mut g = Grid::empty(2, n);
                for i in 0..n {
                    for j in 0..n {
                        g.cells[i * n + j] = self.circuit.and2(ga.cells[i], gb.cells[j]);
                    }
                }
                g
            }
            Expr::Transpose(a) => {
                let ga = self.expr(a);
                assert_eq!(ga.arity, 2, "transpose requires a binary relation");
                let mut g = Grid::empty(2, n);
                for i in 0..n {
                    for j in 0..n {
                        g.cells[i * n + j] = ga.at2(j, i);
                    }
                }
                g
            }
            Expr::Closure(a) => {
                let ga = self.expr(a);
                assert_eq!(ga.arity, 2, "closure requires a binary relation");
                // Iterative squaring: after k rounds, paths of length ≤ 2^k.
                let mut m = ga;
                let mut span = 1usize;
                while span < n {
                    let sq = self.join(m.clone(), m.clone());
                    m = self.zip(m, sq, |c, x, y| c.or2(x, y));
                    span *= 2;
                }
                m
            }
        }
    }

    fn zip(&mut self, a: Grid, b: Grid, f: impl Fn(&mut Circuit, B, B) -> B) -> Grid {
        assert_eq!(a.arity, b.arity, "arity mismatch in set operation");
        let mut g = Grid::empty(a.arity, a.n);
        for (idx, cell) in g.cells.iter_mut().enumerate() {
            *cell = f(&mut self.circuit, a.cells[idx], b.cells[idx]);
        }
        g
    }

    fn join(&mut self, a: Grid, b: Grid) -> Grid {
        let n = self.n;
        match (a.arity, b.arity) {
            (1, 2) => {
                let mut g = Grid::empty(1, n);
                for k in 0..n {
                    let terms: Vec<B> = (0..n)
                        .map(|j| self.circuit.and2(a.cells[j], b.at2(j, k)))
                        .collect();
                    g.cells[k] = self.circuit.or_all(terms);
                }
                g
            }
            (2, 1) => {
                let mut g = Grid::empty(1, n);
                for i in 0..n {
                    let terms: Vec<B> = (0..n)
                        .map(|j| self.circuit.and2(a.at2(i, j), b.cells[j]))
                        .collect();
                    g.cells[i] = self.circuit.or_all(terms);
                }
                g
            }
            (2, 2) => {
                let mut g = Grid::empty(2, n);
                for i in 0..n {
                    for k in 0..n {
                        let terms: Vec<B> = (0..n)
                            .map(|j| self.circuit.and2(a.at2(i, j), b.at2(j, k)))
                            .collect();
                        g.cells[i * n + k] = self.circuit.or_all(terms);
                    }
                }
                g
            }
            (x, y) => panic!("join of arities ({x}, {y}) not supported"),
        }
    }

    fn formula(&mut self, f: &Formula, problem: &Problem) -> B {
        match f {
            Formula::True => B::T,
            Formula::False => B::F,
            Formula::Subset(a, b) => {
                let arity_a = a.arity(&|r| self.rel_arity(problem, r));
                let arity_b = b.arity(&|r| self.rel_arity(problem, r));
                assert_eq!(arity_a, arity_b, "subset arity mismatch");
                let ga = self.expr(a);
                let gb = self.expr(b);
                let impls: Vec<B> = ga
                    .cells
                    .iter()
                    .zip(&gb.cells)
                    .map(|(&x, &y)| {
                        let nx = self.circuit.not(x);
                        self.circuit.or2(nx, y)
                    })
                    .collect();
                self.circuit.and_all(impls)
            }
            Formula::Equal(a, b) => {
                let f1 = self.formula(&Formula::Subset(a.clone(), b.clone()), problem);
                let f2 = self.formula(&Formula::Subset(b.clone(), a.clone()), problem);
                self.circuit.and2(f1, f2)
            }
            Formula::Some(e) => {
                let g = self.expr(e);
                self.circuit.or_all(g.cells)
            }
            Formula::NoneOf(e) => {
                let g = self.expr(e);
                let s = self.circuit.or_all(g.cells);
                self.circuit.not(s)
            }
            Formula::Lone(e) => {
                let g = self.expr(e);
                self.circuit.at_most_one(&g.cells)
            }
            Formula::One(e) => {
                let g = self.expr(e);
                let some = self.circuit.or_all(g.cells.clone());
                let amo = self.circuit.at_most_one(&g.cells);
                self.circuit.and2(some, amo)
            }
            Formula::And(fs) => {
                let nodes: Vec<B> = fs.iter().map(|f| self.formula(f, problem)).collect();
                self.circuit.and_all(nodes)
            }
            Formula::Or(fs) => {
                let nodes: Vec<B> = fs.iter().map(|f| self.formula(f, problem)).collect();
                self.circuit.or_all(nodes)
            }
            Formula::Not(f) => {
                let node = self.formula(f, problem);
                self.circuit.not(node)
            }
        }
    }
}
