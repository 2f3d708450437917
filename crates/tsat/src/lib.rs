//! `tsat` — a conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the bottom substrate of the TransForm reproduction. The
//! paper's synthesis engine compiles relational MTM specifications (via
//! Alloy/Kodkod) down to CNF and solves them with MiniSat; `tsat` plays the
//! MiniSat role here. It implements the standard modern architecture:
//!
//! * two-watched-literal unit propagation,
//! * first-UIP conflict analysis with clause minimization,
//! * VSIDS-style variable activities with phase saving,
//! * Luby-sequence restarts and learnt-clause database reduction, and
//! * model enumeration through blocking clauses.
//!
//! Each query of the relational layer runs on a solver of its own, so
//! there is no interface for solving under assumptions.
//!
//! # Examples
//!
//! ```
//! use tsat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(b), Some(true));
//! ```

pub mod dimacs;
mod lit;
mod solver;

pub use dimacs::{parse_dimacs, write_dimacs, Cnf};
pub use lit::{Lit, Var};
pub use solver::{SolveResult, Solver, SolverStats};

#[cfg(test)]
mod tests;
