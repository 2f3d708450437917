//! `relational` — a bounded relational model finder in the style of Kodkod.
//!
//! The TransForm paper encodes memory transistency models in Alloy, whose
//! backend (Kodkod) translates bounded relational logic to SAT. This crate
//! reproduces that substrate: you declare relations over a finite
//! [`Universe`] with lower/upper [`TupleSet`] bounds, constrain them with
//! relational [`Formula`]s, and enumerate satisfying [`Instance`]s.
//! Like one Kodkod query, each [`Problem`] is translated into a SAT
//! solver of its own, which [`Problem::solutions`] enumerates with
//! blocking clauses; nothing is shared between problems.
//!
//! Quantifiers are grounded by the host program (exactly what Kodkod does
//! internally before hitting SAT): build conjunctions/disjunctions over
//! [`Expr::atom`] singletons with ordinary Rust iteration.
//!
//! Relations of arity 1 and 2 are supported in the SAT translation — the
//! entire TransForm vocabulary (Table I of the paper) is unary/binary.
//!
//! # Examples
//!
//! Find a strict total order on three atoms:
//!
//! ```
//! use relational::{Problem, Universe, Expr, Formula, TupleSet};
//!
//! let u = Universe::new(["a", "b", "c"]);
//! let mut p = Problem::new(u.clone());
//! let r = p.declare("lt", 2, TupleSet::empty(2), TupleSet::full(&u, 2));
//! let lt = Expr::rel(r);
//! p.require(Formula::acyclic(lt.clone()));
//! p.require(Formula::subset(
//!     Expr::univ(1).product(Expr::univ(1)).diff(Expr::iden()),
//!     lt.clone().union(lt.transpose()),
//! ));
//! // Exactly 3! = 6 strict total orders.
//! assert_eq!(p.solutions().count(), 6);
//! ```

mod circuit;
mod eval;
mod expr;
mod problem;
mod translate;
mod tuples;
mod universe;

pub use expr::{Expr, Formula};
pub use problem::{Instance, Problem, RelDecl, RelId, Solutions};
pub use tuples::{Tuple, TupleSet};
pub use universe::Universe;

#[cfg(test)]
mod tests;
