//! Problems, relation declarations, instances, and solution enumeration.

use crate::expr::Formula;
use crate::translate::Translation;
use crate::tuples::{Tuple, TupleSet};
use crate::universe::Universe;
use std::fmt;

/// Identifier of a declared relation within one [`Problem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub(crate) usize);

/// A relation declaration: name, arity, and lower/upper tuple-set bounds.
///
/// Tuples in `lower` are in every solution; tuples outside `upper` are in
/// none. Everything in between is a SAT decision — exactly Kodkod's bounds.
#[derive(Clone, Debug)]
pub struct RelDecl {
    /// Human-readable name, used in [`Instance`] display.
    pub name: String,
    /// Arity (1 or 2 supported by the SAT translation).
    pub arity: usize,
    /// Tuples guaranteed present.
    pub lower: TupleSet,
    /// Tuples allowed to be present.
    pub upper: TupleSet,
}

/// A bounded relational satisfiability problem.
///
/// See the crate documentation for an end-to-end example.
pub struct Problem {
    universe: Universe,
    decls: Vec<RelDecl>,
    constraints: Vec<Formula>,
}

impl Problem {
    /// Creates an empty problem over `universe`.
    pub fn new(universe: Universe) -> Problem {
        Problem {
            universe,
            decls: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The universe of this problem.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Declares a relation with the given bounds and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the bounds have the wrong arity, if `lower ⊄ upper`, or if
    /// `arity` is not 1 or 2 (the SAT translation supports unary and binary
    /// relations — all of the TransForm vocabulary).
    pub fn declare(&mut self, name: &str, arity: usize, lower: TupleSet, upper: TupleSet) -> RelId {
        assert!(arity == 1 || arity == 2, "supported arities are 1 and 2");
        assert_eq!(lower.arity(), arity, "lower bound arity mismatch");
        assert_eq!(upper.arity(), arity, "upper bound arity mismatch");
        assert!(lower.is_subset(&upper), "lower bound must be within upper");
        let id = RelId(self.decls.len());
        self.decls.push(RelDecl {
            name: name.to_string(),
            arity,
            lower,
            upper,
        });
        id
    }

    /// Declares a relation with a fixed, constant value.
    pub fn declare_exact(&mut self, name: &str, value: TupleSet) -> RelId {
        let arity = value.arity();
        self.declare(name, arity, value.clone(), value)
    }

    /// Declares a free relation bounded only by the universe.
    pub fn declare_free(&mut self, name: &str, arity: usize) -> RelId {
        self.declare(
            name,
            arity,
            TupleSet::empty(arity),
            TupleSet::full(&self.universe, arity),
        )
    }

    /// The declaration for `rel`.
    pub fn decl(&self, rel: RelId) -> &RelDecl {
        &self.decls[rel.0]
    }

    /// All declarations, in declaration order.
    pub fn decls(&self) -> &[RelDecl] {
        &self.decls
    }

    /// Adds a constraint that every solution must satisfy.
    pub fn require(&mut self, f: Formula) {
        self.constraints.push(f);
    }

    /// The conjunction of all added constraints.
    pub fn formula(&self) -> Formula {
        Formula::and(self.constraints.iter().cloned())
    }

    /// Finds one satisfying instance, if any.
    pub fn solve(&self) -> Option<Instance> {
        self.solutions().next()
    }

    /// Enumerates all satisfying instances.
    ///
    /// Two instances are distinct when any declared relation differs. The
    /// problem is translated into a SAT solver of its own; the iterator is
    /// lazy, and each `next` is one call on that solver.
    pub fn solutions(&self) -> Solutions<'_> {
        Solutions {
            translation: Translation::build(self),
            problem: self,
            done: false,
        }
    }
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Problem({} atoms, {} relations, {} constraints)",
            self.universe.size(),
            self.decls.len(),
            self.constraints.len()
        )
    }
}

/// A satisfying assignment of tuple sets to declared relations.
#[derive(Clone, PartialEq, Eq)]
pub struct Instance {
    pub(crate) names: Vec<String>,
    pub(crate) universe: Universe,
    pub(crate) values: Vec<TupleSet>,
}

impl Instance {
    /// Builds an instance directly from relation values (used mainly by the
    /// ground evaluator in tests).
    pub fn from_values(universe: Universe, names: Vec<String>, values: Vec<TupleSet>) -> Instance {
        assert_eq!(names.len(), values.len());
        Instance {
            names,
            universe,
            values,
        }
    }

    /// The universe this instance ranges over.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The value of a declared relation.
    pub fn get(&self, rel: RelId) -> &TupleSet {
        &self.values[rel.0]
    }

    /// The value of the relation called `name`, if declared.
    pub fn get_by_name(&self, name: &str) -> Option<&TupleSet> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.values[i])
    }

    /// All tuples of `rel` as `(a, b)` pairs (binary relations only).
    ///
    /// # Panics
    ///
    /// Panics if `rel` is not binary.
    pub fn pairs(&self, rel: RelId) -> Vec<(usize, usize)> {
        let ts = self.get(rel);
        assert_eq!(ts.arity(), 2);
        ts.iter().map(|t| (t[0], t[1])).collect()
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance {{")?;
        for (name, value) in self.names.iter().zip(&self.values) {
            let tuples: Vec<Vec<&str>> = value
                .iter()
                .map(|t: &Tuple| t.iter().map(|&a| self.universe.name(a)).collect())
                .collect();
            writeln!(f, "  {name} = {tuples:?}")?;
        }
        write!(f, "}}")
    }
}

/// Lazy iterator over all satisfying [`Instance`]s of a [`Problem`].
pub struct Solutions<'p> {
    translation: Translation,
    problem: &'p Problem,
    done: bool,
}

impl Solutions<'_> {
    /// The work counters of the problem's solver so far.
    pub fn solver_stats(&self) -> tsat::SolverStats {
        self.translation.solver_stats()
    }
}

impl Iterator for Solutions<'_> {
    type Item = Instance;

    fn next(&mut self) -> Option<Instance> {
        if self.done {
            return None;
        }
        if !self.translation.solve() {
            self.done = true;
            return None;
        }
        let inst = self.translation.extract(self.problem);
        if !self.translation.block_current() {
            self.done = true;
        }
        Some(inst)
    }
}
