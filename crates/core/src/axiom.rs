//! Axiomatic MTM specifications and their evaluation.
//!
//! An [`Mtm`] is a named conjunction of [`Axiom`]s over relational
//! expressions built from the vocabulary of Table I. Evaluating the
//! *transistency predicate* against a candidate execution classifies the
//! execution as **permitted** (all axioms hold) or **forbidden** (§II-B).

use crate::derive::{Analysis, BaseRel};
use crate::exec::Execution;
use crate::rel::Rel;
use crate::wellformed::WellformedError;
use std::fmt;
use std::sync::Arc;

/// A relational expression over the MTM vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelExpr {
    /// A base relation from Table I.
    Base(BaseRel),
    /// Union `a | b` (the paper writes `+`).
    Union(Arc<RelExpr>, Arc<RelExpr>),
    /// Intersection `a & b`.
    Inter(Arc<RelExpr>, Arc<RelExpr>),
    /// Difference `a \ b`.
    Diff(Arc<RelExpr>, Arc<RelExpr>),
    /// Relational composition `a ; b` (the paper's join operator `.`).
    Seq(Arc<RelExpr>, Arc<RelExpr>),
    /// Inverse `~a`.
    Inverse(Arc<RelExpr>),
    /// Transitive closure `^a`.
    Closure(Arc<RelExpr>),
}

impl RelExpr {
    /// A base relation.
    pub fn base(r: BaseRel) -> RelExpr {
        RelExpr::Base(r)
    }

    /// `self | other`.
    pub fn union(self, other: RelExpr) -> RelExpr {
        RelExpr::Union(Arc::new(self), Arc::new(other))
    }

    /// `self & other`.
    pub fn inter(self, other: RelExpr) -> RelExpr {
        RelExpr::Inter(Arc::new(self), Arc::new(other))
    }

    /// `self \ other`.
    pub fn diff(self, other: RelExpr) -> RelExpr {
        RelExpr::Diff(Arc::new(self), Arc::new(other))
    }

    /// `self ; other`.
    pub fn seq(self, other: RelExpr) -> RelExpr {
        RelExpr::Seq(Arc::new(self), Arc::new(other))
    }

    /// `~self`.
    pub fn inverse(self) -> RelExpr {
        RelExpr::Inverse(Arc::new(self))
    }

    /// `^self`.
    pub fn closure(self) -> RelExpr {
        RelExpr::Closure(Arc::new(self))
    }

    /// Union of several expressions.
    ///
    /// # Panics
    ///
    /// Panics on an empty iterator.
    pub fn union_all<I: IntoIterator<Item = RelExpr>>(exprs: I) -> RelExpr {
        let mut it = exprs.into_iter();
        let first = it.next().expect("union_all of nothing");
        it.fold(first, RelExpr::union)
    }

    /// Evaluates to the relation's bit matrix under `a`.
    pub fn eval(&self, a: &Analysis<'_>) -> Rel {
        match self {
            RelExpr::Base(r) => a.matrix(*r).clone(),
            RelExpr::Union(l, r) => r.with(a, |rv| l.eval(a).union(rv)),
            RelExpr::Inter(l, r) => r.with(a, |rv| l.eval(a).inter(rv)),
            RelExpr::Diff(l, r) => r.with(a, |rv| l.eval(a).diff(rv)),
            RelExpr::Seq(l, r) => l.with(a, |lv| r.with(a, |rv| lv.seq(rv))),
            RelExpr::Inverse(e) => e.with(a, Rel::inverse),
            RelExpr::Closure(e) => e.eval(a).closure(),
        }
    }

    /// Hands `f` the value of the expression under `a`, borrowing a base
    /// relation instead of copying it.
    fn with<T>(&self, a: &Analysis<'_>, f: impl FnOnce(&Rel) -> T) -> T {
        match self {
            RelExpr::Base(r) => f(a.matrix(*r)),
            e => f(&e.eval(a)),
        }
    }

    /// `true` when the expression mentions `rel` anywhere.
    ///
    /// The synthesis engine uses this to branch on execution choices (e.g.
    /// the alias-creation order `co_pa`) only when the MTM can observe
    /// them.
    pub fn mentions(&self, rel: BaseRel) -> bool {
        match self {
            RelExpr::Base(r) => *r == rel,
            RelExpr::Union(l, r)
            | RelExpr::Inter(l, r)
            | RelExpr::Diff(l, r)
            | RelExpr::Seq(l, r) => l.mentions(rel) || r.mentions(rel),
            RelExpr::Inverse(e) | RelExpr::Closure(e) => e.mentions(rel),
        }
    }
}

impl fmt::Display for RelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelExpr::Base(r) => write!(f, "{}", r.name()),
            RelExpr::Union(l, r) => write!(f, "({l} | {r})"),
            RelExpr::Inter(l, r) => write!(f, "({l} & {r})"),
            RelExpr::Diff(l, r) => write!(f, "({l} \\ {r})"),
            RelExpr::Seq(l, r) => write!(f, "({l} ; {r})"),
            RelExpr::Inverse(e) => write!(f, "~{e}"),
            RelExpr::Closure(e) => write!(f, "^{e}"),
        }
    }
}

/// One axiom of a transistency predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Axiom {
    /// The expression must have no cycle.
    Acyclic(RelExpr),
    /// The expression must relate no event to itself.
    Irreflexive(RelExpr),
    /// The expression must be empty.
    Empty(RelExpr),
}

impl Axiom {
    /// Whether the axiom holds in the analyzed execution.
    pub fn holds(&self, a: &Analysis<'_>) -> bool {
        match self {
            Axiom::Acyclic(e) => e.eval(a).is_acyclic(),
            Axiom::Irreflexive(e) => e.with(a, Rel::is_irreflexive),
            Axiom::Empty(e) => e.with(a, Rel::is_empty),
        }
    }

    /// The expression the axiom constrains.
    pub fn expr(&self) -> &RelExpr {
        match self {
            Axiom::Acyclic(e) | Axiom::Irreflexive(e) | Axiom::Empty(e) => e,
        }
    }
}

impl fmt::Display for Axiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axiom::Acyclic(e) => write!(f, "acyclic({e})"),
            Axiom::Irreflexive(e) => write!(f, "irreflexive({e})"),
            Axiom::Empty(e) => write!(f, "empty({e})"),
        }
    }
}

/// A named axiom within an MTM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedAxiom {
    /// The axiom's name (e.g. `sc_per_loc`).
    pub name: String,
    /// The constraint itself.
    pub axiom: Axiom,
}

/// A memory transistency model: a named transistency predicate given as a
/// conjunction of axioms.
///
/// # Examples
///
/// ```
/// use transform_core::axiom::{Axiom, Mtm, RelExpr};
/// use transform_core::derive::BaseRel;
///
/// let mut mtm = Mtm::new("sc_only");
/// mtm.add_axiom(
///     "sc_per_loc",
///     Axiom::Acyclic(RelExpr::union_all([
///         RelExpr::base(BaseRel::Rf),
///         RelExpr::base(BaseRel::Co),
///         RelExpr::base(BaseRel::Fr),
///         RelExpr::base(BaseRel::PoLoc),
///     ])),
/// );
/// assert_eq!(mtm.axioms().len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mtm {
    name: String,
    axioms: Vec<NamedAxiom>,
}

/// The result of evaluating a transistency predicate on one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Names of violated axioms (empty ⇒ permitted).
    pub violated: Vec<String>,
}

impl Verdict {
    /// `true` when every axiom held.
    pub fn is_permitted(&self) -> bool {
        self.violated.is_empty()
    }

    /// `true` when the named axiom was violated.
    pub fn violates(&self, axiom: &str) -> bool {
        self.violated.iter().any(|v| v == axiom)
    }
}

impl Mtm {
    /// Creates an MTM with no axioms (which permits everything).
    pub fn new(name: &str) -> Mtm {
        Mtm {
            name: name.to_string(),
            axioms: Vec::new(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a named axiom to the predicate.
    pub fn add_axiom(&mut self, name: &str, axiom: Axiom) -> &mut Mtm {
        self.axioms.push(NamedAxiom {
            name: name.to_string(),
            axiom,
        });
        self
    }

    /// The axioms, in insertion order.
    pub fn axioms(&self) -> &[NamedAxiom] {
        &self.axioms
    }

    /// Looks up an axiom by name.
    pub fn axiom(&self, name: &str) -> Option<&NamedAxiom> {
        self.axioms.iter().find(|a| a.name == name)
    }

    /// Evaluates the transistency predicate on an analyzed execution.
    pub fn evaluate(&self, a: &Analysis<'_>) -> Verdict {
        Verdict {
            violated: self
                .axioms
                .iter()
                .filter(|ax| !ax.axiom.holds(a))
                .map(|ax| ax.name.clone())
                .collect(),
        }
    }

    /// Analyzes and evaluates an execution in one step.
    ///
    /// # Panics
    ///
    /// Panics if the execution is not well-formed; use
    /// [`Mtm::try_permits`] to handle malformed executions.
    pub fn permits(&self, x: &Execution) -> Verdict {
        self.try_permits(x).expect("execution must be well-formed")
    }

    /// Analyzes and evaluates, reporting well-formedness failures.
    ///
    /// # Errors
    ///
    /// Returns the placement-rule violation if the execution is malformed.
    pub fn try_permits(&self, x: &Execution) -> Result<Verdict, WellformedError> {
        Ok(self.evaluate(&x.analyze()?))
    }

    /// `true` when any axiom mentions the given base relation.
    pub fn mentions(&self, rel: BaseRel) -> bool {
        self.axioms.iter().any(|a| a.axiom.expr().mentions(rel))
    }
}

impl fmt::Display for Mtm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mtm {} {{", self.name)?;
        for a in &self.axioms {
            writeln!(f, "  axiom {}: {}", a.name, a.axiom)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EltBuilder;
    use crate::ids::Va;

    fn sc_per_loc() -> Axiom {
        Axiom::Acyclic(RelExpr::union_all([
            RelExpr::base(BaseRel::Rf),
            RelExpr::base(BaseRel::Co),
            RelExpr::base(BaseRel::Fr),
            RelExpr::base(BaseRel::PoLoc),
        ]))
    }

    #[test]
    fn coherence_violation_detected() {
        // W x = 1; R x = 0 on one thread: R reads initial despite the
        // program-earlier write → sc_per_loc cycle.
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (_w, _, _) = b.write_walk(t, Va(0));
        let _r = b.read(t, Va(0)); // reads initial: no rf edge
        let x = b.build();
        let mut mtm = Mtm::new("m");
        mtm.add_axiom("sc_per_loc", sc_per_loc());
        let v = mtm.permits(&x);
        assert!(!v.is_permitted());
        assert!(v.violates("sc_per_loc"));
    }

    #[test]
    fn coherent_execution_permitted() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w, _, _) = b.write_walk(t, Va(0));
        let r = b.read(t, Va(0));
        b.rf(w, r);
        let x = b.build();
        let mut mtm = Mtm::new("m");
        mtm.add_axiom("sc_per_loc", sc_per_loc());
        assert!(mtm.permits(&x).is_permitted());
    }

    #[test]
    fn seq_and_inverse_and_closure_eval() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w, _, _) = b.write_walk(t, Va(0));
        let r = b.read(t, Va(0));
        b.rf(w, r);
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        let rf = RelExpr::base(BaseRel::Rf);
        assert_eq!(rf.clone().inverse().eval(&a).len(), rf.eval(&a).len());
        let po = RelExpr::base(BaseRel::Po);
        assert_eq!(po.clone().closure().eval(&a), po.eval(&a));
        // rf ; ~rf relates the write to itself.
        let roundtrip = RelExpr::base(BaseRel::Rf).seq(RelExpr::base(BaseRel::Rf).inverse());
        assert!(roundtrip.eval(&a).contains(w, w));
    }

    #[test]
    fn mentions_traverses_structure() {
        let e = RelExpr::base(BaseRel::Rf)
            .union(RelExpr::base(BaseRel::CoPa).closure())
            .seq(RelExpr::base(BaseRel::Po));
        assert!(e.mentions(BaseRel::CoPa));
        assert!(e.mentions(BaseRel::Po));
        assert!(!e.mentions(BaseRel::FrVa));
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = RelExpr::base(BaseRel::FrVa)
            .union(RelExpr::base(BaseRel::Po).closure())
            .union(RelExpr::base(BaseRel::Remap));
        let ax = Axiom::Acyclic(e);
        assert_eq!(ax.to_string(), "acyclic(((fr_va | ^po) | remap))");
    }

    #[test]
    fn empty_mtm_permits_anything_well_formed() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.read_walk(t, Va(0));
        let x = b.build();
        let mtm = Mtm::new("empty");
        assert!(mtm.permits(&x).is_permitted());
    }
}
