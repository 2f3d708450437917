//! Bit-matrix relations over the events of one execution.
//!
//! An execution has at most [`MAX_EVENTS`] events, so a relation is stored
//! as one `u64` row per event: bit `b` of row `a` is set when the pair
//! `(a, b)` is in the relation. Kodkod gives every relation of the paper's
//! Alloy models the same boolean-matrix form over the bounded universe;
//! here the matrices are evaluated rather than solved. Union, intersection
//! and difference are word operations on rows, composition ORs rows of the
//! right operand, and transitive closure is Warshall's algorithm.

use crate::exec::PairSet;
use crate::ids::EventId;
use std::fmt;

/// The most events an execution may have: one bit per event in a row.
pub const MAX_EVENTS: usize = u64::BITS as usize;

/// A binary relation over the events `0..n` of one execution.
#[derive(Clone, PartialEq, Eq)]
pub struct Rel {
    n: usize,
    /// Row `a` holds the successors of event `a`; rows and bits at or
    /// above `n` stay zero.
    rows: [u64; MAX_EVENTS],
}

/// The indices of the set bits of `w`, lowest first.
pub(crate) fn bits(mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            b
        })
    })
}

impl Rel {
    /// The empty relation over `n` events.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds [`MAX_EVENTS`].
    pub(crate) fn empty(n: usize) -> Rel {
        assert!(
            n <= MAX_EVENTS,
            "{n} events do not fit a {MAX_EVENTS}-bit row"
        );
        Rel {
            n,
            rows: [0; MAX_EVENTS],
        }
    }

    /// The relation over `n` events holding exactly `pairs`.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds [`MAX_EVENTS`] or a pair names an event at
    /// or above `n`.
    pub fn from_pairs<'p>(
        n: usize,
        pairs: impl IntoIterator<Item = &'p (EventId, EventId)>,
    ) -> Rel {
        let mut r = Rel::empty(n);
        for &(a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// The number of events the relation ranges over.
    pub(crate) fn events(&self) -> usize {
        self.n
    }

    /// Adds the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics when either event is outside the relation's range.
    pub(crate) fn insert(&mut self, a: EventId, b: EventId) {
        assert!(b.index() < self.n, "event {} out of range", b.0);
        self.rows[..self.n][a.index()] |= 1 << b.index();
    }

    /// `true` when the pair `(a, b)` is in the relation.
    pub fn contains(&self, a: EventId, b: EventId) -> bool {
        a.index() < self.n && b.index() < self.n && self.rows[a.index()] >> b.index() & 1 == 1
    }

    /// The successors of event `a`, one bit per event.
    pub(crate) fn row(&self, a: usize) -> u64 {
        self.rows[..self.n][a]
    }

    /// Mutable access to the successors of event `a`, for derivation.
    pub(crate) fn row_mut(&mut self, a: usize) -> &mut u64 {
        &mut self.rows[..self.n][a]
    }

    /// Every pair, in `(a, b)` order — for printing and tests.
    pub fn pairs(&self) -> PairSet {
        self.iter().collect()
    }

    /// Iterates the pairs in `(a, b)` order.
    fn iter(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.rows[..self.n]
            .iter()
            .enumerate()
            .flat_map(|(a, &row)| bits(row).map(move |b| (EventId(a as u32), EventId(b as u32))))
    }

    /// The number of pairs.
    pub fn len(&self) -> usize {
        self.rows[..self.n]
            .iter()
            .map(|r| r.count_ones() as usize)
            .sum()
    }

    /// `true` when no pair is in the relation.
    pub fn is_empty(&self) -> bool {
        self.rows[..self.n].iter().all(|&r| r == 0)
    }

    /// `self | other`.
    pub fn union(mut self, other: &Rel) -> Rel {
        self.zip_rows(other, |a, b| a | b);
        self
    }

    /// `self & other`.
    pub fn inter(mut self, other: &Rel) -> Rel {
        self.zip_rows(other, |a, b| a & b);
        self
    }

    /// `self \ other`.
    pub fn diff(mut self, other: &Rel) -> Rel {
        self.zip_rows(other, |a, b| a & !b);
        self
    }

    fn zip_rows(&mut self, other: &Rel, op: impl Fn(u64, u64) -> u64) {
        assert_eq!(self.n, other.n, "relations over different executions");
        for (a, &b) in self.rows[..self.n].iter_mut().zip(&other.rows[..other.n]) {
            *a = op(*a, b);
        }
    }

    /// The composition `self ; other`: `(a, c)` when some `b` has
    /// `(a, b)` in `self` and `(b, c)` in `other`.
    pub fn seq(&self, other: &Rel) -> Rel {
        assert_eq!(self.n, other.n, "relations over different executions");
        let mut out = Rel::empty(self.n);
        for (o, &row) in out.rows.iter_mut().zip(&self.rows[..self.n]) {
            *o = bits(row).fold(0, |acc, b| acc | other.rows[b]);
        }
        out
    }

    /// The inverse `~self`.
    pub fn inverse(&self) -> Rel {
        let mut out = Rel::empty(self.n);
        for (a, &row) in self.rows[..self.n].iter().enumerate() {
            for b in bits(row) {
                out.rows[b] |= 1 << a;
            }
        }
        out
    }

    /// The transitive closure `^self`, by Warshall's algorithm.
    pub fn closure(mut self) -> Rel {
        let n = self.n;
        for k in 0..n {
            let via = self.rows[k];
            for row in &mut self.rows[..n] {
                if *row >> k & 1 == 1 {
                    *row |= via;
                }
            }
        }
        self
    }

    /// `true` when no event is related to itself.
    pub fn is_irreflexive(&self) -> bool {
        self.rows[..self.n]
            .iter()
            .enumerate()
            .all(|(a, &row)| row >> a & 1 == 0)
    }

    /// `true` when the relation has no cycle: its closure is irreflexive.
    pub fn is_acyclic(self) -> bool {
        self.closure().is_irreflexive()
    }
}

impl fmt::Debug for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|(a, b)| (a.0, b.0)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(n: usize, pairs: &[(u32, u32)]) -> Rel {
        let ps: Vec<_> = pairs
            .iter()
            .map(|&(a, b)| (EventId(a), EventId(b)))
            .collect();
        Rel::from_pairs(n, &ps)
    }

    #[test]
    fn operators_on_a_small_relation() {
        let r = rel(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = rel(4, &[(1, 2), (3, 0)]);
        assert_eq!(
            r.clone().union(&s),
            rel(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
        );
        assert_eq!(r.clone().inter(&s), rel(4, &[(1, 2)]));
        assert_eq!(r.clone().diff(&s), rel(4, &[(0, 1), (2, 3)]));
        assert_eq!(r.seq(&s), rel(4, &[(0, 2), (2, 0)]));
        assert_eq!(s.inverse(), rel(4, &[(2, 1), (0, 3)]));
        assert_eq!(
            r.clone().closure(),
            rel(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        );
        assert!(r.clone().is_acyclic());
        assert!(!r.union(&s).is_acyclic());
    }

    #[test]
    fn the_top_bit_is_an_event() {
        let last = (MAX_EVENTS - 1) as u32;
        let r = rel(MAX_EVENTS, &[(0, last), (last, 0)]);
        assert!(r.contains(EventId(last), EventId(0)));
        assert_eq!(r.len(), 2);
        let c = r.clone().closure();
        assert!(c.contains(EventId(last), EventId(last)));
        assert!(!r.clone().is_acyclic());
        assert!(r.is_irreflexive());
        assert_eq!(c.inverse().pairs().len(), 4);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn wider_than_a_row_panics() {
        Rel::empty(MAX_EVENTS + 1);
    }
}
