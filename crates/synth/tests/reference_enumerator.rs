//! A deliberately naive reference enumerator: an oracle for
//! [`programs`] that shares no code with it beyond the public
//! [`SlotOp`]/[`Program`] types and [`canonical_key`].
//!
//! It builds every tuple of per-thread op sequences within the bound,
//! then every VA, remap, RMW and PA labelling of each tuple, and keeps
//! the candidates that satisfy the placement rules listed in the
//! `programs` module docs. Each rule is applied in the innermost loop
//! that already knows everything the rule reads, which is the same as
//! filtering the full product. VA names are generated up to renaming
//! (as set partitions of the VA-bearing slots), which loses nothing:
//! the canonical key renames VAs anyway. The surviving canonical-key set
//! must equal the key set of [`programs`].

use std::collections::BTreeSet;
use transform_synth::canon::canonical_key;
use transform_synth::programs::{programs, EnumOptions, PaRef, Program, SlotOp};

/// An op before any labelling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Read { walk: bool },
    Write { walk: bool },
    Fence,
    PteWrite,
    Invlpg,
}

/// Every op kind a program may contain. `TlbFlush` is never generated.
const KINDS: [Kind; 7] = [
    Kind::Read { walk: false },
    Kind::Read { walk: true },
    Kind::Write { walk: false },
    Kind::Write { walk: true },
    Kind::Fence,
    Kind::PteWrite,
    Kind::Invlpg,
];

impl Kind {
    /// Events, ghosts included: a walk adds one, a user write adds its
    /// dirty-bit update.
    fn cost(self) -> usize {
        match self {
            Kind::Read { walk } => 1 + usize::from(walk),
            Kind::Write { walk } => 2 + usize::from(walk),
            Kind::Fence | Kind::PteWrite | Kind::Invlpg => 1,
        }
    }
}

/// Every tuple of non-empty op sequences with total cost ≤ `bound` and
/// at most `max_threads` threads. Each tuple is built op by op, each op
/// either extending the last thread or opening a new one, so each is
/// produced exactly once.
fn skeletons(bound: usize, max_threads: usize) -> Vec<Vec<Vec<Kind>>> {
    fn grow(
        cur: &mut Vec<Vec<Kind>>,
        budget: usize,
        max_threads: usize,
        out: &mut Vec<Vec<Vec<Kind>>>,
    ) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        for kind in KINDS {
            if kind.cost() > budget {
                continue;
            }
            if let Some(last) = cur.last_mut() {
                last.push(kind);
                grow(cur, budget - kind.cost(), max_threads, out);
                cur.last_mut().expect("still there").pop();
            }
            if cur.len() < max_threads {
                cur.push(vec![kind]);
                grow(cur, budget - kind.cost(), max_threads, out);
                cur.pop();
            }
        }
    }
    let mut out = Vec::new();
    grow(&mut Vec::new(), bound, max_threads, &mut out);
    out
}

/// Every labelling of `n` slots up to renaming: label `i` is at most one
/// more than the largest earlier label.
fn set_partitions(n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..n {
        let mut grown = Vec::new();
        for labels in &out {
            let next = labels.iter().map(|&l| l + 1).max().unwrap_or(0);
            for l in 0..=next {
                let mut longer = labels.clone();
                longer.push(l);
                grown.push(longer);
            }
        }
        out = grown;
    }
    out
}

/// The cartesian product of `choices`, one pick per position.
fn product<T: Clone>(choices: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new()];
    for options in choices {
        let mut grown = Vec::new();
        for picked in &out {
            for option in options {
                let mut longer: Vec<T> = picked.clone();
                longer.push(option.clone());
                grown.push(longer);
            }
        }
        out = grown;
    }
    out
}

/// Every subset of `items`.
fn subsets<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new()];
    for item in items {
        let with: Vec<Vec<T>> = out
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.push(item.clone());
                s
            })
            .collect();
        out.extend(with);
    }
    out
}

/// The TLB rules: a TLB starts empty, so an access that does not walk
/// needs an earlier access of its VA on its core since the last
/// `INVLPG` of that VA there. PTE writes and fences leave the TLB alone.
fn tlb_ok(threads: &[Vec<SlotOp>]) -> bool {
    threads.iter().all(|row| {
        let mut cached = BTreeSet::new();
        row.iter().all(|op| match *op {
            SlotOp::Read { va, walk } | SlotOp::Write { va, walk } => {
                let hit_ok = walk || cached.contains(&va);
                cached.insert(va);
                hit_ok
            }
            SlotOp::Invlpg { va } => {
                cached.remove(&va);
                true
            }
            _ => true,
        })
    })
}

/// Fences sit strictly between two instructions and never directly
/// after another fence.
fn fences_ok(threads: &[Vec<SlotOp>], allow_fences: bool) -> bool {
    threads.iter().all(|row| {
        row.iter().enumerate().all(|(s, op)| {
            *op != SlotOp::Fence
                || (allow_fences && s > 0 && s + 1 < row.len() && row[s - 1] != SlotOp::Fence)
        })
    })
}

type Pos = (usize, usize);

/// Every PTE write invokes exactly one `INVLPG` of its VA on every core
/// (strictly later on its own core), and no `INVLPG` serves two PTE
/// writes. `remap` holds one candidate pair per (PTE write, core).
fn remap_ok(threads: &[Vec<SlotOp>], remap: &[(Pos, Pos)]) -> bool {
    let mut used = BTreeSet::new();
    remap.iter().all(|&((wt, ws), (it, is))| {
        let SlotOp::PteWrite { va, .. } = threads[wt][ws] else {
            return false;
        };
        threads[it][is] == SlotOp::Invlpg { va } && (it != wt || is > ws) && used.insert((it, is))
    })
}

/// An `INVLPG` no PTE write invokes must precede a user read or write
/// of its VA on its core.
fn spurious_ok(threads: &[Vec<SlotOp>], remap: &[(Pos, Pos)]) -> bool {
    threads.iter().enumerate().all(|(t, row)| {
        row.iter().enumerate().all(|(s, op)| {
            let SlotOp::Invlpg { va } = *op else {
                return true;
            };
            remap.iter().any(|&(_, inv)| inv == (t, s))
                || row[s + 1..].iter().any(|later| {
                    matches!(*later, SlotOp::Read { va: v, .. } | SlotOp::Write { va: v, .. } if v == va)
                })
        })
    })
}

/// An RMW pairs a read with the next slot, a write of the same VA that
/// does not walk.
fn rmw_ok(threads: &[Vec<SlotOp>], rmw: &[Pos], allow_rmw: bool) -> bool {
    rmw.is_empty()
        || (allow_rmw
            && rmw.iter().all(|&(t, s)| {
                matches!(
                    (threads[t][s], threads[t][s + 1]),
                    (SlotOp::Read { va: r, .. }, SlotOp::Write { va: w, walk: false }) if r == w
                )
            }))
}

/// The canonical keys of every program the placement rules admit.
fn reference_keys(opts: &EnumOptions) -> BTreeSet<Vec<u64>> {
    let max_threads = opts.max_threads.unwrap_or(opts.bound);
    let mut keys = BTreeSet::new();
    for skeleton in skeletons(opts.bound, max_threads) {
        let va_slots = skeleton
            .iter()
            .flatten()
            .filter(|k| **k != Kind::Fence)
            .count();
        for labels in set_partitions(va_slots) {
            let mut next_label = labels.iter().copied();
            let threads: Vec<Vec<SlotOp>> = skeleton
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&kind| {
                            let mut va = || next_label.next().expect("one label per VA slot");
                            match kind {
                                Kind::Read { walk } => SlotOp::Read { va: va(), walk },
                                Kind::Write { walk } => SlotOp::Write { va: va(), walk },
                                Kind::Fence => SlotOp::Fence,
                                Kind::PteWrite => SlotOp::PteWrite {
                                    va: va(),
                                    pa: PaRef::Fresh(0),
                                },
                                Kind::Invlpg => SlotOp::Invlpg { va: va() },
                            }
                        })
                        .collect()
                })
                .collect();
            if !tlb_ok(&threads) || !fences_ok(&threads, opts.allow_fences) {
                continue;
            }
            let positions = |keep: fn(SlotOp) -> bool| -> Vec<Pos> {
                threads
                    .iter()
                    .enumerate()
                    .flat_map(|(t, row)| {
                        row.iter()
                            .enumerate()
                            .filter(move |(_, op)| keep(**op))
                            .map(move |(s, _)| (t, s))
                    })
                    .collect()
            };
            let wptes = positions(|op| matches!(op, SlotOp::PteWrite { .. }));
            let invlpgs = positions(|op| matches!(op, SlotOp::Invlpg { .. }));
            let reads = positions(|op| matches!(op, SlotOp::Read { .. }));
            let num_vas = labels.iter().max().map_or(0, |&l| l + 1);

            // One INVLPG slot per (PTE write, core).
            let remap_choices: Vec<Vec<(Pos, Pos)>> = wptes
                .iter()
                .flat_map(|&w| {
                    let invlpgs = &invlpgs;
                    (0..threads.len()).map(move |core| {
                        invlpgs
                            .iter()
                            .filter(|&&(it, _)| it == core)
                            .map(|&inv| (w, inv))
                            .collect()
                    })
                })
                .collect();
            let rmw_candidates: Vec<Pos> = reads
                .into_iter()
                .filter(|&(t, s)| s + 1 < threads[t].len())
                .collect();
            let pa_choices: Vec<PaRef> = (0..num_vas)
                .map(PaRef::Initial)
                .chain((0..wptes.len()).map(PaRef::Fresh))
                .collect();
            for remap in product(&remap_choices) {
                if !remap_ok(&threads, &remap) || !spurious_ok(&threads, &remap) {
                    continue;
                }
                for rmw in subsets(&rmw_candidates) {
                    if !rmw_ok(&threads, &rmw, opts.allow_rmw) {
                        continue;
                    }
                    for pas in product(&vec![pa_choices.clone(); wptes.len()]) {
                        let mut labelled = threads.clone();
                        let mut identity = false;
                        for (&(t, s), &pa) in wptes.iter().zip(&pas) {
                            let SlotOp::PteWrite { va, .. } = labelled[t][s] else {
                                unreachable!("wptes lists PTE writes");
                            };
                            identity |= pa == PaRef::Initial(va);
                            labelled[t][s] = SlotOp::PteWrite { va, pa };
                        }
                        if identity && !opts.allow_identity_remap {
                            continue;
                        }
                        keys.insert(canonical_key(&Program {
                            threads: labelled,
                            remap: remap.clone(),
                            rmw: rmw.clone(),
                        }));
                    }
                }
            }
        }
    }
    keys
}

fn options(bound: usize, fences: bool, rmw: bool) -> EnumOptions {
    let mut opts = EnumOptions::new(bound);
    opts.allow_fences = fences;
    opts.allow_rmw = rmw;
    opts
}

fn assert_agrees(opts: &EnumOptions) {
    let fast = programs(opts);
    let fast_keys: BTreeSet<Vec<u64>> = fast.iter().map(canonical_key).collect();
    assert_eq!(
        fast_keys.len(),
        fast.len(),
        "programs() emitted isomorphic duplicates: {opts:?}"
    );
    let reference = reference_keys(opts);
    let missing = reference.difference(&fast_keys).count();
    let extra = fast_keys.difference(&reference).count();
    assert!(
        missing == 0 && extra == 0,
        "{opts:?}: programs() lacks {missing} and adds {extra} of {} reference programs",
        reference.len()
    );
}

#[test]
fn reference_agrees_up_to_bound_4() {
    for bound in 1..=4 {
        for (fences, rmw) in [(false, false), (true, false), (false, true), (true, true)] {
            assert_agrees(&options(bound, fences, rmw));
        }
    }
}

#[test]
fn reference_agrees_with_identity_remaps_and_a_thread_cap() {
    let mut opts = options(4, true, true);
    opts.allow_identity_remap = true;
    assert_agrees(&opts);
    let mut opts = options(4, true, true);
    opts.max_threads = Some(2);
    assert_agrees(&opts);
}

/// Bound 5 in every option mix: about 5 s in a debug build on two
/// cores, most of it the fences + RMW mix.
#[test]
fn reference_agrees_at_bound_5() {
    for (fences, rmw) in [(false, false), (true, false), (false, true), (true, true)] {
        assert_agrees(&options(5, fences, rmw));
    }
}

/// Slow in a debug build; the nightly runs it in release (a few seconds
/// on two cores).
#[test]
#[ignore]
fn reference_agrees_at_bound_6_with_fences_and_rmw() {
    assert_agrees(&options(6, true, true));
}
