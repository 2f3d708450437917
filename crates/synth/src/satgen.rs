//! The relational (SAT-backed) candidate-execution generator.
//!
//! This backend mirrors the paper's implementation strategy: the MTM
//! vocabulary is encoded in bounded relational logic (the `relational`
//! crate playing Kodkod's role, `tsat` playing MiniSat's), the
//! communication relations (`rf`, `co`, optionally `co_pa`) are declared
//! as free relations with tuple-set bounds, well-formedness becomes
//! relational constraints, and "the outcome violates axiom A" becomes a
//! negated acyclicity/emptiness formula. Each SAT model is one candidate
//! execution.
//!
//! Every (program, axiom) query is a model-finding problem of its own,
//! solved on a fresh solver, as each Alloy command is in the paper's
//! flow.
//!
//! Address-mapping provenance is encoded relationally: a walk's loaded
//! mapping is the transitive chain through `rf_pte` and the static
//! dirty-bit-to-walk edges, terminating at a PTE write (or at the initial
//! mapping when the chain never meets one).

use relational::{Expr, Formula, Instance, Problem, RelId, TupleSet, Universe};
use std::collections::BTreeMap;
use transform_core::axiom::{Axiom, Mtm, RelExpr};
use transform_core::derive::{static_tlb_sources, BaseRel};
use transform_core::event::EventKind;
use transform_core::exec::{Execution, PairSet};
use transform_core::ids::EventId;

/// Enumerates candidate executions of `skeleton` whose outcome violates
/// `axiom`, via relational model finding. Returns at most `limit`.
pub fn violating_executions(
    skeleton: &Execution,
    mtm: &Mtm,
    axiom: &str,
    branch_co_pa: bool,
    limit: usize,
) -> Vec<Execution> {
    violating_executions_with_stats(skeleton, mtm, axiom, branch_co_pa, limit).0
}

/// [`violating_executions`], with the work counters of the query's SAT
/// solver.
pub(crate) fn violating_executions_with_stats(
    skeleton: &Execution,
    mtm: &Mtm,
    axiom: &str,
    branch_co_pa: bool,
    limit: usize,
) -> (Vec<Execution>, tsat::SolverStats) {
    let Some(named) = mtm.axiom(axiom) else {
        return (Vec::new(), tsat::SolverStats::default());
    };
    generate(skeleton, Some(&named.axiom), branch_co_pa, limit)
}

/// Enumerates every well-formed candidate execution of `skeleton` via
/// relational model finding (no violation constraint) — used to cross-check
/// the explicit enumerator.
pub fn all_executions(skeleton: &Execution, branch_co_pa: bool) -> Vec<Execution> {
    generate(skeleton, None, branch_co_pa, usize::MAX).0
}

struct Encoding {
    problem: Problem,
    rf_data: RelId,
    rf_pte: RelId,
    co: RelId,
    co_pa: Option<RelId>,
}

fn generate(
    skeleton: &Execution,
    violate: Option<&Axiom>,
    branch_co_pa: bool,
    limit: usize,
) -> (Vec<Execution>, tsat::SolverStats) {
    let Some(enc) = encode(skeleton, violate, branch_co_pa) else {
        return (Vec::new(), tsat::SolverStats::default());
    };
    let mut solutions = enc.problem.solutions();
    let executions = solutions
        .by_ref()
        .take(limit)
        .map(|inst| decode(skeleton, &enc, &inst))
        .collect();
    (executions, solutions.solver_stats())
}

/// Reads one SAT model back into a candidate execution.
fn decode(skeleton: &Execution, enc: &Encoding, inst: &Instance) -> Execution {
    let mut parts = skeleton.to_parts();
    parts.rf = BTreeMap::new();
    for (w, r) in inst.pairs(enc.rf_data) {
        parts.rf.insert(EventId(r as u32), EventId(w as u32));
    }
    for (w, r) in inst.pairs(enc.rf_pte) {
        parts.rf.insert(EventId(r as u32), EventId(w as u32));
    }
    parts.co = inst
        .pairs(enc.co)
        .into_iter()
        .map(|(a, b)| (EventId(a as u32), EventId(b as u32)))
        .collect();
    parts.co_pa = enc.co_pa.map(|r| {
        inst.pairs(r)
            .into_iter()
            .map(|(a, b)| (EventId(a as u32), EventId(b as u32)))
            .collect::<PairSet>()
    });
    Execution::from_parts(parts)
}

#[allow(clippy::too_many_lines)]
fn encode(skeleton: &Execution, violate: Option<&Axiom>, branch_co_pa: bool) -> Option<Encoding> {
    let events = skeleton.events();
    let n = events.len();
    let num_pas = skeleton.num_pas();
    let num_vas = skeleton.num_vas();
    let tlb_src = static_tlb_sources(skeleton).ok()?;

    // Universe: event atoms, then PA atoms, then PTE-location atoms.
    let mut names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
    names.extend((0..num_pas).map(|p| format!("pa{p}")));
    names.extend((0..num_vas).map(|v| format!("pl{v}")));
    let universe = Universe::new(names);
    let pa_atom = |p: usize| n + p;
    let pl_atom = |v: usize| n + num_pas + v;

    let of_kind = |f: &dyn Fn(EventKind) -> bool| -> TupleSet {
        TupleSet::from_atoms(events.iter().filter(|e| f(e.kind)).map(|e| e.id.index()))
    };
    let user_mem = of_kind(&EventKind::is_user_memory);
    let ptws = of_kind(&|k| k == EventKind::Ptw);
    let wptes = of_kind(&|k| matches!(k, EventKind::PteWrite { .. }));
    let writes = of_kind(&EventKind::is_write);
    let reads = of_kind(&EventKind::is_read);

    let mut problem = Problem::new(universe);

    // --- free relations ---
    let rf_data_upper = TupleSet::from_pairs(
        events
            .iter()
            .filter(|w| w.kind == EventKind::Write)
            .flat_map(|w| {
                events
                    .iter()
                    .filter(|r| r.kind == EventKind::Read)
                    .map(move |r| (w.id.index(), r.id.index()))
            }),
    );
    let rf_data = problem.declare("rf_data", 2, TupleSet::empty(2), rf_data_upper);

    let rf_pte_upper = TupleSet::from_pairs(
        events
            .iter()
            .filter(|w| {
                matches!(
                    w.kind,
                    EventKind::PteWrite { .. } | EventKind::DirtyBitWrite
                )
            })
            .flat_map(|w| {
                events
                    .iter()
                    .filter(move |r| r.kind == EventKind::Ptw && r.va == w.va)
                    .map(move |r| (w.id.index(), r.id.index()))
            }),
    );
    let rf_pte = problem.declare("rf_pte", 2, TupleSet::empty(2), rf_pte_upper);

    let co_upper =
        TupleSet::from_pairs(events.iter().filter(|a| a.kind.is_write()).flat_map(|a| {
            events
                .iter()
                .filter(move |b| b.kind.is_write() && b.id != a.id)
                .map(move |b| (a.id.index(), b.id.index()))
        }));
    let co = problem.declare("co", 2, TupleSet::empty(2), co_upper);

    let co_pa = if branch_co_pa {
        let upper = TupleSet::from_pairs(events.iter().flat_map(|a| {
            events.iter().filter_map(move |b| match (a.kind, b.kind) {
                (EventKind::PteWrite { new_pa: pa_a }, EventKind::PteWrite { new_pa: pa_b })
                    if a.id != b.id && pa_a == pa_b =>
                {
                    Some((a.id.index(), b.id.index()))
                }
                _ => None,
            })
        }));
        Some(problem.declare("co_pa", 2, TupleSet::empty(2), upper))
    } else {
        None
    };

    // --- static structure ---
    let mut slot_vec = vec![0usize; n];
    for t in 0..skeleton.num_threads() {
        for (s, &e) in skeleton
            .po_of(transform_core::ids::ThreadId(t))
            .iter()
            .enumerate()
        {
            slot_vec[e.index()] = s;
        }
    }
    let anchors_vec: Vec<(usize, usize, u8)> = events
        .iter()
        .map(|e| match e.kind {
            EventKind::Ptw => (
                e.thread.0,
                slot_vec[skeleton.invoker(e.id).expect("walk invoker").index()],
                0,
            ),
            EventKind::DirtyBitWrite => (
                e.thread.0,
                slot_vec[skeleton.invoker(e.id).expect("wdb invoker").index()],
                2,
            ),
            _ => (e.thread.0, slot_vec[e.id.index()], 1),
        })
        .collect();
    // Copyable references so the `move` closures below only copy pointers.
    let slot = &slot_vec;
    let anchors = &anchors_vec;
    let tlb_src = &tlb_src;
    let anchor = |e: &transform_core::event::Event| anchors[e.id.index()];
    let apo_pairs = TupleSet::from_pairs(events.iter().flat_map(|a| {
        events.iter().filter_map(move |b| {
            (a.thread == b.thread && a.id != b.id && anchor(a) < anchor(b))
                .then_some((a.id.index(), b.id.index()))
        })
    }));
    let po_pairs = TupleSet::from_pairs(events.iter().flat_map(|a| {
        events.iter().filter_map(move |b| {
            (!a.kind.is_ghost()
                && !b.kind.is_ghost()
                && a.thread == b.thread
                && slot[a.id.index()] < slot[b.id.index()])
            .then_some((a.id.index(), b.id.index()))
        })
    }));
    let ext_pairs = TupleSet::from_pairs(events.iter().flat_map(|a| {
        events
            .iter()
            .filter(move |b| a.thread != b.thread)
            .map(move |b| (a.id.index(), b.id.index()))
    }));
    let fence_pairs = TupleSet::from_pairs(events.iter().flat_map(|a| {
        events.iter().flat_map(move |b| {
            events.iter().filter_map(move |f| {
                (f.kind == EventKind::Fence
                    && a.kind.is_memory()
                    && !a.kind.is_ghost()
                    && b.kind.is_memory()
                    && !b.kind.is_ghost()
                    && a.thread == f.thread
                    && b.thread == f.thread
                    && anchor(a) < anchor(f)
                    && anchor(f) < anchor(b))
                .then_some((a.id.index(), b.id.index()))
            })
        })
    }));
    let ghost_pairs = TupleSet::from_pairs(
        events
            .iter()
            .filter_map(|g| skeleton.invoker(g.id).map(|i| (i.index(), g.id.index()))),
    );
    let rf_ptw_pairs = TupleSet::from_pairs(
        events
            .iter()
            .filter_map(|e| tlb_src[e.id.index()].map(|p| (p.index(), e.id.index()))),
    );
    let ptw_source_pairs = TupleSet::from_pairs(events.iter().flat_map(|e| {
        let own = tlb_src[e.id.index()].filter(|&p| skeleton.invoker(p) == Some(e.id));
        events.iter().filter_map(move |e2| {
            (own.is_some() && e2.id != e.id && tlb_src[e2.id.index()] == own)
                .then_some((e.id.index(), e2.id.index()))
        })
    }));
    let remap_pairs = TupleSet::from_pairs(
        skeleton
            .remap_pairs()
            .iter()
            .map(|&(w, i)| (w.index(), i.index())),
    );
    let rmw_pairs = TupleSet::from_pairs(
        skeleton
            .rmw_pairs()
            .iter()
            .map(|&(r, w)| (r.index(), w.index())),
    );
    // Static ppo: anchored order over issued (non-ghost) memory events
    // minus write→read — ghosts get no program-order guarantees (§III-A).
    let ppo_pairs = TupleSet::from_pairs(events.iter().flat_map(|a| {
        events.iter().filter_map(move |b| {
            (a.thread == b.thread
                && a.id != b.id
                && anchor(a) < anchor(b)
                && a.kind.is_memory()
                && !a.kind.is_ghost()
                && b.kind.is_memory()
                && !b.kind.is_ghost()
                && !(a.kind.is_write() && b.kind.is_read()))
            .then_some((a.id.index(), b.id.index()))
        })
    }));
    // Dirty-bit write → the walk of its invoker (mapping inheritance).
    let wdb2walk = TupleSet::from_pairs(events.iter().filter_map(|d| {
        if d.kind != EventKind::DirtyBitWrite {
            return None;
        }
        let inv = skeleton.invoker(d.id).expect("wdb invoker");
        tlb_src[inv.index()].map(|p| (d.id.index(), p.index()))
    }));
    // PTE write → its target PA atom.
    let wpte2pa = TupleSet::from_pairs(events.iter().filter_map(|e| match e.kind {
        EventKind::PteWrite { new_pa } => Some((e.id.index(), pa_atom(new_pa.0))),
        _ => None,
    }));
    // PTE-stratum events → their PTE-location atom.
    let pte_loc = TupleSet::from_pairs(events.iter().filter_map(|e| match e.kind {
        EventKind::Ptw | EventKind::DirtyBitWrite | EventKind::PteWrite { .. } => {
            Some((e.id.index(), pl_atom(e.va_unwrap().0)))
        }
        _ => None,
    }));
    // User access → its (static) walk source.
    let user2walk = TupleSet::from_pairs(events.iter().filter_map(|e| {
        e.kind
            .is_user_memory()
            .then(|| tlb_src[e.id.index()].map(|p| (e.id.index(), p.index())))
            .flatten()
    }));

    // --- derived expressions ---
    let rf = Expr::rel(rf_data).union(Expr::rel(rf_pte));
    let step = Expr::rel(rf_pte)
        .transpose()
        .union(Expr::constant(wdb2walk));
    let origin_rel = step
        .clone()
        .closure()
        .inter(Expr::univ(1).product(Expr::constant(wptes.clone())));
    // Loaded mapping per walk: the origin PTE write's PA, or the VA's
    // initial PA when the chain hits the initial PTE.
    let chained_ptws = origin_rel.clone().join(Expr::univ(1));
    let mut init_loaded = TupleSet::empty(2);
    for e in events {
        if e.kind == EventKind::Ptw {
            init_loaded.insert(vec![e.id.index(), pa_atom(e.va_unwrap().0)]);
        }
    }
    let init_ptws = Expr::constant(ptws.clone()).diff(chained_ptws.clone());
    let loaded = origin_rel
        .clone()
        .join(Expr::constant(wpte2pa.clone()))
        .union(Expr::constant(init_loaded).inter(init_ptws.clone().product(Expr::univ(1))));
    let pa_of = Expr::constant(user2walk.clone()).join(loaded.clone());
    let loc = pa_of.clone().union(Expr::constant(pte_loc.clone()));
    let same_loc = loc.clone().join(loc.clone().transpose());
    let user_origin = Expr::constant(user2walk.clone()).join(origin_rel.clone());

    // --- well-formedness constraints ---
    // Each read has at most one source.
    for r in events.iter().filter(|e| e.kind == EventKind::Read) {
        problem.require(Formula::lone(
            Expr::rel(rf_data).join(Expr::atom(r.id.index())),
        ));
    }
    for p in events.iter().filter(|e| e.kind == EventKind::Ptw) {
        problem.require(Formula::lone(
            Expr::rel(rf_pte).join(Expr::atom(p.id.index())),
        ));
    }
    // Data rf respects effective locations.
    problem.require(Formula::subset(Expr::rel(rf_data), same_loc.clone()));
    // Mapping provenance is well-founded.
    problem.require(Formula::acyclic(step));
    // Coherence: strict total order per (dynamic) location.
    problem.require(Formula::subset(Expr::rel(co), same_loc.clone()));
    problem.require(Formula::subset(
        Expr::rel(co).join(Expr::rel(co)),
        Expr::rel(co),
    ));
    problem.require(Formula::acyclic(Expr::rel(co)));
    problem.require(Formula::subset(
        Expr::constant(writes.clone())
            .product(Expr::constant(writes.clone()))
            .inter(same_loc.clone())
            .diff(Expr::iden()),
        Expr::rel(co).union(Expr::rel(co).transpose()),
    ));
    if let Some(co_pa) = co_pa {
        // Upper bound already restricts to same-target pairs; totality over
        // those pairs comes from the constant same-target square.
        let same_target = Expr::constant(problem.decl(co_pa).upper.clone());
        problem.require(Formula::subset(
            same_target,
            Expr::rel(co_pa).union(Expr::rel(co_pa).transpose()),
        ));
        problem.require(Formula::subset(
            Expr::rel(co_pa).join(Expr::rel(co_pa)),
            Expr::rel(co_pa),
        ));
        problem.require(Formula::acyclic(Expr::rel(co_pa)));
    }

    // --- the violated axiom ---
    if let Some(axiom) = violate {
        // fr = (~rf ; co) ∪ ((reads with no source × writes) ∩ same_loc).
        let sourced = Expr::univ(1).join(rf.clone());
        let no_src_reads = Expr::constant(reads.clone()).diff(sourced);
        let fr = rf.clone().transpose().join(Expr::rel(co)).union(
            no_src_reads
                .product(Expr::constant(writes.clone()))
                .inter(same_loc.clone()),
        );
        let com = rf.clone().union(Expr::rel(co)).union(fr.clone());
        // Default static co_pa (event order) when not branched.
        let default_co_pa = TupleSet::from_pairs(events.iter().flat_map(|a| {
            events.iter().filter_map(move |b| match (a.kind, b.kind) {
                (EventKind::PteWrite { new_pa: pa_a }, EventKind::PteWrite { new_pa: pa_b })
                    if pa_a == pa_b && a.id < b.id =>
                {
                    Some((a.id.index(), b.id.index()))
                }
                _ => None,
            })
        }));
        let co_pa_expr = match co_pa {
            Some(r) => Expr::rel(r),
            None => Expr::constant(default_co_pa),
        };
        // fr_va / fr_pa: successors of the mapping origin, with the
        // initial-mapping cases added statically per VA / per PA.
        let init_users =
            Expr::constant(user_mem.clone()).diff(user_origin.clone().join(Expr::univ(1)));
        let mut fr_va = user_origin
            .clone()
            .join(Expr::rel(co))
            .inter(Expr::univ(1).product(Expr::constant(wptes.clone())));
        for v in 0..num_vas {
            let users_v = TupleSet::from_atoms(
                events
                    .iter()
                    .filter(|e| e.kind.is_user_memory() && e.va_unwrap().0 == v)
                    .map(|e| e.id.index()),
            );
            let wptes_v = TupleSet::from_atoms(events.iter().filter_map(|e| {
                matches!(e.kind, EventKind::PteWrite { .. })
                    .then_some(e.id.index())
                    .filter(|_| e.va_unwrap().0 == v)
            }));
            if users_v.is_empty() || wptes_v.is_empty() {
                continue;
            }
            fr_va = fr_va.union(
                init_users
                    .clone()
                    .inter(Expr::constant(users_v))
                    .product(Expr::constant(wptes_v)),
            );
        }
        let mut fr_pa = user_origin.clone().join(co_pa_expr.clone());
        for p in 0..num_pas {
            let wptes_p = TupleSet::from_atoms(events.iter().filter_map(|e| match e.kind {
                EventKind::PteWrite { new_pa } if new_pa.0 == p => Some(e.id.index()),
                _ => None,
            }));
            if wptes_p.is_empty() {
                continue;
            }
            let users_at_p = pa_of.clone().join(Expr::atom(pa_atom(p)));
            fr_pa = fr_pa.union(
                init_users
                    .clone()
                    .inter(users_at_p)
                    .product(Expr::constant(wptes_p)),
            );
        }

        let lower = |rel: BaseRel| -> Expr {
            match rel {
                BaseRel::Po => Expr::constant(po_pairs.clone()),
                BaseRel::Apo => Expr::constant(apo_pairs.clone()),
                BaseRel::PoLoc => Expr::constant(apo_pairs.clone().intersection(
                    &TupleSet::from_pairs(events.iter().flat_map(|a| {
                        events.iter().filter_map(move |b| {
                            (a.kind.is_memory() && b.kind.is_memory())
                                .then_some((a.id.index(), b.id.index()))
                        })
                    })),
                ))
                .inter(same_loc.clone()),
                BaseRel::Ppo => Expr::constant(ppo_pairs.clone()),
                BaseRel::Fence => Expr::constant(fence_pairs.clone()),
                BaseRel::Rf => rf.clone(),
                BaseRel::Rfe => rf.clone().inter(Expr::constant(ext_pairs.clone())),
                BaseRel::Co => Expr::rel(co),
                BaseRel::Fr => fr.clone(),
                BaseRel::Com => com.clone(),
                BaseRel::Ghost => Expr::constant(ghost_pairs.clone()),
                BaseRel::RfPtw => Expr::constant(rf_ptw_pairs.clone()),
                BaseRel::RfPa => user_origin.clone().transpose(),
                BaseRel::CoPa => co_pa_expr.clone(),
                BaseRel::FrPa => fr_pa.clone(),
                BaseRel::FrVa => fr_va.clone(),
                BaseRel::Remap => Expr::constant(remap_pairs.clone()),
                BaseRel::Rmw => Expr::constant(rmw_pairs.clone()),
                BaseRel::PtwSource => Expr::constant(ptw_source_pairs.clone()),
            }
        };
        let expr = lower_rel_expr(axiom.expr(), &lower);
        let violated = match axiom {
            Axiom::Acyclic(_) => Formula::not(Formula::acyclic(expr)),
            Axiom::Irreflexive(_) => Formula::some(expr.inter(Expr::iden())),
            Axiom::Empty(_) => Formula::some(expr),
        };
        problem.require(violated);
    }

    Some(Encoding {
        problem,
        rf_data,
        rf_pte,
        co,
        co_pa,
    })
}

fn lower_rel_expr(e: &RelExpr, lower: &dyn Fn(BaseRel) -> Expr) -> Expr {
    match e {
        RelExpr::Base(r) => lower(*r),
        RelExpr::Union(a, b) => lower_rel_expr(a, lower).union(lower_rel_expr(b, lower)),
        RelExpr::Inter(a, b) => lower_rel_expr(a, lower).inter(lower_rel_expr(b, lower)),
        RelExpr::Diff(a, b) => lower_rel_expr(a, lower).diff(lower_rel_expr(b, lower)),
        RelExpr::Seq(a, b) => lower_rel_expr(a, lower).join(lower_rel_expr(b, lower)),
        RelExpr::Inverse(a) => lower_rel_expr(a, lower).transpose(),
        RelExpr::Closure(a) => lower_rel_expr(a, lower).closure(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execs;
    use std::collections::BTreeSet;
    use transform_core::exec::EltBuilder;
    use transform_core::ids::{Pa, Va};
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

    type CommSignature = (Vec<(u32, u32)>, Vec<(u32, u32)>);

    /// Canonical signature of one execution's communication choices.
    fn signature(x: &Execution) -> CommSignature {
        let rf: Vec<(u32, u32)> = x.rf_pairs().iter().map(|&(a, b)| (a.0, b.0)).collect();
        let co: Vec<(u32, u32)> = x.co_pairs().iter().map(|&(a, b)| (a.0, b.0)).collect();
        (rf, co)
    }

    fn skeleton_wr() -> Execution {
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.write_walk(t, Va(0));
        b.read(t, Va(0));
        b.build()
    }

    fn skeleton_remap_read() -> Execution {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let w = b.pte_write(t, Va(0), Pa(1));
        let i = b.invlpg(t, Va(0));
        b.remap(w, i);
        b.read_walk(t, Va(0));
        b.build()
    }

    #[test]
    fn relational_matches_explicit_on_simple_program() {
        let skel = skeleton_wr();
        let explicit: BTreeSet<_> = execs::executions(&skel, false)
            .iter()
            .map(signature)
            .collect();
        let relational: BTreeSet<_> = all_executions(&skel, false).iter().map(signature).collect();
        assert_eq!(explicit, relational);
        assert_eq!(explicit.len(), 2);
    }

    #[test]
    fn relational_matches_explicit_on_remap_program() {
        let skel = skeleton_remap_read();
        let explicit: BTreeSet<_> = execs::executions(&skel, false)
            .iter()
            .map(signature)
            .collect();
        let relational: BTreeSet<_> = all_executions(&skel, false).iter().map(signature).collect();
        assert_eq!(explicit, relational);
    }

    #[test]
    fn relational_matches_explicit_on_two_writes() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        b.write_walk(t, Va(0));
        b.write(t, Va(0));
        let skel = b.build();
        let explicit: BTreeSet<_> = execs::executions(&skel, false)
            .iter()
            .map(signature)
            .collect();
        let relational: BTreeSet<_> = all_executions(&skel, false).iter().map(signature).collect();
        assert_eq!(explicit, relational);
        assert_eq!(explicit.len(), 4);
    }

    #[test]
    fn violating_executions_are_forbidden() {
        let mtm = x86t_elt_like();
        let skel = skeleton_remap_read();
        let bad = violating_executions(&skel, &mtm, "invlpg", false, usize::MAX);
        assert_eq!(bad.len(), 1, "exactly the stale-walk execution");
        for x in &bad {
            let v = mtm.permits(x);
            assert!(v.violates("invlpg"));
        }
        // And none are missed: explicit filtering agrees.
        let explicit: Vec<_> = execs::executions(&skel, false)
            .into_iter()
            .filter(|x| mtm.permits(x).violates("invlpg"))
            .collect();
        assert_eq!(explicit.len(), bad.len());
    }

    #[test]
    fn violating_sc_per_loc_agrees_with_explicit() {
        let mtm = x86t_elt_like();
        let skel = skeleton_wr();
        let relational: BTreeSet<_> =
            violating_executions(&skel, &mtm, "sc_per_loc", false, usize::MAX)
                .iter()
                .map(signature)
                .collect();
        let explicit: BTreeSet<_> = execs::executions(&skel, false)
            .into_iter()
            .filter(|x| mtm.permits(x).violates("sc_per_loc"))
            .map(|x| signature(&x))
            .collect();
        assert_eq!(relational, explicit);
        assert_eq!(relational.len(), 1);
    }
}
