//! The synthesis engine driver (Fig. 7 of the paper).
//!
//! For a given MTM and instruction bound, the engine (1) enumerates
//! candidate executions, (2) prunes to the vector space of *interesting*
//! behaviors — executions containing a write whose outcome violates the
//! targeted axiom — (3) keeps only executions satisfying the minimality
//! criterion, and (4) deduplicates the surviving programs canonically,
//! yielding the per-axiom spanning-set suite.
//!
//! The driver is factored into three phases so the `transform-par`
//! orchestrator can distribute the middle one across worker threads while
//! reproducing this sequential pipeline exactly:
//!
//! 1. [`plan_suite`] — enumerate programs partition by partition and
//!    keep the write-bearing first occurrence of each canonical key, in
//!    enumeration order;
//! 2. [`Examiner::examine_axioms`] — per program, generate candidate
//!    executions (explicit or relational backend), count, and pick a
//!    deterministic minimal forbidden witness for every axiom of the run
//!    in one walk over the candidates (the relational backend makes one
//!    SAT query per axiom);
//! 3. [`assemble_suite`] — stitch per-program results back together in
//!    plan order, with the shards' counters summed into one set.
//!
//! Every per-program step is independent and deterministic (candidates
//! are examined in a canonical order, not generation order), so any
//! partition of the plan across shards yields the same suite and the same
//! counter sums as a single-threaded run.

use crate::canon::canonical_key;
use crate::execs;
use crate::minimal::is_minimal;
use crate::programs::{EnumOptions, EnumSpace, Program};
use crate::satgen;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use transform_core::axiom::Mtm;
use transform_core::derive::BaseRel;
use transform_core::exec::Execution;

/// Which candidate-execution generator to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    /// Explicit operational enumeration ([`crate::execs`]).
    #[default]
    Explicit,
    /// Bounded relational model finding compiled to SAT
    /// ([`crate::satgen`]) — the architecture of the paper's
    /// Alloy/Kodkod/MiniSat pipeline.
    Relational,
}

/// Options for one synthesis run.
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Program enumeration knobs (bound, fences, rmw, symmetry reduction).
    pub enumeration: EnumOptions,
    /// Candidate-execution backend.
    pub backend: Backend,
    /// Wall-clock budget; synthesis stops cleanly when exceeded (the
    /// paper's one-week timeout, scaled down).
    pub timeout: Option<Duration>,
}

impl SynthOptions {
    /// Defaults for an instruction bound.
    pub fn new(bound: usize) -> SynthOptions {
        SynthOptions {
            enumeration: EnumOptions::new(bound),
            backend: Backend::Explicit,
            timeout: None,
        }
    }
}

/// A synthesized spanning-set member.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SynthesizedElt {
    /// The ELT program (what the tool outputs).
    pub program: Program,
    /// A minimal forbidden candidate execution witnessing inclusion.
    pub witness: Execution,
    /// Axioms the witness violates.
    pub violated: Vec<String>,
}

/// One suite member together with its position in the synthesis plan —
/// the unit that streams out of the engine and into persistent storage
/// (`transform-store`). Records are produced out of order by parallel
/// shards; sorting on `index` recovers the canonical suite order.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SuiteRecord {
    /// The member's plan index (its position in the deduplicated
    /// sequential enumeration — the order `Suite::elts` is sorted by).
    pub index: usize,
    /// The synthesized member itself.
    pub elt: SynthesizedElt,
}

/// Work counters for one shard of a suite synthesis: one examine batch,
/// one fleet range, or a whole sequential run.
///
/// Per-program examination is deterministic, so these counters are a pure
/// function of which plan items the shard processed — any partition of
/// the plan sums to the same totals (see [`SuiteStats::from_shards`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Plan items (deduplicated candidate programs) examined.
    pub items: usize,
    /// Candidate executions examined.
    pub executions: usize,
    /// Executions with a forbidden outcome for the target axiom.
    pub forbidden: usize,
    /// Executions passing the minimality criterion.
    pub minimal: usize,
}

impl ShardStats {
    /// Empty counters. The argument is ignored; it is kept because the
    /// frozen benchmark harness (`perfbench`) calls `ShardStats::new(0)`.
    pub fn new(_shard: usize) -> ShardStats {
        ShardStats::default()
    }

    /// Adds one examined program's counters.
    pub fn absorb(&mut self, examined: &Examined) {
        self.items += 1;
        self.executions += examined.executions;
        self.forbidden += examined.forbidden;
        self.minimal += examined.minimal;
    }
}

/// Counters for one suite synthesis: one set per suite, however many
/// shards examined its plan.
#[derive(Clone, Debug, Default)]
pub struct SuiteStats {
    /// Programs enumerated at the bound.
    pub programs: usize,
    /// Plan items (deduplicated candidate programs) examined.
    pub items: usize,
    /// Candidate executions examined.
    pub executions: usize,
    /// Executions with a forbidden outcome for the target axiom.
    pub forbidden: usize,
    /// Executions passing the minimality criterion.
    pub minimal: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// `true` when the run stopped on the timeout instead of completing.
    pub timed_out: bool,
}

impl SuiteStats {
    /// Sums per-shard counters: every total is the exact sum of its
    /// per-shard contributions, independent of the partition.
    pub fn from_shards(programs: usize, shards: &[ShardStats]) -> SuiteStats {
        SuiteStats {
            programs,
            items: shards.iter().map(|s| s.items).sum(),
            executions: shards.iter().map(|s| s.executions).sum(),
            forbidden: shards.iter().map(|s| s.forbidden).sum(),
            minimal: shards.iter().map(|s| s.minimal).sum(),
            elapsed: Duration::ZERO,
            timed_out: false,
        }
    }

    /// The suite's work counters as one shard covering its whole plan.
    pub fn totals(&self) -> ShardStats {
        ShardStats {
            items: self.items,
            executions: self.executions,
            forbidden: self.forbidden,
            minimal: self.minimal,
        }
    }
}

/// A per-axiom ELT suite.
#[derive(Clone, Debug)]
pub struct Suite {
    /// The axiom this suite violates.
    pub axiom: String,
    /// The unique minimal ELT programs.
    pub elts: Vec<SynthesizedElt>,
    /// Work counters.
    pub stats: SuiteStats,
}

/// One unit of synthesis work: a candidate program with its position in
/// the sequential enumeration.
#[derive(Clone, Debug)]
pub struct WorkItem {
    /// Position in the deduplicated enumeration (determines suite order).
    pub index: usize,
    /// The candidate program.
    pub program: Program,
}

/// The partitionable middle of a suite synthesis: the deduplicated,
/// write-bearing program list plus run-wide facts.
#[derive(Clone, Debug)]
pub struct SynthPlan {
    /// Work items, in enumeration order.
    pub items: Vec<WorkItem>,
    /// Programs enumerated at the bound (before dedup/filtering) — the
    /// `programs` counter of [`SuiteStats`].
    pub programs: usize,
    /// Whether enumeration itself hit the deadline.
    pub timed_out: bool,
    /// Whether the MTM observes `co_pa`/`fr_pa` (relation-aware
    /// execution branching).
    pub branch_co_pa: bool,
}

/// Phase 1 of the pipeline: enumerates the program space and keeps, in
/// enumeration order, the first occurrence of each canonical key that can
/// violate anything at all (spanning-set criterion 1: a write exists).
///
/// Isomorphic programs have isomorphic candidate executions, so later
/// occurrences of a key can never contribute a suite member the first
/// occurrence does not; dropping them up front makes the plan a fixed
/// work-list that any shard partition processes identically.
///
/// # Panics
///
/// Panics when `axiom` is not part of `mtm`.
pub fn plan_suite(
    mtm: &Mtm,
    axiom: &str,
    opts: &SynthOptions,
    deadline: Option<Instant>,
) -> SynthPlan {
    assert_axiom(mtm, axiom);
    plan(mtm, opts, deadline)
}

/// [`plan_suite`] for every axiom at once: the plan does not depend on
/// the axiom. Each root partition plans itself
/// ([`EnumSpace::plan_partition`]), in ordinal order; a deadline stops
/// the plan before the first partition whose planning saw it, the cut
/// rule of the parallel pipeline, so a timed-out plan is a prefix of
/// the full one.
fn plan(mtm: &Mtm, opts: &SynthOptions, deadline: Option<Instant>) -> SynthPlan {
    let space = EnumSpace::new(&opts.enumeration);
    let past_deadline = || deadline.is_some_and(|d| Instant::now() > d);
    let mut plan = SynthPlan {
        items: Vec::new(),
        programs: 0,
        timed_out: false,
        branch_co_pa: branches_co_pa(mtm),
    };
    for ordinal in 0..space.partition_count() {
        if past_deadline() {
            plan.timed_out = true;
            break;
        }
        let part = space.plan_partition(ordinal, deadline);
        if past_deadline() {
            plan.timed_out = true;
            break;
        }
        plan.programs += part.programs;
        for program in part.items {
            let index = plan.items.len();
            plan.items.push(WorkItem { index, program });
        }
    }
    plan
}

/// The plan-phase key of one program: its canonical key when the program
/// can appear in a spanning set (it contains a write), `None` otherwise.
/// Key computation is the expensive part of planning and is independent
/// per program; [`plan_from_keyed`] plans a list keyed this way.
pub fn plan_key(program: &Program) -> Option<Vec<u64>> {
    // Spanning-set criterion 1: a write exists. User writes, PTE writes,
    // and the dirty-bit ghosts user writes carry are all writes; reads,
    // fences, and invalidations alone cannot violate anything.
    program.has_write().then(|| canonical_key(program))
}

/// Whether examination must branch candidate generation on `co_pa`/
/// `fr_pa` (the MTM observes physical-address coherence). One shared
/// predicate for the reference planner and the parallel orchestrator,
/// so the two can never drift.
pub fn branches_co_pa(mtm: &Mtm) -> bool {
    mtm.mentions(BaseRel::CoPa) || mtm.mentions(BaseRel::FrPa)
}

/// Plans a keyed program list in one piece: keeps the first occurrence
/// of each canonical key over the whole list, in list order. Isomorphic
/// programs have isomorphic candidate executions, so later occurrences
/// of a key can never contribute a suite member the first occurrence
/// does not. Fed the whole enumeration, it is the global dedup the
/// per-partition plans ([`EnumSpace::plan_partition`]) must reproduce.
///
/// # Panics
///
/// Panics when `axiom` is not part of `mtm`.
pub fn plan_from_keyed(
    mtm: &Mtm,
    axiom: &str,
    keyed: Vec<(Program, Option<Vec<u64>>)>,
    timed_out: bool,
) -> SynthPlan {
    assert_axiom(mtm, axiom);
    let programs = keyed.len();
    let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut items = Vec::new();
    for (program, key) in keyed {
        if key.is_some_and(|key| seen.insert(key)) {
            let index = items.len();
            items.push(WorkItem { index, program });
        }
    }
    SynthPlan {
        items,
        programs,
        timed_out,
        branch_co_pa: branches_co_pa(mtm),
    }
}

/// Panics unless `axiom` is part of `mtm`.
fn assert_axiom(mtm: &Mtm, axiom: &str) {
    assert!(
        mtm.axiom(axiom).is_some(),
        "axiom `{axiom}` is not part of {}",
        mtm.name()
    );
}

/// The outcome of examining one work item for one axiom.
#[derive(Clone, Debug, Default)]
pub struct Examined {
    /// Candidate executions examined.
    pub executions: usize,
    /// Executions violating the target axiom.
    pub forbidden: usize,
    /// Violating executions passing the minimality criterion.
    pub minimal: usize,
    /// The chosen witness and the axioms it violates, when the program
    /// belongs in the suite.
    pub witness: Option<(Execution, Vec<String>)>,
}

/// Phase 2 of the pipeline: per-program candidate generation and
/// spanning-set filtering, for one axiom or for several at once.
///
/// One `Examiner` serves one shard. With the explicit backend, each
/// program's candidates are generated, sorted and walked once for every
/// axiom the examiner serves. With the relational backend, the SAT query
/// names the axiom, so each (program, axiom) pair is one query, solved
/// on a solver of its own ([`satgen::violating_executions`]).
pub struct Examiner<'m> {
    mtm: &'m Mtm,
    axioms: Vec<&'m str>,
    backend: Backend,
    branch_co_pa: bool,
    /// The summed counters of every SAT query answered so far
    /// (relational backend only).
    solver_stats: tsat::SolverStats,
}

impl<'m> Examiner<'m> {
    /// Creates an examiner for one axiom and one shard of a run — the
    /// one-axiom case of [`Examiner::for_axioms`].
    pub fn new(mtm: &'m Mtm, axiom: &'m str, backend: Backend, branch_co_pa: bool) -> Examiner<'m> {
        Examiner::for_axioms(mtm, &[axiom], backend, branch_co_pa)
    }

    /// Creates an examiner for every axiom of `axioms` and one shard of
    /// a run; [`Examiner::examine_axioms`] answers in this order.
    pub fn for_axioms(
        mtm: &'m Mtm,
        axioms: &[&'m str],
        backend: Backend,
        branch_co_pa: bool,
    ) -> Examiner<'m> {
        Examiner {
            mtm,
            axioms: axioms.to_vec(),
            backend,
            branch_co_pa,
            solver_stats: tsat::SolverStats::default(),
        }
    }

    /// Examines one program for the examiner's single axiom (see
    /// [`Examiner::examine_axioms`]).
    ///
    /// # Panics
    ///
    /// Panics when the examiner serves more than one axiom.
    pub fn examine(&mut self, program: &Program) -> Examined {
        assert_eq!(self.axioms.len(), 1, "examine serves one axiom");
        self.examine_axioms(program)
            .pop()
            .expect("one result per axiom")
    }

    /// Examines one program for every axiom of the examiner, in order:
    /// generates its candidate executions, counts them for each axiom up
    /// to (and including) the first minimal forbidden one in canonical
    /// order, and takes that execution — the canonically least minimal
    /// witness — as the program's witness for the axiom.
    ///
    /// Candidates are put in a canonical order before examination, so the
    /// result does not depend on backend generation order — in
    /// particular, not on the order a SAT solver finds its models in.
    /// The counters are therefore a pure per-program function, equal to
    /// what a one-axiom examiner reports, and the early stop at each
    /// axiom's witness is safe.
    pub fn examine_axioms(&mut self, program: &Program) -> Vec<Examined> {
        let skeleton = program.to_skeleton();
        match self.backend {
            Backend::Explicit => walk(
                self.mtm,
                execs::executions(&skeleton, self.branch_co_pa),
                &self.axioms,
            ),
            Backend::Relational => self
                .axioms
                .iter()
                .map(|&axiom| {
                    let (candidates, stats) = satgen::violating_executions_with_stats(
                        &skeleton,
                        self.mtm,
                        axiom,
                        self.branch_co_pa,
                        usize::MAX,
                    );
                    self.solver_stats.absorb(&stats);
                    walk(self.mtm, candidates, &[axiom])
                        .pop()
                        .expect("one result per axiom")
                })
                .collect(),
        }
    }

    /// The summed SAT counters of every query this examiner has answered
    /// (relational backend only).
    pub fn solver_stats(&self) -> Option<tsat::SolverStats> {
        (self.backend == Backend::Relational).then_some(self.solver_stats)
    }
}

/// Walks one program's candidates once, in canonical order, for every
/// axiom of `axioms`. Each axiom counts candidates until its own
/// witness; `analyze`, [`Mtm::evaluate`] and [`is_minimal`] run at most
/// once per candidate, and the walk stops when every axiom has a
/// witness.
fn walk(mtm: &Mtm, mut candidates: Vec<Execution>, axioms: &[&str]) -> Vec<Examined> {
    candidates.sort_by_cached_key(candidate_order_key);
    let mut out: Vec<Examined> = vec![Examined::default(); axioms.len()];
    let mut pending = axioms.len();
    let mut hits = vec![false; axioms.len()];
    for x in candidates {
        if pending == 0 {
            break;
        }
        for examined in out.iter_mut().filter(|e| e.witness.is_none()) {
            examined.executions += 1;
        }
        let Ok(analysis) = x.analyze() else { continue };
        let verdict = mtm.evaluate(&analysis);
        // Spanning-set criterion 2: the outcome violates an axiom that
        // has no witness yet.
        let mut any = false;
        for ((hit, examined), axiom) in hits.iter_mut().zip(&mut out).zip(axioms) {
            *hit = examined.witness.is_none() && verdict.violates(axiom);
            if *hit {
                examined.forbidden += 1;
                any = true;
            }
        }
        // Minimality does not depend on the axiom: one answer serves
        // every axiom this candidate violates.
        if !any || !is_minimal(&x, mtm) {
            continue;
        }
        for (hit, examined) in hits.iter().zip(&mut out) {
            if *hit {
                examined.minimal += 1;
                examined.witness = Some((x.clone(), verdict.violated.clone()));
                pending -= 1;
            }
        }
    }
    out
}

/// A total, deterministic order on candidate executions of one skeleton:
/// their communication choices.
fn candidate_order_key(x: &Execution) -> impl Ord {
    let parts = x.to_parts();
    let rf: Vec<(u32, u32)> = parts.rf.iter().map(|(r, w)| (r.0, w.0)).collect();
    let co: Vec<(u32, u32)> = parts.co.iter().map(|&(a, b)| (a.0, b.0)).collect();
    let co_pa: Option<Vec<(u32, u32)>> = parts
        .co_pa
        .map(|s| s.iter().map(|&(a, b)| (a.0, b.0)).collect());
    (rf, co, co_pa)
}

/// Phase 3 of the pipeline: reassembles per-item results (in plan order)
/// into a [`Suite`] whose counters are the sum of `shards`.
pub fn assemble_suite(
    axiom: &str,
    plan: &SynthPlan,
    results: Vec<(usize, Examined)>,
    shards: Vec<ShardStats>,
    elapsed: Duration,
    timed_out: bool,
) -> Suite {
    let mut results = results;
    results.sort_by_key(|&(index, _)| index);
    let elts: Vec<SynthesizedElt> = results
        .into_iter()
        .filter_map(|(index, examined)| {
            examined.witness.map(|(witness, violated)| SynthesizedElt {
                program: plan.items[index].program.clone(),
                witness,
                violated,
            })
        })
        .collect();
    let mut stats = SuiteStats::from_shards(plan.programs, &shards);
    stats.elapsed = elapsed;
    stats.timed_out = timed_out || plan.timed_out;
    Suite {
        axiom: axiom.to_string(),
        elts,
        stats,
    }
}

/// Synthesizes the per-axiom suite: all unique, minimal ELT programs (≤
/// the bound) having an execution that violates `axiom`.
///
/// This is the sequential driver — exactly the pipeline `transform-par`
/// distributes, run as one shard — for one axiom.
///
/// # Panics
///
/// Panics when `axiom` is not part of `mtm`.
pub fn synthesize_suite(mtm: &Mtm, axiom: &str, opts: &SynthOptions) -> Suite {
    synthesize_axioms(mtm, &[axiom], opts)
        .pop()
        .expect("one suite per axiom")
}

/// Synthesizes every per-axiom suite of `mtm` (§V-B): one plan, and one
/// examination pass per plan item serving every axiom. A timeout covers
/// the whole run.
pub fn synthesize_all(mtm: &Mtm, opts: &SynthOptions) -> BTreeMap<String, Suite> {
    let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
    synthesize_axioms(mtm, &axioms, opts)
        .into_iter()
        .map(|suite| (suite.axiom.clone(), suite))
        .collect()
}

/// The sequential driver behind [`synthesize_suite`] and
/// [`synthesize_all`]: plans the whole space, then examines the plan
/// with one examiner for all `axioms`. Returns the suites in `axioms`
/// order. A timeout covers the whole run. It is the reference that the
/// parallel pipeline (`transform-par`, behind every CLI run)
/// reproduces.
///
/// # Panics
///
/// Panics when any axiom is not part of `mtm`.
pub fn synthesize_axioms(mtm: &Mtm, axioms: &[&str], opts: &SynthOptions) -> Vec<Suite> {
    for axiom in axioms {
        assert_axiom(mtm, axiom);
    }
    let start = Instant::now();
    let deadline = opts.timeout.map(|t| start + t);
    let plan = plan(mtm, opts, deadline);
    let mut shards = vec![ShardStats::new(0); axioms.len()];
    let mut results: Vec<Vec<(usize, Examined)>> = vec![Vec::new(); axioms.len()];
    let mut timed_out = false;
    let mut examiner = Examiner::for_axioms(mtm, axioms, opts.backend, plan.branch_co_pa);
    for item in &plan.items {
        if deadline.is_some_and(|d| Instant::now() > d) {
            timed_out = true;
            break;
        }
        for (ai, examined) in examiner
            .examine_axioms(&item.program)
            .into_iter()
            .enumerate()
        {
            shards[ai].absorb(&examined);
            results[ai].push((item.index, examined));
        }
    }
    let elapsed = start.elapsed();
    axioms
        .iter()
        .zip(shards)
        .zip(results)
        .map(|((axiom, shard), results)| {
            assemble_suite(axiom, &plan, results, vec![shard], elapsed, timed_out)
        })
        .collect()
}

/// The unique union of programs across suites — the paper's headline
/// count ("140 unique ELTs across all per-axiom suites").
pub fn unique_union<'s, I: IntoIterator<Item = &'s Suite>>(suites: I) -> Vec<&'s SynthesizedElt> {
    let mut seen = BTreeMap::new();
    let mut out = Vec::new();
    for suite in suites {
        for elt in &suite.elts {
            let key = canonical_key(&elt.program);
            if seen.insert(key, ()).is_none() {
                out.push(elt);
            }
        }
    }
    out
}

/// Programs appearing in exactly one suite, per axiom — the paper's
/// attribution of five ELTs to `tlb_causality` violations (§V-A).
pub fn exclusive_attribution(suites: &BTreeMap<String, Suite>) -> BTreeMap<String, usize> {
    let mut owner: BTreeMap<Vec<u64>, Vec<&str>> = BTreeMap::new();
    for (name, suite) in suites {
        for elt in &suite.elts {
            owner
                .entry(canonical_key(&elt.program))
                .or_default()
                .push(name);
        }
    }
    let mut out: BTreeMap<String, usize> = suites.keys().map(|k| (k.clone(), 0)).collect();
    for (_, names) in owner {
        if names.len() == 1 {
            *out.get_mut(names[0]).expect("axiom present") += 1;
        }
    }
    out
}

/// Checks whether a given program is (isomorphic to) a member of a suite —
/// used by the COATCheck comparison tool.
pub fn suite_contains(suite: &Suite, program: &Program) -> bool {
    let key = canonical_key(program);
    suite.elts.iter().any(|e| canonical_key(&e.program) == key)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn sc_per_loc_suite_is_nonempty_at_bound_4() {
        let mtm = x86t_elt_like();
        let mut opts = SynthOptions::new(4);
        opts.enumeration.allow_fences = false;
        opts.enumeration.allow_rmw = false;
        let suite = synthesize_suite(&mtm, "sc_per_loc", &opts);
        assert!(!suite.elts.is_empty());
        for elt in &suite.elts {
            assert!(elt.violated.contains(&"sc_per_loc".to_string()));
            assert!(elt.program.size() <= 4);
        }
    }

    #[test]
    fn invlpg_suite_contains_ptwalk2_at_bound_4() {
        let mtm = x86t_elt_like();
        let mut opts = SynthOptions::new(4);
        opts.enumeration.allow_fences = false;
        opts.enumeration.allow_rmw = false;
        let suite = synthesize_suite(&mtm, "invlpg", &opts);
        assert!(!suite.elts.is_empty(), "stats: {:?}", suite.stats);
        // The Fig. 10a shape: WPTE; INVLPG; R(+walk), remapped.
        use crate::programs::{PaRef, Program, SlotOp};
        let ptwalk2 = Program {
            threads: vec![vec![
                SlotOp::PteWrite {
                    va: 0,
                    pa: PaRef::Fresh(0),
                },
                SlotOp::Invlpg { va: 0 },
                SlotOp::Read { va: 0, walk: true },
            ]],
            remap: vec![((0, 0), (0, 1))],
            rmw: vec![],
        };
        assert!(suite_contains(&suite, &ptwalk2));
    }

    #[test]
    fn no_suite_members_below_minimum_bound() {
        let mtm = x86t_elt_like();
        let mut opts = SynthOptions::new(3);
        opts.enumeration.allow_fences = false;
        opts.enumeration.allow_rmw = false;
        // At bound 3 no invlpg violation fits (WPTE+INVLPG+R+walk needs 4).
        let suite = synthesize_suite(&mtm, "invlpg", &opts);
        assert!(suite.elts.is_empty());
    }

    #[test]
    fn timeout_stops_cleanly() {
        let mtm = x86t_elt_like();
        let mut opts = SynthOptions::new(6);
        opts.timeout = Some(Duration::from_millis(0));
        let suite = synthesize_suite(&mtm, "sc_per_loc", &opts);
        assert!(suite.stats.timed_out);
    }

    #[test]
    fn union_and_attribution_are_consistent() {
        let mtm = x86t_elt_like();
        let mut opts = SynthOptions::new(4);
        opts.enumeration.allow_fences = false;
        opts.enumeration.allow_rmw = false;
        let suites = synthesize_all(&mtm, &opts);
        let union = unique_union(suites.values());
        let total: usize = suites.values().map(|s| s.elts.len()).sum();
        assert!(union.len() <= total);
        let attribution = exclusive_attribution(&suites);
        let excl: usize = attribution.values().sum();
        assert!(excl <= union.len());
    }
}
