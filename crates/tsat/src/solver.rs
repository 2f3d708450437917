//! The CDCL solver core.

use crate::lit::{LBool, Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// `true` when the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }
}

/// Counters describing the work a solver has performed.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt: u64,
    /// Number of [`Solver::solve`] calls answered. Model enumeration
    /// makes one call per model plus the final unsatisfiable one.
    pub solve_calls: u64,
}

impl SolverStats {
    /// Adds another solver's counters into these, for callers that
    /// aggregate work across several solver instances. `learnt` (clauses
    /// *currently* in a database) is summed like the rest, so across
    /// solvers it reads as the sum of their database sizes when each was
    /// read.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnt += other.learnt;
        self.solve_calls += other.solve_calls;
    }
}

#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

/// A CDCL SAT solver.
///
/// See the crate-level documentation for the feature list and an example.
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    ok: bool,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<usize>,
    // clause activities
    cla_inc: f64,
    learnt_count: usize,
    max_learnts: f64,
    // scratch for analyze
    seen: Vec<bool>,
    stats: SolverStats,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESTART_BASE: u64 = 100;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            cla_inc: 1.0,
            learnt_count: 0,
            max_learnts: 4000.0,
            seen: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.heap_pos.push(usize::MAX);
        self.heap_insert(v);
        v
    }

    /// Allocates `n` fresh variables and returns them in order.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Work counters for this solver.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt = self.learnt_count as u64;
        s
    }

    /// The model value of `var` after a [`SolveResult::Sat`] answer.
    ///
    /// Returns `None` if the variable is unassigned (e.g. before any solve).
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.assigns[var.index()] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// The model value of a literal.
    pub fn lit_value_opt(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|b| b == lit.is_pos())
    }

    #[inline]
    fn lit_value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].under(lit)
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the clause made the formula trivially
    /// unsatisfiable (and the solver is now permanently unsat). Duplicate
    /// literals are removed and tautological clauses are ignored.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut c: Vec<Lit> = lits.into_iter().collect();
        c.sort_unstable();
        c.dedup();
        // Tautology check and removal of root-level-false literals.
        let mut i = 0;
        while i + 1 < c.len() {
            if c[i].var() == c[i + 1].var() {
                return true; // p ∨ ¬p: always true
            }
            i += 1;
        }
        c.retain(|&l| self.lit_value(l) != LBool::False);
        if c.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true;
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(c, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let ci = self.clauses.len() as u32;
        let w0 = Watch {
            clause: ci,
            blocker: lits[1],
        };
        let w1 = Watch {
            clause: ci,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).index()].push(w0);
        self.watches[(!lits[1]).index()].push(w1);
        if learnt {
            self.learnt_count += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        ci
    }

    fn detach_clause(&mut self, ci: u32) {
        let (l0, l1) = {
            let c = &self.clauses[ci as usize];
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).index()].retain(|w| w.clause != ci);
        self.watches[(!l1).index()].retain(|w| w.clause != ci);
        let c = &mut self.clauses[ci as usize];
        if c.learnt {
            self.learnt_count -= 1;
        }
        c.deleted = true;
        c.lits = Vec::new();
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var().index();
        self.assigns[v] = LBool::from_bool(lit.is_pos());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut j = 0;
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let ci = w.clause as usize;
                {
                    let c = &mut self.clauses[ci];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[ci].lits[0];
                let w_new = Watch {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = w_new;
                    j += 1;
                    continue;
                }
                let len = self.clauses[ci].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[(!lk).index()].push(w_new);
                        continue 'watches;
                    }
                }
                // Unit or conflicting.
                ws[j] = w_new;
                j += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    break;
                } else {
                    self.unchecked_enqueue(first, Some(w.clause));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target];
        while self.trail.len() > bound {
            let lit = self.trail.pop().expect("trail underflow");
            let v = lit.var();
            self.phase[v.index()] = lit.is_pos();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            if self.heap_pos[v.index()] == usize::MAX {
                self.heap_insert(v);
            }
        }
        self.trail_lim.truncate(target);
        self.qhead = self.trail.len();
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut to_clear: Vec<Var> = Vec::new();
        let mut counter: i64 = 0;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let cur_level = self.decision_level() as u32;
        loop {
            self.cla_bump(confl);
            let nlits = self.clauses[confl as usize].lits.len();
            for li in 0..nlits {
                let q = self.clauses[confl as usize].lits[li];
                if let Some(pl) = p {
                    if q.var() == pl.var() {
                        continue;
                    }
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.var_bump(v);
                    if self.level[v.index()] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            counter -= 1;
            p = Some(pl);
            if counter <= 0 {
                break;
            }
            confl = self.reason[pl.var().index()]
                .expect("non-decision literal on conflict path must have a reason");
            self.seen[pl.var().index()] = false;
        }
        learnt[0] = !p.expect("conflict analysis found no UIP");

        // Clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        for &q in &learnt[1..] {
            if !self.lit_redundant(q, cur_level) {
                minimized.push(q);
            }
        }
        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // Backtrack level: highest level among non-asserting literals.
        let blevel = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()] as usize
        };
        (minimized, blevel)
    }

    /// A learnt literal is redundant if its reason clause is subsumed by the
    /// rest of the learnt clause (all antecedents seen at lower levels or
    /// fixed at the root).
    fn lit_redundant(&self, q: Lit, cur_level: u32) -> bool {
        let Some(r) = self.reason[q.var().index()] else {
            return false;
        };
        let c = &self.clauses[r as usize];
        for &l in &c.lits {
            if l.var() == q.var() {
                continue;
            }
            let v = l.var().index();
            let lv = self.level[v];
            if lv == 0 {
                continue;
            }
            if self.seen[v] && lv < cur_level {
                continue;
            }
            return false;
        }
        true
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn var_decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn cla_bump(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn cla_decay(&mut self) {
        self.cla_inc /= CLA_DECAY;
    }

    fn reduce_db(&mut self) {
        let mut learnts: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                c.learnt && !c.deleted && c.lits.len() > 2
            })
            .collect();
        learnts.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<bool> = learnts
            .iter()
            .map(|&ci| {
                let c = &self.clauses[ci as usize];
                self.lit_value(c.lits[0]) == LBool::True
                    && self.reason[c.lits[0].var().index()] == Some(ci)
            })
            .collect();
        let half = learnts.len() / 2;
        for (k, &ci) in learnts.iter().enumerate().take(half) {
            if !locked[k] {
                self.detach_clause(ci);
            }
        }
    }

    // --- variable-order heap (max-heap on activity) ---

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v.index()];
        if pos != usize::MAX {
            self.heap_sift_up(pos);
        }
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i;
        self.heap_pos[self.heap[j].index()] = j;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = usize::MAX;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    /// Solves the formula. Clauses learnt, variable activities and saved
    /// phases carry over to the next call, which model enumeration
    /// ([`Solver::block_model`]) makes after adding a blocking clause.
    pub fn solve(&mut self) -> SolveResult {
        self.stats.solve_calls += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        let mut restart_num: u64 = 0;
        loop {
            let budget = luby(restart_num) * RESTART_BASE;
            match self.search(budget) {
                Some(res) => {
                    if res == SolveResult::Unsat {
                        self.cancel_until(0);
                    }
                    return res;
                }
                None => {
                    restart_num += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// Runs the CDCL loop for at most `budget` conflicts.
    /// Returns `None` when the budget is exhausted (restart).
    fn search(&mut self, budget: u64) -> Option<SolveResult> {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, blevel) = self.analyze(confl);
                self.cancel_until(blevel);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let ci = self.attach_clause(learnt, true);
                    self.cla_bump(ci);
                    let first = self.clauses[ci as usize].lits[0];
                    self.unchecked_enqueue(first, Some(ci));
                }
                self.var_decay();
                self.cla_decay();
                if self.learnt_count as f64 > self.max_learnts {
                    self.max_learnts *= 1.5;
                    self.reduce_db();
                }
                if conflicts >= budget && self.decision_level() > 0 {
                    return None;
                }
            } else {
                match self.pick_branch() {
                    None => return Some(SolveResult::Sat),
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// Adds a blocking clause forbidding the current model restricted to
    /// `vars`, for model enumeration.
    ///
    /// Returns `false` when the blocking clause is empty (no variables) or
    /// makes the formula unsatisfiable.
    pub fn block_model(&mut self, vars: &[Var]) -> bool {
        let lits: Vec<Lit> = vars
            .iter()
            .filter_map(|&v| self.value(v).map(|b| Lit::new(v, !b)))
            .collect();
        if lits.is_empty() {
            self.ok = false;
            return false;
        }
        self.add_clause(lits)
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(i: u64) -> u64 {
    let mut x = i + 1;
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < x {
            k += 1;
        }
        if x == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }
}
