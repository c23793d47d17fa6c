//! # mmt-sat — CDCL SAT solver
//!
//! A from-scratch conflict-driven clause-learning SAT solver, standing in
//! for the Alloy/Kodkod→SAT back-end that Echo uses for least-change
//! enforcement (paper §3). Features: two-watched-literal propagation,
//! first-UIP clause learning, VSIDS branching with an indexed binary heap,
//! phase saving, and Luby restarts. Solving under *assumptions* supports
//! the increasing-distance search loop ("searching for all consistent
//! models at increasing distance", §3): the grounder encodes a cost bound
//! as an assumption literal and relaxes it monotonically.
//!
//! ```
//! use mmt_sat::{Solver, Lit, SatResult};
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert!(matches!(s.solve(), SatResult::Sat));
//! assert_eq!(s.value(b), Some(true));
//! ```

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Index into solver tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal with an explicit sign (`true` = positive).
    pub fn new(v: Var, sign: bool) -> Lit {
        if sign {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True for positive literals.
    pub fn sign(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.sign() { "" } else { "¬" }, self.var().0)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Solver outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; read the model with [`Solver::value`].
    Sat,
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
}

/// Aggregate statistics (exposed for benches).
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Decisions taken.
    pub decisions: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
}

const UNDEF_CLAUSE: u32 = u32::MAX;

#[derive(Clone)]
struct Clause {
    lits: Vec<Lit>,
}

#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// Indexed max-heap over variable activities (MiniSat's VarOrder).
struct ActivityHeap {
    heap: Vec<Var>,
    pos: Vec<i32>, // -1 when absent
}

impl ActivityHeap {
    fn new() -> Self {
        ActivityHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    fn grow(&mut self) {
        self.pos.push(-1);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] >= 0
    }

    fn push(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top.index()] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v.index()] as usize, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a as i32;
        self.pos[self.heap[b].index()] = b as i32;
    }
}

/// The CDCL solver.
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>, // indexed by Lit
    assign: Vec<Option<bool>>,
    phase: Vec<bool>, // saved phases
    reason: Vec<u32>, // clause index or UNDEF_CLAUSE
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: ActivityHeap,
    ok: bool,
    stats: SolverStats,
    seen: Vec<bool>,
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("vars", &self.num_vars())
            .field("clauses", &self.num_clauses())
            .field("ok", &self.ok)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: ActivityHeap::new(),
            ok: true,
            stats: SolverStats::default(),
            seen: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(None);
        self.phase.push(false);
        self.reason.push(UNDEF_CLAUSE);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow();
        self.order.push(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause, or conflicting units at level 0).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert!(self.trail_lim.is_empty(), "add clauses at level 0");
        // Normalize: drop duplicate and false-at-0 literals; detect
        // tautologies and satisfied clauses.
        let mut cl: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => continue,
                None => {}
            }
            if cl.contains(&l) {
                continue;
            }
            if cl.contains(&l.negate()) {
                return true; // tautology
            }
            cl.push(l);
        }
        match cl.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if !self.enqueue(cl[0], UNDEF_CLAUSE) {
                    self.ok = false;
                    return false;
                }
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.attach(cl);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].negate().index()].push(Watch {
            clause: idx,
            blocker: lits[1],
        });
        self.watches[lits[1].negate().index()].push(Watch {
            clause: idx,
            blocker: lits[0],
        });
        self.clauses.push(Clause { lits });
        idx
    }

    /// Current value of a literal.
    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|b| b == l.sign())
    }

    /// Model value of `v` after a `Sat` answer.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assign[v.index()]
    }

    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.lit_value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = l.var();
                self.assign[v.index()] = Some(l.sign());
                self.phase[v.index()] = l.sign();
                self.reason[v.index()] = reason;
                self.level[v.index()] = self.trail_lim.len() as u32;
                self.trail.push(l);
                self.stats.propagations += 1;
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // p became true: scan watchers of p's falsified side.
            let mut i = 0;
            let widx = p.index();
            'watchers: while i < self.watches[widx].len() {
                let w = self.watches[widx][i];
                if self.lit_value(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // Ensure lits[0] is the other watched literal.
                let false_lit = p.negate();
                {
                    let cl = &mut self.clauses[ci];
                    if cl.lits[0] == false_lit {
                        cl.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[ci].lits[0];
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    self.watches[widx][i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new watch.
                let len = self.clauses[ci].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci].lits[k];
                    if self.lit_value(lk) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[widx].swap_remove(i);
                        self.watches[lk.negate().index()].push(Watch {
                            clause: ci as u32,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if !self.enqueue(first, ci as u32) {
                    self.qhead = self.trail.len();
                    return Some(ci as u32);
                }
                i += 1;
            }
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learned clause (UIP first)
    /// and the backjump level.
    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            let cl = &self.clauses[conflict as usize];
            let start = if p.is_some() { 1 } else { 0 };
            let lits: Vec<Lit> = cl.lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next marked literal on the trail.
            loop {
                idx -= 1;
                let l = self.trail[idx];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pl = p.expect("UIP exists");
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = pl.negate();
                break;
            }
            conflict = self.reason[pl.var().index()];
            debug_assert_ne!(conflict, UNDEF_CLAUSE);
        }
        for l in &learned[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backjump level: second-highest level in the clause.
        let bj = if learned.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var().index()] > self.level[learned[max_i].var().index()] {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            self.level[learned[1].var().index()]
        };
        (learned, bj)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = l.var();
                self.assign[v.index()] = None;
                self.reason[v.index()] = UNDEF_CLAUSE;
                self.order.push(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self, l: Lit) {
        self.trail_lim.push(self.trail.len());
        let ok = self.enqueue(l, UNDEF_CLAUSE);
        debug_assert!(ok, "decision literal must be unassigned");
        self.stats.decisions += 1;
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v.index()].is_none() {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    /// Solves the formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under `assumptions` (each forced true). The solver returns
    /// to decision level 0 afterwards, so it can be re-invoked with
    /// different assumptions (incremental use).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        let mut conflicts_budget = luby(self.stats.restarts) * 128;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    if assumptions.is_empty() {
                        self.ok = false;
                    }
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                let n_assumed = assumptions.len() as u32;
                if self.decision_level() <= n_assumed {
                    // The conflict is rooted in the assumptions.
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                let (learned, bj) = self.analyze(conflict);
                let bj = bj.max(self.assumption_level(assumptions));
                self.cancel_until(bj);
                let asserting = learned[0];
                let enq_ok = if learned.len() == 1 {
                    self.enqueue(asserting, UNDEF_CLAUSE)
                } else {
                    let ci = self.attach(learned);
                    self.enqueue(asserting, ci)
                };
                if !enq_ok {
                    self.cancel_until(0);
                    if assumptions.is_empty() {
                        self.ok = false;
                    }
                    return SatResult::Unsat;
                }
                self.var_inc *= 1.0 / 0.95;
                if conflicts_budget > 0 {
                    conflicts_budget -= 1;
                } else {
                    // Restart (keep assumption levels).
                    self.stats.restarts += 1;
                    self.cancel_until(self.assumption_level(assumptions));
                    conflicts_budget = luby(self.stats.restarts) * 128;
                }
            } else {
                // Extend assumptions first.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        Some(true) => {
                            // Already satisfied: introduce an empty level
                            // so the level↔assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        None => self.decide(a),
                    }
                    continue;
                }
                match self.pick_branch() {
                    Some(l) => self.decide(l),
                    None => return SatResult::Sat,
                }
            }
        }
    }

    fn assumption_level(&self, assumptions: &[Lit]) -> u32 {
        (assumptions.len() as u32).min(self.decision_level())
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,…), 0-indexed.
fn luby(i: u64) -> u64 {
    let mut i = i + 1;
    loop {
        // Largest k with 2^k - 1 ≤ i.
        let mut k = 1u64;
        while (1u64 << (k + 1)) - 1 <= i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << k) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lit(v: &[Var], i: i32) -> Lit {
        if i > 0 {
            Lit::pos(v[(i - 1) as usize])
        } else {
            Lit::neg(v[(-i - 1) as usize])
        }
    }

    fn solver_with(n: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars = (0..n).map(|_| s.new_var()).collect();
        (s, vars)
    }

    #[test]
    fn trivial_sat_and_unit() {
        let (mut s, v) = solver_with(2);
        assert!(s.add_clause(&[lit(&v, 1), lit(&v, 2)]));
        assert!(s.add_clause(&[lit(&v, -1)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(false));
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn empty_clause_unsat() {
        let (mut s, _) = solver_with(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn contradictory_units_unsat() {
        let (mut s, v) = solver_with(1);
        assert!(s.add_clause(&[lit(&v, 1)]));
        assert!(!s.add_clause(&[lit(&v, -1)]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn requires_learning() {
        // (a∨b)(a∨¬b)(¬a∨c)(¬a∨¬c) — unsat.
        let (mut s, v) = solver_with(3);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, 1), lit(&v, -2)]);
        s.add_clause(&[lit(&v, -1), lit(&v, 3)]);
        s.add_clause(&[lit(&v, -1), lit(&v, -3)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    /// Pigeonhole: n+1 pigeons into n holes is unsatisfiable.
    fn pigeonhole(pigeons: usize, holes: usize) -> SatResult {
        let mut s = Solver::new();
        let mut var = vec![vec![Var(0); holes]; pigeons];
        for p in var.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for row in &var {
            let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for (i, p1) in var.iter().enumerate() {
                for p2 in &var[i + 1..] {
                    s.add_clause(&[Lit::neg(p1[h]), Lit::neg(p2[h])]);
                }
            }
        }
        s.solve()
    }

    #[test]
    fn pigeonhole_unsat() {
        assert_eq!(pigeonhole(4, 3), SatResult::Unsat);
        assert_eq!(pigeonhole(5, 4), SatResult::Unsat);
        assert_eq!(pigeonhole(3, 3), SatResult::Sat);
    }

    #[test]
    fn assumptions_are_incremental() {
        let (mut s, v) = solver_with(3);
        // a → b, b → c.
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3)]);
        // Assume a: model must set c.
        assert_eq!(s.solve_with(&[lit(&v, 1)]), SatResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        // Assume a ∧ ¬c: unsat, but the formula stays usable.
        assert_eq!(s.solve_with(&[lit(&v, 1), lit(&v, -3)]), SatResult::Unsat);
        // Without assumptions: still sat.
        assert_eq!(s.solve(), SatResult::Sat);
        // Assume ¬a: sat.
        assert_eq!(s.solve_with(&[lit(&v, -1)]), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(false));
    }

    #[test]
    fn conflicting_assumptions() {
        let (mut s, v) = solver_with(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve_with(&[lit(&v, -1), lit(&v, -2)]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let (mut s, v) = solver_with(2);
        assert!(s.add_clause(&[lit(&v, 1), lit(&v, 1)]));
        assert!(s.add_clause(&[lit(&v, 2), lit(&v, -2)])); // tautology: ignored
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn stats_track_work() {
        let (mut s, v) = solver_with(3);
        s.add_clause(&[lit(&v, 1), lit(&v, 2), lit(&v, 3)]);
        s.solve();
        assert!(s.stats().propagations > 0);
    }

    /// Brute-force reference check.
    fn brute_force(n: usize, clauses: &[Vec<i32>]) -> bool {
        'outer: for mask in 0u32..(1 << n) {
            for cl in clauses {
                let sat = cl.iter().any(|&l| {
                    let v = (l.unsigned_abs() - 1) as usize;
                    let val = mask & (1 << v) != 0;
                    (l > 0) == val
                });
                if !sat {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The CDCL solver agrees with brute force on random small CNFs,
        /// and its SAT models actually satisfy the formula.
        #[test]
        fn matches_brute_force(
            clauses in proptest::collection::vec(
                proptest::collection::vec((1i32..=8, proptest::bool::ANY), 1..4),
                0..24
            )
        ) {
            let n = 8usize;
            let signed: Vec<Vec<i32>> = clauses
                .iter()
                .map(|cl| cl.iter().map(|&(v, s)| if s { v } else { -v }).collect())
                .collect();
            let (mut s, vars) = solver_with(n);
            let mut early_unsat = false;
            for cl in &signed {
                let lits: Vec<Lit> = cl.iter().map(|&l| lit(&vars, l)).collect();
                if !s.add_clause(&lits) {
                    early_unsat = true;
                    break;
                }
            }
            let expected = brute_force(n, &signed);
            if early_unsat {
                prop_assert!(!expected);
            } else {
                let got = s.solve();
                prop_assert_eq!(got == SatResult::Sat, expected);
                if got == SatResult::Sat {
                    // Verify the model.
                    for cl in &signed {
                        let ok = cl.iter().any(|&l| {
                            let var = vars[(l.unsigned_abs() - 1) as usize];
                            let val = s.value(var).unwrap_or(false);
                            (l > 0) == val
                        });
                        prop_assert!(ok, "model does not satisfy clause {:?}", cl);
                    }
                }
            }
        }

        /// Incremental assumption solving agrees with adding units.
        #[test]
        fn assumptions_match_units(
            clauses in proptest::collection::vec(
                proptest::collection::vec((1i32..=6, proptest::bool::ANY), 1..4),
                0..16
            ),
            assumed in proptest::collection::vec((1i32..=6, proptest::bool::ANY), 0..3)
        ) {
            let n = 6usize;
            let signed: Vec<Vec<i32>> = clauses
                .iter()
                .map(|cl| cl.iter().map(|&(v, s)| if s { v } else { -v }).collect())
                .collect();
            let assumed: Vec<i32> = assumed.iter().map(|&(v, s)| if s { v } else { -v }).collect();
            // Reference: formula + assumptions as unit clauses.
            let mut all = signed.clone();
            for &a in &assumed {
                all.push(vec![a]);
            }
            let expected = brute_force(n, &all);
            // Incremental: assumptions passed to solve_with.
            let (mut s, vars) = solver_with(n);
            let mut early_unsat = false;
            for cl in &signed {
                let lits: Vec<Lit> = cl.iter().map(|&l| lit(&vars, l)).collect();
                if !s.add_clause(&lits) {
                    early_unsat = true;
                    break;
                }
            }
            if early_unsat {
                prop_assert!(!expected);
            } else {
                let alits: Vec<Lit> = assumed.iter().map(|&l| lit(&vars, l)).collect();
                let got = s.solve_with(&alits);
                prop_assert_eq!(got == SatResult::Sat, expected);
                // And repeated solving stays consistent (incrementality).
                let again = s.solve_with(&alits);
                prop_assert_eq!(got, again);
            }
        }
    }
}
