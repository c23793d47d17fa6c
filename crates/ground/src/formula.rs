//! Propositional formula IR, Tseitin transformation, and a weighted
//! sequential-counter encoding for cost bounds.
//!
//! The grounder builds [`Formula`] trees while instantiating quantifiers
//! and folds constants aggressively; [`CnfBuilder::add_formula`] then
//! clausifies via Tseitin (two-sided equivalences, safe under negation).
//! [`CnfBuilder::encode_cost_counter`] encodes `Σ wᵢ·xᵢ ≥ j` indicator
//! outputs, which the repair loop bounds via solver assumptions — the
//! PMax-SAT-style "increasing distance" search of §3.
//!
//! Neither pass allocates per clause: Tseitin collects child literals on
//! one stack the builder reuses, and the counter writes each output's
//! clauses straight from its literals. The solver stores every clause in
//! one arena and every watch list in another, so the CNF costs only the
//! arenas' amortized growth, and not even that on a warm thread: each
//! thread keeps the solver of the last builder it dropped, cleared, and
//! the next builder takes it (see [`CnfBuilder::new`]). What that spare
//! holds is the storage of the largest problem it has solved.

use mmt_sat::{Lit, Solver, Var};
use std::cell::Cell;

thread_local! {
    /// The solver of the last [`CnfBuilder`] dropped on this thread,
    /// cleared, for the next builder to take.
    static SPARE: Cell<Option<Solver>> = const { Cell::new(None) };
}

/// A propositional formula with constants.
#[derive(Clone, Debug)]
pub enum Formula {
    /// Constant truth value.
    Const(bool),
    /// A solver literal.
    Lit(Lit),
    /// Conjunction (empty = true).
    And(Vec<Formula>),
    /// Disjunction (empty = false).
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// Smart conjunction with constant folding.
    pub fn and(parts: Vec<Formula>) -> Formula {
        Formula::fold(parts, true)
    }

    /// Smart disjunction with constant folding.
    pub fn or(parts: Vec<Formula>) -> Formula {
        Formula::fold(parts, false)
    }

    /// Folds the parts of a conjunction (`unit` = true) or a disjunction
    /// (`unit` = false) inside `parts` itself: the connective's unit is
    /// dropped, its zero absorbs the whole, and a node of the same
    /// connective is spliced in where it stood, one level deep.
    fn fold(mut parts: Vec<Formula>, unit: bool) -> Formula {
        let nested = |f: &Formula| match (f, unit) {
            (Formula::And(inner), true) | (Formula::Or(inner), false) => Some(inner.len()),
            _ => None,
        };
        if parts.iter().any(|p| p.is_const(!unit)) {
            return Formula::Const(!unit);
        }
        parts.retain(|p| !p.is_const(unit) && nested(p) != Some(0));
        // Splice from the back. Every part left yields at least one, so
        // none lands left of its own index, on a part not yet moved.
        let kept = parts.len();
        let len = parts.iter().map(|p| nested(p).unwrap_or(1)).sum();
        parts.resize_with(len, || Formula::Const(unit));
        let mut end = len;
        for i in (0..kept).rev() {
            match (std::mem::replace(&mut parts[i], Formula::Const(unit)), unit) {
                (Formula::And(inner), true) | (Formula::Or(inner), false) => {
                    end -= inner.len();
                    parts[end..]
                        .iter_mut()
                        .zip(inner)
                        .for_each(|(to, p)| *to = p);
                }
                (part, _) => {
                    end -= 1;
                    parts[end] = part;
                }
            }
        }
        match parts.len() {
            0 => Formula::Const(unit),
            1 => parts.pop().expect("len checked"),
            _ if unit => Formula::And(parts),
            _ => Formula::Or(parts),
        }
    }

    /// Smart negation with constant folding.
    #[allow(clippy::should_implement_trait)] // by-value smart constructor
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::Const(b) => Formula::Const(!b),
            Formula::Lit(l) => Formula::Lit(l.negate()),
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// `a → b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::or(vec![Formula::not(a), b])
    }

    /// True when the formula is the constant `b`.
    pub fn is_const(&self, b: bool) -> bool {
        matches!(self, Formula::Const(x) if *x == b)
    }
}

/// Builds CNF into an [`mmt_sat::Solver`], its thread's spare when it
/// has one: dropping the builder clears the solver and leaves it as the
/// thread's spare, in place of any spare left before.
pub struct CnfBuilder {
    /// The backing solver.
    pub solver: Solver,
    /// Clauses added (for statistics).
    pub clauses_added: u64,
    /// Child literals of the Tseitin nodes being encoded, innermost last.
    stack: Vec<Lit>,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        CnfBuilder::new()
    }
}

impl Drop for CnfBuilder {
    fn drop(&mut self) {
        let mut solver = std::mem::take(&mut self.solver);
        solver.clear();
        // Past the thread's exit the spare is gone, and so is this solver.
        let _ = SPARE.try_with(|spare| spare.set(Some(solver)));
    }
}

impl CnfBuilder {
    /// A builder over an empty solver: the thread's spare, whose tables
    /// keep the capacity of the problems it solved before, or a new one.
    pub fn new() -> CnfBuilder {
        CnfBuilder {
            solver: SPARE.take().unwrap_or_default(),
            clauses_added: 0,
            stack: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn fresh(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Allocates `n` fresh variables with consecutive indices and returns
    /// the first.
    pub fn fresh_run(&mut self, n: usize) -> Var {
        let first = Var(self.solver.num_vars() as u32);
        for _ in 0..n {
            self.solver.new_var();
        }
        first
    }

    /// Adds a raw clause.
    pub fn clause(&mut self, lits: &[Lit]) {
        self.solver.add_clause(lits);
        self.clauses_added += 1;
    }

    /// Pushes the Tseitin literal of each of `parts`, in order, onto the
    /// stack; returns where they start.
    fn push_parts(&mut self, parts: Vec<Formula>) -> usize {
        let base = self.stack.len();
        for p in parts {
            let l = self.tseitin(p);
            self.stack.push(l);
        }
        base
    }

    /// Adds the stack's literals from `base` on as one clause and pops
    /// them.
    fn clause_from_stack(&mut self, base: usize) {
        self.solver.add_clause(&self.stack[base..]);
        self.clauses_added += 1;
        self.stack.truncate(base);
    }

    /// Asserts `f` (top-level truth).
    pub fn add_formula(&mut self, f: Formula) {
        match f {
            Formula::Const(true) => {}
            Formula::Const(false) => {
                self.clause(&[]);
            }
            Formula::Lit(l) => self.clause(&[l]),
            Formula::And(parts) => {
                for p in parts {
                    self.add_formula(p);
                }
            }
            Formula::Or(parts) => {
                let base = self.push_parts(parts);
                self.clause_from_stack(base);
            }
            Formula::Not(inner) => {
                let l = self.tseitin(*inner);
                self.clause(&[l.negate()]);
            }
        }
    }

    /// Returns a literal equivalent to `f`, introducing aux variables.
    pub fn tseitin(&mut self, f: Formula) -> Lit {
        match f {
            Formula::Const(b) => {
                // A constant literal: allocate once per builder would be
                // nicer; constants are rare after folding.
                let v = self.fresh();
                let l = Lit::new(v, b);
                self.clause(&[l]);
                l
            }
            Formula::Lit(l) => l,
            Formula::Not(inner) => self.tseitin(*inner).negate(),
            Formula::And(parts) => {
                let base = self.push_parts(parts);
                let out = Lit::pos(self.fresh());
                // out → each lit; (⋀ lits) → out, the lits negated in place.
                for i in base..self.stack.len() {
                    let l = self.stack[i];
                    self.clause(&[out.negate(), l]);
                    self.stack[i] = l.negate();
                }
                self.stack.push(out);
                self.clause_from_stack(base);
                out
            }
            Formula::Or(parts) => {
                let base = self.push_parts(parts);
                let out = Lit::pos(self.fresh());
                // each lit → out; out → ⋁ lits, with ¬out first.
                for i in base..self.stack.len() {
                    let l = self.stack[i];
                    self.clause(&[l.negate(), out]);
                }
                self.stack.insert(base, out.negate());
                self.clause_from_stack(base);
                out
            }
        }
    }

    /// Weighted sequential counter: returns `outs` where `outs[j-1]`
    /// (1-based j) is forced true whenever `Σ wᵢ·xᵢ ≥ j`, for
    /// `j ∈ 1..=width`. Assuming `¬outs[k]` therefore enforces
    /// `Σ wᵢ·xᵢ ≤ k`. Weights are saturated at `bound+1`, and `width` is
    /// `min(bound, Σ saturated wᵢ) + 1` ([`cost_counter_width`]): past
    /// what the items can sum to, every output would be constant false,
    /// so the last output already bounds nothing. The counter makes up
    /// to `width × items.len()` cells, so callers count them against
    /// their budget first: heavy weights under a huge `bound` widen it.
    pub fn encode_cost_counter(&mut self, items: &[(Lit, u64)], bound: u64) -> Vec<Lit> {
        let cap = usize::try_from(cost_counter_width(items, bound))
            .expect("cost counter width fits in usize");
        // prev[j-1] = indicator(sum of first i items ≥ j); cur takes the
        // next item's, and the two swap after each item.
        let mut prev: Vec<Option<Lit>> = vec![None; cap];
        let mut cur: Vec<Option<Lit>> = vec![None; cap];
        for &(x, w) in items {
            // Saturating at the width is saturating at `bound + 1`: the
            // width is that, or above every weight.
            let w = usize::try_from(w).map_or(cap, |w| w.min(cap));
            if w == 0 {
                continue;
            }
            for j in 1..=cap {
                // sum ≥ j if: previous sum ≥ j, or (x and previous ≥ j-w).
                // `with_x` is `Some(None)` when x alone reaches j (j ≤ w),
                // `Some(Some(p))` when it needs p = (previous ≥ j-w).
                let carry = prev[j - 1];
                let with_x = if j <= w {
                    Some(None)
                } else {
                    prev[j - w - 1].map(Some)
                };
                if carry.is_none() && with_x.is_none() {
                    cur[j - 1] = None;
                    continue;
                }
                let out = Lit::pos(self.fresh());
                // (⋀ reason) → out, one clause per reason.
                if let Some(p) = carry {
                    self.clause(&[p.negate(), out]);
                }
                match with_x {
                    Some(None) => self.clause(&[x.negate(), out]),
                    Some(Some(p)) => self.clause(&[x.negate(), p.negate(), out]),
                    None => {}
                }
                cur[j - 1] = Some(out);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        // Materialize missing outputs as constant-false indicators.
        prev.into_iter()
            .map(|o| match o {
                Some(l) => l,
                None => {
                    let v = self.fresh();
                    let l = Lit::pos(v);
                    self.clause(&[l.negate()]);
                    l
                }
            })
            .collect()
    }
}

/// The number of outputs [`CnfBuilder::encode_cost_counter`] gives
/// `items` under `bound`: `min(bound, Σ wᵢ saturated at bound + 1) + 1`,
/// computed without overflow.
pub fn cost_counter_width(items: &[(Lit, u64)], bound: u64) -> u128 {
    let saturated = bound.saturating_add(1);
    let reach = items
        .iter()
        .fold(0u64, |sum, &(_, w)| sum.saturating_add(w.min(saturated)));
    u128::from(bound.min(reach)) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_sat::SatResult;

    #[test]
    fn constant_folding() {
        assert!(Formula::and(vec![Formula::Const(true), Formula::Const(true)]).is_const(true));
        assert!(Formula::and(vec![Formula::Const(false)]).is_const(false));
        assert!(Formula::or(vec![Formula::Const(false)]).is_const(false));
        assert!(Formula::or(vec![Formula::Const(true), Formula::Const(false)]).is_const(true));
        assert!(Formula::not(Formula::Const(true)).is_const(false));
        assert!(Formula::implies(Formula::Const(false), Formula::Const(false)).is_const(true));
    }

    #[test]
    fn tseitin_preserves_satisfiability() {
        let mut b = CnfBuilder::new();
        let x = Lit::pos(b.fresh());
        let y = Lit::pos(b.fresh());
        // (x ∧ ¬y) ∨ (¬x ∧ y)  — XOR, satisfiable.
        let f = Formula::or(vec![
            Formula::and(vec![Formula::Lit(x), Formula::Lit(y.negate())]),
            Formula::and(vec![Formula::Lit(x.negate()), Formula::Lit(y)]),
        ]);
        b.add_formula(f);
        assert_eq!(b.solver.solve(), SatResult::Sat);
        let vx = b.solver.value(x.var()).unwrap();
        let vy = b.solver.value(y.var()).unwrap();
        assert_ne!(vx, vy);
    }

    #[test]
    fn tseitin_unsat_contradiction() {
        let mut b = CnfBuilder::new();
        let x = Lit::pos(b.fresh());
        let f = Formula::and(vec![
            Formula::Lit(x),
            Formula::not(Formula::or(vec![Formula::Lit(x), Formula::Const(false)])),
        ]);
        b.add_formula(f);
        assert_eq!(b.solver.solve(), SatResult::Unsat);
    }

    /// Exhaustively verify the weighted counter against arithmetic for
    /// small item sets.
    #[test]
    fn cost_counter_exact() {
        let weights = [1u64, 2, 1, 3];
        let bound = 4u64;
        for mask in 0u32..(1 << weights.len()) {
            let mut b = CnfBuilder::new();
            let lits: Vec<Lit> = weights.iter().map(|_| Lit::pos(b.fresh())).collect();
            let items: Vec<(Lit, u64)> =
                lits.iter().copied().zip(weights.iter().copied()).collect();
            let outs = b.encode_cost_counter(&items, bound);
            assert_eq!(outs.len(), (bound + 1) as usize);
            // Fix the inputs according to the mask.
            let mut sum = 0u64;
            for (i, &l) in lits.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    b.solver.add_clause(&[l]);
                    sum += weights[i];
                } else {
                    b.solver.add_clause(&[l.negate()]);
                }
            }
            for k in 0..=bound {
                let res = b.solver.solve_with(&[outs[k as usize].negate()]);
                let expect_sat = sum <= k;
                assert_eq!(
                    res == SatResult::Sat,
                    expect_sat,
                    "mask={mask:b} sum={sum} k={k}"
                );
            }
        }
    }

    /// The counter is `min(bound, Σ saturated wᵢ) + 1` outputs wide, so a
    /// bound past what the items can sum to costs nothing, `u64::MAX`
    /// included. Its last output then bounds nothing: assuming it false
    /// admits every item at once.
    #[test]
    fn cost_counter_width_is_what_its_items_can_sum_to() {
        let width = |weights: &[u64], bound: u64| {
            let mut b = CnfBuilder::new();
            let items: Vec<(Lit, u64)> =
                weights.iter().map(|&w| (Lit::pos(b.fresh()), w)).collect();
            let outs = b.encode_cost_counter(&items, bound);
            for &(x, _) in &items {
                b.solver.add_clause(&[x]);
            }
            let last = *outs.last().expect("at least one output");
            let all_items = b.solver.solve_with(&[last.negate()]) == SatResult::Sat;
            (outs.len(), all_items)
        };
        assert_eq!(width(&[1, 2, 1, 3], 4), (5, false));
        assert_eq!(width(&[1, 2, 1, 3], 7), (8, true));
        assert_eq!(width(&[1, 2, 1, 3], 100), (8, true));
        assert_eq!(width(&[1, 2, 1, 3], u64::MAX), (8, true));
        // A weight saturates at `bound + 1` before it is summed.
        assert_eq!(width(&[1000, 1000], 3), (4, false));
        assert_eq!(width(&[0, 0], u64::MAX), (1, true));
        assert_eq!(width(&[], 16), (1, true));
    }

    #[test]
    fn cost_counter_zero_weight_items_free() {
        let mut b = CnfBuilder::new();
        let x = Lit::pos(b.fresh());
        let outs = b.encode_cost_counter(&[(x, 0)], 2);
        b.solver.add_clause(&[x]);
        // Even at bound 0 the formula is satisfiable.
        assert_eq!(b.solver.solve_with(&[outs[0].negate()]), SatResult::Sat);
    }

    #[test]
    fn cost_counter_saturates_large_weights() {
        let mut b = CnfBuilder::new();
        let x = Lit::pos(b.fresh());
        let outs = b.encode_cost_counter(&[(x, 1000)], 3);
        b.solver.add_clause(&[x]);
        // Sum exceeds every bound ≤ 3.
        for (k, out) in outs.iter().enumerate().take(4) {
            assert_eq!(
                b.solver.solve_with(&[out.negate()]),
                SatResult::Unsat,
                "k={k}"
            );
        }
    }
}
