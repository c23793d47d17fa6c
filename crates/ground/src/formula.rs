//! Propositional formula IR, Tseitin transformation, and a weighted
//! sequential-counter encoding for cost bounds.
//!
//! The grounder builds [`Formula`] trees while instantiating quantifiers
//! and folds constants aggressively; [`CnfBuilder::add_formula`] then
//! clausifies via Tseitin (two-sided equivalences, safe under negation).
//! `CostCounter` encodes `Σ wᵢ·xᵢ ≥ j` indicator outputs, which the
//! repair loop bounds via solver assumptions — the PMax-SAT-style
//! "increasing distance" search of §3. It builds output `j`'s column only
//! when the loop reaches bound `j - 1`, into the live solver, as
//! linear-search MaxSAT solvers extend their cardinality encodings: a
//! cost-c repair builds c + 1 columns whatever the bound's ceiling.
//!
//! Neither pass allocates per clause: Tseitin collects child literals on
//! one stack the builder reuses, and the counter writes each cell's
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
}

/// A weighted sequential counter over cost items `(xᵢ, wᵢ)`, built one
/// column at a time as a search over cost bounds reaches them. Column `j`
/// (from 1) has one cell per item: cell `i` is forced true whenever items
/// `0..=i` sum to at least `j`, and is `None` where they cannot. Its
/// output, the last cell, is forced true whenever `Σ wᵢ·xᵢ ≥ j`, so
/// assuming it false enforces `Σ wᵢ·xᵢ < j`.
///
/// A cell of column `j` reads the cell above it in the same column and
/// one cell of column `j - wᵢ`, so columns are built in order, and a
/// weight past `j` needs no saturation: the item alone reaches `j`.
pub(crate) struct CostCounter {
    items: Vec<(Lit, u64)>,
    /// The built columns' cells, column after column, one per item.
    cells: Vec<Option<Lit>>,
    /// Each built column's output: its last cell, or a constant-false
    /// literal where the items cannot sum that high.
    outs: Vec<Lit>,
}

impl CostCounter {
    /// A counter over `items` with no column built.
    pub(crate) fn new(items: Vec<(Lit, u64)>) -> CostCounter {
        CostCounter {
            items,
            cells: Vec::new(),
            outs: Vec::new(),
        }
    }

    /// The number of cost items it counts.
    pub(crate) fn items(&self) -> usize {
        self.items.len()
    }

    /// The output of column `j ≥ 1`, forced true whenever the items sum
    /// to at least `j`; builds columns up to `j` into `b` first.
    pub(crate) fn at_least(&mut self, j: usize, b: &mut CnfBuilder) -> Lit {
        while self.outs.len() < j {
            self.grow(b);
        }
        self.outs[j - 1]
    }

    /// Builds the next column.
    fn grow(&mut self, b: &mut CnfBuilder) {
        let n = self.items.len();
        let j = self.outs.len() + 1;
        self.cells.reserve(n);
        // The cell above: items before this one sum to at least j.
        let mut carry: Option<Lit> = None;
        for (i, &(x, w)) in self.items.iter().enumerate() {
            if w == 0 {
                self.cells.push(carry);
                continue;
            }
            // sum ≥ j if: previous sum ≥ j, or (x and previous ≥ j-w).
            // `with_x` is `Some(None)` when x alone reaches j (j ≤ w),
            // `Some(Some(p))` when it needs p = (previous ≥ j-w).
            let with_x = match usize::try_from(w) {
                Ok(w) if w < j => match i {
                    0 => None,
                    _ => self.cells[(j - w - 1) * n + i - 1].map(Some),
                },
                _ => Some(None),
            };
            if carry.is_none() && with_x.is_none() {
                self.cells.push(None);
                continue;
            }
            let out = Lit::pos(b.fresh());
            // (⋀ reason) → out, one clause per reason.
            if let Some(p) = carry {
                b.clause(&[p.negate(), out]);
            }
            match with_x {
                Some(None) => b.clause(&[x.negate(), out]),
                Some(Some(p)) => b.clause(&[x.negate(), p.negate(), out]),
                None => {}
            }
            self.cells.push(Some(out));
            carry = Some(out);
        }
        let out = carry.unwrap_or_else(|| {
            let l = Lit::pos(b.fresh());
            b.clause(&[l.negate()]);
            l
        });
        self.outs.push(out);
    }
}

/// The number of [`CostCounter`] columns a search over the cost bounds
/// `0..=bound` can reach: `min(bound, Σ wᵢ saturated at bound + 1) + 1`,
/// computed without overflow. Its last column, past what the items can
/// sum to when `bound` is, is constant false and bounds nothing.
pub(crate) fn cost_counter_width(items: &[(Lit, u64)], bound: u64) -> u128 {
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

    /// Fresh item literals with the given weights.
    fn items_of(b: &mut CnfBuilder, weights: &[u64]) -> Vec<(Lit, u64)> {
        weights.iter().map(|&w| (Lit::pos(b.fresh()), w)).collect()
    }

    /// Exhaustively verify the weighted counter against arithmetic for
    /// small item sets.
    #[test]
    fn cost_counter_exact() {
        let weights = [1u64, 2, 1, 3];
        let bound = 4u64;
        for mask in 0u32..(1 << weights.len()) {
            let mut b = CnfBuilder::new();
            let items = items_of(&mut b, &weights);
            assert_eq!(cost_counter_width(&items, bound), u128::from(bound) + 1);
            let mut counter = CostCounter::new(items.clone());
            // Fix the inputs according to the mask.
            let mut sum = 0u64;
            for (i, &(l, w)) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    b.solver.add_clause(&[l]);
                    sum += w;
                } else {
                    b.solver.add_clause(&[l.negate()]);
                }
            }
            for (k, j) in (0..=bound).zip(1..) {
                let out = counter.at_least(j, &mut b);
                let res = b.solver.solve_with(&[out.negate()]);
                let expect_sat = sum <= k;
                assert_eq!(
                    res == SatResult::Sat,
                    expect_sat,
                    "mask={mask:b} sum={sum} k={k}"
                );
            }
        }
    }

    /// The counter reaches `min(bound, Σ saturated wᵢ) + 1` columns, so a
    /// bound past what the items can sum to costs nothing, `u64::MAX`
    /// included. Its last column then bounds nothing: assuming its
    /// output false admits every item at once.
    #[test]
    fn cost_counter_width_is_what_its_items_can_sum_to() {
        let width = |weights: &[u64], bound: u64| {
            let mut b = CnfBuilder::new();
            let items = items_of(&mut b, weights);
            let width = cost_counter_width(&items, bound);
            let last =
                CostCounter::new(items.clone()).at_least(usize::try_from(width).unwrap(), &mut b);
            for &(x, _) in &items {
                b.solver.add_clause(&[x]);
            }
            let all_items = b.solver.solve_with(&[last.negate()]) == SatResult::Sat;
            (width, all_items)
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
        let out = CostCounter::new(vec![(x, 0)]).at_least(1, &mut b);
        b.solver.add_clause(&[x]);
        // Even at bound 0 the formula is satisfiable.
        assert_eq!(b.solver.solve_with(&[out.negate()]), SatResult::Sat);
    }

    /// A weight past every column reaches each one alone.
    #[test]
    fn cost_counter_saturates_large_weights() {
        let mut b = CnfBuilder::new();
        let x = Lit::pos(b.fresh());
        let mut counter = CostCounter::new(vec![(x, 1000)]);
        b.solver.add_clause(&[x]);
        // Sum exceeds every bound ≤ 3.
        for k in 0..4 {
            let out = counter.at_least(k + 1, &mut b);
            assert_eq!(
                b.solver.solve_with(&[out.negate()]),
                SatResult::Unsat,
                "k={k}"
            );
        }
    }

    /// Columns grown between solves, as the least-cost search grows
    /// them, over seeded weights 0–4 and bounds 0–6: once column k + 1
    /// is built, each assignment of the items satisfies `¬out[k]` exactly
    /// when its weights sum to at most k, so `out[k]` is forced whenever
    /// they reach k + 1 (brute force over every assignment).
    #[test]
    fn cost_counter_grows_between_solves() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next_weight = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % 5
        };
        for case in 0..40 {
            let weights: Vec<u64> = (0..1 + case % 5).map(|_| next_weight()).collect();
            let mut b = CnfBuilder::new();
            let items = items_of(&mut b, &weights);
            let mut counter = CostCounter::new(items.clone());
            for k in 0..=6u64 {
                let out = counter.at_least(k as usize + 1, &mut b);
                for mask in 0u32..(1 << items.len()) {
                    let mut assumed: Vec<Lit> = items
                        .iter()
                        .enumerate()
                        .map(|(i, &(x, _))| if mask & (1 << i) != 0 { x } else { x.negate() })
                        .collect();
                    let sum: u64 = (0..items.len())
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| weights[i])
                        .sum();
                    assumed.push(out.negate());
                    assert_eq!(
                        b.solver.solve_with(&assumed) == SatResult::Sat,
                        sum <= k,
                        "weights={weights:?} mask={mask:b} k={k}"
                    );
                }
            }
        }
    }
}
