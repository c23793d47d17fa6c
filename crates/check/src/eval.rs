//! The binding enumerator and directional-check evaluator.
//!
//! A directional check `R_{S→T}` (§2.2) is evaluated as a conjunctive
//! query: the *universal* side joins the domain patterns of every model in
//! `S` (plus the `when` filter), and for each resulting binding the
//! *existential* side probes for a witness extension satisfying the `T`
//! pattern and the `where` clause. Domains outside `S ∪ {T}` are dropped —
//! exactly the semantics the paper introduces to fix the standard's
//! empty-range loophole.
//!
//! The enumerator is a backtracking join over the flattened pattern
//! constraints with greedy generator selection (attribute-index probes
//! before extent scans, reference traversals before either). Relation
//! invocations are cached on `(callee, direction, roots)` in the call
//! memo; existential probes are not cached, since one check rarely
//! probes the same witness key twice.

use crate::index::ModelIndex;
use mmt_deps::{Dep, DomIdx, DomSet};
use mmt_model::fx::FxHashMap;
use mmt_model::{Model, ObjId, Sym, Value};
use mmt_qvtr::{Atom, CmpOp, Constraint, Hir, HirExpr, HirRelation, RelId, VarId, VarTy};
use std::fmt;

/// A bound variable value: an object or a primitive value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Slot {
    /// An object (its model is implied by the variable's type).
    Obj(ObjId),
    /// A primitive value.
    Val(Value),
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Obj(o) => write!(f, "{o}"),
            Slot::Val(v) => write!(f, "{v}"),
        }
    }
}

/// A partial assignment of a relation's variables.
pub type Binding = Vec<Option<Slot>>;

/// Errors during evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A primitive variable cannot be bound by any generator in this
    /// direction (it would be universally quantified over an infinite
    /// domain).
    UnboundVar {
        /// Relation name.
        relation: Sym,
        /// Variable name.
        var: Sym,
    },
    /// A pattern has more constraints than the enumerator supports.
    TooManyConstraints {
        /// Relation name.
        relation: Sym,
    },
    /// Relation invocations recursed past the depth limit.
    RecursionLimit,
    /// A dependency's target has no domain in the relation.
    NoTargetDomain {
        /// Relation name.
        relation: Sym,
        /// The dependency.
        dep: Dep,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar { relation, var } => write!(
                f,
                "relation `{relation}`: variable `{var}` cannot be bound in this direction"
            ),
            EvalError::TooManyConstraints { relation } => {
                write!(
                    f,
                    "relation `{relation}`: pattern too large (max 64 constraints)"
                )
            }
            EvalError::RecursionLimit => f.write_str("relation call recursion limit exceeded"),
            EvalError::NoTargetDomain { relation, dep } => write!(
                f,
                "relation `{relation}`: dependency {dep} targets a model without a domain"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluation work counters: of one [`Checker::check`](crate::Checker::check),
/// or of a [`DeltaChecker`](crate::DeltaChecker) cumulatively over its
/// initial evaluation and every update. A freshly built `DeltaChecker`
/// reports what a `Checker` over the same tuple reports, as long as
/// the `Checker` does not stop a check early at
/// [`CheckOptions::max_violations`](crate::CheckOptions::max_violations).
#[derive(Clone, Copy, Default, Debug)]
pub struct EvalStats {
    /// Universal bindings enumerated, before the `when` filter. An
    /// incremental update counts the bindings it re-enumerates.
    pub universal_bindings: u64,
    /// Witness probes run: one per universal binding that passes
    /// `when`, plus the re-probes of an incremental update.
    pub existential_probes: u64,
    /// Relation calls answered from the call memo.
    pub call_hits: u64,
}

/// The current direction a check runs in (for projecting calls).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Direction {
    pub(crate) sources: DomSet,
    pub(crate) target: Option<DomIdx>,
}

/// The compiled form of one directional check `R_{S→T}`: the universal
/// and existential constraint sets and the variables the universal side
/// binds. Assembled by [`plan_check`]; consumed by
/// [`EvalCtx::check_dep_with`] and by the incremental
/// [`DeltaChecker`](crate::DeltaChecker).
#[derive(Clone, Debug)]
pub(crate) struct CheckPlan {
    /// Universal-side constraints (all source domains + when-only vars).
    pub(crate) src_constraints: Vec<Constraint>,
    /// Existential-side constraints (target domain + where-only vars).
    pub(crate) tgt_constraints: Vec<Constraint>,
    /// Variables bound by the universal side.
    pub(crate) src_vars: Vec<VarId>,
    /// The projected direction (for relation calls).
    pub(crate) dir: Direction,
}

/// Assembles the [`CheckPlan`] for `rel_{dep}` given the pre-bound
/// variables in `binding` (all-`None` for a top-level check; domain
/// roots bound for a relation invocation).
pub(crate) fn plan_check(
    rel: &HirRelation,
    dep: Dep,
    binding: &Binding,
) -> Result<CheckPlan, EvalError> {
    let tgt_domain = rel
        .domain_for_model(dep.target)
        .ok_or(EvalError::NoTargetDomain {
            relation: rel.name,
            dep,
        })?;
    // Universal side: patterns of every domain in S.
    let mut src_constraints: Vec<Constraint> = Vec::new();
    for d in &rel.domains {
        if dep.sources.contains(d.model) {
            src_constraints.extend_from_slice(&d.constraints);
        }
    }
    // `when` variables not bound by the source patterns are enumerated
    // over their class extents (they are universally quantified).
    let mut src_vars: Vec<VarId> = Vec::new();
    for c in &src_constraints {
        collect_constraint_vars(c, &mut src_vars);
    }
    if let Some(when) = &rel.when {
        let mut wv = Vec::new();
        when.free_vars(&mut wv);
        for v in wv {
            if !src_vars.contains(&v) && binding[v.index()].is_none() {
                match rel.vars[v.index()].ty {
                    VarTy::Obj { model, class } => {
                        src_constraints.push(Constraint::Obj {
                            var: v,
                            model,
                            class,
                        });
                        src_vars.push(v);
                    }
                    VarTy::Prim(_) => {
                        return Err(EvalError::UnboundVar {
                            relation: rel.name,
                            var: rel.vars[v.index()].name,
                        })
                    }
                }
            }
        }
    }
    // Existential side: the T pattern plus `where`-only variables.
    let mut tgt_constraints: Vec<Constraint> = tgt_domain.constraints.clone();
    let mut tgt_vars: Vec<VarId> = Vec::new();
    for c in &tgt_constraints {
        collect_constraint_vars(c, &mut tgt_vars);
    }
    if let Some(wher) = &rel.where_ {
        let mut wv = Vec::new();
        wher.free_vars(&mut wv);
        for v in wv {
            if !src_vars.contains(&v) && !tgt_vars.contains(&v) && binding[v.index()].is_none() {
                match rel.vars[v.index()].ty {
                    VarTy::Obj { model, class } => {
                        tgt_constraints.push(Constraint::Obj {
                            var: v,
                            model,
                            class,
                        });
                        tgt_vars.push(v);
                    }
                    VarTy::Prim(_) => {
                        return Err(EvalError::UnboundVar {
                            relation: rel.name,
                            var: rel.vars[v.index()].name,
                        })
                    }
                }
            }
        }
    }
    let dir = Direction {
        sources: dep.sources,
        target: Some(dep.target),
    };
    Ok(CheckPlan {
        src_constraints,
        tgt_constraints,
        src_vars,
        dir,
    })
}

type CallKey = (RelId, u64, u8, Vec<Slot>);

/// Shared evaluation context over one model tuple, private to the
/// crate: [`crate::Checker`] and [`crate::DeltaChecker`] each evaluate
/// through their own.
///
/// The mutable evaluation state (call memo, statistics, recursion depth)
/// lives in plain fields behind `&mut self` — there is no interior
/// mutability, so `EvalCtx` is `Send + Sync` and a `&EvalCtx` can be
/// shared across threads (each thread evaluating through its own
/// context).
pub(crate) struct EvalCtx<'a> {
    /// The transformation.
    pub hir: &'a Hir,
    /// The bound models, in model-space order.
    pub models: &'a [Model],
    /// Indexes, parallel to `models`.
    pub indexes: &'a [ModelIndex],
    call_memo: FxHashMap<CallKey, bool>,
    pub(crate) stats: EvalStats,
    depth: u32,
}

const MAX_CALL_DEPTH: u32 = 64;

impl<'a> EvalCtx<'a> {
    /// Creates a context; `indexes` must parallel `models`.
    pub fn new(hir: &'a Hir, models: &'a [Model], indexes: &'a [ModelIndex]) -> EvalCtx<'a> {
        EvalCtx {
            hir,
            models,
            indexes,
            call_memo: FxHashMap::default(),
            stats: EvalStats::default(),
            depth: 0,
        }
    }

    /// Snapshot of the statistics so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    pub(crate) fn model_of(&self, rel: &HirRelation, var: VarId) -> DomIdx {
        match rel.vars[var.index()].ty {
            VarTy::Obj { model, .. } => model,
            VarTy::Prim(_) => unreachable!("object variable expected"),
        }
    }

    /// Runs the directional check `rel_{dep}`, invoking `on_violation` for
    /// each universal binding lacking a witness (up to the caller's
    /// appetite — return `false` from the callback to stop early).
    /// Returns `Ok(true)` iff the check holds.
    pub fn check_dep(
        &mut self,
        rel_id: RelId,
        dep: Dep,
        on_violation: &mut dyn FnMut(&HirRelation, &Binding) -> bool,
    ) -> Result<bool, EvalError> {
        let rel = self.hir.relation(rel_id);
        let binding: Binding = vec![None; rel.vars.len()];
        self.check_dep_with(rel_id, dep, binding, on_violation)
    }

    /// As [`EvalCtx::check_dep`] but with some variables pre-bound (used
    /// for relation invocations, where the domain roots are fixed).
    fn check_dep_with(
        &mut self,
        rel_id: RelId,
        dep: Dep,
        mut binding: Binding,
        on_violation: &mut dyn FnMut(&HirRelation, &Binding) -> bool,
    ) -> Result<bool, EvalError> {
        let hir = self.hir;
        let rel = hir.relation(rel_id);
        let plan = plan_check(rel, dep, &binding)?;
        let mut holds = true;
        let rel_ref = rel;
        let CheckPlan {
            src_constraints,
            tgt_constraints,
            dir,
            ..
        } = plan;
        self.solve(rel, &src_constraints, &mut binding, &mut |ctx, b| {
            ctx.stats.universal_bindings += 1;
            // `when` filter.
            if let Some(when) = &rel_ref.when {
                if !ctx.eval_bool(rel_ref, when, b, dir)? {
                    return Ok(false); // continue enumeration
                }
            }
            if !ctx.probe_witness(rel_ref, &tgt_constraints, b, dir)? {
                holds = false;
                let keep_going = on_violation(rel_ref, b);
                return Ok(!keep_going); // stop if callback is sated
            }
            Ok(false)
        })?;
        Ok(holds)
    }

    /// Existential probe: does some extension of `binding` satisfy the
    /// target constraints and the `where` clause?
    pub(crate) fn probe_witness(
        &mut self,
        rel: &HirRelation,
        tgt_constraints: &[Constraint],
        binding: &mut Binding,
        dir: Direction,
    ) -> Result<bool, EvalError> {
        self.stats.existential_probes += 1;
        let mut found = false;
        self.solve(rel, tgt_constraints, binding, &mut |ctx, b| {
            if let Some(wher) = &rel.where_ {
                if !ctx.eval_bool(rel, wher, b, dir)? {
                    return Ok(false);
                }
            }
            found = true;
            Ok(true) // stop at first witness
        })?;
        Ok(found)
    }

    /// Backtracking join over `constraints`, extending `binding`. Calls
    /// `on_solution` for every complete extension; the callback returns
    /// `Ok(true)` to stop enumeration. Restores `binding` on exit.
    pub(crate) fn solve(
        &mut self,
        rel: &HirRelation,
        constraints: &[Constraint],
        binding: &mut Binding,
        on_solution: &mut dyn FnMut(&mut Self, &mut Binding) -> Result<bool, EvalError>,
    ) -> Result<bool, EvalError> {
        if constraints.len() > 64 {
            return Err(EvalError::TooManyConstraints { relation: rel.name });
        }
        self.solve_rec(rel, constraints, 0, binding, on_solution)
    }

    fn solve_rec(
        &mut self,
        rel: &HirRelation,
        constraints: &[Constraint],
        done: u64,
        binding: &mut Binding,
        on_solution: &mut dyn FnMut(&mut Self, &mut Binding) -> Result<bool, EvalError>,
    ) -> Result<bool, EvalError> {
        let mut done = done;
        let mut trail: Vec<VarId> = Vec::new();
        // Undo helper used at every exit point.
        macro_rules! undo {
            () => {
                for v in trail.drain(..) {
                    binding[v.index()] = None;
                }
            };
        }
        // Deterministic pass: consume filters and forced assignments.
        loop {
            let mut progressed = false;
            for (i, c) in constraints.iter().enumerate() {
                if done & (1 << i) != 0 {
                    continue;
                }
                match *c {
                    Constraint::Obj { var, model, class } => {
                        if let Some(slot) = binding[var.index()] {
                            let Slot::Obj(o) = slot else {
                                undo!();
                                return Ok(false);
                            };
                            let m = &self.models[model.index()];
                            let ok = m
                                .get(o)
                                .map(|obj| m.metamodel().conforms(obj.class, class))
                                .unwrap_or(false);
                            if !ok {
                                undo!();
                                return Ok(false);
                            }
                            done |= 1 << i;
                            progressed = true;
                        }
                    }
                    Constraint::AttrEq { obj, attr, rhs } => {
                        let Some(Slot::Obj(o)) = binding[obj.index()] else {
                            continue;
                        };
                        let model = self.model_of(rel, obj);
                        let actual = self.models[model.index()]
                            .attr(o, attr)
                            .expect("typed pattern reads a declared attribute");
                        match rhs {
                            Atom::Lit(v) => {
                                if actual != v {
                                    undo!();
                                    return Ok(false);
                                }
                            }
                            Atom::Var(v) => match binding[v.index()] {
                                Some(Slot::Val(bound)) => {
                                    if actual != bound {
                                        undo!();
                                        return Ok(false);
                                    }
                                }
                                Some(Slot::Obj(_)) => {
                                    undo!();
                                    return Ok(false);
                                }
                                None => {
                                    binding[v.index()] = Some(Slot::Val(actual));
                                    trail.push(v);
                                }
                            },
                        }
                        done |= 1 << i;
                        progressed = true;
                    }
                    Constraint::RefContains { obj, r, dst } => {
                        let Some(Slot::Obj(o)) = binding[obj.index()] else {
                            continue;
                        };
                        let Some(dslot) = binding[dst.index()] else {
                            continue; // branching case, handled below
                        };
                        let Slot::Obj(d) = dslot else {
                            undo!();
                            return Ok(false);
                        };
                        let model = self.model_of(rel, obj);
                        if !self.models[model.index()].has_link(o, r, d) {
                            undo!();
                            return Ok(false);
                        }
                        done |= 1 << i;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        // Complete?
        if done.count_ones() as usize == constraints.len() {
            let stop = on_solution(self, binding)?;
            undo!();
            return Ok(stop);
        }
        // Choose the cheapest generator among the remaining
        // constraints. Costs are O(1) index cardinalities — no
        // candidate list is materialized (or filtered) until one
        // generator wins, so losing generators (e.g. a boolean
        // attribute bucket holding half a 10⁵-object model) cost
        // nothing per probe.
        enum Gen {
            RefTraverse {
                idx: usize,
                var: VarId,
                model: DomIdx,
                src: ObjId,
                r: mmt_model::RefId,
            },
            AttrProbe {
                idx: usize,
                var: VarId,
                model: DomIdx,
                class: mmt_model::ClassId,
                attr: mmt_model::AttrId,
                val: Value,
            },
            Extent {
                idx: usize,
                var: VarId,
                model: DomIdx,
                class: mmt_model::ClassId,
            },
        }
        let mut best: Option<(usize, Gen)> = None;
        for (i, c) in constraints.iter().enumerate() {
            if done & (1 << i) != 0 {
                continue;
            }
            match *c {
                Constraint::RefContains { obj, r, dst } => {
                    if let Some(Slot::Obj(o)) = binding[obj.index()] {
                        debug_assert!(binding[dst.index()].is_none());
                        let model = self.model_of(rel, obj);
                        let cost = self.models[model.index()]
                            .targets(o, r)
                            .expect("typed pattern reads a declared reference")
                            .len();
                        if best.as_ref().map(|(c0, _)| cost < *c0).unwrap_or(true) {
                            best = Some((
                                cost,
                                Gen::RefTraverse {
                                    idx: i,
                                    var: dst,
                                    model,
                                    src: o,
                                    r,
                                },
                            ));
                        }
                    }
                }
                Constraint::Obj { var, model, class } => {
                    if binding[var.index()].is_some() {
                        continue;
                    }
                    // Prefer an attribute-index probe when a companion
                    // AttrEq on `var` has a known right-hand side —
                    // cheapest raw bucket wins; the conformance filter
                    // runs only if this generator is chosen.
                    let mut probe: Option<(usize, Gen)> = None;
                    for (j, c2) in constraints.iter().enumerate() {
                        if done & (1 << j) != 0 {
                            continue;
                        }
                        if let Constraint::AttrEq { obj, attr, rhs } = *c2 {
                            if obj != var {
                                continue;
                            }
                            let known = match rhs {
                                Atom::Lit(v) => Some(v),
                                Atom::Var(v) => match binding[v.index()] {
                                    Some(Slot::Val(val)) => Some(val),
                                    _ => None,
                                },
                            };
                            if let Some(val) = known {
                                let cost = self.indexes[model.index()].by_attr_len(attr, val);
                                if probe.as_ref().map(|(c0, _)| cost < *c0).unwrap_or(true) {
                                    probe = Some((
                                        cost,
                                        Gen::AttrProbe {
                                            idx: i,
                                            var,
                                            model,
                                            class,
                                            attr,
                                            val,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    let (cost, gen) = probe.unwrap_or_else(|| {
                        (
                            self.indexes[model.index()].extent_len(class),
                            Gen::Extent {
                                idx: i,
                                var,
                                model,
                                class,
                            },
                        )
                    });
                    if best.as_ref().map(|(c0, _)| cost < *c0).unwrap_or(true) {
                        best = Some((cost, gen));
                    }
                }
                Constraint::AttrEq { .. } => {}
            }
        }
        let Some((_, gen)) = best else {
            // Stuck: some constraint's object variable can never be bound.
            let unbound = constraints
                .iter()
                .enumerate()
                .filter(|(i, _)| done & (1 << i) == 0)
                .find_map(|(_, c)| match *c {
                    Constraint::AttrEq { obj, .. } | Constraint::RefContains { obj, .. } => {
                        binding[obj.index()].is_none().then_some(obj)
                    }
                    _ => None,
                });
            undo!();
            return Err(EvalError::UnboundVar {
                relation: rel.name,
                var: unbound
                    .map(|v| rel.vars[v.index()].name)
                    .unwrap_or(rel.name),
            });
        };
        // Materialize only the winning generator's candidates (ascending
        // id order either way — the index iterates ascending).
        let (idx, var, candidates): (usize, VarId, Vec<ObjId>) = match gen {
            Gen::RefTraverse {
                idx,
                var,
                model,
                src,
                r,
            } => (
                idx,
                var,
                self.models[model.index()]
                    .targets(src, r)
                    .expect("typed pattern reads a declared reference")
                    .to_vec(),
            ),
            Gen::AttrProbe {
                idx,
                var,
                model,
                class,
                attr,
                val,
            } => {
                let m = &self.models[model.index()];
                let meta = m.metamodel();
                (
                    idx,
                    var,
                    self.indexes[model.index()]
                        .by_attr_iter(attr, val)
                        .filter(|&o| {
                            m.get(o)
                                .map(|ob| meta.conforms(ob.class, class))
                                .unwrap_or(false)
                        })
                        .collect(),
                )
            }
            Gen::Extent {
                idx,
                var,
                model,
                class,
            } => (
                idx,
                var,
                self.indexes[model.index()].extent_iter(class).collect(),
            ),
        };
        for cand in candidates {
            binding[var.index()] = Some(Slot::Obj(cand));
            let stop = self.solve_rec(rel, constraints, done | (1 << idx), binding, on_solution)?;
            binding[var.index()] = None;
            if stop {
                undo!();
                return Ok(true);
            }
        }
        undo!();
        Ok(false)
    }

    /// Evaluates a boolean expression under `binding` and direction `dir`.
    pub(crate) fn eval_bool(
        &mut self,
        rel: &HirRelation,
        e: &HirExpr,
        binding: &Binding,
        dir: Direction,
    ) -> Result<bool, EvalError> {
        match e {
            HirExpr::Lit(Value::Bool(b)) => Ok(*b),
            HirExpr::Lit(_) => unreachable!("type checker admits only booleans"),
            HirExpr::Var(v) => match binding[v.index()] {
                Some(Slot::Val(Value::Bool(b))) => Ok(b),
                _ => unreachable!("type checker: boolean variable"),
            },
            HirExpr::Nav(v, attr) => {
                let Some(Slot::Obj(o)) = binding[v.index()] else {
                    unreachable!("navigation on bound object variable")
                };
                let model = self.model_of(rel, *v);
                match self.models[model.index()].attr(o, *attr) {
                    Ok(Value::Bool(b)) => Ok(b),
                    _ => unreachable!("type checker: boolean attribute"),
                }
            }
            HirExpr::Cmp(op, a, b) => {
                let va = self.eval_value(rel, a, binding)?;
                let vb = self.eval_value(rel, b, binding)?;
                Ok(match op {
                    CmpOp::Eq => va == vb,
                    CmpOp::Neq => va != vb,
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                        let (Slot::Val(Value::Int(ia)), Slot::Val(Value::Int(ib))) = (va, vb)
                        else {
                            unreachable!("type checker: ordered comparison on Int")
                        };
                        match op {
                            CmpOp::Lt => ia < ib,
                            CmpOp::Le => ia <= ib,
                            CmpOp::Gt => ia > ib,
                            CmpOp::Ge => ia >= ib,
                            _ => unreachable!(),
                        }
                    }
                })
            }
            HirExpr::And(a, b) => Ok(
                self.eval_bool(rel, a, binding, dir)? && self.eval_bool(rel, b, binding, dir)?
            ),
            HirExpr::Or(a, b) => Ok(
                self.eval_bool(rel, a, binding, dir)? || self.eval_bool(rel, b, binding, dir)?
            ),
            HirExpr::Implies(a, b) => {
                Ok(!self.eval_bool(rel, a, binding, dir)?
                    || self.eval_bool(rel, b, binding, dir)?)
            }
            HirExpr::Not(a) => Ok(!self.eval_bool(rel, a, binding, dir)?),
            HirExpr::Call(rid, args) => self.eval_call(*rid, args, binding, dir),
        }
    }

    fn eval_value(
        &self,
        rel: &HirRelation,
        e: &HirExpr,
        binding: &Binding,
    ) -> Result<Slot, EvalError> {
        match e {
            HirExpr::Lit(v) => Ok(Slot::Val(*v)),
            HirExpr::Var(v) => Ok(binding[v.index()].expect("type checker: bound variable")),
            HirExpr::Nav(v, attr) => {
                let Some(Slot::Obj(o)) = binding[v.index()] else {
                    unreachable!("navigation on bound object variable")
                };
                let model = self.model_of(rel, *v);
                Ok(Slot::Val(
                    self.models[model.index()]
                        .attr(o, *attr)
                        .expect("typed navigation"),
                ))
            }
            _ => unreachable!("type checker: value expression"),
        }
    }

    /// Evaluates a relation invocation `Q(args)` under the caller's
    /// direction, per §2.3: the direction is projected onto the callee's
    /// domain models. If the target model has no callee domain the callee
    /// is evaluated as a *closed* predicate (all patterns + when + where
    /// must be satisfiable at the given roots) — only reachable from
    /// `when` (the resolver rejects it in `where`).
    fn eval_call(
        &mut self,
        rid: RelId,
        args: &[VarId],
        binding: &Binding,
        dir: Direction,
    ) -> Result<bool, EvalError> {
        let hir = self.hir;
        let callee = hir.relation(rid);
        let callee_models = callee.domain_models();
        let proj_sources = dir.sources.intersect(callee_models);
        let proj_target = dir.target.filter(|&t| callee_models.contains(t));
        // Bind the callee's domain roots to the argument values.
        let mut cbinding: Binding = vec![None; callee.vars.len()];
        let mut roots: Vec<Slot> = Vec::with_capacity(args.len());
        for (dom, &arg) in callee.domains.iter().zip(args) {
            let slot = binding[arg.index()].expect("call arguments are bound before evaluation");
            cbinding[dom.root.index()] = Some(slot);
            roots.push(slot);
        }
        let key: CallKey = (
            rid,
            proj_sources.0,
            proj_target.map(|t| t.0).unwrap_or(u8::MAX),
            roots,
        );
        if let Some(&r) = self.call_memo.get(&key) {
            self.stats.call_hits += 1;
            return Ok(r);
        }
        if self.depth >= MAX_CALL_DEPTH {
            return Err(EvalError::RecursionLimit);
        }
        self.depth += 1;
        let result = match proj_target {
            Some(t) => {
                let dep = Dep::new(proj_sources.without(t), t).expect("t not in sources");
                self.check_dep_with(rid, dep, cbinding, &mut |_, _| false)
            }
            None => {
                // Closed predicate: every domain pattern must extend,
                // and when ∧ where must hold.
                let mut all: Vec<Constraint> = Vec::new();
                for d in &callee.domains {
                    all.extend_from_slice(&d.constraints);
                }
                let inner_dir = Direction {
                    sources: callee_models,
                    target: None,
                };
                let mut found = false;
                let mut b = cbinding;
                let solved = self.solve(callee, &all, &mut b, &mut |ctx, bb| {
                    if let Some(w) = &callee.when {
                        if !ctx.eval_bool(callee, w, bb, inner_dir)? {
                            return Ok(false);
                        }
                    }
                    if let Some(w) = &callee.where_ {
                        if !ctx.eval_bool(callee, w, bb, inner_dir)? {
                            return Ok(false);
                        }
                    }
                    found = true;
                    Ok(true)
                });
                solved.map(|_| found)
            }
        };
        self.depth -= 1;
        let r = result?;
        self.call_memo.insert(key, r);
        Ok(r)
    }
}

fn collect_constraint_vars(c: &Constraint, out: &mut Vec<VarId>) {
    match *c {
        Constraint::Obj { var, .. } => {
            if !out.contains(&var) {
                out.push(var);
            }
        }
        Constraint::AttrEq { obj, rhs, .. } => {
            if !out.contains(&obj) {
                out.push(obj);
            }
            if let Atom::Var(v) = rhs {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        Constraint::RefContains { obj, dst, .. } => {
            if !out.contains(&obj) {
                out.push(obj);
            }
            if !out.contains(&dst) {
                out.push(dst);
            }
        }
    }
}
