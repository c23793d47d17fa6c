//! Search-based least-change repair.
//!
//! Implements §3's enforcement technique directly: uniform-cost search
//! over edit sequences applied to the target models, using the concrete
//! checking engine as the consistency oracle. States are explored in
//! order of increasing total (weighted) distance from the originals, so
//! the first consistent state found is a least-change repair *within the
//! generated candidate space*.
//!
//! Candidate edits are *repair-guided*: they are derived from the
//! counterexample bindings of failing directional checks — create or
//! adapt a witness on the target side, or destroy the universal match on
//! a source side — rather than enumerating every conceivable edit. This
//! keeps the branching factor proportional to the number of violations.
//! The SAT engine ([`crate::SatEngine`]) is the complete reference.
//!
//! ## One checker, moved by exact edits
//!
//! The search owns one [`mmt_check::DeltaChecker`] — built over the
//! originals, or forked from a sync session's warm checker — and keeps
//! its states in a tree whose nodes are `(parent, depth, candidate,
//! fingerprint)`. To expand a popped state, the checker walks the tree
//! from the state it holds: it undoes edits up to the common ancestor,
//! redoes them down to the popped state's parent, and applies the
//! popped state's edit. That is at most 2 × depth edits, each O(|edit|)
//! through the incremental oracle, where a checker clone per state
//! would cost O(tuple).
//!
//! Undo is exact. An edit lands in the expanded form of
//! [`mmt_dist::expand_op`] (a deletion first strips the links and
//! attribute values it would scrub), so the inverse ops, in reverse
//! order, restore every object; dropping the tombstones an undone
//! `AddObj` leaves behind restores the id bound fresh ids are minted
//! from. Violations are enumerated in canonical order
//! ([`mmt_check::DeltaChecker::for_each_violation`]), so the checker's
//! internal match order after a walk cannot change which repair wins.
//!
//! The duplicate-state filter uses a commutative (per-object sum) hash,
//! so a candidate's fingerprint is computed from its parent's in
//! O(touched objects) without applying the edit — for `DelObj`, the
//! object and the sources of its incoming links.
//!
//! [`reference_search`] runs the same search with a from-scratch oracle
//! (every state stores a full tuple and re-checks every directional
//! check). It is slow and exists only as the reference that tests
//! compare [`repair_search`] against.

use crate::{RepairError, RepairOptions, RepairOutcome};
use mmt_check::{Binding, CheckOptions, DeltaChecker, DeltaError, EvalCtx, ModelIndex, Slot};
use mmt_deps::{Dep, DomIdx, DomSet};
use mmt_dist::{expand_op, Delta, EditOp};
use mmt_model::fx::FxHashSet;
use mmt_model::{AttrType, ClassId, Model, ObjId, Object, Sym, Value};
use mmt_qvtr::{Atom, Constraint, Hir, HirExpr, HirRelation, VarTy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// One candidate edit on a specific model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Candidate {
    model: DomIdx,
    op: EditOp,
}

/// Uniform-cost search for a least-change repair, with the incremental
/// oracle: builds the root checker over `originals` and searches from it.
pub fn repair_search(
    hir: &Arc<Hir>,
    originals: &[Model],
    targets: DomSet,
    opts: &RepairOptions,
) -> Result<Option<RepairOutcome>, RepairError> {
    let check_opts = CheckOptions {
        max_violations: opts.violations_per_check,
        ..CheckOptions::default()
    };
    let root = DeltaChecker::with_options(hir, originals, check_opts).map_err(delta_repair_err)?;
    search_from_root(root, targets, opts)
}

fn delta_repair_err(e: DeltaError) -> RepairError {
    match e {
        DeltaError::Check(e) => RepairError::Check(e),
        DeltaError::Eval(e) => RepairError::Eval(e),
        DeltaError::Model(e) => RepairError::Model(e),
    }
}

/// One state of the search tree: the state it extends, its depth, the
/// one candidate edit that distinguishes it (`None` at the root), and
/// its duplicate-filter fingerprint. Once the state has been applied,
/// `script` names the edit as it landed (expanded, in
/// [`SearchTree::ops`]) and `prior_bound` the edited model's
/// `id_bound()` before it — together they undo the edit exactly.
struct Node {
    parent: usize,
    depth: usize,
    cand: Option<Candidate>,
    fp: u64,
    script: Range<usize>,
    prior_bound: usize,
}

/// The search states, and the one checker's position among them.
struct SearchTree {
    nodes: Vec<Node>,
    /// The scripts of every applied state, back to back.
    ops: Vec<EditOp>,
    /// The state the checker holds.
    at: usize,
    /// Scratch for [`SearchTree::goto`]: states to redo, deepest first.
    down: Vec<usize>,
}

impl SearchTree {
    /// A tree holding only the root state, which the checker holds.
    fn new(root_fp: u64) -> SearchTree {
        SearchTree {
            nodes: vec![Node {
                parent: 0,
                depth: 0,
                cand: None,
                fp: root_fp,
                script: 0..0,
                prior_bound: 0,
            }],
            ops: Vec::new(),
            at: 0,
            down: Vec::new(),
        }
    }

    /// Adds the state `cand` leads to from `parent`; returns its index.
    fn push(&mut self, parent: usize, cand: Candidate, fp: u64) -> usize {
        let depth = self.nodes[parent].depth + 1;
        self.nodes.push(Node {
            parent,
            depth,
            cand: Some(cand),
            fp,
            script: 0..0,
            prior_bound: 0,
        });
        self.nodes.len() - 1
    }

    /// Moves `checker` to the state `idx` and reports whether it got
    /// there: `false` when `idx`'s edit no longer applies to its parent
    /// (a stale state), which leaves the checker at the parent. The
    /// first visit applies the edit in expanded form and records it;
    /// `idx` must not have been visited before.
    fn enter(&mut self, checker: &mut DeltaChecker, idx: usize) -> Result<bool, DeltaError> {
        let Some(cand) = self.nodes[idx].cand else {
            self.goto(checker, idx)?;
            return Ok(true);
        };
        self.goto(checker, self.nodes[idx].parent)?;
        let start = self.ops.len();
        let model = &checker.models()[cand.model.index()];
        let prior_bound = model.id_bound();
        expand_op(model, &cand.op, &mut self.ops);
        for k in start..self.ops.len() {
            match checker.apply(cand.model, &self.ops[k]) {
                Ok(()) => {}
                Err(DeltaError::Model(_)) => {
                    undo_ops(checker, cand.model, &self.ops[start..k], prior_bound)?;
                    self.ops.truncate(start);
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        let node = &mut self.nodes[idx];
        node.script = start..self.ops.len();
        node.prior_bound = prior_bound;
        self.at = idx;
        Ok(true)
    }

    /// Moves `checker` from the state it holds to `target`, which must
    /// have been entered before: undo up to the common ancestor, then
    /// redo down to `target`.
    fn goto(&mut self, checker: &mut DeltaChecker, target: usize) -> Result<(), DeltaError> {
        let (mut up, mut down) = (self.at, target);
        self.down.clear();
        while up != down {
            if self.nodes[up].depth >= self.nodes[down].depth {
                let (model, script) = self.landed(up);
                undo_ops(checker, model, script, self.nodes[up].prior_bound)?;
                up = self.nodes[up].parent;
            } else {
                self.down.push(down);
                down = self.nodes[down].parent;
            }
        }
        for &n in self.down.iter().rev() {
            let (model, script) = self.landed(n);
            for op in script {
                checker.apply(model, op)?;
            }
        }
        self.at = target;
        Ok(())
    }

    /// The model an entered state's edit landed on, and the edit as it
    /// landed.
    fn landed(&self, n: usize) -> (DomIdx, &[EditOp]) {
        let node = &self.nodes[n];
        let model = node.cand.expect("only the root has no edit").model;
        (model, &self.ops[node.script.clone()])
    }
}

/// Undoes `script`, which landed on the model at `model` when its
/// `id_bound()` was `prior_bound`: the inverse ops in reverse order,
/// then the tombstones an undone `AddObj` left behind.
fn undo_ops(
    checker: &mut DeltaChecker,
    model: DomIdx,
    script: &[EditOp],
    prior_bound: usize,
) -> Result<(), DeltaError> {
    for op in script.iter().rev() {
        checker.apply(model, &op.inverse())?;
    }
    checker.truncate_tombstones(model, prior_bound);
    Ok(())
}

/// Incremental-oracle search seeded from a **pre-warmed root checker**
/// (the hot half of [`repair_search`], which builds its root from
/// scratch and delegates here). The root's owned tuple is taken as the
/// originals; no initial full check runs. Because
/// [`DeltaChecker::for_each_violation`] enumerates violations in
/// canonical (binding-sorted) order, a warm root and a freshly built
/// one drive the search identically — the outcome is byte-for-byte the
/// same as a cold [`repair_search`] over the root's models.
///
/// The search moves `checker` itself between states (see the module
/// docs) and holds no other checker or tuple copy; it consumes the
/// checker because an error can leave it between states.
///
/// States pop in `(cost, sequence)` order, where `sequence` is push
/// order, so ties between equal-cost states break by candidate
/// derivation order.
pub(crate) fn search_from_root(
    mut checker: DeltaChecker,
    targets: DomSet,
    opts: &RepairOptions,
) -> Result<Option<RepairOutcome>, RepairError> {
    let hir: Arc<Hir> = Arc::clone(checker.hir_arc());
    let hir = &*hir;
    let value_pool = collect_value_pool(checker.models(), hir, opts.fresh_strings);
    let root_fp = fingerprint(checker.models(), targets);
    let mut tree = SearchTree::new(root_fp);
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    heap.push(Reverse((0, 0)));
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(root_fp);
    let mut expanded: u64 = 0;
    let mut violations: Vec<Violation> = Vec::new();
    while let Some(Reverse((cost, idx))) = heap.pop() {
        if !tree.enter(&mut checker, idx).map_err(delta_repair_err)? {
            continue; // stale states do not count against the budget
        }
        expanded += 1;
        if expanded > opts.max_states {
            return Err(RepairError::SearchBudgetExhausted {
                states: opts.max_states,
            });
        }
        // Oracle: the cached (incrementally maintained) violations.
        violations.clear();
        checker.for_each_violation(opts.violations_per_check, |rel, dep, binding| {
            violations.push(Violation {
                rel,
                dep,
                binding: binding.clone(),
            });
        });
        if violations.iter().any(|v| !repairable(hir, v, targets)) {
            return Ok(None);
        }
        // The goal test reads the uncapped verdicts: with a cap of 0 no
        // violation is captured, yet the state may be inconsistent.
        if checker.consistent() {
            let repaired = checker.models().to_vec();
            tree.goto(&mut checker, 0).map_err(delta_repair_err)?;
            return outcome(checker.models(), repaired, cost).map(Some);
        }
        if cost >= opts.max_cost {
            continue;
        }
        let fp = tree.nodes[idx].fp;
        for cand in candidates_of(hir, checker.models(), targets, &violations, &value_pool) {
            let total = checked_step(&cand, opts)
                .and_then(|step| cost.checked_add(step))
                .ok_or(RepairError::CostOverflow)?;
            if total > opts.max_cost {
                continue;
            }
            // O(touched) child fingerprint — the edit is not applied.
            let Some(child_fp) = fingerprint_apply(checker.models(), fp, &cand) else {
                continue; // stale candidate
            };
            if seen.insert(child_fp) {
                heap.push(Reverse((total, tree.push(idx, cand, child_fp))));
            }
        }
    }
    Ok(None)
}

/// The same uniform-cost search with a from-scratch oracle: every state
/// stores a full model tuple and re-checks every directional check.
/// Tests compare [`repair_search`] against it; `opts.tuple` must already
/// be resolved against the tuple's arity (or be
/// [`mmt_dist::TupleCost::auto`]).
pub fn reference_search(
    hir: &Hir,
    originals: &[Model],
    targets: DomSet,
    opts: &RepairOptions,
) -> Result<Option<RepairOutcome>, RepairError> {
    let value_pool = collect_value_pool(originals, hir, opts.fresh_strings);
    // Model is not Ord, so the heap carries indices into a state arena.
    let mut states: Vec<Vec<Model>> = vec![originals.to_vec()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut seen: HashSet<u64> = HashSet::new();
    heap.push(Reverse((0, 0)));
    seen.insert(fingerprint(originals, targets));
    let mut expanded: u64 = 0;
    while let Some(Reverse((cost, state_idx))) = heap.pop() {
        let models = states[state_idx].clone();
        expanded += 1;
        if expanded > opts.max_states {
            return Err(RepairError::SearchBudgetExhausted {
                states: opts.max_states,
            });
        }
        // Oracle: collect violations (with Slot-level bindings).
        let (violations, consistent) = collect_violations(hir, &models, opts)?;
        if violations.iter().any(|v| !repairable(hir, v, targets)) {
            return Ok(None);
        }
        if consistent {
            return outcome(originals, models, cost).map(Some);
        }
        if cost >= opts.max_cost {
            continue;
        }
        for cand in candidates_of(hir, &models, targets, &violations, &value_pool) {
            let total = checked_step(&cand, opts)
                .and_then(|step| cost.checked_add(step))
                .ok_or(RepairError::CostOverflow)?;
            if total > opts.max_cost {
                continue;
            }
            let mut next = models.clone();
            if apply_candidate(&mut next[cand.model.index()], &cand.op).is_err() {
                continue; // stale candidate (object vanished, etc.)
            }
            let fp = fingerprint(&next, targets);
            if seen.insert(fp) {
                states.push(next);
                heap.push(Reverse((total, states.len() - 1)));
            }
        }
    }
    Ok(None)
}

/// A repair outcome: `models` and the per-model deltas that reach them
/// from `originals`.
fn outcome(
    originals: &[Model],
    models: Vec<Model>,
    cost: u64,
) -> Result<RepairOutcome, RepairError> {
    let deltas = originals
        .iter()
        .zip(&models)
        .map(|(o, n)| Delta::between(o, n))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RepairOutcome {
        cost,
        models,
        deltas,
    })
}

/// False when `v`'s directional check reads no model in `targets`: no
/// edit the repair may make can fix it.
fn repairable(hir: &Hir, v: &Violation, targets: DomSet) -> bool {
    !participating_models(hir.relation(v.rel), v.dep)
        .intersect(targets)
        .is_empty()
}

/// The repair-guided candidates of one state, deduplicated, in canonical
/// derivation order (violation order × constraint order). One fresh-id
/// allocator spans the whole pass, so no two fresh-object candidates of
/// the state collide.
fn candidates_of(
    hir: &Hir,
    models: &[Model],
    targets: DomSet,
    violations: &[Violation],
    pool: &ValuePool,
) -> Vec<Candidate> {
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut fresh = FreshAllocator::new(models);
    for v in violations {
        derive_candidates(hir, models, targets, v, pool, &mut fresh, &mut candidates);
    }
    let mut dedup: HashSet<Candidate> = HashSet::with_capacity(candidates.len());
    candidates.retain(|c| dedup.insert(*c));
    candidates
}

/// The weighted price of one candidate edit: op price × model weight,
/// `None` on `u64` overflow (surfaced as [`RepairError::CostOverflow`]
/// rather than silently wrapping into a spuriously cheap edit).
fn checked_step(cand: &Candidate, opts: &RepairOptions) -> Option<u64> {
    opts.cost
        .of(&cand.op)
        .checked_mul(opts.tuple.weight(cand.model.index()))
}

/// Per-expansion fresh-object id allocator.
///
/// Historically every `AddObj` candidate was minted at
/// `ObjId(m.id_bound())`, so two fresh-object candidates of *different*
/// classes derived from one state shared an id: whichever was applied
/// first occupied the id, turning its siblings into stale edits and
/// hiding repairs that need several fresh objects in one model. The
/// allocator hands every distinct candidate class its own id; repeated
/// requests for the *same* class share one id, because they describe the
/// same repair step (a second object of that class is minted by the
/// child state's own derivation pass, at the then-fresh id).
struct FreshAllocator {
    next: Vec<u32>,
    assigned: Vec<Vec<(ClassId, ObjId)>>,
}

impl FreshAllocator {
    fn new(models: &[Model]) -> FreshAllocator {
        FreshAllocator {
            next: models.iter().map(|m| m.id_bound() as u32).collect(),
            assigned: vec![Vec::new(); models.len()],
        }
    }

    fn alloc(&mut self, model: DomIdx, class: ClassId) -> ObjId {
        let m = model.index();
        if let Some(&(_, id)) = self.assigned[m].iter().find(|(c, _)| *c == class) {
            return id;
        }
        let id = ObjId(self.next[m]);
        self.next[m] += 1;
        self.assigned[m].push((class, id));
        id
    }
}

fn apply_candidate(m: &mut Model, op: &EditOp) -> Result<(), mmt_model::ModelError> {
    match *op {
        // `add_at`, not `add`: the candidate's id is part of its identity
        // (fingerprints and sibling candidates were computed against it).
        EditOp::AddObj { id, class } => m.add_at(id, class),
        EditOp::DelObj { id, .. } => m.delete(id),
        EditOp::SetAttr {
            id, attr, value, ..
        } => m.set_attr(id, attr, value),
        EditOp::AddLink { src, r, dst } => m.add_link(src, r, dst).map(|_| ()),
        EditOp::DelLink { src, r, dst } => m.remove_link(src, r, dst).map(|_| ()),
    }
}

/// A failing directional check with one counterexample binding.
struct Violation {
    rel: mmt_qvtr::RelId,
    dep: Dep,
    binding: Binding,
}

/// Up to `opts.violations_per_check` violations per directional check,
/// and whether every check holds (uncapped).
fn collect_violations(
    hir: &Hir,
    models: &[Model],
    opts: &RepairOptions,
) -> Result<(Vec<Violation>, bool), RepairError> {
    let indexes: Vec<ModelIndex> = models.iter().map(ModelIndex::build).collect();
    let mut ctx = EvalCtx::new(hir, models, &indexes);
    let mut out = Vec::new();
    let mut consistent = true;
    for (rid, rel) in hir.top_relations() {
        for &dep in rel.deps.deps() {
            let mut captured: Vec<Binding> = Vec::new();
            let max = opts.violations_per_check;
            consistent &= ctx.check_dep(rid, dep, &mut |_, b| {
                if captured.len() < max {
                    captured.push(b.clone());
                }
                captured.len() < max
            })?;
            for binding in captured {
                out.push(Violation {
                    rel: rid,
                    dep,
                    binding,
                });
            }
        }
    }
    Ok((out, consistent))
}

/// The active value pool used for attribute-change candidates.
struct ValuePool {
    strings: Vec<Value>,
    ints: Vec<Value>,
}

/// Both boolean values, in pool order.
const BOOLS: [Value; 2] = [Value::Bool(false), Value::Bool(true)];

/// The value pool of one search: every string and int attribute value
/// of `models`, the literals the spec compares attributes with, and
/// `fresh_strings` fresh strings — each once, in first-seen order
/// (candidate order, and with it which repair wins, follows it).
fn collect_value_pool(models: &[Model], hir: &Hir, fresh_strings: usize) -> ValuePool {
    let mut pool = ValuePool {
        strings: Vec::new(),
        ints: Vec::new(),
    };
    let mut seen: FxHashSet<Value> = FxHashSet::default();
    let mut add = |v: Value| {
        let list = match v.ty() {
            AttrType::Str => &mut pool.strings,
            AttrType::Int => &mut pool.ints,
            AttrType::Bool => return,
        };
        if seen.insert(v) {
            list.push(v);
        }
    };
    for m in models {
        for (_, obj) in m.objects() {
            obj.attrs.iter().copied().for_each(&mut add);
        }
    }
    for rel in &hir.relations {
        for d in &rel.domains {
            for c in &d.constraints {
                if let Constraint::AttrEq {
                    rhs: Atom::Lit(v), ..
                } = c
                {
                    add(*v);
                }
            }
        }
    }
    for i in 0..fresh_strings {
        add(Value::Str(Sym::new(&format!("$new{i}"))));
    }
    pool
}

impl ValuePool {
    fn of(&self, ty: AttrType) -> &[Value] {
        match ty {
            AttrType::Str => &self.strings,
            AttrType::Int => &self.ints,
            AttrType::Bool => &BOOLS,
        }
    }
}

/// Derives single-op candidates from one violation: witness creation on
/// the target side, match destruction on mutable source sides. `fresh`
/// must span every violation of one state so fresh-object ids never
/// collide across candidates.
#[allow(clippy::too_many_arguments)]
fn derive_candidates(
    hir: &Hir,
    models: &[Model],
    targets: DomSet,
    v: &Violation,
    pool: &ValuePool,
    fresh: &mut FreshAllocator,
    out: &mut Vec<Candidate>,
) {
    let rel = hir.relation(v.rel);
    // --- Witness creation in the dependency's target model. ---
    let t = v.dep.target;
    if targets.contains(t) {
        if let Some(dom) = rel.domain_for_model(t) {
            witness_candidates(rel, dom, &v.binding, models, t, pool, fresh, out);
        }
        // `where` adaptation: x.attr = value patterns.
        if let Some(wher) = &rel.where_ {
            where_candidates(rel, wher, &v.binding, models, t, pool, out);
        }
    }
    // --- Match destruction in mutable source models. ---
    for s in v.dep.sources.iter() {
        if !targets.contains(s) {
            continue;
        }
        let Some(dom) = rel.domain_for_model(s) else {
            continue;
        };
        let m = &models[s.index()];
        for c in &dom.constraints {
            match *c {
                Constraint::Obj { var, .. } => {
                    if let Some(Slot::Obj(o)) = v.binding[var.index()] {
                        if m.contains(o) {
                            if let Ok(class) = m.class_of(o) {
                                out.push(Candidate {
                                    model: s,
                                    op: EditOp::DelObj { id: o, class },
                                });
                            }
                        }
                    }
                }
                Constraint::AttrEq { obj, attr, .. } => {
                    if let Some(Slot::Obj(o)) = v.binding[obj.index()] {
                        if let Ok(cur) = m.attr(o, attr) {
                            for &val in pool.of(cur.ty()) {
                                if val != cur {
                                    out.push(Candidate {
                                        model: s,
                                        op: EditOp::SetAttr {
                                            id: o,
                                            attr,
                                            value: val,
                                            old: cur,
                                        },
                                    });
                                }
                            }
                        }
                    }
                }
                Constraint::RefContains { obj, r, dst } => {
                    if let (Some(Slot::Obj(so)), Some(Slot::Obj(dobj))) =
                        (v.binding[obj.index()], v.binding[dst.index()])
                    {
                        out.push(Candidate {
                            model: s,
                            op: EditOp::DelLink {
                                src: so,
                                r,
                                dst: dobj,
                            },
                        });
                    }
                }
            }
        }
    }
}

/// Candidates that build (or adapt towards) a witness for the target
/// pattern under the violated binding.
///
/// `SetAttr` candidates always record the object's *actual* current
/// value as `old` — an unreadable attribute slot yields no candidate at
/// all. Fabricating `old` (the historical `unwrap_or(desired)`) made
/// the edit non-invertible and minted spuriously distinct candidates
/// differing only in their bogus `old`.
#[allow(clippy::too_many_arguments)]
fn witness_candidates(
    rel: &HirRelation,
    dom: &mmt_qvtr::HirDomain,
    binding: &Binding,
    models: &[Model],
    t: DomIdx,
    pool: &ValuePool,
    fresh: &mut FreshAllocator,
    out: &mut Vec<Candidate>,
) {
    let m = &models[t.index()];
    let meta = m.metamodel();
    for c in &dom.constraints {
        match *c {
            Constraint::Obj { class, .. } => {
                // A fresh instance of the pattern class, at an id no
                // other fresh-object candidate of this state shares.
                out.push(Candidate {
                    model: t,
                    op: EditOp::AddObj {
                        id: fresh.alloc(t, class),
                        class,
                    },
                });
            }
            Constraint::AttrEq { obj, attr, rhs } => {
                // Set the pattern attribute of existing candidates to the
                // value demanded by the binding (or the literal).
                let desired = match rhs {
                    Atom::Lit(v) => Some(v),
                    Atom::Var(pv) => match binding[pv.index()] {
                        Some(Slot::Val(v)) => Some(v),
                        _ => None,
                    },
                };
                let class = match rel.vars[obj.index()].ty {
                    VarTy::Obj { class, .. } => class,
                    VarTy::Prim(_) => continue,
                };
                match desired {
                    Some(val) => {
                        for o in m.objects_of(class) {
                            let Ok(cur) = m.attr(o, attr) else {
                                continue; // unreadable slot: no candidate
                            };
                            if cur != val {
                                out.push(Candidate {
                                    model: t,
                                    op: EditOp::SetAttr {
                                        id: o,
                                        attr,
                                        value: val,
                                        old: cur,
                                    },
                                });
                            }
                        }
                    }
                    None => {
                        // Existentially free value: offer the pool.
                        let ty = meta.attr(attr).ty;
                        for o in m.objects_of(class) {
                            let Ok(cur) = m.attr(o, attr) else {
                                continue; // unreadable slot: no candidate
                            };
                            for &val in pool.of(ty) {
                                if val != cur {
                                    out.push(Candidate {
                                        model: t,
                                        op: EditOp::SetAttr {
                                            id: o,
                                            attr,
                                            value: val,
                                            old: cur,
                                        },
                                    });
                                }
                            }
                        }
                    }
                }
            }
            Constraint::RefContains { obj, r, dst } => {
                // Offer links between class-compatible pairs.
                let (sc, dc) = match (rel.vars[obj.index()].ty, rel.vars[dst.index()].ty) {
                    (VarTy::Obj { class: sc, .. }, VarTy::Obj { class: dc, .. }) => (sc, dc),
                    _ => continue,
                };
                let sources: Vec<ObjId> = m.objects_of(sc).collect();
                let dests: Vec<ObjId> = m.objects_of(dc).collect();
                for &so in &sources {
                    for &dobj in &dests {
                        if !m.has_link(so, r, dobj) {
                            out.push(Candidate {
                                model: t,
                                op: EditOp::AddLink {
                                    src: so,
                                    r,
                                    dst: dobj,
                                },
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Candidates from `where` equality constraints on target-side objects,
/// e.g. `f.mandatory = true`.
fn where_candidates(
    rel: &HirRelation,
    e: &HirExpr,
    binding: &Binding,
    models: &[Model],
    t: DomIdx,
    pool: &ValuePool,
    out: &mut Vec<Candidate>,
) {
    match e {
        HirExpr::Cmp(mmt_qvtr::CmpOp::Eq, a, b) => {
            let (nav, other) = match (&**a, &**b) {
                (HirExpr::Nav(v, attr), o) | (o, HirExpr::Nav(v, attr)) => ((*v, *attr), o),
                _ => return,
            };
            let (v, attr) = nav;
            let (model, class) = match rel.vars[v.index()].ty {
                VarTy::Obj { model, class } => (model, class),
                VarTy::Prim(_) => return,
            };
            if model != t {
                return;
            }
            let desired: &[Value] = match other {
                HirExpr::Lit(val) => std::slice::from_ref(val),
                HirExpr::Var(pv) => match &binding[pv.index()] {
                    Some(Slot::Val(val)) => std::slice::from_ref(val),
                    _ => pool.of(models[t.index()].metamodel().attr(attr).ty),
                },
                _ => return,
            };
            let m = &models[t.index()];
            for o in m.objects_of(class) {
                let Ok(cur) = m.attr(o, attr) else {
                    continue; // unreadable slot: no candidate
                };
                for &val in desired {
                    if val != cur {
                        out.push(Candidate {
                            model: t,
                            op: EditOp::SetAttr {
                                id: o,
                                attr,
                                value: val,
                                old: cur,
                            },
                        });
                    }
                }
            }
        }
        HirExpr::And(a, b) | HirExpr::Or(a, b) | HirExpr::Implies(a, b) => {
            where_candidates(rel, a, binding, models, t, pool, out);
            where_candidates(rel, b, binding, models, t, pool, out);
        }
        HirExpr::Not(a) => where_candidates(rel, a, binding, models, t, pool, out),
        _ => {}
    }
}

/// The models a directional check can read: dependency sources, the
/// target, and the models of variables free in `when`/`where`.
fn participating_models(rel: &HirRelation, dep: Dep) -> DomSet {
    let mut set = dep.sources.with(dep.target);
    let mut fv: Vec<mmt_qvtr::VarId> = Vec::new();
    if let Some(w) = &rel.when {
        w.free_vars(&mut fv);
    }
    if let Some(w) = &rel.where_ {
        w.free_vars(&mut fv);
    }
    for v in fv {
        if let VarTy::Obj { model, .. } = rel.vars[v.index()].ty {
            set = set.with(model);
        }
    }
    set
}

/// Hash of one object's full state, tagged with its model position.
/// Strings hash by interned index, so the hash is stable within one
/// process only; it never leaves the search.
fn obj_fp(t: DomIdx, id: ObjId, obj: &Object) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.0.hash(&mut h);
    id.hash(&mut h);
    obj.class.hash(&mut h);
    obj.attrs.hash(&mut h);
    obj.refs.hash(&mut h);
    h.finish()
}

/// Order-insensitive structural fingerprint of the mutable models: the
/// wrapping sum of per-object hashes. Commutativity is what makes
/// [`fingerprint_apply`] possible — an edit's effect on the fingerprint
/// is the difference of the touched objects' hashes.
fn fingerprint(models: &[Model], targets: DomSet) -> u64 {
    let mut fp: u64 = 0x9e37_79b9_7f4a_7c15;
    for t in targets.iter() {
        let m = &models[t.index()];
        for (id, obj) in m.objects() {
            fp = fp.wrapping_add(obj_fp(t, id, obj));
        }
    }
    fp
}

/// The fingerprint of the state reached by applying `cand` to `models`
/// (which fingerprint to `fp`), computed without cloning the tuple or
/// mutating anything, in O(touched objects): for `DelObj`, the victim
/// and the distinct sources of its incoming links, found through the
/// model's inverse link index (deletion scrubs those links). Returns
/// `None` when the candidate is stale (its object vanished, the link
/// already exists, …) — exactly the cases where [`apply_candidate`]
/// would fail or no-op.
fn fingerprint_apply(models: &[Model], fp: u64, cand: &Candidate) -> Option<u64> {
    let t = cand.model;
    let m = &models[t.index()];
    let meta = m.metamodel();
    match cand.op {
        EditOp::AddObj { id, class } => {
            if m.contains(id) || meta.class(class).is_abstract {
                return None;
            }
            let fresh = Object {
                class,
                attrs: meta.default_attrs(class),
                refs: vec![Vec::new(); meta.class(class).all_refs.len()].into_boxed_slice(),
            };
            Some(fp.wrapping_add(obj_fp(t, id, &fresh)))
        }
        EditOp::DelObj { id, .. } => {
            let obj = m.get(id)?;
            let mut fp = fp.wrapping_sub(obj_fp(t, id, obj));
            // Deletion scrubs incoming links: survivors pointing at `id`
            // change too. `incoming` is sorted by source, so each
            // distinct source is one run of entries.
            let mut last: Option<ObjId> = None;
            for &(src, _) in m.incoming(id) {
                if src == id || last == Some(src) {
                    continue;
                }
                last = Some(src);
                let o = m.get(src).expect("link source is live");
                let mut o2 = o.clone();
                for s in o2.refs.iter_mut() {
                    s.retain(|&d| d != id);
                }
                fp = fp
                    .wrapping_sub(obj_fp(t, src, o))
                    .wrapping_add(obj_fp(t, src, &o2));
            }
            Some(fp)
        }
        EditOp::SetAttr {
            id, attr, value, ..
        } => {
            let obj = m.get(id)?;
            let slot = meta.attr_slot(obj.class, attr)?;
            if obj.attrs[slot] == value {
                return None; // no-op
            }
            let mut o2 = obj.clone();
            o2.attrs[slot] = value;
            Some(
                fp.wrapping_sub(obj_fp(t, id, obj))
                    .wrapping_add(obj_fp(t, id, &o2)),
            )
        }
        EditOp::AddLink { src, r, dst } => {
            let obj = m.get(src)?;
            if !m.contains(dst) {
                return None;
            }
            let slot = meta.ref_slot(obj.class, r)?;
            let pos = match obj.refs[slot].binary_search(&dst) {
                Ok(_) => return None, // already linked
                Err(pos) => pos,
            };
            let mut o2 = obj.clone();
            o2.refs[slot].insert(pos, dst);
            Some(
                fp.wrapping_sub(obj_fp(t, src, obj))
                    .wrapping_add(obj_fp(t, src, &o2)),
            )
        }
        EditOp::DelLink { src, r, dst } => {
            let obj = m.get(src)?;
            let slot = meta.ref_slot(obj.class, r)?;
            let pos = obj.refs[slot].binary_search(&dst).ok()?;
            let mut o2 = obj.clone();
            o2.refs[slot].remove(pos);
            Some(
                fp.wrapping_sub(obj_fp(t, src, obj))
                    .wrapping_add(obj_fp(t, src, &o2)),
            )
        }
    }
}

#[cfg(test)]
mod candidate_tests {
    use super::*;
    use mmt_model::text::{parse_metamodel, parse_model};
    use mmt_model::Sym;
    use mmt_qvtr::{parse_and_resolve, HirDomain};

    const UML_MM: &str = "metamodel UML { class Class { attr name: Str; ref attrs: Attribute [0..*] containment; } class Attribute { attr name: Str; } }";
    const RDB_MM: &str = "metamodel RDB { class Table { attr name: Str; ref cols: Column [0..*] containment; } class Column { attr name: Str; } }";
    const C2T_SRC: &str = r#"
transformation C2T(uml : UML, rdb : RDB) {
  top relation AttrToCol {
    cn, an : Str;
    domain uml c : Class { name = cn, attrs = a : Attribute { name = an } };
    domain rdb t : Table { name = cn, cols = col : Column { name = an } };
  }
}
"#;

    /// ISSUE 3 bugfix regression: a target pattern that needs *two*
    /// fresh objects (a `Table` and a `Column`) must yield `AddObj`
    /// candidates at distinct ids. The historical code minted every
    /// fresh object at `ObjId(m.id_bound())`, so both candidates shared
    /// one id and collided after the first apply.
    #[test]
    fn fresh_object_candidates_get_distinct_ids() {
        let uml = parse_metamodel(UML_MM).unwrap();
        let rdb = parse_metamodel(RDB_MM).unwrap();
        let hir = parse_and_resolve(C2T_SRC, &[uml.clone(), rdb.clone()]).unwrap();
        let rel = &hir.relations[0];
        let dom = rel.domain_for_model(DomIdx(1)).unwrap();
        let m_uml = parse_model(
            r#"model u : UML {
                a1 = Attribute { name = "id" }
                c1 = Class { name = "Person", attrs = [a1] }
            }"#,
            &uml,
        )
        .unwrap();
        let m_rdb = parse_model("model r : RDB { }", &rdb).unwrap();
        let bound = m_rdb.id_bound() as u32;
        let models = [m_uml, m_rdb];
        let binding: Binding = vec![None; rel.vars.len()];
        let pool = collect_value_pool(&models, &hir, 1);
        let mut fresh = FreshAllocator::new(&models);
        let mut out = Vec::new();
        witness_candidates(
            rel,
            dom,
            &binding,
            &models,
            DomIdx(1),
            &pool,
            &mut fresh,
            &mut out,
        );
        let add_ids: Vec<ObjId> = out
            .iter()
            .filter_map(|c| match c.op {
                EditOp::AddObj { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(add_ids.len(), 2, "one fresh Table, one fresh Column");
        assert_ne!(
            add_ids[0], add_ids[1],
            "fresh-object candidates of one state must not share an id"
        );
        let mut sorted = add_ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![ObjId(bound), ObjId(bound + 1)]);
    }

    /// End to end: the search builds both fresh objects, names them and
    /// links them — and the repaired delta allocates them at distinct
    /// ids.
    #[test]
    fn repair_creates_two_fresh_objects_in_one_model() {
        let uml = parse_metamodel(UML_MM).unwrap();
        let rdb = parse_metamodel(RDB_MM).unwrap();
        let hir = Arc::new(parse_and_resolve(C2T_SRC, &[uml.clone(), rdb.clone()]).unwrap());
        let m_uml = parse_model(
            r#"model u : UML {
                a1 = Attribute { name = "id" }
                c1 = Class { name = "Person", attrs = [a1] }
            }"#,
            &uml,
        )
        .unwrap();
        let m_rdb = parse_model("model r : RDB { }", &rdb).unwrap();
        let models = [m_uml, m_rdb];
        let targets = DomSet::single(DomIdx(1));
        let opts = RepairOptions::default();
        for (oracle, out) in [
            ("incremental", repair_search(&hir, &models, targets, &opts)),
            ("reference", reference_search(&hir, &models, targets, &opts)),
        ] {
            let out = out.unwrap().expect("a fresh Table + Column repair exists");
            // AddObj ×2, SetAttr name ×2, AddLink: the minimal witness.
            assert_eq!(out.cost, 5, "{oracle}");
            let adds: Vec<ObjId> = out.deltas[1]
                .ops()
                .iter()
                .filter_map(|op| match *op {
                    EditOp::AddObj { id, .. } => Some(id),
                    _ => None,
                })
                .collect();
            assert_eq!(adds.len(), 2, "{oracle}");
            assert_ne!(adds[0], adds[1], "{oracle}");
            let check = mmt_check::Checker::new(&hir, &out.models)
                .unwrap()
                .check()
                .unwrap();
            assert!(check.consistent(), "{oracle}\n{check}");
        }
    }

    /// ISSUE 3 bugfix regression: when an attribute slot cannot be read,
    /// no `SetAttr` candidate may be emitted — the historical code
    /// fabricated `old = desired` (`unwrap_or(val)`), producing a
    /// non-invertible edit whose recorded prior value was a lie.
    #[test]
    fn unreadable_attribute_yields_no_fabricated_candidate() {
        let x =
            parse_metamodel("metamodel X { class P { attr a: Str; } class Q { attr b: Int; } }")
                .unwrap();
        let src = r#"
transformation T(m1 : X, m2 : X) {
  top relation R {
    n : Str;
    domain m1 p : P { a = n };
    domain m2 q : P { a = n };
  }
}
"#;
        let hir = parse_and_resolve(src, &[x.clone(), x.clone()]).unwrap();
        let rel = &hir.relations[0];
        let q_var = rel.domains[1].root;
        let p_class = x.class_named("P").unwrap();
        let q_class = x.class_named("Q").unwrap();
        let b_attr = x.attr_of(q_class, Sym::new("b")).unwrap();
        // A hostile/stale pattern: an AttrEq on `q` (typed P) against an
        // attribute declared only on Q — every read of it fails.
        let dom = HirDomain {
            model: DomIdx(1),
            root: q_var,
            class: p_class,
            constraints: vec![Constraint::AttrEq {
                obj: q_var,
                attr: b_attr,
                rhs: Atom::Lit(Value::Int(1)),
            }],
            vars: vec![q_var],
        };
        let m1 = parse_model(r#"model m1 : X { p0 = P { a = "x" } }"#, &x).unwrap();
        let m2 = parse_model(r#"model m2 : X { p0 = P { a = "y" } }"#, &x).unwrap();
        let models = [m1, m2.clone()];
        let binding: Binding = vec![None; rel.vars.len()];
        let pool = collect_value_pool(&models, &hir, 1);
        let mut fresh = FreshAllocator::new(&models);
        let mut out = Vec::new();
        witness_candidates(
            rel,
            &dom,
            &binding,
            &models,
            DomIdx(1),
            &pool,
            &mut fresh,
            &mut out,
        );
        assert!(
            out.iter().all(|c| !matches!(c.op, EditOp::SetAttr { .. })),
            "unreadable attribute slots must yield no SetAttr candidate: {out:?}"
        );
        // And on readable slots, `old` is always the true current value.
        let real_dom = rel.domain_for_model(DomIdx(1)).unwrap();
        let mut out = Vec::new();
        witness_candidates(
            rel,
            real_dom,
            &binding,
            &models,
            DomIdx(1),
            &pool,
            &mut fresh,
            &mut out,
        );
        let mut set_attrs = 0;
        for c in &out {
            if let EditOp::SetAttr { id, attr, old, .. } = c.op {
                set_attrs += 1;
                assert_eq!(
                    m2.attr(id, attr),
                    Ok(old),
                    "old must be the real prior value"
                );
            }
        }
        assert!(
            set_attrs > 0,
            "the pool branch generates SetAttr candidates"
        );
    }
}

#[cfg(test)]
mod fp_tests {
    use super::*;
    use mmt_model::text::{parse_metamodel, parse_model};
    use mmt_model::Sym;

    /// `fingerprint_apply` agrees with applying the edit and
    /// re-fingerprinting from scratch, for every op kind — deletions
    /// included of an object with a self-loop that another object links
    /// through two references.
    #[test]
    fn incremental_fingerprint_matches_recompute() {
        let mm = parse_metamodel(
            "metamodel X { class Node { attr name: Str; ref next: Node [0..*]; ref alt: Node [0..*]; } }",
        )
        .unwrap();
        let m = parse_model(
            r#"model m : X {
                a = Node { name = "a", next = [a, b] }
                b = Node { name = "b" }
                c = Node { name = "c", next = [a, b], alt = [a] }
            }"#,
            &mm,
        )
        .unwrap();
        let node = mm.class_named("Node").unwrap();
        let name = mm.attr_of(node, Sym::new("name")).unwrap();
        let next = mm.ref_of(node, Sym::new("next")).unwrap();
        let targets = DomSet::from_iter([DomIdx(0)]);
        let ops = [
            EditOp::AddObj {
                id: ObjId(3),
                class: node,
            },
            EditOp::DelObj {
                id: ObjId(1),
                class: node,
            },
            EditOp::DelObj {
                id: ObjId(0),
                class: node,
            },
            EditOp::SetAttr {
                id: ObjId(0),
                attr: name,
                value: Value::str("z"),
                old: Value::str("a"),
            },
            EditOp::AddLink {
                src: ObjId(1),
                r: next,
                dst: ObjId(2),
            },
            EditOp::DelLink {
                src: ObjId(2),
                r: next,
                dst: ObjId(0),
            },
        ];
        for op in ops {
            let models = [m.clone()];
            let fp = fingerprint(&models, targets);
            let cand = Candidate {
                model: DomIdx(0),
                op,
            };
            let predicted = fingerprint_apply(&models, fp, &cand).expect("op applies");
            let mut edited = m.clone();
            apply_candidate(&mut edited, &op).unwrap();
            let actual = fingerprint(&[edited], targets);
            assert_eq!(predicted, actual, "{op}");
        }
        // Stale candidates are detected without mutation.
        let models = [m.clone()];
        let fp = fingerprint(&models, targets);
        for stale in [
            EditOp::DelObj {
                id: ObjId(9),
                class: node,
            },
            EditOp::AddLink {
                src: ObjId(0),
                r: next,
                dst: ObjId(1), // already linked
            },
            EditOp::DelLink {
                src: ObjId(1),
                r: next,
                dst: ObjId(0), // not linked
            },
        ] {
            assert!(fingerprint_apply(
                &models,
                fp,
                &Candidate {
                    model: DomIdx(0),
                    op: stale
                }
            )
            .is_none());
        }
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;
    use mmt_gen::random_edits;
    use mmt_gen::scenario::all_scenarios;
    use mmt_model::text::{parse_metamodel, parse_model, print_model};
    use mmt_qvtr::parse_and_resolve;

    /// What exact undo must restore: printed models, id bounds, the
    /// search fingerprint and the canonical violation sequence.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        printed: Vec<String>,
        id_bounds: Vec<usize>,
        fp: u64,
        violations: Vec<String>,
    }

    fn snapshot(checker: &DeltaChecker, targets: DomSet) -> Snapshot {
        let mut violations = Vec::new();
        checker.for_each_violation(usize::MAX, |rel, dep, b| {
            violations.push(format!("{rel:?} {dep:?} {b:?}"));
        });
        Snapshot {
            printed: checker.models().iter().map(print_model).collect(),
            id_bounds: checker.models().iter().map(Model::id_bound).collect(),
            fp: fingerprint(checker.models(), targets),
            violations,
        }
    }

    fn checker_over(hir: &Arc<Hir>, models: &[Model]) -> DeltaChecker {
        let opts = CheckOptions {
            max_violations: usize::MAX,
            ..CheckOptions::default()
        };
        DeltaChecker::with_options(hir, models, opts).unwrap()
    }

    const NODES_MM: &str =
        "metamodel X { class Node { attr name: Str; attr w: Int; ref next: Node [0..*]; } }";
    const NODES_SRC: &str = r#"
transformation T(a : X, b : X) {
  top relation Named {
    n : Str;
    domain a p : Node { name = n };
    domain b q : Node { name = n };
  }
  top relation Linked {
    n, m : Str;
    domain a p : Node { name = n, next = p2 : Node { name = m } };
    domain b q : Node { name = n, next = q2 : Node { name = m } };
  }
}
"#;

    /// Every candidate kind lands and is undone exactly: a fresh
    /// `AddObj` past a gap, a `DelObj` of an object with incoming and
    /// outgoing links (a self-loop among them) and non-default
    /// attributes, `SetAttr`, `AddLink` and `DelLink`.
    #[test]
    fn every_candidate_kind_undoes_exactly() {
        let mm = parse_metamodel(NODES_MM).unwrap();
        let hir = Arc::new(parse_and_resolve(NODES_SRC, &[mm.clone(), mm.clone()]).unwrap());
        let a = parse_model(
            r#"model a : X {
                x = Node { name = "x", w = 3, next = [x, y] }
                y = Node { name = "y", next = [x] }
                z = Node { name = "z", next = [x, y] }
                gone = Node { name = "gone" }
            }"#,
            &mm,
        )
        .unwrap();
        let b = parse_model(
            r#"model b : X {
                x = Node { name = "x", next = [y] }
                y = Node { name = "y" }
            }"#,
            &mm,
        )
        .unwrap();
        let mut models = vec![a, b];
        // A trailing tombstone below the id bound, as deletions leave.
        models[0].delete(ObjId(3)).unwrap();
        let node = mm.class_named("Node").unwrap();
        let name = mm.attr_of(node, Sym::new("name")).unwrap();
        let next = mm.ref_of(node, Sym::new("next")).unwrap();
        let (x, y, z) = (ObjId(0), ObjId(1), ObjId(2));
        let fresh = ObjId(models[0].id_bound() as u32 + 1);
        let ops = [
            EditOp::AddObj {
                id: fresh,
                class: node,
            },
            EditOp::DelObj { id: x, class: node },
            EditOp::SetAttr {
                id: y,
                attr: name,
                value: Value::str("w"),
                old: Value::str("y"),
            },
            EditOp::AddLink {
                src: y,
                r: next,
                dst: z,
            },
            EditOp::DelLink {
                src: z,
                r: next,
                dst: x,
            },
        ];
        let targets = DomSet::full(2);
        for op in ops {
            let cand = Candidate {
                model: DomIdx(0),
                op,
            };
            let mut checker = checker_over(&hir, &models);
            let before = snapshot(&checker, targets);
            assert!(!before.violations.is_empty(), "the tuple is inconsistent");
            let mut tree = SearchTree::new(before.fp);
            let fp = fingerprint_apply(checker.models(), before.fp, &cand).expect("applies");
            let idx = tree.push(0, cand, fp);
            assert!(tree.enter(&mut checker, idx).unwrap(), "{op}");
            // The edit landed as the bare candidate would: same models,
            // same violations as a checker built on the edited tuple.
            let mut edited = models.clone();
            apply_candidate(&mut edited[0], &op).unwrap();
            let after = snapshot(&checker, targets);
            assert_eq!(
                after,
                snapshot(&checker_over(&hir, &edited), targets),
                "{op}"
            );
            assert_eq!(after.fp, fp, "{op}");
            assert_ne!(after, before, "{op}");
            tree.goto(&mut checker, 0).unwrap();
            assert_eq!(snapshot(&checker, targets), before, "undo of {op}");
        }
    }

    /// Small deterministic generator for the walk below.
    fn next(state: &mut u64, bound: usize) -> usize {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) % bound as u64) as usize
    }

    /// Hops one checker between random states of a search tree over
    /// every corpus scenario: wherever it lands, it must look exactly
    /// like a fresh checker over the tuple reached by applying the
    /// state's path of candidates to a copy of the originals.
    #[test]
    fn seeded_walk_matches_fresh_checkers() {
        for sc in all_scenarios() {
            for seed in 0..3u64 {
                let w = sc.workload(seed);
                let hir = &w.hir;
                // Drift every model, so the walk starts among violations.
                let mut originals = w.models.clone();
                for (i, m) in originals.iter_mut().enumerate() {
                    for op in random_edits(m, 3, seed * 5 + i as u64) {
                        apply_candidate(m, &op).unwrap();
                    }
                }
                let targets = DomSet::full(originals.len());
                let pool = collect_value_pool(&originals, hir, 1);
                let mut checker = checker_over(hir, &originals);
                assert!(!checker.consistent(), "{} seed={seed}: drift", sc.name());
                let mut tree = SearchTree::new(fingerprint(&originals, targets));
                // The replayed tuple of every state the walk entered.
                let mut tuples: Vec<Option<Vec<Model>>> = vec![Some(originals.clone())];
                let mut entered = vec![0usize];
                let mut pending: Vec<usize> = Vec::new();
                let mut rng = seed ^ 0x5eed;
                let ctx = |step: usize| format!("{} seed={seed} step={step}", sc.name());
                for step in 0..80 {
                    if pending.is_empty() || next(&mut rng, 3) == 0 {
                        // Expand a random entered state.
                        let n = entered[next(&mut rng, entered.len())];
                        tree.goto(&mut checker, n).unwrap();
                        let want = tuples[n].as_ref().unwrap();
                        assert_eq!(
                            snapshot(&checker, targets),
                            snapshot(&checker_over(hir, want), targets),
                            "{}",
                            ctx(step)
                        );
                        let mut violations = Vec::new();
                        checker.for_each_violation(4, |rel, dep, binding| {
                            violations.push(Violation {
                                rel,
                                dep,
                                binding: binding.clone(),
                            });
                        });
                        let cands =
                            candidates_of(hir, checker.models(), targets, &violations, &pool);
                        for _ in 0..cands.len().min(3) {
                            let cand = cands[next(&mut rng, cands.len())];
                            let fp = tree.nodes[n].fp;
                            if let Some(fp) = fingerprint_apply(checker.models(), fp, &cand) {
                                pending.push(tree.push(n, cand, fp));
                                tuples.push(None);
                            }
                        }
                    } else {
                        // Enter a random pushed state from wherever the
                        // checker is.
                        let i = pending.swap_remove(next(&mut rng, pending.len()));
                        let parent = tree.nodes[i].parent;
                        let cand = tree.nodes[i].cand.unwrap();
                        let mut want = tuples[parent].clone().unwrap();
                        let applies = apply_candidate(&mut want[cand.model.index()], &cand.op);
                        let landed = tree.enter(&mut checker, i).unwrap();
                        assert_eq!(landed, applies.is_ok(), "{}", ctx(step));
                        if landed {
                            assert_eq!(tree.nodes[i].fp, fingerprint(&want, targets));
                            tuples[i] = Some(want);
                            entered.push(i);
                        }
                        let at = if landed { i } else { parent };
                        let want = tuples[at].as_ref().unwrap();
                        assert_eq!(
                            snapshot(&checker, targets),
                            snapshot(&checker_over(hir, want), targets),
                            "{}",
                            ctx(step)
                        );
                    }
                }
                assert!(entered.len() > 5, "{}: the walk went somewhere", sc.name());
                tree.goto(&mut checker, 0).unwrap();
                assert_eq!(
                    snapshot(&checker, targets),
                    snapshot(&checker_over(hir, &originals), targets),
                    "{} seed={seed}: back at the root",
                    sc.name()
                );
            }
        }
    }
}
