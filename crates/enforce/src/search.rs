//! Search-based least-change repair.
//!
//! Implements §3's enforcement technique directly: A* search over edit
//! sequences applied to the target models, using the concrete checking
//! engine as the consistency oracle. States are explored in order of
//! f = g + h, where g is the weighted distance from the originals and h
//! a lower bound on the distance still to go that never overestimates
//! and never drops by more than the price of an edit (see below), so
//! the first consistent state found is a least-change repair *within the
//! generated candidate space*.
//!
//! Candidate edits are *repair-guided*: they are derived from the
//! counterexample bindings of failing directional checks — create or
//! adapt a witness on the target side, or destroy the universal match on
//! a source side — rather than enumerating every conceivable edit. This
//! keeps the branching factor proportional to the number of violations.
//! The SAT engine ([`crate::SatEngine`]) is the complete reference.
//! No candidate breaks a link constraint of the metamodel: none gives an
//! object a second container, closes a containment cycle or fills a slot
//! past its upper bound, and none empties a slot below its lower bound,
//! directly or by deleting a link's target. So moving an object costs an
//! explicit unlink and link, as in SAT's grounding. `SetAttr` candidates
//! draw on the same active value domain as SAT's grounding
//! ([`mmt_ground::ValueDomain`]).
//!
//! ## The bound
//!
//! A directional check's verdict changes only through an edit in a model
//! it reads, its *scope* (the models of its dependency and of the
//! variables its `when` and `where` read, intersected with the targets).
//! So a repair edits at least one model in the scope of every failing
//! check, and h prices the cheapest set of target models that hits every
//! failing scope, each model at its cheapest weighted step (the lowest
//! [`mmt_dist::CostModel`] price × its [`mmt_dist::TupleCost`] weight).
//! That makes h admissible. It is also consistent: an edit in model `m`
//! leaves every failing check whose scope misses `m` failing, so
//! h(parent) ≤ price(m) + h(child) ≤ step + h(child). In the paper's
//! new-mandatory repair the two failing checks read `cf1` and `cf2`
//! respectively, so h(root) = 2, and no cost-1 state that fixes neither
//! is ever expanded.
//!
//! Evaluation is lazy. A child is pushed with the f it is known to meet
//! without applying its edit: h over the parent's failing scopes that
//! its edit's model cannot touch. When it pops, the search enters it,
//! counts it against [`RepairOptions::max_states`] and computes its
//! exact h; if that raises f, the state goes back on the frontier once
//! (unless f now exceeds [`RepairOptions::max_cost`]) and is expanded
//! when it pops again. Pop ties go to the larger g, then to the earlier
//! push. The duplicate filter keeps the cheapest g seen per state
//! fingerprint: once h is non-zero, the first path to reach a state
//! need not be its cheapest.
//!
//! ## One checker, moved by exact edits
//!
//! The search walks one [`mmt_check::DeltaChecker`] — built over the
//! originals, lent by a sync session, or forked from one — and keeps
//! its states in a tree whose nodes are `(parent, depth, candidate,
//! fingerprint, g, h)`. To expand a popped state, the checker walks the
//! tree from the state it holds: it undoes edits up to the common
//! ancestor, redoes them down to the popped state's parent, and applies
//! the popped state's edit. That is at most 2 × depth edits, each
//! O(|edit|) through the incremental oracle, where a checker clone per
//! state would cost O(tuple).
//!
//! The search ends with the checker at the goal and hands back the path
//! that reached it ([`InPlaceRepair`]): the edits it applied, per model,
//! which a session journals as they are, and the canonical deltas,
//! diffed from the objects those edits touched
//! ([`Delta::between_script`]) rather than from two whole tuples. A
//! search that finds no repair walks the checker back to the root.
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
//! The duplicate-state filter fingerprints a state by the wrapping sum
//! of the hashes of its target models' *facts*: each object's class,
//! each attribute value and each link. An edit adds and removes facts,
//! so a candidate's fingerprint is its parent's plus the hashes of the
//! facts it adds minus those it removes, known without applying the edit
//! or copying anything: two for a `SetAttr`, one for a link edit, the
//! class and default attributes for an `AddObj`, and for a `DelObj` the
//! victim's facts and the links into it. Only differences from the root
//! matter, so the root is fingerprint 0 and the tuple is never hashed
//! whole. Identical candidates of one state reach the same fingerprint
//! at the same g, so the filter admits only the first.
//!
//! The search is tested against ground truth, not against a copy of
//! itself: `tests/least_change_oracle.rs` enumerates every edit script
//! over a closed bounded universe, with no engine code, and checks that
//! the cold and warm search (and SAT) return its minimum.

use crate::{InPlaceRepair, RepairError, RepairOptions};
use mmt_check::{Binding, DeltaChecker, DeltaError, Slot};
use mmt_deps::{Dep, DomIdx, DomSet, MAX_DOMAINS};
use mmt_dist::{expand_op, Delta, EditOp};
use mmt_ground::ValueDomain;
use mmt_model::{AttrId, ClassId, Model, ObjId, Object, RefId, Value};
use mmt_qvtr::{Atom, Constraint, Hir, HirExpr, HirRelation, VarTy};
use std::cmp::Reverse;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// One candidate edit on a specific model.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    model: DomIdx,
    op: EditOp,
}

/// One state of the search tree: the state it extends, its depth, the
/// one candidate edit that distinguishes it (`None` at the root), its
/// duplicate-filter fingerprint and its weighted distance `g` from the
/// originals. Once the state has been applied, `script` names the edit
/// as it landed (expanded, in [`SearchTree::ops`]) and `prior_bound` the
/// edited model's `id_bound()` before it — together they undo the edit
/// exactly — and `evaluated` is set: its exact bound is known, so when
/// it pops again it is expanded without another evaluation.
struct Node {
    parent: usize,
    depth: usize,
    cand: Option<Candidate>,
    fp: u64,
    g: u64,
    evaluated: bool,
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
                g: 0,
                evaluated: false,
                script: 0..0,
                prior_bound: 0,
            }],
            ops: Vec::new(),
            at: 0,
            down: Vec::new(),
        }
    }

    /// Adds the state `cand` leads to from `parent`, at distance `g`;
    /// returns its index.
    fn push(&mut self, parent: usize, cand: Candidate, fp: u64, g: u64) -> usize {
        let depth = self.nodes[parent].depth + 1;
        self.nodes.push(Node {
            parent,
            depth,
            cand: Some(cand),
            fp,
            g,
            evaluated: false,
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

    /// The repair at `goal`, the state `checker` holds, reached at
    /// weighted distance `cost`: the edits on the path from the root, per
    /// model in path order, and the canonical deltas read off the
    /// objects they touched ([`Delta::between_script`]).
    fn in_place(
        &self,
        checker: &DeltaChecker,
        goal: usize,
        cost: u64,
    ) -> Result<InPlaceRepair, RepairError> {
        let mut path = Vec::with_capacity(self.nodes[goal].depth);
        let mut at = goal;
        while at != 0 {
            path.push(at);
            at = self.nodes[at].parent;
        }
        let mut scripts = vec![Delta::new(); checker.models().len()];
        for &n in path.iter().rev() {
            let (model, ops) = self.landed(n);
            for &op in ops {
                scripts[model.index()].push(op);
            }
        }
        let deltas = scripts
            .iter()
            .zip(checker.models())
            .map(|(script, m)| Delta::between_script(script.ops(), m))
            .collect::<Result<_, _>>()?;
        Ok(InPlaceRepair {
            cost,
            deltas,
            scripts,
        })
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

/// Incremental-oracle search from the state `checker` holds, the root:
/// the body of [`crate::SearchEngine`]'s
/// [`crate::RepairEngine::repair_in_place`], whichever checker it is
/// handed — one built over the originals, a session's own, or a fork.
/// The root's tuple is taken as the originals; no initial full check
/// runs. Because [`DeltaChecker::for_each_violation`] enumerates
/// violations in canonical (binding-sorted) order, a warm root and a
/// freshly built one drive the search identically — the outcome is
/// byte-for-byte the same.
///
/// The search moves `checker` itself between states (see the module
/// docs) and holds no other checker or tuple copy. On success it leaves
/// `checker` at the repaired state; when it finds no repair, exhausts
/// [`RepairOptions::max_states`] or overflows a cost, it first walks
/// `checker` back to the root by exact undo. A [`RepairError`] raised
/// by the checker itself (`Eval`, `Check` or `Model`) can leave it
/// between states.
///
/// States pop lowest f = g + h first ([`Frontier`]); ties go to the
/// larger g, then to the earlier push, so equal states break by
/// candidate derivation order.
pub(crate) fn search_from_root(
    checker: &mut DeltaChecker,
    targets: DomSet,
    opts: &RepairOptions,
) -> Result<Option<InPlaceRepair>, RepairError> {
    // Fingerprints are differences from the root (see the module docs).
    let mut tree = SearchTree::new(0);
    match walk(checker, &mut tree, targets, opts)? {
        End::Goal { idx, cost } => tree.in_place(checker, idx, cost).map(Some),
        End::Stop(stop) => {
            tree.goto(checker, 0)?;
            stop.map(|()| None)
        }
    }
}

/// How a search walk ended, the checker having moved without error.
enum End {
    /// At the consistent state `idx`, which the checker holds.
    Goal { idx: usize, cost: u64 },
    /// No repair (`Ok`), or the search gave up (`Err`); the checker
    /// still has to go back to the root.
    Stop(Result<(), RepairError>),
}

/// The A* loop of [`search_from_root`], over the states of `tree`. Its
/// own error is the checker's; every other exit is an [`End`].
fn walk(
    checker: &mut DeltaChecker,
    tree: &mut SearchTree,
    targets: DomSet,
    opts: &RepairOptions,
) -> Result<End, DeltaError> {
    let hir: Arc<Hir> = Arc::clone(checker.hir_arc());
    let hir = &*hir;
    let bound = Bound::new(hir, targets, opts);
    let value_pool = ValueDomain::collect(hir, checker.models(), opts.fresh_strings);
    let mut open = Frontier::new();
    let mut evaluations: u64 = 0;
    let mut violations: Vec<Violation> = Vec::new();
    while let Some((f, idx)) = open.pop() {
        let Node {
            fp, g, evaluated, ..
        } = tree.nodes[idx];
        if open.superseded(fp, g) {
            continue; // a cheaper path reached this state since
        }
        if evaluated {
            tree.goto(checker, idx)?;
        } else {
            if !tree.enter(checker, idx)? {
                continue; // stale states do not count against the budget
            }
            evaluations += 1;
            if evaluations > opts.max_states {
                return Ok(End::Stop(Err(RepairError::SearchBudgetExhausted {
                    states: opts.max_states,
                })));
            }
            let Some(h) = bound.h(checker, DomSet::EMPTY) else {
                return Ok(End::Stop(Ok(()))); // a failing check reads no target model
            };
            // The goal test reads the uncapped verdicts: with a cap of 0 no
            // violation is captured, yet the state may be inconsistent.
            if checker.consistent() {
                return Ok(End::Goal { idx, cost: g });
            }
            tree.nodes[idx].evaluated = true;
            if open.requeue(f, g, h, idx, opts.max_cost) {
                continue;
            }
        }
        // Oracle: the cached (incrementally maintained) violations.
        violations.clear();
        checker.for_each_violation(opts.violations_per_check, |rel, dep, binding| {
            violations.push(Violation {
                rel,
                dep,
                binding: binding.to_vec(),
            });
        });
        let lazy = bound.per_model(checker);
        for cand in candidates_of(hir, checker.models(), targets, &violations, &value_pool) {
            let Some(total) = checked_step(&cand, opts).and_then(|step| g.checked_add(step)) else {
                return Ok(End::Stop(Err(RepairError::CostOverflow)));
            };
            let f = total.saturating_add(lazy[cand.model.index()]);
            if f > opts.max_cost {
                continue;
            }
            // The child's fingerprint from the facts the edit changes.
            let Some(child_fp) = fingerprint_apply(checker.models(), fp, &cand) else {
                continue; // stale candidate
            };
            if open.improves(child_fp, total) {
                open.push(f, total, tree.push(idx, cand, child_fp, total));
            }
        }
    }
    Ok(End::Stop(Ok(())))
}

/// The A* frontier, with its duplicate filter.
struct Frontier {
    /// `(f, g, state)`: the max-heap pops the lowest f, then the highest
    /// g, then the lowest state index — the earliest push.
    heap: BinaryHeap<(Reverse<u64>, u64, Reverse<usize>)>,
    /// The least g pushed per state fingerprint.
    best: HashMap<u64, u64>,
}

impl Frontier {
    /// A frontier holding the root, state 0 at fingerprint 0, at
    /// f = g = 0.
    fn new() -> Frontier {
        let mut frontier = Frontier {
            heap: BinaryHeap::new(),
            best: HashMap::new(),
        };
        frontier.best.insert(0, 0);
        frontier.push(0, 0, 0);
        frontier
    }

    /// The next state to pop and the f it was pushed with.
    fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap
            .pop()
            .map(|(Reverse(f), _, Reverse(idx))| (f, idx))
    }

    fn push(&mut self, f: u64, g: u64, idx: usize) {
        self.heap.push((Reverse(f), g, Reverse(idx)));
    }

    /// Records `g` as the distance of the state fingerprinted `fp`;
    /// false when a path at most as long reached it before.
    fn improves(&mut self, fp: u64, g: u64) -> bool {
        match self.best.entry(fp) {
            Entry::Occupied(e) if *e.get() <= g => false,
            Entry::Occupied(mut e) => {
                e.insert(g);
                true
            }
            Entry::Vacant(e) => {
                e.insert(g);
                true
            }
        }
    }

    /// Whether a path shorter than `g` reached the state fingerprinted
    /// `fp` after this one was pushed.
    fn superseded(&self, fp: u64, g: u64) -> bool {
        self.best.get(&fp).is_some_and(|&best| best < g)
    }

    /// After state `idx`, popped at `f`, was evaluated to bound `h`:
    /// when its exact f = g + h is higher, puts it back at that f — or
    /// drops it when that f exceeds `max_cost` — and returns true.
    fn requeue(&mut self, f: u64, g: u64, h: u64, idx: usize, max_cost: u64) -> bool {
        let exact = g.saturating_add(h);
        if exact <= f {
            return false;
        }
        if exact <= max_cost {
            self.push(exact, g, idx);
        }
        true
    }
}

/// The A* bound's fixed inputs: the models the repair may edit and the
/// price of the cheapest edit in each.
struct Bound<'a> {
    hir: &'a Hir,
    targets: DomSet,
    /// The cheapest weighted step per model (see [`Bound::new`]).
    price: [u64; MAX_DOMAINS],
}

impl<'a> Bound<'a> {
    /// Prices each target model at the lowest [`mmt_dist::CostModel`]
    /// price × its [`mmt_dist::TupleCost`] weight, saturating: a real
    /// step that overflows is a [`RepairError::CostOverflow`] when it is
    /// derived.
    fn new(hir: &'a Hir, targets: DomSet, opts: &RepairOptions) -> Bound<'a> {
        let c = &opts.cost;
        let cheapest = [c.add_obj, c.del_obj, c.set_attr, c.add_link, c.del_link]
            .into_iter()
            .min()
            .unwrap_or(0);
        let mut price = [0; MAX_DOMAINS];
        for m in targets.iter() {
            price[m.index()] = cheapest.saturating_mul(opts.tuple.weight(m.index()));
        }
        Bound {
            hir,
            targets,
            price,
        }
    }

    /// h of the state `checker` holds, given that the models in `hit`
    /// are already paid for: the least total price of a set of further
    /// target models that, with `hit`, meets the scope of every failing
    /// check. `None` when a failing check reads no target model: no edit
    /// the repair may make can fix it.
    fn h(&self, checker: &DeltaChecker, hit: DomSet) -> Option<u64> {
        let mut best = None;
        self.cover(checker, hit, 0, &mut best);
        best
    }

    /// Branch and bound for [`Bound::h`]: extends `hit`, bought for
    /// `paid`, by each model of the smallest failing scope it misses in
    /// turn, keeping the cheapest complete cover in `best`. A branch is
    /// cut once `paid` plus the dearest cheapest model of a missed scope
    /// reaches `best`.
    fn cover(&self, checker: &DeltaChecker, hit: DomSet, paid: u64, best: &mut Option<u64>) {
        let mut missed: Option<DomSet> = None;
        let mut floor = 0;
        for (rel, dep) in checker.failing_checks() {
            let scope = participating_models(self.hir.relation(rel), dep).intersect(self.targets);
            if !scope.intersect(hit).is_empty() {
                continue;
            }
            let cheapest = scope.iter().map(|m| self.price[m.index()]).min();
            floor = floor.max(cheapest.unwrap_or(0));
            if missed.is_none_or(|s| scope.len() < s.len()) {
                missed = Some(scope);
            }
        }
        let Some(scope) = missed else {
            *best = Some(best.map_or(paid, |b| b.min(paid)));
            return;
        };
        // An empty scope is the smallest: a check no target model fixes.
        if scope.is_empty() || best.is_some_and(|b| paid.saturating_add(floor) >= b) {
            return;
        }
        for m in scope.iter() {
            let paid = paid.saturating_add(self.price[m.index()]);
            self.cover(checker, hit.with(m), paid, best);
        }
    }

    /// The lazy bound of every child of the inconsistent state `checker`
    /// holds, by the model its edit lands in: h over the state's failing
    /// scopes that miss that model, the f a child is pushed with.
    fn per_model(&self, checker: &DeltaChecker) -> [u64; MAX_DOMAINS] {
        let mut lazy = [0; MAX_DOMAINS];
        for m in self.targets.iter() {
            lazy[m.index()] = self.h(checker, DomSet::single(m)).unwrap_or(u64::MAX);
        }
        lazy
    }
}

/// The repair-guided candidates of one state, in canonical derivation
/// order (violation order × constraint order). A candidate may repeat;
/// the frontier's duplicate filter admits only its first copy. One
/// fresh-id allocator spans the whole pass, so no two fresh-object
/// candidates of the state collide.
fn candidates_of(
    hir: &Hir,
    models: &[Model],
    targets: DomSet,
    violations: &[Violation],
    pool: &ValueDomain,
) -> Vec<Candidate> {
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut fresh = FreshAllocator::new(models);
    for v in violations {
        derive_candidates(hir, models, targets, v, pool, &mut fresh, &mut candidates);
    }
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

/// A failing directional check with one counterexample binding.
struct Violation {
    rel: mmt_qvtr::RelId,
    dep: Dep,
    binding: Binding,
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
    pool: &ValueDomain,
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
                    // Deletion scrubs the links into `o`, so every other
                    // source must be able to spare its link.
                    if let Some(Slot::Obj(o)) = v.binding[var.index()] {
                        let mut into = m.incoming(o).iter();
                        if let Ok(class) = m.class_of(o) {
                            if into.all(|&(src, r)| src == o || can_unlink(m, src, r)) {
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
                        let values = pool.of(m.metamodel().attr(attr).ty);
                        set_attr_candidates(m, s, [o], attr, values, out);
                    }
                }
                Constraint::RefContains { obj, r, dst } => {
                    if let (Some(Slot::Obj(so)), Some(Slot::Obj(dobj))) =
                        (v.binding[obj.index()], v.binding[dst.index()])
                    {
                        if can_unlink(m, so, r) {
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
}

/// Whether `src`'s slot of `r` in `m` can lose one target and still
/// meet the reference's lower bound.
fn can_unlink(m: &Model, src: ObjId, r: RefId) -> bool {
    let lower = m.metamodel().reference(r).lower as usize;
    m.targets(src, r).is_ok_and(|ds| ds.len() > lower)
}

/// Candidates that build (or adapt towards) a witness for the target
/// pattern under the violated binding.
#[allow(clippy::too_many_arguments)]
fn witness_candidates(
    rel: &HirRelation,
    dom: &mmt_qvtr::HirDomain,
    binding: &Binding,
    models: &[Model],
    t: DomIdx,
    pool: &ValueDomain,
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
                // value demanded by the binding (or the literal), or, when
                // the value is existentially free, to each pool value.
                let class = match rel.vars[obj.index()].ty {
                    VarTy::Obj { class, .. } => class,
                    VarTy::Prim(_) => continue,
                };
                let values = match rhs {
                    Atom::Lit(ref v) => std::slice::from_ref(v),
                    Atom::Var(pv) => match &binding[pv.index()] {
                        Some(Slot::Val(v)) => std::slice::from_ref(v),
                        _ => pool.of(meta.attr(attr).ty),
                    },
                };
                set_attr_candidates(m, t, m.objects_of(class), attr, values, out);
            }
            Constraint::RefContains { obj, r, dst } => {
                // Offer links between class-compatible pairs that the
                // metamodel admits: the source's slot has room for one
                // more target, and a containment's target has no
                // container yet and does not enclose the source.
                let (sc, dc) = match (rel.vars[obj.index()].ty, rel.vars[dst.index()].ty) {
                    (VarTy::Obj { class: sc, .. }, VarTy::Obj { class: dc, .. }) => (sc, dc),
                    _ => continue,
                };
                let decl = meta.reference(r);
                let contained = |d: ObjId| {
                    m.incoming(d)
                        .iter()
                        .any(|&(_, by)| meta.reference(by).containment)
                };
                let sources: Vec<ObjId> = m
                    .objects_of(sc)
                    .filter(|&so| {
                        m.targets(so, r)
                            .is_ok_and(|ds| decl.upper.admits(ds.len() + 1))
                    })
                    .collect();
                let dests: Vec<ObjId> = m
                    .objects_of(dc)
                    .filter(|&d| !(decl.containment && contained(d)))
                    .collect();
                for &so in &sources {
                    for &dobj in &dests {
                        if m.has_link(so, r, dobj) || decl.containment && encloses(m, dobj, so) {
                            continue;
                        }
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

/// Whether `outer` is `obj` or one of its containers in `m`, found by
/// walking the containment links into `obj` upwards: a containment link
/// from `obj` to `outer` would close a cycle. Allocates nothing.
fn encloses(m: &Model, outer: ObjId, obj: ObjId) -> bool {
    let meta = m.metamodel();
    let mut at = obj;
    // A walk longer than the model is already inside a cycle.
    for _ in 0..=m.len() {
        if at == outer {
            return true;
        }
        let container = m
            .incoming(at)
            .iter()
            .find(|&&(_, by)| meta.reference(by).containment);
        match container {
            Some(&(src, _)) => at = src,
            None => return false,
        }
    }
    false
}

/// Candidates from `where` equality constraints on target-side objects,
/// e.g. `f.mandatory = true`, or `q.first = p.first` with `p` bound.
fn where_candidates(
    rel: &HirRelation,
    e: &HirExpr,
    binding: &Binding,
    models: &[Model],
    t: DomIdx,
    pool: &ValueDomain,
    out: &mut Vec<Candidate>,
) {
    match e {
        HirExpr::Cmp(mmt_qvtr::CmpOp::Eq, a, b) => {
            // Navigate from the side whose variable is an object of the
            // target model; the other side names the value to set.
            let on_target = |e: &HirExpr| match *e {
                HirExpr::Nav(v, attr) => match rel.vars[v.index()].ty {
                    VarTy::Obj { model, class } if model == t => Some((class, attr)),
                    _ => None,
                },
                _ => None,
            };
            let ((class, attr), other) = match (on_target(a), on_target(b)) {
                (Some(nav), _) => (nav, &**b),
                (None, Some(nav)) => (nav, &**a),
                (None, None) => return,
            };
            let m = &models[t.index()];
            let read: Value;
            let desired: &[Value] = match *other {
                HirExpr::Lit(ref val) => std::slice::from_ref(val),
                HirExpr::Var(pv) => match &binding[pv.index()] {
                    Some(Slot::Val(val)) => std::slice::from_ref(val),
                    _ => pool.of(m.metamodel().attr(attr).ty),
                },
                // A navigation on a bound object: copy the value it reads.
                HirExpr::Nav(w, w_attr) => {
                    let (Some(Slot::Obj(o)), VarTy::Obj { model, .. }) =
                        (binding[w.index()], rel.vars[w.index()].ty)
                    else {
                        return;
                    };
                    let Ok(val) = models[model.index()].attr(o, w_attr) else {
                        return;
                    };
                    read = val;
                    std::slice::from_ref(&read)
                }
                _ => return,
            };
            set_attr_candidates(m, t, m.objects_of(class), attr, desired, out);
        }
        HirExpr::And(a, b) | HirExpr::Or(a, b) | HirExpr::Implies(a, b) => {
            where_candidates(rel, a, binding, models, t, pool, out);
            where_candidates(rel, b, binding, models, t, pool, out);
        }
        HirExpr::Not(a) => where_candidates(rel, a, binding, models, t, pool, out),
        _ => {}
    }
}

/// `SetAttr` candidates on the model `m` at `t`: for each of `objs` in
/// turn, each of `values` that differs from the value the object holds,
/// in order. `old` is always the value read — fabricating it would make
/// the edit non-invertible — and an unreadable slot yields no candidate.
fn set_attr_candidates(
    m: &Model,
    t: DomIdx,
    objs: impl IntoIterator<Item = ObjId>,
    attr: AttrId,
    values: &[Value],
    out: &mut Vec<Candidate>,
) {
    for id in objs {
        let Ok(old) = m.attr(id, attr) else {
            continue;
        };
        for &value in values {
            if value != old {
                out.push(Candidate {
                    model: t,
                    op: EditOp::SetAttr {
                        id,
                        attr,
                        value,
                        old,
                    },
                });
            }
        }
    }
}

/// The models a directional check can read: dependency sources, the
/// target, and the models of the object variables its `when`/`where`
/// read. A call's arguments bind the callee's domain roots in the
/// callee's own models, so a call reads no model beyond its arguments'.
fn participating_models(rel: &HirRelation, dep: Dep) -> DomSet {
    fn reads(rel: &HirRelation, e: &HirExpr, set: &mut DomSet) {
        let mut var = |v: &mmt_qvtr::VarId| {
            if let VarTy::Obj { model, .. } = rel.vars[v.index()].ty {
                *set = set.with(model);
            }
        };
        match e {
            HirExpr::Lit(_) => {}
            HirExpr::Var(v) | HirExpr::Nav(v, _) => var(v),
            HirExpr::Call(_, args) => args.iter().for_each(var),
            HirExpr::Cmp(_, a, b)
            | HirExpr::And(a, b)
            | HirExpr::Or(a, b)
            | HirExpr::Implies(a, b) => {
                reads(rel, a, set);
                reads(rel, b, set);
            }
            HirExpr::Not(a) => reads(rel, a, set),
        }
    }
    let mut set = dep.sources.with(dep.target);
    for e in rel.when.iter().chain(&rel.where_) {
        reads(rel, e, &mut set);
    }
    set
}

/// One fact of an object of a target model: its class, one attribute
/// with its value, or one outgoing link.
#[derive(Hash)]
enum Fact {
    Class(ClassId),
    Attr(AttrId, Value),
    Link(RefId, ObjId),
}

/// The hash of `fact` of object `id` of the model at `t`. Strings hash
/// by interned index, so the hash is stable within one process only; it
/// never leaves the search.
fn fact_fp(t: DomIdx, id: ObjId, fact: Fact) -> u64 {
    let mut h = DefaultHasher::new();
    (t.0, id, fact).hash(&mut h);
    h.finish()
}

/// The wrapping sum of the facts of `obj`, live at `id` in the model
/// `m` at `t`: its class, every attribute and every outgoing link.
fn object_facts(m: &Model, t: DomIdx, id: ObjId, obj: &Object) -> u64 {
    let class = m.metamodel().class(obj.class);
    let mut fp = fact_fp(t, id, Fact::Class(obj.class));
    for (&attr, &value) in class.all_attrs.iter().zip(&obj.attrs) {
        fp = fp.wrapping_add(fact_fp(t, id, Fact::Attr(attr, value)));
    }
    for (&r, dsts) in class.all_refs.iter().zip(&obj.refs) {
        for &dst in dsts {
            fp = fp.wrapping_add(fact_fp(t, id, Fact::Link(r, dst)));
        }
    }
    fp
}

/// Order-insensitive structural fingerprint of the target models, from
/// scratch: the wrapping sum of their facts' hashes. Commutativity is
/// what makes [`fingerprint_apply`] possible. The search never needs
/// it, since its states differ from a root at 0; the tests use it as an
/// independent check.
#[cfg(test)]
fn fingerprint(models: &[Model], targets: DomSet) -> u64 {
    let mut fp: u64 = 0;
    for t in targets.iter() {
        let m = &models[t.index()];
        for (id, obj) in m.objects() {
            fp = fp.wrapping_add(object_facts(m, t, id, obj));
        }
    }
    fp
}

/// The fingerprint of the state reached by applying `cand` to `models`
/// (which fingerprint to `fp`): `fp` plus the hashes of the facts the
/// edit adds, minus those it removes. Nothing is applied, copied or
/// allocated. A `DelObj` removes the victim's facts and every link into
/// it from another object, found through the model's inverse link
/// index (a self-loop is among the victim's own links). Returns `None`
/// when the candidate is stale (its object vanished, the link already
/// exists, …) — the cases where applying it would fail or change
/// nothing.
fn fingerprint_apply(models: &[Model], fp: u64, cand: &Candidate) -> Option<u64> {
    let t = cand.model;
    let m = &models[t.index()];
    let meta = m.metamodel();
    let fact = |id, fact| fact_fp(t, id, fact);
    match cand.op {
        EditOp::AddObj { id, class } => {
            if m.contains(id) || meta.class(class).is_abstract {
                return None;
            }
            let mut fp = fp.wrapping_add(fact(id, Fact::Class(class)));
            for &attr in &meta.class(class).all_attrs {
                let default = meta.attr(attr).ty.default_value();
                fp = fp.wrapping_add(fact(id, Fact::Attr(attr, default)));
            }
            Some(fp)
        }
        EditOp::DelObj { id, .. } => {
            let obj = m.get(id)?;
            let mut fp = fp.wrapping_sub(object_facts(m, t, id, obj));
            for &(src, r) in m.incoming(id) {
                if src != id {
                    fp = fp.wrapping_sub(fact(src, Fact::Link(r, id)));
                }
            }
            Some(fp)
        }
        EditOp::SetAttr {
            id, attr, value, ..
        } => {
            let obj = m.get(id)?;
            let old = obj.attrs[meta.attr_slot(obj.class, attr)?];
            if old == value {
                return None; // no-op
            }
            Some(
                fp.wrapping_sub(fact(id, Fact::Attr(attr, old)))
                    .wrapping_add(fact(id, Fact::Attr(attr, value))),
            )
        }
        EditOp::AddLink { src, r, dst } => {
            let obj = m.get(src)?;
            let slot = meta.ref_slot(obj.class, r)?;
            if !m.contains(dst) || obj.refs[slot].binary_search(&dst).is_ok() {
                return None; // dangling, or already linked
            }
            Some(fp.wrapping_add(fact(src, Fact::Link(r, dst))))
        }
        EditOp::DelLink { src, r, dst } => {
            let obj = m.get(src)?;
            let slot = meta.ref_slot(obj.class, r)?;
            obj.refs[slot].binary_search(&dst).ok()?;
            Some(fp.wrapping_sub(fact(src, Fact::Link(r, dst))))
        }
    }
}

#[cfg(test)]
mod candidate_tests {
    use super::*;
    use crate::{RepairEngine, SatEngine, SearchEngine};
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
        let pool = ValueDomain::collect(&hir, &models, 1);
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
    /// ids, as SAT's does.
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
            (
                "search",
                SearchEngine::new(opts.clone()).repair(&hir, &models, targets),
            ),
            (
                "sat",
                SatEngine::new(opts.clone()).repair(&hir, &models, targets),
            ),
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
        let pool = ValueDomain::collect(&hir, &models, 1);
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
            op.apply(&mut edited).unwrap();
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
    use crate::{RepairEngine, SatEngine};
    use mmt_check::CheckOptions;
    use mmt_gen::random_edits;
    use mmt_gen::scenario::all_scenarios;
    use mmt_model::text::{parse_metamodel, parse_model, print_model};
    use mmt_model::Sym;
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
            let idx = tree.push(0, cand, fp, 0);
            assert!(tree.enter(&mut checker, idx).unwrap(), "{op}");
            // The edit landed as the bare candidate would: same models,
            // same violations as a checker built on the edited tuple.
            let mut edited = models.clone();
            op.apply(&mut edited[0]).unwrap();
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

    /// `models` with three random edits in every model, so a walk from
    /// them starts among violations.
    fn drifted(models: &[Model], seed: u64) -> Vec<Model> {
        let mut models = models.to_vec();
        for (i, m) in models.iter_mut().enumerate() {
            for op in random_edits(m, 3, seed * 5 + i as u64) {
                op.apply(m).unwrap();
            }
        }
        models
    }

    /// Checks [`fingerprint_apply`] on every candidate derived at the
    /// state `models`, which fingerprints to `fp`, against applying the
    /// candidate to a copy: an edit that changes the tuple must predict
    /// the from-scratch fingerprint of the result, and an edit that
    /// fails or changes nothing must be stale.
    fn assert_candidate_fingerprints(
        models: &[Model],
        fp: u64,
        cands: &[Candidate],
        targets: DomSet,
        ctx: &str,
    ) {
        for cand in cands {
            let mut edited = models.to_vec();
            let m = cand.model.index();
            let applied = cand.op.apply(&mut edited[m]).is_ok();
            let predicted = fingerprint_apply(models, fp, cand);
            if applied && !edited[m].graph_eq(&models[m]) {
                let want = fingerprint(&edited, targets);
                assert_eq!(predicted, Some(want), "{ctx}: {}", cand.op);
            } else {
                assert_eq!(predicted, None, "{ctx}: stale {}", cand.op);
            }
        }
    }

    /// Hops one checker between random states of a search tree over
    /// every corpus scenario: wherever it lands, it must look exactly
    /// like a fresh checker over the tuple reached by applying the
    /// state's path of candidates to a copy of the originals, and every
    /// candidate derived there must fingerprint as its result does.
    #[test]
    fn seeded_walk_matches_fresh_checkers() {
        for sc in all_scenarios() {
            for seed in 0..3u64 {
                let w = sc.workload(seed);
                let hir = &w.hir;
                let originals = drifted(&w.models, seed);
                let targets = DomSet::full(originals.len());
                let pool = ValueDomain::collect(hir, &originals, 1);
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
                                binding: binding.to_vec(),
                            });
                        });
                        let cands =
                            candidates_of(hir, checker.models(), targets, &violations, &pool);
                        let fp = tree.nodes[n].fp;
                        assert_candidate_fingerprints(want, fp, &cands, targets, &ctx(step));
                        for _ in 0..cands.len().min(3) {
                            let cand = cands[next(&mut rng, cands.len())];
                            if let Some(fp) = fingerprint_apply(checker.models(), fp, &cand) {
                                pending.push(tree.push(n, cand, fp, 0));
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
                        let applies = cand.op.apply(&mut want[cand.model.index()]);
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

    /// The A* bound's laws on random search states of every corpus
    /// scenario, under random op prices and model weights. Consistency:
    /// h(parent) ≤ step + h(child) for every entered child, and the lazy
    /// bound a child is pushed with never exceeds its exact h. Goal
    /// detection: h = 0 exactly on consistent states. Admissibility at
    /// the root: h(root) ≤ SAT's least-change cost under the same
    /// options. SAT uses no h, so an inadmissible h fails here, where a
    /// search ordered by h itself never returns a cost below h(root).
    #[test]
    fn bound_is_admissible_and_consistent() {
        let mut admissible_checked = 0;
        for sc in all_scenarios() {
            for seed in 0..3u64 {
                let w = sc.workload(seed);
                let hir = &w.hir;
                let originals = drifted(&w.models, seed);
                let targets = DomSet::full(originals.len());
                let mut rng = seed ^ 0xb0_0d;
                let mut price = || 1 + next(&mut rng, 3) as u64;
                let cost = mmt_dist::CostModel {
                    add_obj: price(),
                    del_obj: price(),
                    set_attr: price(),
                    add_link: price(),
                    del_link: price(),
                };
                let weights = (0..originals.len())
                    .map(|_| [1, 2, 3, 5, 7][next(&mut rng, 5)])
                    .collect();
                let opts = RepairOptions {
                    cost,
                    tuple: mmt_dist::TupleCost::weighted(weights),
                    max_cost: 40,
                    max_states: 5_000,
                    ..RepairOptions::default()
                };
                let ctx = |step: usize| format!("{} seed={seed} step={step}", sc.name());
                let bound = Bound::new(hir, targets, &opts);
                let h_of = |checker: &DeltaChecker| {
                    let h = bound.h(checker, DomSet::EMPTY);
                    let h = h.expect("every check reads a target");
                    assert_eq!(h == 0, checker.consistent());
                    h
                };
                let pool = ValueDomain::collect(hir, &originals, 1);
                let mut checker = checker_over(hir, &originals);
                let root_h = h_of(&checker);
                assert!(root_h > 0, "{}: drift", ctx(0));
                let mut tree = SearchTree::new(0);
                let mut entered = vec![(0usize, root_h)];
                for step in 0..40 {
                    let (n, h) = entered[next(&mut rng, entered.len())];
                    tree.goto(&mut checker, n).unwrap();
                    let mut violations = Vec::new();
                    checker.for_each_violation(4, |rel, dep, binding| {
                        violations.push(Violation {
                            rel,
                            dep,
                            binding: binding.to_vec(),
                        });
                    });
                    let lazy = bound.per_model(&checker);
                    let cands = candidates_of(hir, checker.models(), targets, &violations, &pool);
                    for _ in 0..cands.len().min(4) {
                        let cand = cands[next(&mut rng, cands.len())];
                        let child = tree.push(n, cand, 0, 0);
                        if !tree.enter(&mut checker, child).unwrap() {
                            continue;
                        }
                        let step_cost = checked_step(&cand, &opts).unwrap();
                        let child_h = h_of(&checker);
                        assert!(
                            h <= step_cost + child_h,
                            "{}: h {h} > step {step_cost} + h {child_h} after {}",
                            ctx(step),
                            cand.op
                        );
                        assert!(lazy[cand.model.index()] <= child_h, "{}", ctx(step));
                        entered.push((child, child_h));
                    }
                }
                assert!(entered.len() > 10, "{}: the walk went somewhere", sc.name());
                match SatEngine::new(opts.clone()).repair(hir, &originals, targets) {
                    Ok(Some(out)) => {
                        assert!(root_h <= out.cost, "{}: h(root) {root_h}", ctx(0));
                        admissible_checked += 1;
                    }
                    Ok(None) => {}
                    Err(e) => panic!("{}: {e}", ctx(0)),
                }
            }
        }
        assert!(
            admissible_checked >= 3,
            "{admissible_checked} roots repaired"
        );
    }
}
