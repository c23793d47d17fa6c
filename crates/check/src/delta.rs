//! Incremental, delta-driven checking.
//!
//! A [`DeltaChecker`] owns a model tuple together with the *match state*
//! of every directional check: all universal bindings, each tagged with
//! whether a witness exists and — when it does — **which objects the
//! witness bound**. Given one [`mmt_dist::EditOp`] (or a whole
//! [`mmt_dist::Delta`]), it re-establishes the [`CheckReport`] by
//! re-evaluating only the matches whose read-set intersects the edit,
//! instead of re-running every directional check from scratch. The
//! enforcement search (`mmt-enforce`) uses this as its per-state
//! consistency oracle, making the oracle cost proportional to the edit
//! rather than to the model tuple.
//!
//! ## Invalidation model
//!
//! Each check carries three static per-model *footprints* — the classes
//! whose extents it enumerates, the attributes it compares, and the
//! references it traverses — split by side: the **universal** footprint
//! (source patterns + `when`), the **witness** footprint (target
//! pattern + `where`), and the **call** footprint (everything reachable
//! through relation invocations). An edit that misses all three footprints of a
//! check leaves it untouched. An edit that hits a side triggers a
//! *partial* update of that side. Link edits are link-granular:
//!
//! * a pattern reads a link only through a `RefContains` of its
//!   reference, binding both endpoints (`when` and `where` read none),
//!   so a `DelLink` drops exactly the universal matches that bind the
//!   link's two endpoints at such a constraint and enumerates nothing,
//!   and re-probes exactly the witnesses that read both endpoints;
//! * an `AddLink` keeps every match and every witness, and enumerates
//!   only the bindings that pin both endpoints at a `RefContains` of the
//!   reference: universal bindings that the new link completes, and for
//!   each violation, witnesses through the new link.
//!
//! The other edits (`SetAttr`, `AddObj`, `DelObj`) are object-granular:
//!
//! * universal side — matches binding the edited object are dropped and
//!   re-enumerated with the edited object *pinned*, so only the join
//!   slice through that object is recomputed (a fresh universal match
//!   must bind the edited object, because every pattern read is a read
//!   of a bound object's slots);
//! * witness side — a surviving witness is re-probed only when it bound
//!   the edited object (or reads it through a universal variable: in
//!   the `where` clause, or in the target pattern at a variable that
//!   `when` binds); a violation is
//!   re-probed with the edited object pinned into the target pattern,
//!   because under the positive pattern language a *new* witness must
//!   bind it. Purely destructive edits ([`EditOp::is_destructive_only`])
//!   skip the violation re-probe entirely — deletions never create
//!   witnesses.
//!
//! Either way the pinned enumeration is O(|edit|) when the evaluator
//! can match a pattern outward from the pinned objects, which its
//! reverse reference traversal lets it do from either end of a link.
//! Edits that reach a check through a relation call fall back to a full
//! re-evaluation of that one check (the call memo lives for one update,
//! so repeated calls at the same roots are evaluated once).
//!
//! ```
//! use mmt_model::text::{parse_metamodel, parse_model};
//! use mmt_qvtr::parse_and_resolve;
//! use mmt_check::DeltaChecker;
//! use mmt_deps::DomIdx;
//! use mmt_dist::EditOp;
//! use mmt_model::Value;
//!
//! let cf = parse_metamodel("metamodel CF { class Feature { attr name: Str; } }").unwrap();
//! let fm = parse_metamodel(
//!     "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }").unwrap();
//! let hir = std::sync::Arc::new(parse_and_resolve(r#"
//! transformation F(cf1 : CF, fm : FM) {
//!   top relation Sel {
//!     n : Str;
//!     domain cf1 s : Feature { name = n };
//!     domain fm  f : Feature { name = n };
//!     depend cf1 -> fm;
//!   }
//! }"#, &[cf.clone(), fm.clone()]).unwrap());
//! let m_cf = parse_model(r#"model cf1 : CF { f = Feature { name = "engine" } }"#, &cf).unwrap();
//! let m_fm = parse_model(r#"model fm : FM { f = Feature { name = "gps" } }"#, &fm).unwrap();
//!
//! let mut checker = DeltaChecker::new(&hir, &[m_cf, m_fm]).unwrap();
//! assert!(!checker.consistent()); // "engine" has no FM counterpart
//!
//! // Rename the FM feature to "engine": only the affected matches are
//! // re-evaluated, and the tuple becomes consistent.
//! let name = fm.attr_of(fm.class_named("Feature").unwrap(), mmt_model::Sym::new("name")).unwrap();
//! checker.apply(DomIdx(1), &EditOp::SetAttr {
//!     id: mmt_model::ObjId(0),
//!     attr: name,
//!     value: Value::str("engine"),
//!     old: Value::str("gps"),
//! }).unwrap();
//! assert!(checker.consistent());
//! ```

use crate::eval::{
    collect_constraint_vars, plan_check, Binding, CheckPlan, EvalCtx, EvalError, EvalStats, Slot,
};
use crate::footprint::{footprints_for, var_model, Footprint};
use crate::index::{IdSet, ModelIndex};
use crate::{CheckError, CheckOptions, CheckReport, DirectionalOutcome, ViolationBinding};
use mmt_deps::{Dep, DomIdx};
use mmt_dist::{Delta, EditOp};
use mmt_model::fx::FxHashMap;
use mmt_model::{ClassId, Model, ModelError, ObjId, RefId, Value};
use mmt_qvtr::{Constraint, Hir, HirRelation, RelId, VarId};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Errors raised by the incremental checker.
#[derive(Clone, Debug)]
pub enum DeltaError {
    /// Binding models to the transformation failed.
    Check(CheckError),
    /// Evaluation failed (the checker state is poisoned; rebuild it).
    Eval(EvalError),
    /// An edit could not be applied to the model.
    Model(ModelError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Check(e) => write!(f, "binding error: {e}"),
            DeltaError::Eval(e) => write!(f, "evaluation error: {e}"),
            DeltaError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<CheckError> for DeltaError {
    fn from(e: CheckError) -> Self {
        DeltaError::Check(e)
    }
}

impl From<EvalError> for DeltaError {
    fn from(e: EvalError) -> Self {
        DeltaError::Eval(e)
    }
}

impl From<ModelError> for DeltaError {
    fn from(e: ModelError) -> Self {
        DeltaError::Model(e)
    }
}

/// Incremental-update counters of a [`DeltaChecker`], cumulative since
/// it was built ([`DeltaChecker::delta_stats`]). Every applied edit
/// adds one to exactly one of the last three fields per directional
/// check.
#[derive(Clone, Copy, Default, Debug)]
pub struct DeltaStats {
    /// Edits applied (no-op edits excluded).
    pub edits: u64,
    /// Directional checks an edit left untouched (footprint miss).
    pub checks_skipped: u64,
    /// Partial (object- or link-granular) check updates performed.
    pub partial_updates: u64,
    /// Full single-check re-evaluations (call-reachable edits).
    pub full_reevals: u64,
}

/// The static (model-independent) part of one directional check.
#[derive(Debug)]
struct CheckStatics {
    rel: RelId,
    dep: Dep,
    plan: CheckPlan,
    /// Universal-side object variables, with their models (pin points
    /// for re-enumeration).
    uni_pins: Vec<(DomIdx, VarId)>,
    /// Witness-side object variables the universal side does not bind,
    /// with their models (pin points for a new witness).
    wit_pins: Vec<(DomIdx, VarId)>,
    /// The object variables a witness probe binds — every object
    /// variable of the target constraints that the universal side does
    /// not bind — ascending, with their models: what a witness records.
    wit_objs: Vec<(DomIdx, VarId)>,
    /// Universal-side object variables the witness side reads: those
    /// the `where` clause reads, and those the target pattern names (a
    /// target-domain variable that `when` reads is bound universally).
    wit_uni_vars: Vec<VarId>,
    /// Per-model universal footprint (source patterns + `when`).
    uni_fp: Vec<Footprint>,
    /// Per-model witness footprint (target pattern + `where`).
    wit_fp: Vec<Footprint>,
    /// Per-model footprint of everything reachable through calls.
    call_fp: Vec<Footprint>,
}

/// One `RefContains { obj, r, dst }` of a check side: the side reads
/// the links of `r` from the object bound at `obj` to the one bound at
/// `dst`, both in `model`.
#[derive(Clone, Copy, Debug)]
struct LinkRead {
    model: DomIdx,
    obj: VarId,
    dst: VarId,
}

/// The reads of links of `r` in `model` among the constraints `cs` of
/// one side of a check.
fn link_reads<'a>(
    rel: &'a HirRelation,
    cs: &'a [Constraint],
    model: DomIdx,
    r: RefId,
) -> impl Iterator<Item = LinkRead> + Clone + 'a {
    cs.iter().filter_map(move |c| match *c {
        Constraint::RefContains { obj, r: via, dst }
            if via == r && var_model(rel, obj) == Some(model) =>
        {
            Some(LinkRead { model, obj, dst })
        }
        _ => None,
    })
}

impl LinkRead {
    /// Binds the endpoints of a link from `src` to `dst` into `b` at
    /// this read. False, leaving `b` partly bound, when `b` binds an
    /// endpoint variable to another object already (or one variable
    /// would take both ends of a link between two objects).
    fn pin(&self, b: &mut Binding, src: ObjId, dst: ObjId) -> bool {
        for (var, o) in [(self.obj, src), (self.dst, dst)] {
            match b[var.index()] {
                Some(slot) => {
                    if slot != Slot::Obj(o) {
                        return false;
                    }
                }
                None => b[var.index()] = Some(Slot::Obj(o)),
            }
        }
        true
    }

    /// Whether `b` binds this read's endpoints to `src` and `dst`: reads
    /// the link from `src` to `dst` here, when the link exists.
    fn reads(&self, b: &[Option<Slot>], src: ObjId, dst: ObjId) -> bool {
        b[self.obj.index()] == Some(Slot::Obj(src)) && b[self.dst.index()] == Some(Slot::Obj(dst))
    }
}

/// One directional check: shared statics plus the live match state.
#[derive(Clone, Debug)]
struct CachedCheck {
    statics: Arc<CheckStatics>,
    state: MatchState,
}

/// What a [`MatchState`] slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Nothing: the slot is on the free list, and its rows are stale.
    Free,
    /// A universal binding with a witness.
    Witnessed,
    /// A universal binding without one: a violation.
    Violating,
}

/// The live match state of one check, keyed by object so a partial
/// update touches only the matches an edit can affect.
///
/// Matches live in flat arenas indexed by *slot*: slot `s`'s universal
/// binding is row `s` of `bindings` (`width` values, one per relation
/// variable), the objects its witness bound are row `s` of `witnesses`
/// (`wit_width` objects, in the check's `wit_objs` order, each
/// variable's model being static), and `status[s]` says whether the
/// slot is free, witnessed or violating; a violation's witness row is
/// stale. So a match costs its data and no allocation of its own. Freed
/// slots are reused LIFO; a freed last slot is truncated instead, so a
/// match an edit appends and its undo removes leaves no slot behind.
///
/// Two inverted indexes find the matches an edit can affect: `by_obj`
/// maps `(model, object)` to the slots whose *universal binding* binds
/// that object — the matches a universal-side edit invalidates and the
/// candidates a `where`-clause read can re-key — and `by_wit` maps
/// `(model, object)` to the slots whose *witness* read that object.
/// Each bucket is an [`IdSet`], which keeps its first slot inline: most
/// objects are bound by one match. `violating` lists the unwitnessed
/// slots, ascending; its length is the check's violation count. The
/// bulk build of [`full_eval`] builds the two maps once, and every later
/// mutation updates them and `violating` as a delta, whatever the
/// state's size.
#[derive(Clone, Debug)]
struct MatchState {
    /// Values per binding row: the relation's variable count.
    width: usize,
    /// Objects per witness row: the check's `wit_objs.len()`.
    wit_width: usize,
    /// Binding rows, `width` slots each.
    bindings: Vec<Option<Slot>>,
    /// Witness rows, `wit_width` objects each.
    witnesses: Vec<ObjId>,
    /// One status per slot; its length is the slot count.
    status: Vec<Status>,
    free: Vec<u32>,
    /// `(model, object)` → slots whose universal binding binds it.
    by_obj: FxHashMap<(DomIdx, ObjId), IdSet<u32>>,
    /// `(model, object)` → slots whose witness read it.
    by_wit: FxHashMap<(DomIdx, ObjId), IdSet<u32>>,
    /// Currently unwitnessed slots, ascending.
    violating: Vec<u32>,
}

/// The universal-side object variables a binding binds, with their
/// models — the `by_obj` keys of one match.
fn binding_objs<'a>(
    rel: &'a HirRelation,
    binding: &'a [Option<Slot>],
) -> impl Iterator<Item = (DomIdx, ObjId)> + 'a {
    binding
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| match slot {
            Some(Slot::Obj(o)) => var_model(rel, VarId(i as u32)).map(|m| (m, *o)),
            _ => None,
        })
}

/// A witness row's objects with their models — the `by_wit` keys of one
/// witnessed match.
fn witness_objs<'a>(
    wit_objs: &'a [(DomIdx, VarId)],
    row: &'a [ObjId],
) -> impl Iterator<Item = (DomIdx, ObjId)> + 'a {
    wit_objs.iter().zip(row).map(|(&(m, _), &o)| (m, o))
}

/// Sets `arena`'s capacity to its length plus `spare`.
fn fit<T>(arena: &mut Vec<T>, spare: usize) {
    arena.reserve_exact(spare);
    arena.shrink_to(arena.len() + spare);
}

/// Row `slot` of an arena of `width`-wide rows.
fn row<T>(arena: &[T], width: usize, slot: u32) -> &[T] {
    let start = slot as usize * width;
    &arena[start..start + width]
}

impl MatchState {
    /// An empty state for rows of `width` variables and `wit_width`
    /// witness objects.
    fn new(width: usize, wit_width: usize) -> MatchState {
        MatchState {
            width,
            wit_width,
            bindings: Vec::new(),
            witnesses: Vec::new(),
            status: Vec::new(),
            free: Vec::new(),
            by_obj: FxHashMap::default(),
            by_wit: FxHashMap::default(),
            violating: Vec::new(),
        }
    }

    fn violations(&self) -> usize {
        self.violating.len()
    }

    /// The live slots, ascending.
    #[cfg(test)]
    fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != Status::Free)
            .map(|(slot, _)| slot as u32)
    }

    /// Slot `slot`'s universal binding.
    fn binding(&self, slot: u32) -> &[Option<Slot>] {
        row(&self.bindings, self.width, slot)
    }

    /// The objects slot `slot`'s witness bound, or `None` for a
    /// violation.
    fn witness(&self, slot: u32) -> Option<&[ObjId]> {
        self.witnessed(slot)
            .then(|| row(&self.witnesses, self.wit_width, slot))
    }

    fn witnessed(&self, slot: u32) -> bool {
        self.status[slot as usize] == Status::Witnessed
    }

    /// Stores a match in a slot — the last one freed, or a new last
    /// one — and returns the slot, leaving `by_obj` and `by_wit` alone:
    /// the bulk build of [`full_eval`] (which [`MatchState::built`]
    /// ends), and the first half of [`MatchState::insert`].
    fn push(&mut self, binding: &[Option<Slot>], witness: Option<&[ObjId]>) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                let start = slot as usize * self.width;
                self.bindings[start..start + self.width].copy_from_slice(binding);
                slot
            }
            None => {
                self.bindings.extend_from_slice(binding);
                let len = self.witnesses.len() + self.wit_width;
                self.witnesses.resize(len, ObjId(0));
                self.status.push(Status::Free);
                (self.status.len() - 1) as u32
            }
        };
        self.write_witness(slot, witness);
        if witness.is_none() {
            self.mark_violating(slot);
        }
        slot
    }

    /// Stores slot `slot`'s witness record: its row, when witnessed,
    /// and its status.
    fn write_witness(&mut self, slot: u32, witness: Option<&[ObjId]>) {
        self.status[slot as usize] = match witness {
            Some(objs) => {
                let start = slot as usize * self.wit_width;
                self.witnesses[start..start + self.wit_width].copy_from_slice(objs);
                Status::Witnessed
            }
            None => Status::Violating,
        };
    }

    /// Ends a bulk build: leaves growth headroom, and builds the
    /// indexes that inserting the matches one by one would leave.
    fn built(mut self, rel: &HirRelation, wit_objs: &[(DomIdx, VarId)]) -> MatchState {
        // An eighth of growth headroom: a full arena would make the first
        // constructive edit after a large build pay a whole-arena
        // realloc-and-move (tens of MB of fresh pages at 10⁶ objects — a
        // multi-ms spike masquerading as per-edit cost). The build grew
        // the arenas by doubling, so trim what they hold beyond it.
        let spare = self.status.len() / 8 + 16;
        fit(&mut self.bindings, spare * self.width);
        fit(&mut self.witnesses, spare * self.wit_width);
        fit(&mut self.status, spare);
        self.build_indexes(rel, wit_objs);
        self
    }

    /// Adds `slot` to the sorted violating slots.
    fn mark_violating(&mut self, slot: u32) {
        if let Err(pos) = self.violating.binary_search(&slot) {
            self.violating.insert(pos, slot);
        }
    }

    /// Drops `slot` from the sorted violating slots.
    fn clear_violating(&mut self, slot: u32) {
        if let Ok(pos) = self.violating.binary_search(&slot) {
            self.violating.remove(pos);
        }
    }

    /// Builds `by_obj` and `by_wit` from the rows, once over a freshly
    /// evaluated state. One ascending pass over the slots lists every
    /// bucket's slots, so each bucket is allocated once, at its final
    /// size.
    fn build_indexes(&mut self, rel: &HirRelation, wit_objs: &[(DomIdx, VarId)]) {
        let mut uni = Vec::new();
        let mut wit = Vec::new();
        for (slot, &status) in self.status.iter().enumerate() {
            let slot = slot as u32;
            let objs = match status {
                Status::Free => continue,
                Status::Witnessed => row(&self.witnesses, self.wit_width, slot),
                Status::Violating => &[],
            };
            uni.extend(binding_objs(rel, row(&self.bindings, self.width, slot)).map(|k| (k, slot)));
            wit.extend(witness_objs(wit_objs, objs).map(|key| (key, slot)));
        }
        self.by_obj = bucketed(uni);
        self.by_wit = bucketed(wit);
    }

    fn insert(
        &mut self,
        rel: &HirRelation,
        wit_objs: &[(DomIdx, VarId)],
        binding: &[Option<Slot>],
        witness: Option<&[ObjId]>,
    ) {
        let slot = self.push(binding, witness);
        for key in binding_objs(rel, binding) {
            register(&mut self.by_obj, key, slot);
        }
        for key in witness_objs(wit_objs, witness.unwrap_or_default()) {
            register(&mut self.by_wit, key, slot);
        }
    }

    fn remove(&mut self, rel: &HirRelation, wit_objs: &[(DomIdx, VarId)], slot: u32) {
        let status = self.status[slot as usize];
        debug_assert_ne!(status, Status::Free, "live slot");
        for key in binding_objs(rel, row(&self.bindings, self.width, slot)) {
            unregister(&mut self.by_obj, key, slot);
        }
        if status == Status::Witnessed {
            for key in witness_objs(wit_objs, row(&self.witnesses, self.wit_width, slot)) {
                unregister(&mut self.by_wit, key, slot);
            }
        } else {
            self.clear_violating(slot);
        }
        // The last slot leaves the arenas instead of joining the free
        // list: a match that an edit added and its undo removed (the
        // repair search walks a session's checker) leaves no slot behind
        // for the scans to pass over.
        if slot as usize + 1 == self.status.len() {
            self.status.pop();
            self.bindings.truncate(self.bindings.len() - self.width);
            self.witnesses
                .truncate(self.witnesses.len() - self.wit_width);
        } else {
            self.status[slot as usize] = Status::Free;
            self.free.push(slot);
        }
    }

    /// Replaces one match's witness record, re-keying `by_wit` and
    /// updating the violating slots as a delta.
    fn set_witness(&mut self, wit_objs: &[(DomIdx, VarId)], slot: u32, witness: Option<&[ObjId]>) {
        let was_witnessed = self.witnessed(slot);
        if was_witnessed {
            for key in witness_objs(wit_objs, row(&self.witnesses, self.wit_width, slot)) {
                unregister(&mut self.by_wit, key, slot);
            }
        }
        self.write_witness(slot, witness);
        for key in witness_objs(wit_objs, witness.unwrap_or_default()) {
            register(&mut self.by_wit, key, slot);
        }
        if witness.is_some() && !was_witnessed {
            self.clear_violating(slot);
        } else if witness.is_none() && was_witnessed {
            self.mark_violating(slot);
        }
    }

    /// Appends to `out` the live slots whose universal binding binds
    /// `(model, obj)`.
    fn collect_slots_binding(&self, model: DomIdx, obj: ObjId, out: &mut Vec<u32>) {
        if let Some(bucket) = self.by_obj.get(&(model, obj)) {
            out.extend(bucket.iter());
        }
    }

    /// Appends to `out` the live slots whose witness read
    /// `(model, obj)`.
    fn collect_slots_witnessing(&self, model: DomIdx, obj: ObjId, out: &mut Vec<u32>) {
        if let Some(bucket) = self.by_wit.get(&(model, obj)) {
            out.extend(bucket.iter());
        }
    }

    /// Whether slot `slot` reads the link from `src` to `dst` through
    /// `lr`: an endpoint the universal binding binds must hold its
    /// object there, and one left to the witness must be among the
    /// witness's objects of `lr`'s model. That test does not look at
    /// which variable holds the object, so a witness can pass for
    /// reading a link it does not read — which costs a needless
    /// re-probe, never a missed one.
    fn reads_link(
        &self,
        wit_objs: &[(DomIdx, VarId)],
        slot: u32,
        lr: &LinkRead,
        src: ObjId,
        dst: ObjId,
    ) -> bool {
        let binding = self.binding(slot);
        let witness = self.witness(slot);
        let reads = |var: VarId, o: ObjId| match binding[var.index()] {
            Some(slot) => slot == Slot::Obj(o),
            None => {
                witness.is_some_and(|row| witness_objs(wit_objs, row).any(|k| k == (lr.model, o)))
            }
        };
        reads(lr.obj, src) && reads(lr.dst, dst)
    }

    /// Fills `out` with the live slots that read the link from `src` to
    /// `dst` through one of `reads` ([`MatchState::reads_link`]),
    /// ascending and once each. Each read walks the smaller of its two
    /// endpoint buckets: `by_obj` for an endpoint among `uni_vars`,
    /// `by_wit` for one the witness binds.
    fn collect_slots_reading_link(
        &self,
        wit_objs: &[(DomIdx, VarId)],
        reads: impl Iterator<Item = LinkRead>,
        uni_vars: &[VarId],
        src: ObjId,
        dst: ObjId,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for lr in reads {
            let bucket = |var: VarId, o: ObjId| {
                let index = if uni_vars.contains(&var) {
                    &self.by_obj
                } else {
                    &self.by_wit
                };
                index.get(&(lr.model, o))
            };
            let len = |b: Option<&IdSet<u32>>| b.map_or(0, IdSet::len);
            let (from_src, from_dst) = (bucket(lr.obj, src), bucket(lr.dst, dst));
            let smaller = if len(from_src) <= len(from_dst) {
                from_src
            } else {
                from_dst
            };
            out.extend(
                smaller
                    .into_iter()
                    .flat_map(IdSet::iter)
                    .filter(|&s| self.reads_link(wit_objs, s, &lr, src, dst)),
            );
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The violating bindings in canonical order ([`cmp_bindings`]):
    /// what a report lists and what the search reads, in an order that
    /// depends on the tuple alone and not on the slots an edit history
    /// left the matches in.
    fn sorted_violations(&self) -> Vec<&[Option<Slot>]> {
        let mut violating: Vec<&[Option<Slot>]> =
            self.violating.iter().map(|&s| self.binding(s)).collect();
        violating.sort_unstable_by(|a, b| cmp_bindings(a, b));
        violating
    }

    /// Fills `out` with the currently violating slots, ascending —
    /// the snapshot the partial-update pin pass walks while it edits.
    fn snapshot_violating(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.violating);
    }

    /// Debug-build check after every update: the arenas hold one row
    /// per slot, and the violating slots are as many as a status scan
    /// finds, ascending.
    #[cfg(debug_assertions)]
    fn assert_counters(&self) {
        let slots = self.status.len();
        assert_eq!(self.bindings.len(), slots * self.width, "binding rows");
        assert_eq!(self.witnesses.len(), slots * self.wit_width, "witness rows");
        let scan = self
            .status
            .iter()
            .filter(|&&s| s == Status::Violating)
            .count();
        assert_eq!(
            self.violating.len(),
            scan,
            "violating slots diverged from the match-state scan"
        );
        assert!(
            self.violating.windows(2).all(|w| w[0] < w[1]),
            "violating slots lost their sorted order"
        );
    }

    /// Test oracle for the inverted indexes: `by_obj`, `by_wit` and
    /// `violating` must hold exactly what a scan of the rows finds,
    /// bucket by bucket, with no empty bucket left behind.
    #[cfg(test)]
    fn assert_indexes(&self, rel: &HirRelation, wit_objs: &[(DomIdx, VarId)]) {
        use std::collections::BTreeMap;
        type Buckets = BTreeMap<(DomIdx, ObjId), Vec<u32>>;
        let live = |index: &FxHashMap<(DomIdx, ObjId), IdSet<u32>>| -> Buckets {
            index
                .iter()
                .map(|(&k, b)| (k, b.iter().collect()))
                .collect()
        };
        let (mut uni, mut wit) = (Buckets::new(), Buckets::new());
        for slot in self.live_slots() {
            for key in binding_objs(rel, self.binding(slot)) {
                uni.entry(key).or_default().push(slot);
            }
            for key in witness_objs(wit_objs, self.witness(slot).unwrap_or_default()) {
                wit.entry(key).or_default().push(slot);
            }
        }
        // A match that reads one object through two variables is in its
        // bucket once.
        uni.values_mut()
            .chain(wit.values_mut())
            .for_each(Vec::dedup);
        assert_eq!(live(&self.by_obj), uni, "by_obj diverged from the rows");
        assert_eq!(live(&self.by_wit), wit, "by_wit diverged from the rows");
        let violating: Vec<u32> = self.live_slots().filter(|&s| !self.witnessed(s)).collect();
        assert_eq!(
            self.violating, violating,
            "violating slots diverged from the rows"
        );
    }
}

/// An inverted index over `(key, slot)` pairs: each key's bucket holds
/// its slots ascending and once, and is allocated once, at its final
/// size (a one-slot bucket not at all).
fn bucketed(mut pairs: Vec<((DomIdx, ObjId), u32)>) -> FxHashMap<(DomIdx, ObjId), IdSet<u32>> {
    pairs.sort_unstable();
    pairs.dedup();
    let buckets = pairs.chunk_by(|a, b| a.0 == b.0);
    let mut index =
        FxHashMap::with_capacity_and_hasher(buckets.clone().count(), Default::default());
    for bucket in buckets {
        index.insert(
            bucket[0].0,
            IdSet::from_sorted(bucket.iter().map(|&(_, slot)| slot)),
        );
    }
    index
}

/// Adds one slot to an inverted-index bucket (once: a binding or
/// witness reading the same object through two variables holds it
/// once).
fn register(index: &mut FxHashMap<(DomIdx, ObjId), IdSet<u32>>, key: (DomIdx, ObjId), slot: u32) {
    index.entry(key).or_default().insert(slot);
}

/// Drops one slot from an inverted-index bucket, removing the bucket
/// when it empties.
fn unregister(index: &mut FxHashMap<(DomIdx, ObjId), IdSet<u32>>, key: (DomIdx, ObjId), slot: u32) {
    if let Some(bucket) = index.get_mut(&key) {
        bucket.remove(slot);
        if bucket.is_empty() {
            index.remove(&key);
        }
    }
}

/// An incremental checkonly engine: binds a transformation to an
/// *owned* model tuple and keeps the [`CheckReport`] up to date across
/// [`mmt_dist::EditOp`]s in time proportional to the edit, not the
/// tuple. See the [module docs](self) for the invalidation model and a
/// worked example.
///
/// Cloning a `DeltaChecker` ([`DeltaChecker::fork`]) is O(tuple) and
/// shares the compiled check statics. The enforcement search walks one
/// checker per repair — a sync session's own, lent for the repair, or
/// one built over the originals — between search states by exact
/// inverse edits, so a state costs O(|edit|), not O(tuple), and a
/// session's repair copies nothing.
///
/// `DeltaChecker` owns its whole world — the model tuple and a shared
/// handle on the transformation ([`Arc<Hir>`]) — so it is `'static`:
/// a checker can be moved across threads, parked in a registry, or held
/// by a long-lived session without pinning any borrowed transformation
/// on the stack. It is also `Send + Sync`: the compiled statics are
/// immutable behind [`Arc`], and the evaluation stack has no interior
/// mutability, so sync sessions that own a checker can be shared across
/// a hub's threads.
#[derive(Clone, Debug)]
pub struct DeltaChecker {
    hir: Arc<Hir>,
    opts: CheckOptions,
    models: Vec<Model>,
    indexes: Vec<ModelIndex>,
    checks: Vec<CachedCheck>,
    eval_stats: EvalStats,
    delta_stats: DeltaStats,
    scratch: UpdateScratch,
}

/// Reusable buffers for the partial-update passes, cleared per edit but
/// never shrunk — the steady-state edit path allocates nothing, undo
/// edits of the repair search included. Cloning a checker resets them
/// to empty.
#[derive(Debug, Default)]
struct UpdateScratch {
    /// Slots invalidated by a universal-side edit.
    stale: Vec<u32>,
    /// Per-object index-lookup staging.
    hits: Vec<u32>,
    /// Slots to fully re-probe on a witness-side edit (sorted).
    reprobe: Vec<u32>,
    /// Violating slots snapshotted before the re-probe pass.
    violating_before: Vec<u32>,
    /// The binding a pinned enumeration or a re-probe extends.
    binding: Binding,
    /// The objects a witness probe's witness bound.
    witness: Vec<ObjId>,
}

impl Clone for UpdateScratch {
    fn clone(&self) -> UpdateScratch {
        UpdateScratch::default()
    }
}

impl DeltaChecker {
    /// Binds `models` (cloned; the checker owns its tuple) and runs the
    /// initial full evaluation. The checker keeps its own handle on the
    /// shared transformation, so it outlives the caller's borrow.
    pub fn new(hir: &Arc<Hir>, models: &[Model]) -> Result<DeltaChecker, DeltaError> {
        DeltaChecker::with_options(hir, models, CheckOptions::default())
    }

    /// As [`DeltaChecker::new`] with explicit options: a copy of
    /// `models` goes to [`DeltaChecker::from_models`].
    /// [`CheckOptions::max_violations`] caps the counterexamples
    /// *reported*, not the match state — the checker always tracks every
    /// universal binding.
    pub fn with_options(
        hir: &Arc<Hir>,
        models: &[Model],
        opts: CheckOptions,
    ) -> Result<DeltaChecker, DeltaError> {
        DeltaChecker::from_models(hir, models.to_vec(), opts)
    }

    /// Binds the tuple `models`, taking it over without a copy, and runs
    /// the initial full evaluation under `opts`: the open path for a
    /// caller that parsed or recovered a tuple and keeps no copy of its
    /// own. [`DeltaChecker::with_options`] is this over a copy.
    pub fn from_models(
        hir: &Arc<Hir>,
        models: Vec<Model>,
        opts: CheckOptions,
    ) -> Result<DeltaChecker, DeltaError> {
        if models.len() != hir.arity() {
            return Err(CheckError::ModelCountMismatch {
                expected: hir.arity(),
                got: models.len(),
            }
            .into());
        }
        for (i, (m, p)) in models.iter().zip(&hir.models).enumerate() {
            if m.metamodel().name != p.meta.name {
                return Err(CheckError::MetamodelMismatch {
                    position: i,
                    expected: p.meta.name,
                    got: m.metamodel().name,
                }
                .into());
            }
        }
        let indexes: Vec<ModelIndex> = models.iter().map(ModelIndex::build).collect();
        let arity = hir.arity();
        let mut checks = Vec::new();
        let mut scratch = UpdateScratch::default();
        let mut ctx = EvalCtx::new(hir, &models, &indexes);
        for (rid, rel) in hir.top_relations() {
            for &dep in rel.deps.deps() {
                let statics = Arc::new(compile_check(hir, rid, dep, arity)?);
                let state = full_eval(&mut ctx, rel, &statics, &mut scratch)?;
                checks.push(CachedCheck { statics, state });
            }
        }
        let eval_stats = ctx.stats();
        Ok(DeltaChecker {
            hir: Arc::clone(hir),
            opts,
            models,
            indexes,
            checks,
            eval_stats,
            delta_stats: DeltaStats::default(),
            scratch,
        })
    }

    /// The owned model tuple, in model-space order.
    pub fn models(&self) -> &[Model] {
        &self.models
    }

    /// The transformation this checker is bound to.
    pub fn hir(&self) -> &Hir {
        &self.hir
    }

    /// The shared handle on the transformation — clone it to open
    /// further checkers (or sessions) over the same specification
    /// without re-resolving anything.
    pub fn hir_arc(&self) -> &Arc<Hir> {
        &self.hir
    }

    /// Applies one edit to the model at `model` and re-establishes the
    /// match state of every check whose read-set the edit intersects.
    ///
    /// No-op edits (setting an attribute to its current value, adding a
    /// present link, removing an absent one) return `Ok` without
    /// touching any state. On a [`DeltaError::Model`] the tuple is
    /// unchanged; on a [`DeltaError::Eval`] the checker is poisoned and
    /// must be rebuilt.
    pub fn apply(&mut self, model: DomIdx, op: &EditOp) -> Result<(), DeltaError> {
        let m = model.index();
        assert!(m < self.models.len(), "model index out of range");
        let mut scrubbed: Vec<RefId> = Vec::new();
        let mut extent_class: Option<ClassId> = None;
        // The one object whose matches and witnesses the edit can change.
        let affected = match *op {
            EditOp::AddObj { id, class } => {
                self.models[m].add_at(id, class)?;
                self.indexes[m].add_obj(&self.models[m], id);
                extent_class = Some(class);
                id
            }
            EditOp::DelObj { id, .. } => {
                let class = self.models[m].class_of(id)?;
                extent_class = Some(class);
                // The delete will scrub incoming links: record which
                // references they use, for the footprint tests (O(degree)
                // via the inverse link index). A link target bound by the
                // reference alone (`r = x`) has no `Obj` constraint, so
                // its class can be in no footprint while the reference is.
                // The links' sources are not affected: every pattern that
                // reads a link binds both ends, so the update finds each
                // match or witness that went through one again via `id`.
                for &(src, r) in self.models[m].incoming(id) {
                    if src != id && !scrubbed.contains(&r) {
                        scrubbed.push(r);
                    }
                }
                self.indexes[m].remove_obj(&self.models[m], id);
                self.models[m].delete(id)?;
                id
            }
            EditOp::SetAttr {
                id, attr, value, ..
            } => {
                let old = self.models[m].attr(id, attr)?;
                if old == value {
                    return Ok(());
                }
                self.models[m].set_attr(id, attr, value)?;
                self.indexes[m].update_attr(id, attr, old, value);
                id
            }
            EditOp::AddLink { src, r, dst } => {
                if !self.models[m].add_link(src, r, dst)? {
                    return Ok(());
                }
                src
            }
            EditOp::DelLink { src, r, dst } => {
                if !self.models[m].remove_link(src, r, dst)? {
                    return Ok(());
                }
                src
            }
        };
        self.delta_stats.edits += 1;
        self.update_checks(model, op, extent_class, affected, &scrubbed)
    }

    /// Applies a whole edit script to the model at `model`
    /// ([`DeltaChecker::apply`] per op, in script order).
    pub fn apply_delta(&mut self, model: DomIdx, delta: &Delta) -> Result<(), DeltaError> {
        for op in delta.ops() {
            self.apply(model, op)?;
        }
        Ok(())
    }

    /// Applies `op` to the model at `model` in its exactly invertible
    /// [`expand_op`](mmt_dist::expand_op) form: appends that form to
    /// `landed` (what a sync session journals), then applies it op by
    /// op. On error the ops before stay applied, and `landed` keeps
    /// exactly those.
    pub fn apply_expanded(
        &mut self,
        model: DomIdx,
        op: &EditOp,
        landed: &mut Delta,
    ) -> Result<(), DeltaError> {
        let start = landed.len();
        landed.push_expanded(&self.models[model.index()], op);
        for i in start..landed.len() {
            if let Err(e) = self.apply(model, &landed.ops()[i]) {
                landed.truncate(i);
                return Err(e);
            }
        }
        Ok(())
    }

    fn update_checks(
        &mut self,
        model: DomIdx,
        op: &EditOp,
        extent_class: Option<ClassId>,
        affected: ObjId,
        scrubbed: &[RefId],
    ) -> Result<(), DeltaError> {
        let m = model.index();
        let mut ctx = EvalCtx::new(&self.hir, &self.models, &self.indexes);
        let meta = self.models[m].metamodel();
        let live = &self.models[m];
        for check in &mut self.checks {
            let st = &check.statics;
            let hits_call = st.call_fp[m].hits(meta, op, extent_class, scrubbed);
            let hits_uni = st.uni_fp[m].hits(meta, op, extent_class, scrubbed);
            let hits_wit = st.wit_fp[m].hits(meta, op, extent_class, scrubbed);
            if !(hits_call || hits_uni || hits_wit) {
                self.delta_stats.checks_skipped += 1;
                continue;
            }
            let rel = self.hir.relation(st.rel);
            if hits_call {
                check.state = full_eval(&mut ctx, rel, st, &mut self.scratch)?;
                self.delta_stats.full_reevals += 1;
                continue;
            }
            if hits_uni {
                universal_update(
                    &mut ctx,
                    rel,
                    st,
                    &mut check.state,
                    model,
                    op,
                    affected,
                    live,
                    &mut self.scratch,
                )?;
            }
            if hits_wit {
                witness_update(
                    &mut ctx,
                    rel,
                    st,
                    &mut check.state,
                    model,
                    affected,
                    op,
                    live,
                    &mut self.scratch,
                )?;
            }
            // Differential check: the incrementally maintained violating
            // slots must agree with a full match-state scan.
            #[cfg(debug_assertions)]
            check.state.assert_counters();
            self.delta_stats.partial_updates += 1;
        }
        accumulate(&mut self.eval_stats, ctx.stats());
        Ok(())
    }

    /// True iff every directional check currently holds. O(#checks):
    /// reads the cached per-check violation counts.
    pub fn consistent(&self) -> bool {
        self.checks.iter().all(|c| c.state.violations() == 0)
    }

    /// The current [`CheckReport`], assembled from the cached match
    /// state (no evaluation happens here). Each check lists its
    /// violations in the canonical order of
    /// [`DeltaChecker::for_each_violation`], capped at
    /// [`CheckOptions::max_violations`], so a session reports the same
    /// bytes whatever its history; `stats` are cumulative over the
    /// initial evaluation and every update.
    pub fn report(&self) -> CheckReport {
        let mut checks = Vec::with_capacity(self.checks.len());
        for c in &self.checks {
            let rel = self.hir.relation(c.statics.rel);
            let violations: Vec<ViolationBinding> = c
                .state
                .sorted_violations()
                .into_iter()
                .take(self.opts.max_violations)
                .map(|b| render(rel, b))
                .collect();
            checks.push(DirectionalOutcome {
                relation: c.statics.rel,
                relation_name: rel.name,
                dep: c.statics.dep,
                holds: c.state.violations() == 0,
                violations,
            });
        }
        CheckReport {
            checks,
            stats: self.eval_stats,
        }
    }

    /// Visits up to `cap` violating universal bindings per directional
    /// check, in *canonical* order — sorted by binding content, strings
    /// by their text, not by cache history or intern order. The
    /// enforcement search derives its repair candidates from these, and
    /// canonical order is what makes a warm (incrementally maintained)
    /// checker and a freshly built one drive the search identically:
    /// both hold the same violation multiset, but their internal match
    /// orders differ after incremental updates. Content order makes two
    /// processes that interned their strings in different orders drive
    /// it identically too.
    pub fn for_each_violation(&self, cap: usize, mut f: impl FnMut(RelId, Dep, &[Option<Slot>])) {
        for c in &self.checks {
            for b in c.state.sorted_violations().into_iter().take(cap) {
                f(c.statics.rel, c.statics.dep, b);
            }
        }
    }

    /// The failing directional checks, each once, in check order (top
    /// relations in declaration order, each relation's dependencies in
    /// order), uncapped and without allocating: the cached per-check
    /// violation counts are read, no binding is visited. The enforcement
    /// search prices its A* bound from these.
    pub fn failing_checks(&self) -> impl Iterator<Item = (RelId, Dep)> + '_ {
        self.checks
            .iter()
            .filter(|c| c.state.violations() > 0)
            .map(|c| (c.statics.rel, c.statics.dep))
    }

    /// Number of currently violating universal bindings across every
    /// directional check (uncapped). O(#checks): reads the cached
    /// per-check violation counts, so sessions can poll it per edit
    /// without scanning the match state.
    pub fn violation_count(&self) -> usize {
        self.checks.iter().map(|c| c.state.violations()).sum()
    }

    /// Checkpoint this checker: an independent copy owning its own model
    /// tuple and match state, sharing the compiled per-check statics
    /// behind [`Arc`]. No evaluation happens, but the copy is O(tuple).
    /// Its one caller in the engines is the repair trait's default
    /// `repair_warm`, which holds only `&DeltaChecker` and repairs a
    /// fork of it in place. A sync session forks nothing; it lends its
    /// own checker to the engine.
    pub fn fork(&self) -> DeltaChecker {
        self.clone()
    }

    /// Gives up the checker for its model tuple, without copying it.
    pub fn into_models(self) -> Vec<Model> {
        self.models
    }

    /// Drops trailing tombstones of the model at `model` down to
    /// `bound` ([`Model::truncate_tombstones`]). Exact undo of an
    /// `AddObj` past the id bound ends with this, so ids minted from
    /// `id_bound()` afterwards are the ones minted before the edit. The
    /// match state and indexes need no update: tombstones match nothing.
    pub fn truncate_tombstones(&mut self, model: DomIdx, bound: usize) {
        self.models[model.index()].truncate_tombstones(bound);
    }

    /// Cumulative incremental-update statistics.
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta_stats
    }
}

/// The canonical order of violation enumeration: bindings compared slot
/// by slot, in place. Unbound slots sort first, then objects by id,
/// then booleans, integers and strings, each by value, strings by their
/// text ([`mmt_model::Sym::cmp_text`]), so the order depends on the
/// tuple alone and not on which strings the process interned first.
/// Within one check every binding has the same length and shape, so
/// this is a total order there.
fn cmp_bindings(a: &[Option<Slot>], b: &[Option<Slot>]) -> Ordering {
    fn rank(s: &Option<Slot>) -> u8 {
        match s {
            None => 0,
            Some(Slot::Obj(_)) => 1,
            Some(Slot::Val(Value::Bool(_))) => 2,
            Some(Slot::Val(Value::Int(_))) => 3,
            Some(Slot::Val(Value::Str(_))) => 4,
        }
    }
    let slot = |x: &Option<Slot>, y: &Option<Slot>| match (x, y) {
        (Some(Slot::Obj(p)), Some(Slot::Obj(q))) => p.cmp(q),
        (Some(Slot::Val(Value::Bool(p))), Some(Slot::Val(Value::Bool(q)))) => p.cmp(q),
        (Some(Slot::Val(Value::Int(p))), Some(Slot::Val(Value::Int(q)))) => p.cmp(q),
        (Some(Slot::Val(Value::Str(p))), Some(Slot::Val(Value::Str(q)))) => p.cmp_text(*q),
        _ => rank(x).cmp(&rank(y)),
    };
    a.iter()
        .zip(b)
        .map(|(x, y)| slot(x, y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

fn accumulate(into: &mut EvalStats, extra: EvalStats) {
    into.universal_bindings += extra.universal_bindings;
    into.existential_probes += extra.existential_probes;
    into.call_hits += extra.call_hits;
    into.candidates += extra.candidates;
}

fn render(rel: &HirRelation, binding: &[Option<Slot>]) -> ViolationBinding {
    let vars = binding
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.map(|s| (rel.vars[i].name, s.to_string())))
        .collect();
    ViolationBinding { vars }
}

fn compile_check(hir: &Hir, rid: RelId, dep: Dep, arity: usize) -> Result<CheckStatics, EvalError> {
    let rel = hir.relation(rid);
    let empty: Binding = vec![None; rel.vars.len()];
    let plan = plan_check(rel, dep, &empty)?;
    let fps = footprints_for(
        hir,
        rel,
        &plan.src_constraints,
        &plan.tgt_constraints,
        arity,
    );
    let pins = |cs: &[Constraint]| {
        let mut out: Vec<(DomIdx, VarId)> = Vec::new();
        for c in cs {
            if let Constraint::Obj { var, model, .. } = *c {
                if !out.contains(&(model, var)) {
                    out.push((model, var));
                }
            }
        }
        out
    };
    let uni_pins = pins(&plan.src_constraints);
    let mut wit_pins = pins(&plan.tgt_constraints);
    wit_pins.retain(|(_, v)| !plan.src_vars.contains(v));
    // The target pattern's object variables: those the universal side
    // leaves to the witness, and those it binds (a target-domain
    // variable that `when` reads), which the witness reads through the
    // binding. The second list is empty for most checks, and then
    // allocates nothing.
    let mut tgt_objs = Vec::new();
    for c in &plan.tgt_constraints {
        collect_constraint_vars(c, &mut tgt_objs);
    }
    tgt_objs.retain(|v| var_model(rel, *v).is_some());
    tgt_objs.sort_unstable();
    let tgt_uni: Vec<VarId> = tgt_objs
        .iter()
        .copied()
        .filter(|v| plan.src_vars.contains(v))
        .collect();
    tgt_objs.retain(|v| !plan.src_vars.contains(v));
    let wit_objs = tgt_objs
        .into_iter()
        .filter_map(|v| var_model(rel, v).map(|m| (m, v)))
        .collect();
    let wit_uni_vars = {
        let mut fv = Vec::new();
        if let Some(w) = &rel.where_ {
            w.free_vars(&mut fv);
        }
        fv.retain(|v| plan.src_vars.contains(v) && var_model(rel, *v).is_some());
        fv.extend(tgt_uni);
        fv.sort_unstable();
        fv.dedup();
        fv
    };
    Ok(CheckStatics {
        rel: rid,
        dep,
        plan,
        uni_pins,
        wit_pins,
        wit_objs,
        wit_uni_vars,
        uni_fp: fps.uni,
        wit_fp: fps.wit,
        call_fp: fps.call,
    })
}

/// Full (from-scratch) evaluation of one check: enumerate every
/// universal binding and probe its witness, writing each match's rows
/// in place.
fn full_eval(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    scratch: &mut UpdateScratch,
) -> Result<MatchState, EvalError> {
    let mut state = MatchState::new(rel.vars.len(), st.wit_objs.len());
    let witness = &mut scratch.witness;
    let binding = unbound(&mut scratch.binding, rel);
    ctx.solve(rel, &st.plan.src_constraints, binding, &mut |ctx, b| {
        ctx.stats.universal_bindings += 1;
        if let Some(when) = &rel.when {
            if !ctx.eval_bool(rel, when, b, st.plan.dir)? {
                return Ok(false);
            }
        }
        let witnessed = probe_recording(ctx, rel, st, b, witness)?;
        state.push(b, witnessed.then_some(&witness[..]));
        Ok(false)
    })?;
    Ok(state.built(rel, &st.wit_objs))
}

/// Resets `binding` to `rel`'s variables, all unbound.
fn unbound<'b>(binding: &'b mut Binding, rel: &HirRelation) -> &'b mut Binding {
    binding.clear();
    binding.resize(rel.vars.len(), None);
    binding
}

/// Resets `binding` to slot `slot`'s universal binding, to re-probe it.
fn matched<'b>(binding: &'b mut Binding, state: &MatchState, slot: u32) -> &'b mut Binding {
    binding.clear();
    binding.extend_from_slice(state.binding(slot));
    binding
}

/// Existential probe that records which objects the witness bound.
/// `binding` binds the universal side and, for a pinned probe, some of
/// the witness's object variables (the check's `wit_objs`). True when a
/// witness exists; `witness` then holds its objects at every one of
/// those variables, pinned or not, in `wit_objs` order.
fn probe_recording(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    binding: &mut Binding,
    witness: &mut Vec<ObjId>,
) -> Result<bool, EvalError> {
    ctx.stats.existential_probes += 1;
    debug_assert!(
        binding.iter().enumerate().all(|(i, s)| {
            let v = VarId(i as u32);
            if st.plan.src_vars.contains(&v) {
                s.is_some()
            } else {
                s.is_none() || st.wit_objs.iter().any(|&(_, w)| w == v)
            }
        }),
        "a witness probe starts from a universal binding and pins witness objects at most"
    );
    let mut found = false;
    ctx.solve(rel, &st.plan.tgt_constraints, binding, &mut |ctx, b| {
        if let Some(w) = &rel.where_ {
            if !ctx.eval_bool(rel, w, b, st.plan.dir)? {
                return Ok(false);
            }
        }
        // A solution binds every object variable of the target pattern
        // to an object: the resolver admits none in attribute position.
        witness.clear();
        witness.extend(st.wit_objs.iter().map(|&(_, v)| match b[v.index()] {
            Some(Slot::Obj(o)) => o,
            _ => unreachable!("a witness binds its object variables to objects"),
        }));
        found = true;
        Ok(true) // stop at the first witness
    })?;
    Ok(found)
}

/// Universal-side partial update. A link edit is link-granular: a
/// deleted link drops the matches that read it, and an added one
/// enumerates the matches it completes. Any other edit drops the
/// matches binding the affected object (found through the `by_obj`
/// index — O(affected matches), not O(match state)), then re-enumerates
/// the join with the affected object pinned at each variable it can
/// bind.
#[allow(clippy::too_many_arguments)]
fn universal_update(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    state: &mut MatchState,
    model: DomIdx,
    op: &EditOp,
    affected: ObjId,
    live: &Model,
    scratch: &mut UpdateScratch,
) -> Result<(), EvalError> {
    let wit_objs = &st.wit_objs;
    match *op {
        EditOp::DelLink { src, r, dst } => {
            // Only a match that read the link loses it, and a deletion
            // completes no match.
            let stale = &mut scratch.stale;
            let reads = link_reads(rel, &st.plan.src_constraints, model, r);
            state.collect_slots_reading_link(wit_objs, reads, &st.plan.src_vars, src, dst, stale);
            for &slot in stale.iter() {
                state.remove(rel, wit_objs, slot);
            }
            return Ok(());
        }
        EditOp::AddLink { src, r, dst } => {
            // Every match stays, and a new one reads the new link: pin
            // both its endpoints at each read of `r`. A binding that
            // reads the link at an earlier read was found there.
            let reads = link_reads(rel, &st.plan.src_constraints, model, r);
            for (i, lr) in reads.clone().enumerate() {
                let binding = unbound(&mut scratch.binding, rel);
                if lr.pin(binding, src, dst) {
                    let earlier = reads.clone().take(i);
                    insert_matches(ctx, rel, st, state, binding, &mut scratch.witness, |b| {
                        earlier.clone().any(|e| e.reads(b, src, dst))
                    })?;
                }
            }
            return Ok(());
        }
        _ => {}
    }
    let stale = &mut scratch.stale;
    stale.clear();
    state.collect_slots_binding(model, affected, stale);
    stale.sort_unstable();
    stale.dedup();
    for &slot in stale.iter() {
        state.remove(rel, wit_objs, slot);
    }
    if !live.contains(affected) {
        return Ok(()); // deleted objects bind nothing
    }
    // Every re-enumerated binding pins the affected object, and no
    // surviving match binds it (it was just dropped). A binding that
    // holds it at an earlier pin was found there.
    let pins = st.uni_pins.iter().filter(|&&(pm, _)| pm == model);
    for (i, &(_, var)) in pins.clone().enumerate() {
        let binding = unbound(&mut scratch.binding, rel);
        binding[var.index()] = Some(Slot::Obj(affected));
        let earlier = pins.clone().take(i);
        insert_matches(ctx, rel, st, state, binding, &mut scratch.witness, |b| {
            earlier
                .clone()
                .any(|&(_, v)| b[v.index()] == Some(Slot::Obj(affected)))
        })?;
    }
    Ok(())
}

/// Enumerates the universal bindings extending `binding`, which pins an
/// edited object or link that no match of `state` reads, and inserts
/// each with its witness record — except those `found_before` names:
/// the bindings an earlier pin of the same edit enumerated (one object
/// at two pins, say both ends of a self-loop), which that pin inserted.
/// As no surviving match reads the pin, this is a complete dedup.
fn insert_matches(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    state: &mut MatchState,
    binding: &mut Binding,
    witness: &mut Vec<ObjId>,
    found_before: impl Fn(&[Option<Slot>]) -> bool,
) -> Result<(), EvalError> {
    ctx.solve(rel, &st.plan.src_constraints, binding, &mut |ctx, b| {
        ctx.stats.universal_bindings += 1;
        if let Some(when) = &rel.when {
            if !ctx.eval_bool(rel, when, b, st.plan.dir)? {
                return Ok(false);
            }
        }
        if found_before(b) {
            return Ok(false);
        }
        let witnessed = probe_recording(ctx, rel, st, b, witness)?;
        state.insert(rel, &st.wit_objs, b, witnessed.then_some(&witness[..]));
        Ok(false)
    })?;
    Ok(())
}

/// Witness-side partial update. A deleted link re-probes the witnesses
/// that read it; an added one keeps every witness and probes each
/// violation for a witness through it. Any other edit re-probes the
/// matches whose witness (or `where` clause) read the affected object —
/// found through the `by_wit` / `by_obj` indexes, O(affected matches)
/// instead of a full match-state sweep — and, for violations, probes
/// for a *new* witness with the affected object pinned, unless the edit
/// is purely destructive, in which case no new witness can exist. The
/// pin passes are inherently O(#violations), which is zero on a
/// consistent tuple.
#[allow(clippy::too_many_arguments)]
fn witness_update(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    state: &mut MatchState,
    model: DomIdx,
    o: ObjId,
    op: &EditOp,
    live: &Model,
    scratch: &mut UpdateScratch,
) -> Result<(), EvalError> {
    let wit_objs = &st.wit_objs;
    let witness = &mut scratch.witness;
    match *op {
        EditOp::DelLink { src, r, dst } => {
            let reprobe = &mut scratch.reprobe;
            let reads = link_reads(rel, &st.plan.tgt_constraints, model, r);
            state.collect_slots_reading_link(wit_objs, reads, &st.plan.src_vars, src, dst, reprobe);
            for &slot in reprobe.iter() {
                if state.witnessed(slot) {
                    let b = matched(&mut scratch.binding, state, slot);
                    let w = probe_recording(ctx, rel, st, b, witness)?;
                    state.set_witness(wit_objs, slot, w.then_some(&witness[..]));
                }
            }
            return Ok(());
        }
        EditOp::AddLink { src, r, dst } => {
            state.snapshot_violating(&mut scratch.violating_before);
            'violations: for &slot in &scratch.violating_before {
                for lr in link_reads(rel, &st.plan.tgt_constraints, model, r) {
                    let b = matched(&mut scratch.binding, state, slot);
                    if !lr.pin(b, src, dst) {
                        continue;
                    }
                    if probe_recording(ctx, rel, st, b, witness)? {
                        state.set_witness(wit_objs, slot, Some(witness));
                        continue 'violations;
                    }
                }
            }
            return Ok(());
        }
        _ => {}
    }
    let destructive = op.is_destructive_only();
    // Snapshot the violating set before any re-probe: pin-probing is
    // only for matches that were unwitnessed *and* untouched by the
    // re-probe pass (exactly the old sweep's else-branch).
    state.snapshot_violating(&mut scratch.violating_before);
    // Matches to fully re-probe: witnessed matches whose witness read
    // an affected object, plus any match whose witness side reads an
    // affected object through a universal-side variable (its `where`
    // clause, or its target pattern at a variable `when` binds).
    let reprobe = &mut scratch.reprobe;
    let hits = &mut scratch.hits;
    reprobe.clear();
    hits.clear();
    state.collect_slots_witnessing(model, o, hits);
    for &slot in hits.iter() {
        if state.witnessed(slot) {
            reprobe.push(slot);
        }
    }
    if !st.wit_uni_vars.is_empty() {
        hits.clear();
        state.collect_slots_binding(model, o, hits);
        for &slot in hits.iter() {
            let b = state.binding(slot);
            let read = st.wit_uni_vars.iter().any(|&v| {
                var_model(rel, v) == Some(model)
                    && matches!(b[v.index()], Some(Slot::Obj(x)) if x == o)
            });
            if read {
                reprobe.push(slot);
            }
        }
    }
    reprobe.sort_unstable();
    reprobe.dedup();
    for &slot in reprobe.iter() {
        let b = matched(&mut scratch.binding, state, slot);
        let w = probe_recording(ctx, rel, st, b, witness)?;
        state.set_witness(wit_objs, slot, w.then_some(&witness[..]));
    }
    if destructive || !live.contains(o) {
        return Ok(());
    }
    'violations: for &slot in &scratch.violating_before {
        if scratch.reprobe.binary_search(&slot).is_ok() {
            continue; // already fully re-probed above
        }
        for &(pm, var) in &st.wit_pins {
            if pm != model {
                continue;
            }
            let b = matched(&mut scratch.binding, state, slot);
            b[var.index()] = Some(Slot::Obj(o));
            if probe_recording(ctx, rel, st, b, witness)? {
                state.set_witness(wit_objs, slot, Some(witness));
                continue 'violations;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
    use mmt_model::text::{parse_metamodel, parse_model};
    use mmt_model::{Metamodel, Sym, Value};
    use mmt_qvtr::parse_and_resolve;
    use std::sync::Arc;

    fn metamodels() -> (Arc<Metamodel>, Arc<Metamodel>) {
        let cf = parse_metamodel("metamodel CF { class Feature { attr name: Str; } }").unwrap();
        let fm = parse_metamodel(
            "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }",
        )
        .unwrap();
        (cf, fm)
    }

    const MF_EXT: &str = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  top relation MF {
    n : Str;
    domain cf1 s1 : Feature { name = n };
    domain cf2 s2 : Feature { name = n };
    domain fm  f  : Feature { name = n, mandatory = true };
    depend cf1 cf2 -> fm;
    depend fm -> cf1 cf2;
  }
  top relation OF {
    m : Str;
    domain cf1 t1 : Feature { name = m };
    domain cf2 t2 : Feature { name = m };
    domain fm  g  : Feature { name = m };
    depend cf1 | cf2 -> fm;
  }
}
"#;

    fn cf_model(cf: &Arc<Metamodel>, name: &str, feats: &[&str]) -> Model {
        let mut body = String::new();
        for (i, f) in feats.iter().enumerate() {
            body.push_str(&format!("f{i} = Feature {{ name = \"{f}\" }}\n"));
        }
        parse_model(&format!("model {name} : CF {{ {body} }}"), cf).unwrap()
    }

    fn fm_model(fm: &Arc<Metamodel>, feats: &[(&str, bool)]) -> Model {
        let mut body = String::new();
        for (i, (f, m)) in feats.iter().enumerate() {
            body.push_str(&format!(
                "f{i} = Feature {{ name = \"{f}\", mandatory = {m} }}\n"
            ));
        }
        parse_model(&format!("model fm : FM {{ {body} }}"), fm).unwrap()
    }

    /// Asserts the incremental checker and a from-scratch [`Checker`]
    /// agree on the current models: same per-check verdicts and the same
    /// violation multiset (compared order-insensitively). Each match
    /// state's inverted indexes must also agree with its rows.
    fn assert_agrees(checker: &DeltaChecker, ctx: &str) {
        for c in &checker.checks {
            let rel = checker.hir().relation(c.statics.rel);
            c.state.assert_indexes(rel, &c.statics.wit_objs);
        }
        let opts = CheckOptions {
            max_violations: usize::MAX,
            ..CheckOptions::default()
        };
        let scratch = Checker::with_options(checker.hir(), checker.models(), opts)
            .unwrap()
            .check()
            .unwrap();
        let inc = checker.report();
        assert_eq!(inc.checks.len(), scratch.checks.len(), "{ctx}");
        for (a, b) in inc.checks.iter().zip(&scratch.checks) {
            assert_eq!(a.relation, b.relation, "{ctx}");
            assert_eq!(a.dep, b.dep, "{ctx}");
            assert_eq!(
                a.holds, b.holds,
                "{ctx}: {} {} disagree\nincremental:\n{inc}\nscratch:\n{scratch}",
                a.relation_name, a.dep
            );
            let mut va: Vec<String> = a.violations.iter().map(|v| v.to_string()).collect();
            let mut vb: Vec<String> = b.violations.iter().map(|v| v.to_string()).collect();
            va.sort();
            vb.sort();
            assert_eq!(va, vb, "{ctx}: {} {}", a.relation_name, a.dep);
        }
        assert_eq!(inc.consistent(), scratch.consistent(), "{ctx}");
    }

    fn delta_checker(hir: &Arc<Hir>, models: &[Model]) -> DeltaChecker {
        DeltaChecker::with_options(
            hir,
            models,
            CheckOptions {
                max_violations: usize::MAX,
                ..CheckOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn initial_state_matches_scratch_checker() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine", "gps"]),
            fm_model(&fm, &[("engine", true), ("radio", false)]),
        ];
        let checker = delta_checker(&hir, &models);
        assert_agrees(&checker, "initial");
    }

    #[test]
    fn attribute_edits_track_scratch_checker() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine", "gps"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true), ("gps", false)]),
        ];
        let mut checker = delta_checker(&hir, &models);
        let feature_fm = fm.class_named("Feature").unwrap();
        let mand = fm.attr_of(feature_fm, Sym::new("mandatory")).unwrap();
        let name_fm = fm.attr_of(feature_fm, Sym::new("name")).unwrap();
        let feature_cf = cf.class_named("Feature").unwrap();
        let name_cf = cf.attr_of(feature_cf, Sym::new("name")).unwrap();
        // Flip gps to mandatory in FM (witness side of CF→FM, universal
        // side of FM→CF), then rename in cf1, then rename back.
        let edits: Vec<(DomIdx, EditOp)> = vec![
            (
                DomIdx(2),
                EditOp::SetAttr {
                    id: ObjId(1),
                    attr: mand,
                    value: Value::Bool(true),
                    old: Value::Bool(false),
                },
            ),
            (
                DomIdx(0),
                EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name_cf,
                    value: Value::str("motor"),
                    old: Value::str("engine"),
                },
            ),
            (
                DomIdx(2),
                EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name_fm,
                    value: Value::str("motor"),
                    old: Value::str("engine"),
                },
            ),
            (
                DomIdx(0),
                EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name_cf,
                    value: Value::str("engine"),
                    old: Value::str("motor"),
                },
            ),
        ];
        for (i, (m, op)) in edits.into_iter().enumerate() {
            checker.apply(m, &op).unwrap();
            assert_agrees(&checker, &format!("after edit {i}"));
        }
        // The untouched-check counter moved: some edits must have skipped
        // checks entirely.
        assert!(checker.delta_stats().checks_skipped > 0);
    }

    #[test]
    fn object_edits_track_scratch_checker() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let mut checker = delta_checker(&hir, &models);
        let feature_fm = fm.class_named("Feature").unwrap();
        let name_fm = fm.attr_of(feature_fm, Sym::new("name")).unwrap();
        let mand = fm.attr_of(feature_fm, Sym::new("mandatory")).unwrap();
        // Add a fresh mandatory FM feature (the §3 injection) ...
        let fresh = ObjId(checker.models()[2].id_bound() as u32);
        checker
            .apply(
                DomIdx(2),
                &EditOp::AddObj {
                    id: fresh,
                    class: feature_fm,
                },
            )
            .unwrap();
        assert_agrees(&checker, "after add");
        checker
            .apply(
                DomIdx(2),
                &EditOp::SetAttr {
                    id: fresh,
                    attr: name_fm,
                    value: Value::str("brakes"),
                    old: Value::str(""),
                },
            )
            .unwrap();
        assert_agrees(&checker, "after name");
        checker
            .apply(
                DomIdx(2),
                &EditOp::SetAttr {
                    id: fresh,
                    attr: mand,
                    value: Value::Bool(true),
                    old: Value::Bool(false),
                },
            )
            .unwrap();
        assert_agrees(&checker, "after mandatory");
        assert!(!checker.consistent());
        // ... then delete it again: consistency is restored.
        checker
            .apply(
                DomIdx(2),
                &EditOp::DelObj {
                    id: fresh,
                    class: feature_fm,
                },
            )
            .unwrap();
        assert_agrees(&checker, "after delete");
        assert!(checker.consistent());
    }

    #[test]
    fn link_edits_track_scratch_checker() {
        // Containment joins: UML classes/attributes vs RDB tables/columns.
        let uml = parse_metamodel(
            "metamodel UML { class Class { attr name: Str; ref attrs: Attribute [0..*] containment; } class Attribute { attr name: Str; } }",
        )
        .unwrap();
        let rdb = parse_metamodel(
            "metamodel RDB { class Table { attr name: Str; ref cols: Column [0..*] containment; } class Column { attr name: Str; } }",
        )
        .unwrap();
        let src = r#"
transformation C2T(uml : UML, rdb : RDB) {
  top relation AttrToCol {
    cn, an : Str;
    domain uml c : Class { name = cn, attrs = a : Attribute { name = an } };
    domain rdb t : Table { name = cn, cols = col : Column { name = an } };
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(src, &[uml.clone(), rdb.clone()]).unwrap());
        let m_uml = parse_model(
            r#"model u : UML {
                a1 = Attribute { name = "id" }
                c1 = Class { name = "Person", attrs = [a1] }
            }"#,
            &uml,
        )
        .unwrap();
        let m_rdb = parse_model(
            r#"model r : RDB {
                col1 = Column { name = "id" }
                t1 = Table { name = "Person" }
            }"#,
            &rdb,
        )
        .unwrap();
        let table = rdb.class_named("Table").unwrap();
        let cols = rdb.ref_of(table, Sym::new("cols")).unwrap();
        let mut checker = delta_checker(&hir, &[m_uml, m_rdb]);
        assert_agrees(&checker, "initial (missing link)");
        assert!(!checker.consistent());
        // Adding the Table→Column link repairs the uml→rdb direction.
        checker
            .apply(
                DomIdx(1),
                &EditOp::AddLink {
                    src: ObjId(1),
                    r: cols,
                    dst: ObjId(0),
                },
            )
            .unwrap();
        assert_agrees(&checker, "after add link");
        assert!(checker.consistent());
        // Removing it breaks the check again.
        checker
            .apply(
                DomIdx(1),
                &EditOp::DelLink {
                    src: ObjId(1),
                    r: cols,
                    dst: ObjId(0),
                },
            )
            .unwrap();
        assert_agrees(&checker, "after del link");
        assert!(!checker.consistent());
        // Re-add, then delete the column: the scrub invalidates the
        // witness through the incoming-link read.
        checker
            .apply(
                DomIdx(1),
                &EditOp::AddLink {
                    src: ObjId(1),
                    r: cols,
                    dst: ObjId(0),
                },
            )
            .unwrap();
        let column = rdb.class_named("Column").unwrap();
        checker
            .apply(
                DomIdx(1),
                &EditOp::DelObj {
                    id: ObjId(0),
                    class: column,
                },
            )
            .unwrap();
        assert_agrees(&checker, "after del column");
        assert!(!checker.consistent());
    }

    #[test]
    fn call_reachable_edits_fall_back_to_full_reeval() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  relation SameName {
    m : Str;
    domain cf1 a : Feature { name = m };
    domain fm  b : Feature { name = m };
    depend cf1 -> fm;
  }
  top relation R {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n };
    where { SameName(s, f) }
    depend cf1 -> fm;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let mut checker = delta_checker(&hir, &models);
        assert_agrees(&checker, "initial");
        let feature_fm = fm.class_named("Feature").unwrap();
        let name_fm = fm.attr_of(feature_fm, Sym::new("name")).unwrap();
        checker
            .apply(
                DomIdx(2),
                &EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name_fm,
                    value: Value::str("motor"),
                    old: Value::str("engine"),
                },
            )
            .unwrap();
        assert_agrees(&checker, "after rename under call");
        assert!(checker.delta_stats().full_reevals > 0);
    }

    #[test]
    fn noop_edits_touch_nothing() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let mut checker = delta_checker(&hir, &models);
        let feature_fm = fm.class_named("Feature").unwrap();
        let mand = fm.attr_of(feature_fm, Sym::new("mandatory")).unwrap();
        checker
            .apply(
                DomIdx(2),
                &EditOp::SetAttr {
                    id: ObjId(0),
                    attr: mand,
                    value: Value::Bool(true),
                    old: Value::Bool(true),
                },
            )
            .unwrap();
        assert_eq!(checker.delta_stats().edits, 0);
        assert_agrees(&checker, "after noop");
    }

    #[test]
    fn binding_errors_surface_at_construction() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap());
        let short = [cf_model(&cf, "cf1", &[])];
        assert!(matches!(
            DeltaChecker::new(&hir, &short),
            Err(DeltaError::Check(CheckError::ModelCountMismatch { .. }))
        ));
        let wrong = [
            cf_model(&cf, "cf1", &[]),
            fm_model(&fm, &[]),
            fm_model(&fm, &[]),
        ];
        assert!(matches!(
            DeltaChecker::new(&hir, &wrong),
            Err(DeltaError::Check(CheckError::MetamodelMismatch { .. }))
        ));
    }

    #[test]
    fn bad_edit_leaves_tuple_unchanged() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let mut checker = delta_checker(&hir, &models);
        let feature_fm = fm.class_named("Feature").unwrap();
        let err = checker.apply(
            DomIdx(2),
            &EditOp::DelObj {
                id: ObjId(99),
                class: feature_fm,
            },
        );
        assert!(matches!(err, Err(DeltaError::Model(_))));
        assert!(checker.models()[2].graph_eq(&models[2]));
        assert_agrees(&checker, "after failed edit");
    }

    /// Applies every edit, then every undo in reverse order, comparing
    /// the checker with a from-scratch one after each step.
    fn replay_with_undo(checker: &mut DeltaChecker, edits: &[(DomIdx, EditOp)]) {
        for (i, (m, op)) in edits.iter().enumerate() {
            checker.apply(*m, op).unwrap();
            assert_agrees(checker, &format!("after edit {i}: {op:?}"));
        }
        for (i, (m, op)) in edits.iter().enumerate().rev() {
            checker.apply(*m, &op.inverse()).unwrap();
            assert_agrees(checker, &format!("after undoing edit {i}: {op:?}"));
        }
    }

    /// Model text of `n` `N` nodes named `x0`, `x1`, `x2`, `x0`, …, each
    /// linked through `r` to the next two: some 2n links, so at n = 50
    /// a match state holds about a hundred matches and its buckets hold
    /// several slots each.
    fn chain(name: &str, meta: &str, class: &str, r: &str, n: usize) -> String {
        let mut body = String::new();
        for i in 0..n {
            let kids: Vec<String> = (i + 1..n.min(i + 3)).map(|k| format!("n{k}")).collect();
            body.push_str(&format!(
                "n{i} = {class} {{ name = \"x{}\", {r} = [{}] }}\n",
                i % 3,
                kids.join(", ")
            ));
        }
        format!("model {name} : {meta} {{\n{body}}}")
    }

    fn link(src: u32, r: RefId, dst: u32) -> (EditOp, EditOp) {
        let (src, dst) = (ObjId(src), ObjId(dst));
        (
            EditOp::AddLink { src, r, dst },
            EditOp::DelLink { src, r, dst },
        )
    }

    /// Link edits on a self-loop, where one object is both ends of the
    /// link, on either side of both directions, over a few matches and
    /// over about a hundred.
    #[test]
    fn self_loop_link_edits_track_scratch_checker() {
        let g =
            parse_metamodel("metamodel G { class N { attr name: Str; ref kids: N; } }").unwrap();
        let spec = r#"
transformation T(g1 : G, g2 : G) {
  top relation R {
    n, m : Str;
    domain g1 p : N { name = n, kids = c : N { name = m } };
    domain g2 q : N { name = n, kids = d : N { name = m } };
    depend g1 -> g2;
    depend g2 -> g1;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(spec, &[g.clone(), g.clone()]).unwrap());
        let kids = g
            .ref_of(g.class_named("N").unwrap(), Sym::new("kids"))
            .unwrap();
        for n in [4usize, 50] {
            let models = [
                parse_model(&chain("g1", "G", "N", "kids", n), &g).unwrap(),
                parse_model(&chain("g2", "G", "N", "kids", n), &g).unwrap(),
            ];
            let mut checker = delta_checker(&hir, &models);
            assert_agrees(&checker, "initial");
            let mut edits = Vec::new();
            for m in [DomIdx(0), DomIdx(1)] {
                // Self-loops on a node: added, then removed again.
                let (add, del) = link(0, kids, 0);
                edits.extend([(m, add), (m, del)]);
                let (add, _) = link(3, kids, 3);
                edits.push((m, add));
                // An existing link removed, a fresh one added.
                let (_, del) = link(1, kids, 2);
                edits.push((m, del));
                let (add, _) = link(2, kids, 0);
                edits.push((m, add));
            }
            replay_with_undo(&mut checker, &edits);
        }
    }

    /// Two `RefContains` over one reference in one pattern: a link edit
    /// can complete or break a binding at either of them, or at both
    /// when the link is a self-loop.
    #[test]
    fn two_reads_of_one_reference_track_scratch_checker() {
        let g =
            parse_metamodel("metamodel G { class N { attr name: Str; ref kids: N; } }").unwrap();
        let h = parse_metamodel("metamodel H { class P { attr a: Str; attr b: Str; } }").unwrap();
        let spec = r#"
transformation T(g : G, h : H) {
  top relation Grand {
    n, m : Str;
    domain g x : N { name = n, kids = y : N { kids = z : N { name = m } } };
    domain h p : P { a = n, b = m };
    depend g -> h;
    depend h -> g;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(spec, &[g.clone(), h.clone()]).unwrap());
        let kids = g
            .ref_of(g.class_named("N").unwrap(), Sym::new("kids"))
            .unwrap();
        for n in [5usize, 50] {
            let mut pairs = String::new();
            for i in 0..n {
                pairs.push_str(&format!(
                    "p{i} = P {{ a = \"x{}\", b = \"x{}\" }}\n",
                    i % 3,
                    (i + 1) % 3
                ));
            }
            let models = [
                parse_model(&chain("g", "G", "N", "kids", n), &g).unwrap(),
                parse_model(&format!("model h : H {{\n{pairs}}}"), &h).unwrap(),
            ];
            let mut checker = delta_checker(&hir, &models);
            assert_agrees(&checker, "initial");
            let mut edits = Vec::new();
            for (src, dst) in [(0, 0), (1, 1), (2, 0), (4, 1)] {
                edits.push((DomIdx(0), link(src, kids, dst).0));
            }
            for (src, dst) in [(1, 2), (0, 1), (2, 3)] {
                edits.push((DomIdx(0), link(src, kids, dst).1));
            }
            replay_with_undo(&mut checker, &edits);
        }
    }

    /// A reference declared on an abstract supertype, read by patterns
    /// over two of its subclasses: a link between objects of the wrong
    /// subclasses completes no binding and breaks no witness.
    #[test]
    fn reference_declared_on_a_supertype_tracks_scratch_checker() {
        let s = parse_metamodel(
            "metamodel S { abstract class Named { attr name: Str; ref kids: Named [0..*]; } \
             class A extends Named { } class B extends Named { } }",
        )
        .unwrap();
        let spec = r#"
transformation T(s1 : S, s2 : S) {
  top relation AB {
    n : Str;
    domain s1 a : A { name = n, kids = b : B { name = n } };
    domain s2 c : A { name = n, kids = d : B { name = n } };
    depend s1 -> s2;
    depend s2 -> s1;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(spec, &[s.clone(), s.clone()]).unwrap());
        let named = s.class_named("Named").unwrap();
        let kids = s.ref_of(named, Sym::new("kids")).unwrap();
        let text = |name: &str| {
            format!(
                r#"model {name} : S {{
                    a0 = A {{ name = "k", kids = [b0] }}
                    b0 = B {{ name = "k" }}
                    a1 = A {{ name = "k" }}
                    b1 = B {{ name = "k", kids = [a0] }}
                }}"#
            )
        };
        let models = [
            parse_model(&text("s1"), &s).unwrap(),
            parse_model(&text("s2"), &s).unwrap(),
        ];
        let mut checker = delta_checker(&hir, &models);
        assert_agrees(&checker, "initial");
        let mut edits = Vec::new();
        for m in [DomIdx(0), DomIdx(1)] {
            // B → A and B → B are links of `kids` that no pattern reads.
            edits.push((m, link(3, kids, 2).0));
            edits.push((m, link(3, kids, 3).0));
            edits.push((m, link(3, kids, 0).1));
            // A → B completes a binding; removing A → B breaks one.
            edits.push((m, link(2, kids, 1).0));
            edits.push((m, link(0, kids, 1).1));
        }
        replay_with_undo(&mut checker, &edits);
    }

    /// C2T's two directions over one link edit: in `uml → rdb` the
    /// unlinked attribute's match is the universal side, in
    /// `rdb → uml` the column's witness read the link. The removal
    /// enumerates nothing and re-probes only that witness; the undo
    /// enumerates the one binding the link completes and probes the
    /// one violation through it.
    #[test]
    fn link_edits_in_both_directions_are_link_granular() {
        let uml = parse_metamodel(
            "metamodel UML { class Class { attr name: Str; ref attrs: Attribute [0..*] containment; } class Attribute { attr name: Str; } }",
        )
        .unwrap();
        let rdb = parse_metamodel(
            "metamodel RDB { class Table { attr name: Str; ref cols: Column [0..*] containment; } class Column { attr name: Str; } }",
        )
        .unwrap();
        let spec = r#"
transformation C2T(uml : UML, rdb : RDB) {
  top relation AttrToCol {
    cn, an : Str;
    domain uml c : Class { name = cn, attrs = a : Attribute { name = an } };
    domain rdb t : Table { name = cn, cols = col : Column { name = an } };
    depend uml -> rdb;
    depend rdb -> uml;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(spec, &[uml.clone(), rdb.clone()]).unwrap());
        let attrs = uml
            .ref_of(uml.class_named("Class").unwrap(), Sym::new("attrs"))
            .unwrap();
        let cols = rdb
            .ref_of(rdb.class_named("Table").unwrap(), Sym::new("cols"))
            .unwrap();
        for classes in [2usize, 30] {
            let side = |name: &str, meta: &str, outer: &str, inner: &str, r: &str| {
                let mut body = String::new();
                for c in 0..classes {
                    let members: Vec<String> = (0..3).map(|a| format!("m{c}_{a}")).collect();
                    body.push_str(&format!(
                        "o{c} = {outer} {{ name = \"C{c}\", {r} = [{}] }}\n",
                        members.join(", ")
                    ));
                    for a in 0..3 {
                        body.push_str(&format!("m{c}_{a} = {inner} {{ name = \"f{a}\" }}\n"));
                    }
                }
                format!("model {name} : {meta} {{\n{body}}}")
            };
            let models = [
                parse_model(&side("u", "UML", "Class", "Attribute", "attrs"), &uml).unwrap(),
                parse_model(&side("r", "RDB", "Table", "Column", "cols"), &rdb).unwrap(),
            ];
            let mut checker = delta_checker(&hir, &models);
            assert!(checker.consistent());
            // Class 1 is object 4, its attributes 5–7.
            for (m, r) in [(DomIdx(0), attrs), (DomIdx(1), cols)] {
                let (add, del) = link(4, r, 6);
                let before = checker.report().stats;
                checker.apply(m, &del).unwrap();
                let after = checker.report().stats;
                assert_agrees(&checker, &format!("{classes} classes: unlinked"));
                assert_eq!(checker.violation_count(), 1);
                assert_eq!(after.universal_bindings, before.universal_bindings);
                assert_eq!(after.existential_probes - before.existential_probes, 1);
                checker.apply(m, &add).unwrap();
                let again = checker.report().stats;
                assert_agrees(&checker, &format!("{classes} classes: relinked"));
                assert!(checker.consistent());
                assert_eq!(again.universal_bindings - after.universal_bindings, 1);
                assert_eq!(again.existential_probes - after.existential_probes, 2);
                // Moving an attribute to another class: both directions
                // change, and the undo restores them.
                let edits = [(m, link(0, r, 6).0), (m, link(4, r, 6).1)];
                replay_with_undo(&mut checker, &edits);
            }
        }
    }

    /// A target-domain variable that `when` reads is bound by the
    /// universal side, so the witness reads that object through the
    /// binding, not through its record: renaming it must re-probe the
    /// matches that bind it, and a violation must not be pinned at it.
    #[test]
    fn when_bound_target_variables_track_scratch_checker() {
        let a = parse_metamodel("metamodel A { class P { attr name: Str; } }").unwrap();
        let b = parse_metamodel("metamodel B { class Q { attr name: Str; attr flag: Bool; } }")
            .unwrap();
        let spec = r#"
transformation T(a : A, b : B) {
  top relation R {
    n : Str;
    domain a p : P { name = n };
    domain b q : Q { name = n };
    when { q.flag }
    depend a -> b;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(spec, &[a.clone(), b.clone()]).unwrap());
        let ma = parse_model(r#"model a : A { p = P { name = "x" } }"#, &a).unwrap();
        let mb = parse_model(
            r#"model b : B { q = Q { name = "x", flag = true } r = Q { name = "z", flag = true } }"#,
            &b,
        )
        .unwrap();
        let mut checker = delta_checker(&hir, &[ma, mb]);
        assert_agrees(&checker, "initial");
        let name = b
            .attr_of(b.class_named("Q").unwrap(), Sym::new("name"))
            .unwrap();
        let rename = |id: u32, value: &str, old: &str| EditOp::SetAttr {
            id: ObjId(id),
            attr: name,
            value: Value::str(value),
            old: Value::str(old),
        };
        let edits = [
            (DomIdx(1), rename(0, "y", "x")),
            (DomIdx(1), rename(1, "x", "z")),
        ];
        replay_with_undo(&mut checker, &edits);
    }

    /// Pins the `universal_update` dedup: a binding that binds the
    /// edited object at two *different* pins must not be inserted twice.
    /// Linking `p0` to itself adds `(p = p0, c = p0)` through the one
    /// read of `kids`; renaming `p0` then re-finds it through the `p`
    /// pin *and* the `c` pin. A duplicate would double-count the
    /// violation and break the differential report below.
    #[test]
    fn universal_update_dedups_across_pins() {
        let g =
            parse_metamodel("metamodel G { class N { attr name: Str; ref kids: N; } }").unwrap();
        let h = parse_metamodel("metamodel H { class N { attr name: Str; } }").unwrap();
        let spec = r#"
transformation T(g1 : G, g2 : H) {
  top relation R {
    n, m : Str;
    domain g1 p : N { name = n, kids = c : N { name = m } };
    domain g2 q : N { name = n };
    depend g1 -> g2;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(spec, &[g.clone(), h.clone()]).unwrap());
        let m1 = parse_model(
            r#"model g1 : G {
                p0 = N { name = "a", kids = [p1, x] }
                p1 = N { name = "b", kids = [x] }
                x  = N { name = "x" }
            }"#,
            &g,
        )
        .unwrap();
        // g2 is empty: every (p, c) binding violates, so a duplicate
        // would surface as a doubled violation in the report.
        let m2 = parse_model("model g2 : H { }", &h).unwrap();
        let mut checker = delta_checker(&hir, &[m1, m2]);
        let kids = g
            .ref_of(g.class_named("N").unwrap(), mmt_model::Sym::new("kids"))
            .unwrap();
        checker
            .apply(
                DomIdx(0),
                &EditOp::AddLink {
                    src: ObjId(0),
                    r: kids,
                    dst: ObjId(0),
                },
            )
            .unwrap();
        let assert_no_duplicate = |checker: &DeltaChecker| {
            for c in &checker.checks {
                let mut seen: std::collections::HashSet<&[Option<Slot>]> =
                    std::collections::HashSet::new();
                for slot in c.state.live_slots() {
                    assert!(
                        seen.insert(c.state.binding(slot)),
                        "duplicate match after multi-pin re-enumeration"
                    );
                }
            }
        };
        assert_no_duplicate(&checker);
        // (p0, p1), (p0, x), (p1, x) and the self-loop (p0, p0), each
        // once and unwitnessed.
        assert_eq!(checker.violation_count(), 4);
        assert_agrees(&checker, "after a self-loop bound through two pins");
        // Renaming p0 re-enumerates from the `p` pin and the `c` pin,
        // and both find (p0, p0).
        let name = g
            .attr_of(g.class_named("N").unwrap(), mmt_model::Sym::new("name"))
            .unwrap();
        checker
            .apply(
                DomIdx(0),
                &EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name,
                    value: Value::str("z"),
                    old: Value::str("a"),
                },
            )
            .unwrap();
        assert_no_duplicate(&checker);
        assert_eq!(checker.violation_count(), 4);
        assert_agrees(&checker, "after renaming the object at both pins");
    }
}
