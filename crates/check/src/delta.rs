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
//! check leaves it untouched. An edit that hits only one side triggers a
//! *partial* update at object granularity:
//!
//! * universal side — matches binding an edited object are dropped and
//!   re-enumerated with the edited object *pinned*, so only the join
//!   slice through that object is recomputed (a fresh universal match
//!   must bind the edited object, because every pattern read is a read
//!   of a bound object's slots);
//! * witness side — a surviving witness is re-probed only when it bound
//!   an edited object (or the `where` clause reads one); a violation is
//!   re-probed with the edited object pinned into the target pattern,
//!   because under the positive pattern language a *new* witness must
//!   bind it. Purely destructive edits ([`EditOp::is_destructive_only`])
//!   skip the violation re-probe entirely — deletions never create
//!   witnesses.
//!
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

use crate::eval::{plan_check, Binding, CheckPlan, EvalCtx, EvalError, EvalStats, Slot};
use crate::footprint::{footprints_for, var_model, Footprint};
use crate::index::ModelIndex;
use crate::{CheckError, CheckOptions, CheckReport, DirectionalOutcome, ViolationBinding};
use mmt_deps::{Dep, DomIdx};
use mmt_dist::{Delta, EditOp};
use mmt_model::fx::{FxHashMap, FxHashSet};
use mmt_model::{ClassId, Model, ModelError, ObjId, RefId};
use mmt_qvtr::{Constraint, Hir, HirRelation, RelId, VarId};
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

/// Incremental-update statistics (exposed for the ablation benches).
#[derive(Clone, Copy, Default, Debug)]
pub struct DeltaStats {
    /// Edits applied (no-op edits excluded).
    pub edits: u64,
    /// Directional checks an edit left untouched (footprint miss).
    pub checks_skipped: u64,
    /// Partial (object-granular) check updates performed.
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
    /// Witness-side object variables, with their models.
    wit_pins: Vec<(DomIdx, VarId)>,
    /// Universal-side object variables the `where` clause reads.
    where_uni_vars: Vec<VarId>,
    /// Per-model universal footprint (source patterns + `when`).
    uni_fp: Vec<Footprint>,
    /// Per-model witness footprint (target pattern + `where`).
    wit_fp: Vec<Footprint>,
    /// Per-model footprint of everything reachable through calls.
    call_fp: Vec<Footprint>,
}

/// One universal binding with its witness state: the heart of the
/// incremental representation. `witness_objs` is the witness's read-set
/// at object granularity — the objects the existential side bound.
#[derive(Clone, Debug)]
struct MatchEntry {
    binding: Binding,
    witnessed: bool,
    witness_objs: Vec<(DomIdx, ObjId)>,
}

/// One directional check: shared statics plus the live match state.
#[derive(Clone, Debug)]
struct CachedCheck {
    statics: Arc<CheckStatics>,
    state: MatchState,
}

/// The live match state of one check, keyed by object so a partial
/// update touches only the entries an edit can affect.
///
/// Entries live in a slab (`None` slots are free, reused LIFO). Once
/// the state grows past [`INDEX_THRESHOLD`] live entries it maintains
/// two inverted indexes: `by_obj` maps `(model, object)` to the slots
/// whose *universal binding* binds that object — the entries a
/// universal-side edit invalidates and the candidates a `where`-clause
/// read can re-key — and `by_wit` maps `(model, object)` to the slots
/// whose *witness* read that object. Below the threshold the maps stay
/// empty and lookups scan the slab directly: for the tiny match states
/// of interactive sessions the scan is cheaper than the hashing and
/// per-bucket allocations (and makes forking the state a pair of
/// memcpys). The switch is one-way: a state that has been indexed stays
/// indexed, even after undo edits shrink it again.
///
/// The violation count is a plain counter (`n_violating`), maintained
/// as an incremental delta at every mutation — never recomputed by
/// scanning (debug builds assert it against a scan after each update).
/// The sorted `violating` slot vec exists only in indexed mode: below
/// [`INDEX_THRESHOLD`] a slab scan enumerates violations just as fast,
/// and skipping the vec keeps the per-check mutation path free of its
/// memmoves and heap allocation — maintaining it unconditionally was
/// measured at a 15–20% warm-session checkpoint regression.
#[derive(Clone, Debug, Default)]
struct MatchState {
    slab: Vec<Option<MatchEntry>>,
    free: Vec<u32>,
    /// Whether the inverted indexes are live (see type docs).
    indexed: bool,
    /// `(model, object)` → slots whose universal binding binds it.
    by_obj: FxHashMap<(DomIdx, ObjId), Vec<u32>>,
    /// `(model, object)` → slots whose witness read it.
    by_wit: FxHashMap<(DomIdx, ObjId), Vec<u32>>,
    /// Currently unwitnessed slots, ascending — indexed mode only;
    /// empty below the threshold (the slab scan serves instead).
    violating: Vec<u32>,
    /// Count of currently unwitnessed live entries, always maintained.
    n_violating: usize,
}

/// Live-entry count past which a [`MatchState`] builds and maintains
/// its inverted indexes instead of scanning the slab.
const INDEX_THRESHOLD: usize = 64;

/// The universal-side object variables a binding binds, with their
/// models — the `by_obj` keys of one entry.
fn binding_objs<'a>(
    rel: &'a HirRelation,
    binding: &'a Binding,
) -> impl Iterator<Item = (DomIdx, ObjId)> + 'a {
    binding
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| match slot {
            Some(Slot::Obj(o)) => var_model(rel, VarId(i as u32)).map(|m| (m, *o)),
            _ => None,
        })
}

impl MatchState {
    fn from_entries(rel: &HirRelation, entries: Vec<MatchEntry>) -> MatchState {
        let mut state = MatchState::default();
        // An eighth of growth headroom: reserving the exact entry count
        // would leave the slab full, and the first constructive edit
        // after a large build would pay a whole-slab realloc-and-move
        // (tens of MB of fresh pages at 10⁶ objects — a multi-ms spike
        // masquerading as per-edit cost).
        state.slab.reserve(entries.len() + entries.len() / 8 + 16);
        for e in entries {
            state.insert(rel, e);
        }
        state
    }

    fn violations(&self) -> usize {
        self.n_violating
    }

    fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    fn entry(&self, slot: u32) -> &MatchEntry {
        self.slab[slot as usize].as_ref().expect("live slot")
    }

    /// Records `slot` turning unwitnessed: bumps the counter and, in
    /// indexed mode, keeps the slot vec sorted. Callers invoke this
    /// only on a genuine witnessed→unwitnessed transition (or a fresh
    /// unwitnessed insert), so no idempotency check is needed for the
    /// counter.
    fn mark_violating(&mut self, slot: u32) {
        self.n_violating += 1;
        if self.indexed {
            if let Err(pos) = self.violating.binary_search(&slot) {
                self.violating.insert(pos, slot);
            }
        }
    }

    /// Records `slot` leaving the violating set — the inverse of
    /// [`MatchState::mark_violating`], with the same only-on-transition
    /// contract.
    fn clear_violating(&mut self, slot: u32) {
        self.n_violating -= 1;
        if self.indexed {
            if let Ok(pos) = self.violating.binary_search(&slot) {
                self.violating.remove(pos);
            }
        }
    }

    /// Builds the inverted indexes from the slab and flips the state to
    /// indexed mode — called once, when the live count first crosses
    /// [`INDEX_THRESHOLD`].
    fn build_indexes(&mut self, rel: &HirRelation) {
        self.indexed = true;
        for (slot, e) in self.slab.iter().enumerate() {
            let Some(e) = e else { continue };
            let slot = slot as u32;
            for key in binding_objs(rel, &e.binding) {
                register(&mut self.by_obj, key, slot);
            }
            for &(m, o) in &e.witness_objs {
                register(&mut self.by_wit, (m, o), slot);
            }
            // The violating slot vec springs to life with the indexes;
            // the ascending slab walk keeps it sorted by construction.
            if !e.witnessed {
                self.violating.push(slot);
            }
        }
    }

    fn insert(&mut self, rel: &HirRelation, entry: MatchEntry) {
        if !self.indexed && self.live() >= INDEX_THRESHOLD {
            self.build_indexes(rel);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slab.push(None);
                (self.slab.len() - 1) as u32
            }
        };
        if self.indexed {
            for key in binding_objs(rel, &entry.binding) {
                register(&mut self.by_obj, key, slot);
            }
            for &(m, o) in &entry.witness_objs {
                register(&mut self.by_wit, (m, o), slot);
            }
        }
        if !entry.witnessed {
            self.mark_violating(slot);
        }
        self.slab[slot as usize] = Some(entry);
    }

    fn remove(&mut self, rel: &HirRelation, slot: u32) {
        let entry = self.slab[slot as usize].take().expect("live slot");
        if self.indexed {
            for key in binding_objs(rel, &entry.binding) {
                unregister(&mut self.by_obj, key, slot);
            }
            for &(m, o) in &entry.witness_objs {
                unregister(&mut self.by_wit, (m, o), slot);
            }
        }
        if !entry.witnessed {
            self.clear_violating(slot);
        }
        self.free.push(slot);
    }

    /// Replaces one entry's witness record, re-keying `by_wit` (when
    /// indexed) and updating the violation set as a delta.
    fn set_witness(&mut self, slot: u32, witnessed: bool, witness_objs: Vec<(DomIdx, ObjId)>) {
        let entry = self.slab[slot as usize].as_mut().expect("live slot");
        let was_witnessed = entry.witnessed;
        let old = std::mem::replace(&mut entry.witness_objs, witness_objs);
        entry.witnessed = witnessed;
        if self.indexed {
            for (m, o) in old {
                unregister(&mut self.by_wit, (m, o), slot);
            }
            let entry = self.slab[slot as usize].as_ref().expect("live slot");
            for &(m, o) in &entry.witness_objs {
                register(&mut self.by_wit, (m, o), slot);
            }
        }
        if witnessed && !was_witnessed {
            self.clear_violating(slot);
        } else if !witnessed && was_witnessed {
            self.mark_violating(slot);
        }
    }

    /// Appends to `out` the live slots whose universal binding binds
    /// `(model, obj)` — an index lookup when indexed, a slab scan
    /// otherwise.
    fn collect_slots_binding(
        &self,
        rel: &HirRelation,
        model: DomIdx,
        obj: ObjId,
        out: &mut Vec<u32>,
    ) {
        if self.indexed {
            if let Some(bucket) = self.by_obj.get(&(model, obj)) {
                out.extend_from_slice(bucket);
            }
            return;
        }
        for (slot, e) in self.slab.iter().enumerate() {
            let Some(e) = e else { continue };
            if binding_objs(rel, &e.binding).any(|k| k == (model, obj)) {
                out.push(slot as u32);
            }
        }
    }

    /// Appends to `out` the live slots whose witness read
    /// `(model, obj)` — an index lookup when indexed, a slab scan
    /// otherwise.
    fn collect_slots_witnessing(&self, model: DomIdx, obj: ObjId, out: &mut Vec<u32>) {
        if self.indexed {
            if let Some(bucket) = self.by_wit.get(&(model, obj)) {
                out.extend_from_slice(bucket);
            }
            return;
        }
        for (slot, e) in self.slab.iter().enumerate() {
            let Some(e) = e else { continue };
            if e.witness_objs.contains(&(model, obj)) {
                out.push(slot as u32);
            }
        }
    }

    /// Violating entries in canonical slab order — walked off the slot
    /// vec when indexed, off a slab scan below the threshold. Both
    /// sides visit slots ascending, so callers see one canonical order
    /// regardless of mode.
    fn violating_entries(&self) -> impl Iterator<Item = &MatchEntry> + '_ {
        let from_vec = self
            .indexed
            .then(|| self.violating.iter().map(|&s| self.entry(s)))
            .into_iter()
            .flatten();
        let from_scan = (!self.indexed)
            .then(|| self.slab.iter().flatten().filter(|e| !e.witnessed))
            .into_iter()
            .flatten();
        from_vec.chain(from_scan)
    }

    /// Fills `out` with the currently violating slots, ascending —
    /// the mode-agnostic snapshot used by the partial-update pin pass.
    fn snapshot_violating(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.indexed {
            out.extend_from_slice(&self.violating);
            return;
        }
        for (slot, e) in self.slab.iter().enumerate() {
            if e.as_ref().is_some_and(|e| !e.witnessed) {
                out.push(slot as u32);
            }
        }
    }

    /// Debug-build differential check: the incrementally maintained
    /// violation counter must equal a full scan of the slab, and the
    /// violating set must be sorted (reports iterate it in slab order).
    #[cfg(debug_assertions)]
    fn assert_counters(&self) {
        let scan = self.slab.iter().flatten().filter(|e| !e.witnessed).count();
        assert_eq!(
            self.n_violating, scan,
            "incremental violation counter diverged from the match-state scan"
        );
        if self.indexed {
            assert_eq!(
                self.violating.len(),
                scan,
                "indexed violating set diverged from the match-state scan"
            );
            assert!(
                self.violating.windows(2).all(|w| w[0] < w[1]),
                "violating set lost its sorted order"
            );
        } else {
            assert!(
                self.violating.is_empty(),
                "violating slot vec must stay empty below the index threshold"
            );
        }
    }
}

/// Adds one slot to an inverted-index bucket, once — a binding (or
/// witness) reading the same object through two variables must not
/// register the slot twice, or `unregister` would leave a stale entry.
fn register(index: &mut FxHashMap<(DomIdx, ObjId), Vec<u32>>, key: (DomIdx, ObjId), slot: u32) {
    let bucket = index.entry(key).or_default();
    if !bucket.contains(&slot) {
        bucket.push(slot);
    }
}

/// Drops one slot from an inverted-index bucket, removing the bucket
/// when it empties.
fn unregister(index: &mut FxHashMap<(DomIdx, ObjId), Vec<u32>>, key: (DomIdx, ObjId), slot: u32) {
    if let Some(bucket) = index.get_mut(&key) {
        if let Some(pos) = bucket.iter().position(|&s| s == slot) {
            bucket.swap_remove(pos);
        }
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
/// shares the compiled check statics. The enforcement search holds one
/// checker per repair (built over the originals, or forked from a
/// session) and moves it between search states by exact inverse edits,
/// so a state costs O(|edit|), not O(tuple).
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
    /// Fresh-binding dedup across universal pins.
    seen: FxHashSet<Binding>,
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

    /// As [`DeltaChecker::new`] with explicit options.
    /// [`CheckOptions::max_violations`] caps the counterexamples
    /// *reported*, not the match state — the checker always tracks every
    /// universal binding.
    pub fn with_options(
        hir: &Arc<Hir>,
        models: &[Model],
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
        let models: Vec<Model> = models.to_vec();
        let indexes: Vec<ModelIndex> = models.iter().map(ModelIndex::build).collect();
        let arity = hir.arity();
        let mut checks = Vec::new();
        let mut ctx = EvalCtx::new(hir, &models, &indexes);
        for (rid, rel) in hir.top_relations() {
            for &dep in rel.deps.deps() {
                let statics = Arc::new(compile_check(hir, rid, dep, arity)?);
                let state = full_eval(&mut ctx, rel, &statics)?;
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
            scratch: UpdateScratch::default(),
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
        let mut affected: Vec<ObjId> = Vec::new();
        let mut scrubbed: Vec<RefId> = Vec::new();
        let mut extent_class: Option<ClassId> = None;
        match *op {
            EditOp::AddObj { id, class } => {
                self.models[m].add_at(id, class)?;
                self.indexes[m].add_obj(&self.models[m], id);
                affected.push(id);
                extent_class = Some(class);
            }
            EditOp::DelObj { id, .. } => {
                let class = self.models[m].class_of(id)?;
                extent_class = Some(class);
                affected.push(id);
                // The delete will scrub incoming links: record which
                // references (for footprint tests) and which sources
                // (their link slots change) are rewired. O(degree) via
                // the model's inverse link index.
                for &(src, r) in self.models[m].incoming(id) {
                    if src == id {
                        continue;
                    }
                    if !scrubbed.contains(&r) {
                        scrubbed.push(r);
                    }
                    if !affected.contains(&src) {
                        affected.push(src);
                    }
                }
                self.indexes[m].remove_obj(&self.models[m], id);
                self.models[m].delete(id)?;
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
                affected.push(id);
            }
            EditOp::AddLink { src, r, dst } => {
                if !self.models[m].add_link(src, r, dst)? {
                    return Ok(());
                }
                affected.push(src);
            }
            EditOp::DelLink { src, r, dst } => {
                if !self.models[m].remove_link(src, r, dst)? {
                    return Ok(());
                }
                affected.push(src);
            }
        }
        self.delta_stats.edits += 1;
        self.update_checks(model, op, extent_class, &affected, &scrubbed)
    }

    /// Applies a whole edit script to the model at `model`
    /// ([`DeltaChecker::apply`] per op, in script order).
    pub fn apply_delta(&mut self, model: DomIdx, delta: &Delta) -> Result<(), DeltaError> {
        for op in delta.ops() {
            self.apply(model, op)?;
        }
        Ok(())
    }

    fn update_checks(
        &mut self,
        model: DomIdx,
        op: &EditOp,
        extent_class: Option<ClassId>,
        affected: &[ObjId],
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
                check.state = full_eval(&mut ctx, rel, st)?;
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
            // Differential check: the incrementally maintained counter
            // must agree with a full match-state scan.
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
    /// state (no evaluation happens here). Violations are capped at
    /// [`CheckOptions::max_violations`] per check; `stats` are
    /// cumulative over the initial evaluation and every update.
    pub fn report(&self) -> CheckReport {
        let mut checks = Vec::with_capacity(self.checks.len());
        for c in &self.checks {
            let rel = self.hir.relation(c.statics.rel);
            let violations: Vec<ViolationBinding> = c
                .state
                .violating_entries()
                .take(self.opts.max_violations)
                .map(|e| render(rel, &e.binding))
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
    /// check, in *canonical* order — sorted by binding content, not by
    /// cache history. The enforcement search derives its repair
    /// candidates from these, and canonical order is what makes a warm
    /// (incrementally maintained) checker and a freshly built one drive
    /// the search identically: both hold the same violation multiset,
    /// but their internal match orders differ after incremental updates.
    pub fn for_each_violation(&self, cap: usize, mut f: impl FnMut(RelId, Dep, &Binding)) {
        for c in &self.checks {
            if c.state.violations() == 0 {
                continue;
            }
            let mut violating: Vec<&MatchEntry> = c.state.violating_entries().collect();
            if violating.len() > 1 {
                violating.sort_by_cached_key(|e| binding_key(&e.binding));
            }
            for e in violating.into_iter().take(cap) {
                f(c.statics.rel, c.statics.dep, &e.binding);
            }
        }
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
    /// behind [`Arc`]. No evaluation happens — forking a warm checker is
    /// how the enforcement search obtains a pre-warmed root state
    /// without re-running the initial full check, and how a sync session
    /// hands its live state to a repair engine while keeping its own.
    pub fn fork(&self) -> DeltaChecker {
        self.clone()
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

/// Total sort key over bindings (slot-wise, by slot content), used to
/// canonicalize violation enumeration. Within one check every binding
/// has the same length and shape, so the element-wise key is a genuine
/// total order there. String values key on their intern index — stable
/// within a process, which is all the warm-vs-cold identity needs.
fn binding_key(b: &Binding) -> Vec<(u8, u64)> {
    fn slot_key(s: &Option<Slot>) -> (u8, u64) {
        match s {
            None => (0, 0),
            Some(Slot::Obj(o)) => (1, o.0 as u64),
            Some(Slot::Val(v)) => match v {
                mmt_model::Value::Bool(x) => (2, *x as u64),
                mmt_model::Value::Int(x) => (3, (*x).wrapping_sub(i64::MIN) as u64),
                mmt_model::Value::Str(s) => (4, s.index() as u64),
            },
        }
    }
    b.iter().map(slot_key).collect()
}

fn accumulate(into: &mut EvalStats, extra: EvalStats) {
    into.universal_bindings += extra.universal_bindings;
    into.existential_probes += extra.existential_probes;
    into.call_hits += extra.call_hits;
}

fn render(rel: &HirRelation, binding: &Binding) -> ViolationBinding {
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
    let wit_pins = pins(&plan.tgt_constraints);
    let where_uni_vars = {
        let mut fv = Vec::new();
        if let Some(w) = &rel.where_ {
            w.free_vars(&mut fv);
        }
        fv.sort_unstable();
        fv.retain(|v| plan.src_vars.contains(v) && var_model(rel, *v).is_some());
        fv
    };
    Ok(CheckStatics {
        rel: rid,
        dep,
        plan,
        uni_pins,
        wit_pins,
        where_uni_vars,
        uni_fp: fps.uni,
        wit_fp: fps.wit,
        call_fp: fps.call,
    })
}

/// Full (from-scratch) evaluation of one check: enumerate every
/// universal binding and probe its witness.
fn full_eval(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
) -> Result<MatchState, EvalError> {
    let mut matches: Vec<MatchEntry> = Vec::new();
    let mut binding: Binding = vec![None; rel.vars.len()];
    ctx.solve(
        rel,
        &st.plan.src_constraints,
        &mut binding,
        &mut |ctx, b| {
            if let Some(when) = &rel.when {
                if !ctx.eval_bool(rel, when, b, st.plan.dir)? {
                    return Ok(false);
                }
            }
            let (witnessed, witness_objs) = probe_recording(ctx, rel, st, b)?;
            matches.push(MatchEntry {
                binding: b.clone(),
                witnessed,
                witness_objs,
            });
            Ok(false)
        },
    )?;
    Ok(MatchState::from_entries(rel, matches))
}

/// One witness probe's result: whether a witness exists and, when it
/// does, the objects it bound (its object-level read-set).
type WitnessRecord = (bool, Vec<(DomIdx, ObjId)>);

/// Existential probe that records which objects the witness bound.
fn probe_recording(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    binding: &mut Binding,
) -> Result<WitnessRecord, EvalError> {
    let pre: Vec<bool> = binding.iter().map(Option::is_some).collect();
    let mut out: Option<Vec<(DomIdx, ObjId)>> = None;
    ctx.solve(rel, &st.plan.tgt_constraints, binding, &mut |ctx, b| {
        if let Some(w) = &rel.where_ {
            if !ctx.eval_bool(rel, w, b, st.plan.dir)? {
                return Ok(false);
            }
        }
        let objs = b
            .iter()
            .enumerate()
            .filter(|(i, s)| !pre[*i] && s.is_some())
            .filter_map(|(i, s)| match s.unwrap() {
                Slot::Obj(o) => var_model(rel, VarId(i as u32)).map(|m| (m, o)),
                Slot::Val(_) => None,
            })
            .collect();
        out = Some(objs);
        Ok(true) // stop at the first witness
    })?;
    Ok(match out {
        Some(objs) => (true, objs),
        None => (false, Vec::new()),
    })
}

/// Universal-side partial update: drop the matches binding an affected
/// object (found through the `by_obj` index — O(affected entries), not
/// O(match state)), then re-enumerate the join with each affected
/// object pinned.
#[allow(clippy::too_many_arguments)]
fn universal_update(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    state: &mut MatchState,
    model: DomIdx,
    affected: &[ObjId],
    live: &Model,
    scratch: &mut UpdateScratch,
) -> Result<(), EvalError> {
    let stale = &mut scratch.stale;
    stale.clear();
    for &o in affected {
        state.collect_slots_binding(rel, model, o, stale);
    }
    stale.sort_unstable();
    stale.dedup();
    for &slot in stale.iter() {
        state.remove(rel, slot);
    }
    // Dedup across pins: every re-enumerated binding pins an affected
    // object, and no surviving entry binds one (it was just dropped) —
    // so a hashed set of the fresh bindings alone is a complete dedup.
    // (This used to be a linear scan of the whole match state per
    // binding: O(#matches) for each of O(#fresh) bindings.)
    let seen = &mut scratch.seen;
    seen.clear();
    for &(pm, var) in &st.uni_pins {
        if pm != model {
            continue;
        }
        for &o in affected {
            if !live.contains(o) {
                continue; // deleted objects bind nothing
            }
            let mut binding: Binding = vec![None; rel.vars.len()];
            binding[var.index()] = Some(Slot::Obj(o));
            ctx.solve(
                rel,
                &st.plan.src_constraints,
                &mut binding,
                &mut |ctx, b| {
                    if let Some(when) = &rel.when {
                        if !ctx.eval_bool(rel, when, b, st.plan.dir)? {
                            return Ok(false);
                        }
                    }
                    if !seen.insert(b.clone()) {
                        return Ok(false); // found through another pin already
                    }
                    let (witnessed, witness_objs) = probe_recording(ctx, rel, st, b)?;
                    state.insert(
                        rel,
                        MatchEntry {
                            binding: b.clone(),
                            witnessed,
                            witness_objs,
                        },
                    );
                    Ok(false)
                },
            )?;
        }
    }
    Ok(())
}

/// Witness-side partial update: re-probe the matches whose witness (or
/// `where` clause) read an affected object — found through the `by_wit`
/// / `by_obj` indexes, O(affected entries) instead of a full match-state
/// sweep; for violations, probe for a *new* witness with each affected
/// object pinned — unless the edit is purely destructive, in which case
/// no new witness can exist. The pin pass is inherently O(#violations),
/// which is zero on a consistent tuple.
#[allow(clippy::too_many_arguments)]
fn witness_update(
    ctx: &mut EvalCtx<'_>,
    rel: &HirRelation,
    st: &CheckStatics,
    state: &mut MatchState,
    model: DomIdx,
    affected: &[ObjId],
    op: &EditOp,
    live: &Model,
    scratch: &mut UpdateScratch,
) -> Result<(), EvalError> {
    let destructive = op.is_destructive_only();
    // Snapshot the violating set before any re-probe: pin-probing is
    // only for entries that were unwitnessed *and* untouched by the
    // re-probe pass (exactly the old sweep's else-branch).
    state.snapshot_violating(&mut scratch.violating_before);
    // Entries to fully re-probe: witnessed entries whose witness read
    // an affected object, plus any entry whose `where` clause reads an
    // affected object through a universal-side variable.
    let reprobe = &mut scratch.reprobe;
    let hits = &mut scratch.hits;
    reprobe.clear();
    for &o in affected {
        hits.clear();
        state.collect_slots_witnessing(model, o, hits);
        for &slot in hits.iter() {
            if state.entry(slot).witnessed {
                reprobe.push(slot);
            }
        }
        if st.where_uni_vars.is_empty() {
            continue;
        }
        hits.clear();
        state.collect_slots_binding(rel, model, o, hits);
        for &slot in hits.iter() {
            let e = state.entry(slot);
            let where_hit = st.where_uni_vars.iter().any(|&v| {
                var_model(rel, v) == Some(model)
                    && matches!(e.binding[v.index()], Some(Slot::Obj(b)) if b == o)
            });
            if where_hit {
                reprobe.push(slot);
            }
        }
    }
    reprobe.sort_unstable();
    reprobe.dedup();
    for &slot in reprobe.iter() {
        let mut b = state.entry(slot).binding.clone();
        let (w, objs) = probe_recording(ctx, rel, st, &mut b)?;
        state.set_witness(slot, w, objs);
    }
    if destructive {
        return Ok(());
    }
    'entries: for &slot in &scratch.violating_before {
        if scratch.reprobe.binary_search(&slot).is_ok() {
            continue; // already fully re-probed above
        }
        for &(pm, var) in &st.wit_pins {
            if pm != model {
                continue;
            }
            for &o in affected {
                if !live.contains(o) {
                    continue;
                }
                let mut b = state.entry(slot).binding.clone();
                b[var.index()] = Some(Slot::Obj(o));
                let (w, mut objs) = probe_recording(ctx, rel, st, &mut b)?;
                if w {
                    objs.push((model, o)); // the pinned object is read too
                    state.set_witness(slot, true, objs);
                    continue 'entries;
                }
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
    /// violation multiset (compared order-insensitively).
    fn assert_agrees(checker: &DeltaChecker, ctx: &str) {
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

    /// Pins the `universal_update` dedup: an edit whose affected set
    /// contains two objects co-bound by one binding through *different*
    /// pins (here: deleting `x`, whose incoming links make both `p0`
    /// and `p1` affected, where the binding `(p = p0, c = p1)` is then
    /// re-found through the `p` pin *and* the `c` pin) must not insert
    /// the binding twice. A duplicate would double-count the violation
    /// and break the differential report below.
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
        let n_class = g.class_named("N").unwrap();
        checker
            .apply(
                DomIdx(0),
                &EditOp::DelObj {
                    id: ObjId(2),
                    class: n_class,
                },
            )
            .unwrap();
        for c in &checker.checks {
            let mut seen: std::collections::HashSet<&Binding> = std::collections::HashSet::new();
            for e in c.state.slab.iter().flatten() {
                assert!(
                    seen.insert(&e.binding),
                    "duplicate match entry after multi-pin re-enumeration"
                );
            }
        }
        // (p = p0, c = p1) survives as the only binding, unwitnessed.
        assert_eq!(checker.violation_count(), 1);
        assert_agrees(&checker, "after DelObj with co-bound affected objects");
    }
}
