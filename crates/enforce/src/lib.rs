//! # mmt-enforce — least-change enforcement engines
//!
//! Implements the paper's §3 enforcement semantics: given a consistency
//! specification, a tuple of models, and a repair *shape* (which models
//! may change — the multidirectional generalization of QVT-R's single
//! enforcement direction), produce new target models that are consistent
//! and at minimal (weighted) distance from the originals.
//!
//! Two engines implement the common [`RepairEngine`] trait:
//!
//! * [`SearchEngine`] — A* search over repair-guided edits, with the
//!   concrete checker as oracle (the paper's "iterative process of
//!   searching for all consistent models at increasing distance", run
//!   natively, and ordered by a lower bound on the distance still to go:
//!   the cheapest set of target models every failing check still needs
//!   an edit in);
//! * [`SatEngine`] — bounded grounding to CNF with a cost counter,
//!   relaxed `k = 0, 1, 2, …` (the Alloy/Kodkod/PMax-SAT realization
//!   Echo uses).
//!
//! Both return the minimal cost, the repaired tuple, and per-model edit
//! scripts. They are differentially tested against each other, and both
//! against an exhaustive least-change oracle over small tuples
//! (`tests/least_change_oracle.rs` in the workspace root).
//!
//! Each engine implements one repair method,
//! [`RepairEngine::repair_in_place`]; the trait derives the cold, warm
//! and batch entry points from it, and [`SatEngine`] overrides the cold
//! one alone.
//!
//! ```
//! use mmt_model::text::{parse_metamodel, parse_model};
//! use mmt_qvtr::parse_and_resolve;
//! use mmt_deps::{DomIdx, DomSet};
//! use mmt_enforce::{RepairEngine, SearchEngine};
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
//!     depend fm -> cf1;
//!   }
//! }"#, &[cf.clone(), fm.clone()]).unwrap());
//! // The configuration selects `engine`; the feature model doesn't know it.
//! let m_cf = parse_model(r#"model cf1 : CF { f = Feature { name = "engine" } }"#, &cf).unwrap();
//! let m_fm = parse_model(r#"model fm : FM { }"#, &fm).unwrap();
//!
//! // Repair shape →F_FM: only the feature model may change.
//! let out = SearchEngine::default()
//!     .repair(&hir, &[m_cf, m_fm], DomSet::single(DomIdx(1)))
//!     .unwrap()
//!     .expect("repairable");
//! // Least change: create the feature and name it (2 ops).
//! assert_eq!(out.cost, 2);
//! assert_eq!(out.deltas[1].len(), 2);
//! assert!(out.deltas[0].is_empty()); // cf1 untouched
//! ```

pub mod search;

use mmt_check::{CheckError, DeltaChecker, DeltaError, EvalError};
use mmt_deps::{DomIdx, DomSet};
use mmt_dist::{CostModel, Delta, TupleCost};
use mmt_ground::{GroundError, GroundOptions, GroundProblem, Scope};
use mmt_model::mmt_sync;
use mmt_model::{Model, ModelError};
use mmt_qvtr::Hir;
use std::fmt;
use std::sync::Arc;

/// Options shared by the repair engines.
///
/// Every field trades completeness or repair quality against time; the
/// per-field docs spell the trade-off out. The defaults are tuned for
/// the paper-scale workloads exercised by `mmt-bench`.
#[derive(Clone, Debug)]
pub struct RepairOptions {
    /// Per-operation costs (the §3 graph-edit distance). Raising one
    /// op's price steers repairs away from that op kind; it does not
    /// change engine speed, but a coarse price scale deepens the SAT cost
    /// counter before `max_cost` bites. The search's A* bound prices an
    /// edit at the cheapest op, so it holds under any prices; raising
    /// only some of them makes it less tight.
    pub cost: CostModel,
    /// Per-model weight multipliers (§3's weighted tuple distance).
    /// [`TupleCost::auto`] (the default) is uniform at the tuple's
    /// arity; an explicit weighting must match the arity exactly or the
    /// engines return [`RepairError::Tuple`]. The search's A* bound
    /// prices the weights in: a failing check that reads only expensive
    /// models adds the cheapest of their weighted steps to the bound, so
    /// cheap models no longer absorb many edits before an expensive one
    /// is considered. `max_cost` bounds the weighted total, so pair
    /// heavy weights with a proportionally larger one.
    pub tuple: TupleCost,
    /// Maximum total weighted cost to consider before giving up.
    /// The hard bound on both engines' runtime: search explores
    /// O(branching^depth) states and the SAT engine relaxes its cost
    /// counter `k = 0, 1, 2, …` up to this bound. Too small → repairable
    /// tuples report `None`; too large → worst-case blow-up on
    /// unrepairable inputs.
    pub max_cost: u64,
    /// Fresh string symbols available to repairs (values not occurring
    /// in any model or pattern literal). Each fresh string multiplies
    /// the attribute-candidate pool (search) and the string universe
    /// (SAT grounding); 1 suffices unless a repair must invent several
    /// distinct new names.
    pub fresh_strings: usize,
    /// Search engine: cap on evaluated states — states the search entered
    /// and checked, each counted once even when its exact bound sends it
    /// back to the frontier; states only pushed do not count. The safety
    /// net against exponential frontiers. When hit, the engine errors
    /// with [`RepairError::SearchBudgetExhausted`] rather than silently
    /// reporting unrepairable.
    pub max_states: u64,
    /// SAT engine: universe slack (fresh objects per class). Grounding
    /// size — and thus CNF size and solve time — grows roughly linearly
    /// in the slack per quantifier nest; repairs that must *create*
    /// more than this many objects in one class are invisible to the
    /// SAT engine.
    pub slack_objs: usize,
}

impl RepairOptions {
    /// The errors either engine raises before it repairs an
    /// `arity`-tuple towards `targets`: no target, or an explicit
    /// weighting of another arity. Nothing is resolved: the search reads
    /// weights through [`TupleCost::weight`], which weighs every model 1
    /// under [`TupleCost::auto`], and grounding resolves its own copy.
    fn check_tuple(&self, arity: usize, targets: DomSet) -> Result<(), RepairError> {
        if targets.is_empty() {
            return Err(RepairError::NoTargets);
        }
        match self.tuple.arity() {
            Some(got) if got != arity => Err(RepairError::Tuple(mmt_dist::TupleArityError {
                expected: arity,
                got,
            })),
            _ => Ok(()),
        }
    }
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            cost: CostModel::default(),
            tuple: TupleCost::auto(),
            max_cost: 16,
            fresh_strings: 1,
            max_states: 200_000,
            slack_objs: 2,
        }
    }
}

/// A successful repair.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// Total weighted distance from the originals.
    pub cost: u64,
    /// The repaired model tuple (non-targets unchanged).
    pub models: Vec<Model>,
    /// Per-model edit scripts (empty for untouched models).
    pub deltas: Vec<Delta>,
}

/// A repair left in place: the [`DeltaChecker`] it was made on holds the
/// repaired tuple.
#[derive(Clone, Debug)]
pub struct InPlaceRepair {
    /// Total weighted distance from the tuple the checker held before.
    pub cost: u64,
    /// Per-model canonical scripts, byte-identical to
    /// [`Delta::between`] the tuple before and the tuple after.
    pub deltas: Vec<Delta>,
    /// Per-model scripts of the edits the repair applied to the checker,
    /// in the order it applied them and in [`mmt_dist::expand_op`] form:
    /// each inverts exactly, op by op, which is what a session journals.
    pub scripts: Vec<Delta>,
}

impl InPlaceRepair {
    /// The outcome of a repair made on `checker`, which it consumes for
    /// the repaired tuple.
    fn into_outcome(self, checker: DeltaChecker) -> RepairOutcome {
        RepairOutcome {
            cost: self.cost,
            models: checker.into_models(),
            deltas: self.deltas,
        }
    }
}

/// Errors raised during enforcement.
#[derive(Clone, Debug)]
pub enum RepairError {
    /// The checking oracle failed.
    Eval(EvalError),
    /// Binding models to the transformation failed.
    Check(CheckError),
    /// Grounding failed.
    Ground(GroundError),
    /// A model operation failed (internal).
    Model(ModelError),
    /// The search engine exhausted its state budget.
    SearchBudgetExhausted {
        /// The configured budget.
        states: u64,
    },
    /// The target set is empty.
    NoTargets,
    /// An explicit tuple weighting does not match the tuple's arity.
    Tuple(mmt_dist::TupleArityError),
    /// A weighted cost sum exceeded `u64` (op prices × tuple weights too
    /// large). Surfaced instead of silently wrapping, which would make
    /// expensive edits look spuriously cheap and break the least-change
    /// guarantee.
    CostOverflow,
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Eval(e) => write!(f, "evaluation error: {e}"),
            RepairError::Check(e) => write!(f, "binding error: {e}"),
            RepairError::Ground(e) => write!(f, "grounding error: {e}"),
            RepairError::Model(e) => write!(f, "model error: {e}"),
            RepairError::SearchBudgetExhausted { states } => {
                write!(f, "search exhausted its budget of {states} states")
            }
            RepairError::NoTargets => f.write_str("repair shape selects no models"),
            RepairError::Tuple(e) => write!(f, "{e}"),
            RepairError::CostOverflow => {
                f.write_str("weighted repair cost overflows u64 (op prices × tuple weights)")
            }
        }
    }
}

impl std::error::Error for RepairError {}

impl From<EvalError> for RepairError {
    fn from(e: EvalError) -> Self {
        RepairError::Eval(e)
    }
}

impl From<CheckError> for RepairError {
    fn from(e: CheckError) -> Self {
        RepairError::Check(e)
    }
}

impl From<GroundError> for RepairError {
    fn from(e: GroundError) -> Self {
        RepairError::Ground(e)
    }
}

impl From<ModelError> for RepairError {
    fn from(e: ModelError) -> Self {
        RepairError::Model(e)
    }
}

impl From<DeltaError> for RepairError {
    fn from(e: DeltaError) -> Self {
        match e {
            DeltaError::Check(e) => RepairError::Check(e),
            DeltaError::Eval(e) => RepairError::Eval(e),
            DeltaError::Model(e) => RepairError::Model(e),
        }
    }
}

/// One request in a [`RepairEngine::repair_batch`] call: a model tuple
/// plus the repair shape to apply to it. Requests are independent — they
/// share the transformation but nothing else.
#[derive(Clone, Debug)]
pub struct RepairRequest {
    /// The model tuple to repair, in model-space order.
    pub models: Vec<Model>,
    /// The models the repair may rewrite.
    pub targets: DomSet,
}

/// A least-change repair engine.
///
/// An engine implements one repair method,
/// [`RepairEngine::repair_in_place`], which a sync session calls on its
/// own checker. The cold [`RepairEngine::repair`] builds a checker and
/// repairs that ([`SatEngine`] overrides it to build none),
/// [`RepairEngine::repair_warm`] repairs a fork of a warm one, and
/// [`RepairEngine::repair_batch`] runs `repair` over a worker pool.
///
/// Both engines implement this trait, so callers can switch (or
/// differentially compare) them behind one interface:
///
/// ```
/// use mmt_enforce::{RepairEngine, SatEngine, SearchEngine};
///
/// let engines: Vec<Box<dyn RepairEngine>> = vec![
///     Box::new(SearchEngine::default()),
///     Box::new(SatEngine::default()),
/// ];
/// let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
/// assert_eq!(names, ["search", "sat"]);
/// ```
///
/// Engines are `Sync`, so one engine value can serve concurrent repair
/// calls — [`RepairEngine::repair_batch`] relies on this to fan a batch
/// of requests across a worker pool.
pub trait RepairEngine: Sync {
    /// Engine name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Repairs the tuple `checker` holds, taken as the originals, so that
    /// every directional check holds, changing only the models in
    /// `targets`; no initial full check runs. On `Ok(Some(_))` the
    /// checker holds the repaired tuple, reached by the returned
    /// [`InPlaceRepair::scripts`]. On `Ok(None)` (no repair within the
    /// engine's bounds) and on the engine's own errors it holds the
    /// tuple it started from; an error of the checker itself (`Eval`,
    /// `Check` or `Model`) can leave it part way: discard it.
    fn repair_in_place(
        &self,
        checker: &mut DeltaChecker,
        targets: DomSet,
    ) -> Result<Option<InPlaceRepair>, RepairError>;

    /// Repairs `models` so that every directional check of `hir` holds,
    /// changing only the models in `targets`. Returns `None` when no
    /// repair exists within the engine's bounds.
    ///
    /// The default builds a [`DeltaChecker`] over `models` (the one full
    /// check) and repairs it in place. The transformation is passed as a
    /// shared [`Arc`] handle, which the checker clones instead of
    /// borrowing the caller's stack frame.
    fn repair(
        &self,
        hir: &Arc<Hir>,
        models: &[Model],
        targets: DomSet,
    ) -> Result<Option<RepairOutcome>, RepairError> {
        let mut checker = DeltaChecker::new(hir, models)?;
        let found = self.repair_in_place(&mut checker, targets)?;
        Ok(found.map(|r| r.into_outcome(checker)))
    }

    /// Repairs a batch of independent requests, fanning them across
    /// `jobs` worker threads (`jobs <= 1` runs them in turn on the
    /// calling thread). Results come back in request order and each slot
    /// is exactly what [`RepairEngine::repair`] would have returned for
    /// that request — the worker pool changes wall-clock time, never
    /// outcomes.
    ///
    /// ```
    /// use mmt_deps::{DomIdx, DomSet};
    /// use mmt_enforce::{RepairEngine, RepairRequest, SearchEngine};
    /// use mmt_model::text::{parse_metamodel, parse_model};
    /// use mmt_qvtr::parse_and_resolve;
    ///
    /// let cf = parse_metamodel("metamodel CF { class Feature { attr name: Str; } }").unwrap();
    /// let fm = parse_metamodel(
    ///     "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }").unwrap();
    /// let hir = std::sync::Arc::new(parse_and_resolve(r#"
    /// transformation F(cf1 : CF, fm : FM) {
    ///   top relation Sel {
    ///     n : Str;
    ///     domain cf1 s : Feature { name = n };
    ///     domain fm  f : Feature { name = n };
    ///     depend cf1 -> fm;
    ///     depend fm -> cf1;
    ///   }
    /// }"#, &[cf.clone(), fm.clone()]).unwrap());
    /// let m_fm = parse_model(r#"model fm : FM { }"#, &fm).unwrap();
    /// // Two independent sync requests against the same specification.
    /// let requests: Vec<RepairRequest> = ["engine", "gps"].iter().map(|name| {
    ///     let src = format!(r#"model cf1 : CF {{ f = Feature {{ name = "{name}" }} }}"#);
    ///     RepairRequest {
    ///         models: vec![parse_model(&src, &cf).unwrap(), m_fm.clone()],
    ///         targets: DomSet::single(DomIdx(1)),
    ///     }
    /// }).collect();
    /// let outcomes = SearchEngine::default().repair_batch(&hir, &requests, 2);
    /// assert_eq!(outcomes.len(), 2);
    /// for out in outcomes {
    ///     assert_eq!(out.unwrap().expect("repairable").cost, 2);
    /// }
    /// ```
    fn repair_batch(
        &self,
        hir: &Arc<Hir>,
        requests: &[RepairRequest],
        jobs: usize,
    ) -> Vec<Result<Option<RepairOutcome>, RepairError>> {
        pooled_map(requests, jobs, |_, r| {
            self.repair(hir, &r.models, r.targets)
        })
    }

    /// Repairs the tuple owned by a **pre-warmed** [`DeltaChecker`],
    /// which it leaves as it is: [`RepairEngine::repair_in_place`] on a
    /// fork of `root`. The fork is O(tuple) but runs no full check; a
    /// caller that can lend its checker (a sync session) calls
    /// `repair_in_place` instead and copies nothing.
    ///
    /// The outcome contract is strict: `repair_warm(root, targets)`
    /// returns **exactly** what [`RepairEngine::repair`] would return
    /// for `(root.hir(), root.models(), targets)` — warmth changes
    /// wall-clock time, never results.
    fn repair_warm(
        &self,
        root: &DeltaChecker,
        targets: DomSet,
    ) -> Result<Option<RepairOutcome>, RepairError> {
        let mut checker = root.fork();
        let found = self.repair_in_place(&mut checker, targets)?;
        Ok(found.map(|r| r.into_outcome(checker)))
    }
}

/// Model-check-only window onto [`pooled_map`]: the root `model_check`
/// test suite drives the real fan-out funnel (cursor + slots + scope)
/// under the interleaving checker without widening the normal API.
#[cfg(feature = "model-check")]
pub fn pooled_map_modeled<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    pooled_map(items, jobs, f)
}

/// The deterministic worker pool behind [`RepairEngine::repair_batch`]:
/// maps `f` over `items` on up to `jobs` threads draining an atomic
/// cursor. Each result slot is written exactly once, so output order is
/// item order by construction — thread scheduling never leaks into the
/// results. `jobs <= 1` (or a single item) runs inline without spawning.
pub(crate) fn pooled_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = mmt_sync::atomic::AtomicUsize::new(0);
    let slots: Vec<mmt_sync::Mutex<Option<R>>> =
        items.iter().map(|_| mmt_sync::Mutex::new(None)).collect();
    mmt_sync::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, mmt_sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every slot is filled")
        })
        .collect()
}

/// The A* search engine (§3 run natively): explores edit sequences in
/// order of weighted distance plus a lower bound on the distance still
/// to go — the cheapest set of target models that every failing check
/// still needs an edit in — with an incremental
/// [`mmt_check::DeltaChecker`] as the per-state consistency oracle (see
/// [`search`]). The bound never overestimates and never drops by more
/// than the price of an edit, so the first consistent state popped is a
/// least-change repair among those its candidate edits reach.
///
/// ```
/// use mmt_model::text::{parse_metamodel, parse_model};
/// use mmt_qvtr::parse_and_resolve;
/// use mmt_deps::{DomIdx, DomSet};
/// use mmt_dist::TupleCost;
/// use mmt_enforce::{RepairEngine, RepairOptions, SearchEngine};
///
/// let cf = parse_metamodel("metamodel CF { class Feature { attr name: Str; } }").unwrap();
/// let fm = parse_metamodel(
///     "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }").unwrap();
/// let hir = std::sync::Arc::new(parse_and_resolve(r#"
/// transformation F(cf1 : CF, fm : FM) {
///   top relation Sel {
///     n : Str;
///     domain cf1 s : Feature { name = n };
///     domain fm  f : Feature { name = n };
///     depend cf1 -> fm;
///     depend fm -> cf1;
///   }
/// }"#, &[cf.clone(), fm.clone()]).unwrap());
/// let m_cf = parse_model(r#"model cf1 : CF { f = Feature { name = "gps" } }"#, &cf).unwrap();
/// let m_fm = parse_model(r#"model fm : FM { f = Feature { name = "radio" } }"#, &fm).unwrap();
///
/// // Make the feature model 100× as expensive as the configuration:
/// // the least-change repair rewrites cf1 instead of fm.
/// let engine = SearchEngine::new(RepairOptions {
///     tuple: TupleCost::weighted(vec![1, 100]),
///     ..RepairOptions::default()
/// });
/// let both = DomSet::single(DomIdx(0)).with(DomIdx(1));
/// let out = engine.repair(&hir, &[m_cf, m_fm.clone()], both).unwrap().unwrap();
/// assert!(out.deltas[1].is_empty(), "fm untouched:\n{}", out.deltas[1]);
/// assert!(out.models[1].graph_eq(&m_fm));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SearchEngine {
    /// Engine options.
    pub opts: RepairOptions,
}

impl SearchEngine {
    /// Engine with the given options.
    pub fn new(opts: RepairOptions) -> SearchEngine {
        SearchEngine { opts }
    }
}

impl RepairEngine for SearchEngine {
    fn name(&self) -> &'static str {
        "search"
    }

    /// Walks `checker` itself through the search (see [`search`]), and
    /// back by exact undo when it finds no repair or gives up.
    fn repair_in_place(
        &self,
        checker: &mut DeltaChecker,
        targets: DomSet,
    ) -> Result<Option<InPlaceRepair>, RepairError> {
        self.opts.check_tuple(checker.models().len(), targets)?;
        search::search_from_root(checker, targets, &self.opts)
    }
}

/// The SAT-based engine: bounded grounding to CNF with a sequential
/// cost counter, relaxed `k = 0, 1, 2, …` until satisfiable — the
/// Alloy/Kodkod/PMax-SAT realization the paper's Echo tool uses. Unlike
/// [`SearchEngine`] it is complete within its universe bounds
/// ([`RepairOptions::slack_objs`] fresh objects per class,
/// [`RepairOptions::fresh_strings`] fresh strings).
///
/// ```
/// use mmt_model::text::{parse_metamodel, parse_model};
/// use mmt_qvtr::parse_and_resolve;
/// use mmt_deps::{DomIdx, DomSet};
/// use mmt_enforce::{RepairEngine, SatEngine};
///
/// let cf = parse_metamodel("metamodel CF { class Feature { attr name: Str; } }").unwrap();
/// let fm = parse_metamodel(
///     "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }").unwrap();
/// let hir = std::sync::Arc::new(parse_and_resolve(r#"
/// transformation F(cf1 : CF, fm : FM) {
///   top relation Sel {
///     n : Str;
///     domain cf1 s : Feature { name = n };
///     domain fm  f : Feature { name = n, mandatory = true };
///     depend cf1 -> fm;
///   }
/// }"#, &[cf.clone(), fm.clone()]).unwrap());
/// let m_cf = parse_model(r#"model cf1 : CF { f = Feature { name = "engine" } }"#, &cf).unwrap();
/// let m_fm = parse_model(
///     r#"model fm : FM { f = Feature { name = "engine", mandatory = false } }"#, &fm).unwrap();
///
/// // Minimal repair towards FM: flip one `mandatory` bit.
/// let out = SatEngine::default()
///     .repair(&hir, &[m_cf, m_fm], DomSet::single(DomIdx(1)))
///     .unwrap()
///     .expect("repairable");
/// assert_eq!(out.cost, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SatEngine {
    /// Engine options.
    pub opts: RepairOptions,
}

impl SatEngine {
    /// Engine with the given options.
    pub fn new(opts: RepairOptions) -> SatEngine {
        SatEngine { opts }
    }

    /// Grounds `models` towards `targets`, solves for the least cost and
    /// diffs each decoded model against its original: the cost and the
    /// canonical per-model deltas, or `None` when no repair exists within
    /// the universe bounds.
    fn solve(
        &self,
        hir: &Hir,
        models: &[Model],
        targets: DomSet,
    ) -> Result<Option<(u64, Vec<Delta>)>, RepairError> {
        self.opts.check_tuple(models.len(), targets)?;
        let gopts = GroundOptions {
            scope: Scope {
                slack_objs: self.opts.slack_objs,
                fresh_strings: self.opts.fresh_strings,
            },
            cost: self.opts.cost,
            tuple: self.opts.tuple.clone(),
            max_cost: self.opts.max_cost,
            ..GroundOptions::default()
        };
        let mut problem = GroundProblem::build(hir, models, targets, gopts)?;
        let Some((cost, decoded)) = problem.solve_min_cost() else {
            return Ok(None);
        };
        let mut deltas = Vec::with_capacity(models.len());
        for (o, n) in models.iter().zip(&decoded) {
            deltas.push(Delta::between(o, n)?);
        }
        Ok(Some((cost, deltas)))
    }
}

impl RepairEngine for SatEngine {
    fn name(&self) -> &'static str {
        "sat"
    }

    /// Grounds from the tuple `checker` holds (CNF has no incremental
    /// state to reuse) and applies the deltas to it, expanded.
    fn repair_in_place(
        &self,
        checker: &mut DeltaChecker,
        targets: DomSet,
    ) -> Result<Option<InPlaceRepair>, RepairError> {
        let Some((cost, deltas)) = self.solve(checker.hir(), checker.models(), targets)? else {
            return Ok(None);
        };
        let mut scripts = vec![Delta::new(); deltas.len()];
        for (i, (delta, script)) in deltas.iter().zip(&mut scripts).enumerate() {
            for op in delta.ops() {
                checker.apply_expanded(DomIdx(i as u8), op, script)?;
            }
        }
        Ok(Some(InPlaceRepair {
            cost,
            deltas,
            scripts,
        }))
    }

    /// Grounds from `models` and builds no checker: each delta is
    /// replayed onto a copy of its original.
    fn repair(
        &self,
        hir: &Arc<Hir>,
        models: &[Model],
        targets: DomSet,
    ) -> Result<Option<RepairOutcome>, RepairError> {
        let Some((cost, deltas)) = self.solve(hir, models, targets)? else {
            return Ok(None);
        };
        // The decoded targets start from empty id spaces, so they lack
        // the originals' trailing tombstones. Replaying each delta onto
        // its original keeps the id space a session would have, and with
        // it the ids the next edit mints.
        let mut repaired = Vec::with_capacity(models.len());
        for (o, delta) in models.iter().zip(&deltas) {
            let mut m = o.clone();
            delta.apply(&mut m)?;
            repaired.push(m);
        }
        Ok(Some(RepairOutcome {
            cost,
            models: repaired,
            deltas,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_check::Checker;
    use mmt_deps::DomIdx;
    use mmt_model::text::{parse_metamodel, parse_model};
    use mmt_model::Metamodel;
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

    /// The paper's full F = MF ∧ OF specification.
    const F_SRC: &str = r#"
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

    fn targets(idx: &[u8]) -> DomSet {
        DomSet::from_iter(idx.iter().map(|&i| DomIdx(i)))
    }

    fn engines() -> Vec<Box<dyn RepairEngine>> {
        vec![
            Box::new(SearchEngine::default()),
            Box::new(SatEngine::default()),
        ]
    }

    #[test]
    fn consistent_input_costs_zero_on_both_engines() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        for engine in engines() {
            let out = engine
                .repair(&hir, &models, targets(&[0, 1]))
                .unwrap()
                .expect("consistent");
            assert_eq!(out.cost, 0, "{}", engine.name());
            for d in &out.deltas {
                assert!(d.is_empty());
            }
        }
    }

    /// §3: a new mandatory feature in FM — the single-CF shape `→Fⁱ_CF`
    /// cannot restore consistency; the multi-target `→F_CFᵏ` can.
    #[test]
    fn single_target_fails_multi_target_succeeds() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true), ("brakes", true)]),
        ];
        for engine in engines() {
            let single = engine.repair(&hir, &models, targets(&[0])).unwrap();
            assert!(single.is_none(), "{} single-target", engine.name());
            let multi = engine
                .repair(&hir, &models, targets(&[0, 1]))
                .unwrap()
                .expect("multi-target repairable");
            assert_eq!(multi.cost, 4, "{} multi-target", engine.name());
            let report = Checker::new(&hir, &multi.models).unwrap().check().unwrap();
            assert!(report.consistent(), "{}\n{report}", engine.name());
        }
    }

    /// §3: `→F_FM : CFᵏ → FM` — a feature selected everywhere becomes
    /// mandatory with a single attribute flip.
    #[test]
    fn repair_towards_fm_is_minimal() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine", "gps"]),
            cf_model(&cf, "cf2", &["engine", "gps"]),
            fm_model(&fm, &[("engine", true), ("gps", false)]),
        ];
        for engine in engines() {
            let out = engine
                .repair(&hir, &models, targets(&[2]))
                .unwrap()
                .expect("repairable");
            assert_eq!(out.cost, 1, "{}", engine.name());
            let report = Checker::new(&hir, &out.models).unwrap().check().unwrap();
            assert!(report.consistent(), "{}", engine.name());
        }
    }

    /// §1: renaming a feature in one configuration; the shape
    /// `→Fⁱ_{FM×CFᵏ⁻¹}` propagates the rename to the other artifacts.
    #[test]
    fn rename_propagates_to_remaining_models() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap());
        // cf1 renamed engine → motor; fm and cf2 still say engine.
        let models = [
            cf_model(&cf, "cf1", &["motor"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        for engine in engines() {
            let out = engine
                .repair(&hir, &models, targets(&[1, 2]))
                .unwrap()
                .expect("repairable");
            // Minimal: rename in cf2 and in fm = 2 attribute changes.
            assert_eq!(out.cost, 2, "{}", engine.name());
            let report = Checker::new(&hir, &out.models).unwrap().check().unwrap();
            assert!(report.consistent(), "{}", engine.name());
            // The rename really happened (fm now has `motor`).
            let fm_new = &out.models[2];
            let has_motor = fm_new
                .objects()
                .any(|(id, _)| fm_new.attr_named(id, "name") == Ok(mmt_model::Value::str("motor")));
            assert!(has_motor, "{}", engine.name());
        }
    }

    /// The two engines agree on minimal distances (differential test over
    /// a batch of §1/§3 scenarios).
    #[test]
    fn engines_agree_on_minimal_cost() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap());
        let scenarios: Vec<([Model; 3], DomSet)> = vec![
            (
                [
                    cf_model(&cf, "cf1", &["a"]),
                    cf_model(&cf, "cf2", &["a", "b"]),
                    fm_model(&fm, &[("a", true), ("b", false)]),
                ],
                targets(&[0, 1]),
            ),
            (
                [
                    cf_model(&cf, "cf1", &["a", "b"]),
                    cf_model(&cf, "cf2", &["a", "b"]),
                    fm_model(&fm, &[("a", true)]),
                ],
                targets(&[2]),
            ),
            (
                [
                    cf_model(&cf, "cf1", &[]),
                    cf_model(&cf, "cf2", &[]),
                    fm_model(&fm, &[("a", true)]),
                ],
                targets(&[0, 1]),
            ),
        ];
        let search = SearchEngine::default();
        let sat = SatEngine::default();
        for (i, (models, tg)) in scenarios.iter().enumerate() {
            let a = search.repair(&hir, models, *tg).unwrap();
            let b = sat.repair(&hir, models, *tg).unwrap();
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.cost, y.cost, "scenario {i}");
                    for m in [&x.models, &y.models] {
                        assert!(Checker::new(&hir, m).unwrap().consistent().unwrap());
                    }
                }
                (None, None) => {}
                _ => panic!(
                    "scenario {i}: engines disagree on repairability: {:?} vs {:?}",
                    a.as_ref().map(|x| x.cost),
                    b.as_ref().map(|x| x.cost)
                ),
            }
        }
    }

    #[test]
    fn empty_target_set_rejected() {
        let (cf, fm) = metamodels();
        let hir = Arc::new(parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &[]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[]),
        ];
        for engine in engines() {
            assert!(matches!(
                engine.repair(&hir, &models, DomSet::EMPTY),
                Err(RepairError::NoTargets)
            ));
        }
    }

    /// ISSUE 3 bugfix regression: a weight × op-price product that
    /// overflows `u64` must surface as [`RepairError::CostOverflow`].
    /// The historical wrapping multiply priced `set_attr(4) ×
    /// (u64::MAX/4 + 1)` at **zero**, so the search happily edited the
    /// "infinitely expensive" model for free.
    #[test]
    fn weighted_cost_overflow_is_an_error_not_a_wrap() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation G(cf1 : CF, fm : FM) {
  top relation Sel {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n };
    depend cf1 -> fm;
    depend fm -> cf1;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            fm_model(&fm, &[("radio", false)]),
        ];
        let opts = RepairOptions {
            cost: mmt_dist::CostModel {
                set_attr: 4,
                ..Default::default()
            },
            tuple: TupleCost::weighted(vec![1, u64::MAX / 4 + 1]),
            max_cost: 30,
            ..RepairOptions::default()
        };
        let tg = targets(&[0, 1]);
        let engine = SearchEngine::new(opts);
        let root = DeltaChecker::new(&hir, &models).unwrap();
        for (path, res) in [
            ("cold", engine.repair(&hir, &models, tg)),
            ("warm", engine.repair_warm(&root, tg)),
        ] {
            let err = res.expect_err("overflowing weights are a configuration error");
            assert!(
                matches!(err, RepairError::CostOverflow),
                "{path}: unexpected error {err}"
            );
        }
    }

    /// SAT's half of the overflow rule: the grounding prices an edit as
    /// `cost × weight` saturating, so flipping `mandatory` in an `fm`
    /// weighted `u64::MAX / 4 + 1` at `set_attr` 4 costs more than any
    /// bound, not 0. The one repair towards `fm` is that flip, so both
    /// engines find none.
    #[test]
    fn an_overflowing_price_is_out_of_reach_on_both_engines() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation F(cf1 : CF, fm : FM) {
  top relation Sel {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n, mandatory = true };
    depend cf1 -> fm;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            fm_model(&fm, &[("engine", false)]),
        ];
        let opts = RepairOptions {
            cost: mmt_dist::CostModel {
                set_attr: 4,
                ..Default::default()
            },
            tuple: TupleCost::weighted(vec![1, u64::MAX / 4 + 1]),
            ..RepairOptions::default()
        };
        for engine in [
            Box::new(SearchEngine::new(opts.clone())) as Box<dyn RepairEngine>,
            Box::new(SatEngine::new(opts.clone())),
        ] {
            let out = engine.repair(&hir, &models, targets(&[1])).unwrap();
            assert!(
                out.is_none(),
                "{}: repaired at {:?}",
                engine.name(),
                out.map(|o| o.cost)
            );
        }
    }

    /// Weighted tuple distance (§3 future work, implemented): making FM
    /// expensive steers the repair into the configurations.
    #[test]
    fn weighted_distance_steers_repair() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation G(cf1 : CF, fm : FM) {
  top relation Sel {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n };
    depend cf1 -> fm;
    depend fm -> cf1;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap());
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            fm_model(&fm, &[("radio", false)]),
        ];
        let opts = RepairOptions {
            tuple: TupleCost::weighted(vec![1, 100]),
            max_cost: 30,
            ..RepairOptions::default()
        };
        for engine in [
            Box::new(SearchEngine::new(opts.clone())) as Box<dyn RepairEngine>,
            Box::new(SatEngine::new(opts.clone())),
        ] {
            let out = engine
                .repair(&hir, &models, targets(&[0, 1]))
                .unwrap()
                .expect("repairable");
            assert!(
                models[1].graph_eq(&out.models[1]),
                "{}: fm should be untouched",
                engine.name()
            );
        }
    }
}
