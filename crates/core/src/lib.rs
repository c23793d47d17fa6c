//! # mmt-core — the multidirectional transformation framework
//!
//! The paper's primary contribution as a library: a [`Transformation`]
//! bundles metamodels and a resolved QVT-R specification (with §2.2
//! checking dependencies); [`Transformation::check`] runs the extended
//! checkonly semantics, and [`Transformation::enforce`] runs §3's
//! least-change enforcement for any repair [`Shape`] — the
//! multidirectional generalization where the user "selects which models
//! are to be updated, establishing the shape of the consistency-repairing
//! transformation" (§4).
//!
//! ```
//! use mmt_core::{EngineKind, Shape, Transformation};
//! use mmt_gen::{CF_METAMODEL, FM_METAMODEL};
//!
//! let t = Transformation::from_sources(
//!     &mmt_gen::transformation_source(2),
//!     &[CF_METAMODEL, FM_METAMODEL],
//! ).unwrap();
//! let w = mmt_gen::feature_workload(mmt_gen::FeatureSpec::default());
//! assert!(t.check(&w.models).unwrap().consistent());
//! ```

pub mod hub;
pub mod session;

pub use hub::{HubError, SessionHandle, SyncHub};
pub use session::{JournalEntry, JournalKind, SessionOptions, SyncRepair, SyncSession, SyncStatus};

use mmt_check::{CheckError, CheckOptions, CheckReport, Checker, EvalError};
use mmt_deps::{DepSet, DomIdx, DomSet};
pub use mmt_enforce::RepairRequest;
use mmt_enforce::{
    RepairEngine, RepairError, RepairOptions, RepairOutcome, SatEngine, SearchEngine,
};
pub use mmt_lint::{Lint, LintCode, LintOptions, LintReport, Severity};
use mmt_model::text::{parse_metamodel, ParseError};
use mmt_model::{Metamodel, Model, ModelError, Sym};
use mmt_qvtr::{parse_and_resolve, FrontendError, Hir};
use std::fmt;
use std::sync::Arc;

/// A repair shape: the set of models the enforcement may rewrite.
///
/// §3 enumerates the interesting instances for `F ⊆ FM × CFᵏ`:
/// `→F_FM` (towards the feature model), `→Fⁱ_CF` (towards one
/// configuration), `→F_CFᵏ` (towards all configurations) and
/// `→Fⁱ_{FM×CFᵏ⁻¹}` (towards everything but one configuration).
///
/// Construction is **checked**: an index too large for the underlying
/// bitset ([`mmt_deps::MAX_DOMAINS`]) is remembered instead of being
/// silently truncated into a wrong-but-valid target set (the historical
/// `usize as u8` cast made `Shape::towards(256)` mean "model 0"), and
/// every framework entry point validates the shape against the
/// transformation's arity ([`Shape::checked_targets`]), surfacing
/// [`CoreError::Shape`] for out-of-range indices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shape {
    targets: DomSet,
    /// First constructor index that does not fit the bitset — kept so
    /// validation can name it instead of repairing the wrong models.
    oob: Option<usize>,
}

impl Shape {
    /// Update exactly the model at `index` (the standard's `→Fⁱ`).
    pub fn towards(index: usize) -> Shape {
        Shape::of(&[index])
    }

    /// Update every model except the one at `index`
    /// (`→Fⁱ_{FM×CFᵏ⁻¹}`-style shapes). `index` must name one of the
    /// `arity` models; anything else is flagged for the entry-point
    /// validation (excluding a model the tuple does not have is a caller
    /// bug, not a no-op).
    pub fn all_but(index: usize, arity: usize) -> Shape {
        if index >= arity.min(mmt_deps::MAX_DOMAINS) {
            return Shape {
                targets: DomSet::full(arity),
                oob: Some(index),
            };
        }
        Shape {
            targets: DomSet::full(arity).without(DomIdx(index as u8)),
            oob: None,
        }
    }

    /// Update every model in `indices`.
    pub fn of(indices: &[usize]) -> Shape {
        let mut targets = DomSet::EMPTY;
        let mut oob = None;
        for &i in indices {
            if i < mmt_deps::MAX_DOMAINS {
                targets = targets.with(DomIdx(i as u8));
            } else if oob.is_none() {
                oob = Some(i);
            }
        }
        Shape { targets, oob }
    }

    /// Update every model.
    pub fn all(arity: usize) -> Shape {
        Shape::from_targets(DomSet::full(arity))
    }

    /// A shape over an already-validated target set (the raw layer the
    /// engines and [`RepairRequest`] speak).
    pub fn from_targets(targets: DomSet) -> Shape {
        Shape { targets, oob: None }
    }

    /// The underlying target set, unvalidated. Prefer
    /// [`Shape::checked_targets`] when a transformation arity is at
    /// hand.
    pub fn targets(&self) -> DomSet {
        self.targets
    }

    /// The target set, validated against a transformation of `arity`
    /// models: every targeted index must exist. This is what the
    /// `enforce`/`session`/`repair` entry points call before handing the
    /// set to an engine.
    pub fn checked_targets(&self, arity: usize) -> Result<DomSet, ShapeError> {
        if let Some(index) = self.oob {
            return Err(ShapeError { index, arity });
        }
        if !self.targets.subset_of(DomSet::full(arity)) {
            let index = self
                .targets
                .iter()
                .map(|d| d.index())
                .find(|&i| i >= arity)
                .expect("some member is out of range");
            return Err(ShapeError { index, arity });
        }
        Ok(self.targets)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.oob {
            Some(index) => write!(f, "→{}∪{{M{index}}}", self.targets),
            None => write!(f, "→{}", self.targets),
        }
    }
}

/// A repair shape targeted a model index the transformation does not
/// have.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShapeError {
    /// The offending model index.
    pub index: usize,
    /// The transformation's arity.
    pub arity: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repair shape targets model {}, but the transformation has {} model parameters",
            self.index, self.arity
        )
    }
}

impl std::error::Error for ShapeError {}

/// Which enforcement engine to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Uniform-cost search with the concrete checker as oracle.
    Search,
    /// Bounded grounding to SAT with a minimal-cost loop.
    Sat,
}

/// Framework-level errors.
#[derive(Debug)]
pub enum CoreError {
    /// A metamodel failed to parse.
    Metamodel(ParseError),
    /// The transformation failed to parse or resolve.
    Frontend(FrontendError),
    /// Binding models failed.
    Check(CheckError),
    /// Checkonly evaluation failed.
    Eval(EvalError),
    /// Enforcement failed.
    Repair(RepairError),
    /// A model edit failed (session edits against missing objects, …).
    Model(ModelError),
    /// A repair shape referenced a model the transformation lacks.
    Shape(ShapeError),
    /// The static-analysis pass rejected the specification (the report
    /// carries every finding, errors first).
    Lint(LintReport),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Metamodel(e) => write!(f, "metamodel: {e}"),
            CoreError::Frontend(e) => write!(f, "{e}"),
            CoreError::Check(e) => write!(f, "check: {e}"),
            CoreError::Eval(e) => write!(f, "eval: {e}"),
            CoreError::Repair(e) => write!(f, "repair: {e}"),
            CoreError::Model(e) => write!(f, "model: {e}"),
            CoreError::Shape(e) => write!(f, "shape: {e}"),
            CoreError::Lint(report) => {
                write!(f, "lint: {} error(s)", report.errors())?;
                if let Some(first) = report.lints.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CoreError {
    /// Chains to the wrapped layer error, so generic error reporters
    /// (`anyhow`-style `{:#}` walkers, `Error::source` loops) see the
    /// full story instead of a single flattened line.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Metamodel(e) => Some(e),
            CoreError::Frontend(e) => Some(e),
            CoreError::Check(e) => Some(e),
            CoreError::Eval(e) => Some(e),
            CoreError::Repair(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Shape(e) => Some(e),
            CoreError::Lint(_) => None,
        }
    }
}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Metamodel(e)
    }
}

impl From<FrontendError> for CoreError {
    fn from(e: FrontendError) -> Self {
        CoreError::Frontend(e)
    }
}

impl From<CheckError> for CoreError {
    fn from(e: CheckError) -> Self {
        CoreError::Check(e)
    }
}

impl From<EvalError> for CoreError {
    fn from(e: EvalError) -> Self {
        CoreError::Eval(e)
    }
}

impl From<RepairError> for CoreError {
    fn from(e: RepairError) -> Self {
        CoreError::Repair(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

/// A multidirectional transformation bound to its metamodels.
///
/// The resolved specification lives behind a shared [`Arc<Hir>`] —
/// cloning a `Transformation` is a couple of reference-count bumps, and
/// every long-lived consumer ([`SyncSession`], [`SyncHub`], each
/// [`mmt_check::DeltaChecker`] a search explores) holds its own handle
/// instead of borrowing the caller's stack frame.
#[derive(Clone, Debug)]
pub struct Transformation {
    hir: Arc<Hir>,
    metamodels: Vec<Arc<Metamodel>>,
}

impl Transformation {
    /// Parses and resolves a transformation from textual sources.
    pub fn from_sources(
        qvtr_src: &str,
        metamodel_srcs: &[&str],
    ) -> Result<Transformation, CoreError> {
        let metamodels: Vec<Arc<Metamodel>> = metamodel_srcs
            .iter()
            .map(|s| parse_metamodel(s))
            .collect::<Result<_, _>>()?;
        let hir = parse_and_resolve(qvtr_src, &metamodels)?;
        Ok(Transformation::from_hir(hir))
    }

    /// Wraps an already-resolved transformation (a plain [`Hir`] or an
    /// already-shared `Arc<Hir>`).
    pub fn from_hir(hir: impl Into<Arc<Hir>>) -> Transformation {
        let hir = hir.into();
        let metamodels = hir.models.iter().map(|m| Arc::clone(&m.meta)).collect();
        Transformation { hir, metamodels }
    }

    /// The resolved representation.
    pub fn hir(&self) -> &Hir {
        &self.hir
    }

    /// The shared handle on the resolved representation — what the
    /// repair engines and incremental checkers clone to own their world.
    pub fn hir_arc(&self) -> &Arc<Hir> {
        &self.hir
    }

    /// The metamodels this transformation was resolved against.
    pub fn metamodels(&self) -> &[Arc<Metamodel>] {
        &self.metamodels
    }

    /// Number of model parameters.
    pub fn arity(&self) -> usize {
        self.hir.arity()
    }

    /// Model parameter names, in model-space order.
    pub fn model_names(&self) -> Vec<Sym> {
        self.hir.models.iter().map(|m| m.name).collect()
    }

    /// Runs the static-analysis pass (`mmt-lint`) over the resolved
    /// specification: well-formedness, repair-conflict, and
    /// grounding-cost lints. Never fails — the report carries the
    /// findings; [`SyncHub::register`] rejects on
    /// [`LintReport::has_errors`].
    pub fn lint(&self) -> LintReport {
        self.lint_with(&LintOptions::default())
    }

    /// As [`Transformation::lint`] with explicit options (e.g. allowed
    /// codes).
    pub fn lint_with(&self, opts: &LintOptions) -> LintReport {
        mmt_lint::lint(&self.hir, opts)
    }

    /// Runs checkonly evaluation (extended semantics, §2.2).
    pub fn check(&self, models: &[Model]) -> Result<CheckReport, CoreError> {
        self.check_with(models, CheckOptions::default())
    }

    /// As [`Transformation::check`] with explicit options.
    pub fn check_with(
        &self,
        models: &[Model],
        opts: CheckOptions,
    ) -> Result<CheckReport, CoreError> {
        let checker = Checker::with_options(&self.hir, models, opts)?;
        Ok(checker.check()?)
    }

    /// Runs §3 least-change enforcement: rewrite the models selected by
    /// `shape` so the tuple becomes consistent, at minimal weighted
    /// distance. Returns `None` when the shape cannot restore consistency
    /// within the engine's bounds; [`CoreError::Shape`] when the shape
    /// targets a model this transformation does not have.
    pub fn enforce(
        &self,
        models: &[Model],
        shape: Shape,
        engine: EngineKind,
    ) -> Result<Option<RepairOutcome>, CoreError> {
        self.enforce_with(models, shape, engine, RepairOptions::default())
    }

    /// As [`Transformation::enforce`] with explicit options.
    pub fn enforce_with(
        &self,
        models: &[Model],
        shape: Shape,
        engine: EngineKind,
        opts: RepairOptions,
    ) -> Result<Option<RepairOutcome>, CoreError> {
        let targets = shape
            .checked_targets(self.arity())
            .map_err(CoreError::Shape)?;
        let outcome = match engine {
            EngineKind::Search => SearchEngine::new(opts).repair(&self.hir, models, targets)?,
            EngineKind::Sat => SatEngine::new(opts).repair(&self.hir, models, targets)?,
        };
        Ok(outcome)
    }

    /// Runs §3 enforcement over a batch of independent model tuples,
    /// fanning the requests across `jobs` worker threads
    /// ([`mmt_enforce::RepairEngine::repair_batch`]). Slot `i` of the
    /// result is exactly what [`Transformation::enforce_with`] would
    /// return for request `i` — the worker pool changes wall-clock time,
    /// never outcomes.
    pub fn enforce_batch(
        &self,
        requests: &[RepairRequest],
        engine: EngineKind,
        opts: RepairOptions,
        jobs: usize,
    ) -> Vec<Result<Option<RepairOutcome>, RepairError>> {
        match engine {
            EngineKind::Search => SearchEngine::new(opts).repair_batch(&self.hir, requests, jobs),
            EngineKind::Sat => SatEngine::new(opts).repair_batch(&self.hir, requests, jobs),
        }
    }

    /// Opens a stateful [`SyncSession`] over `models`: one cold start,
    /// then O(|edit|) consistency tracking and warm-rooted repairs for
    /// the whole edit→check→repair loop. See [`session`].
    ///
    /// The session is a `'static + Send` handle — it clones this
    /// transformation's shared internals (cheap: reference-count bumps)
    /// and owns them, so it can outlive the caller's borrow, move to
    /// another thread, or be parked in a [`SyncHub`].
    pub fn session(&self, models: &[Model]) -> Result<SyncSession, CoreError> {
        SyncSession::new(self.clone(), models)
    }

    /// As [`Transformation::session`] with explicit [`SessionOptions`]
    /// (engine choice and repair options).
    pub fn session_with(
        &self,
        models: &[Model],
        opts: SessionOptions,
    ) -> Result<SyncSession, CoreError> {
        SyncSession::with_options(self.clone(), models, opts)
    }

    /// A copy of this transformation with every relation's dependency set
    /// replaced by the *standard semantics* over its domain models
    /// (`{dom R ∖ Mᵢ → Mᵢ}`). Used for the §2.1 expressiveness comparison
    /// and the §2.2 conservativity experiment.
    pub fn standardized(&self) -> Transformation {
        let mut hir = (*self.hir).clone();
        for rel in &mut hir.relations {
            let dom_models = DomSet::from_iter(rel.domains.iter().map(|d| d.model));
            let mut deps = DepSet::new(self.hir.arity());
            for d in &rel.domains {
                let dep = mmt_deps::Dep::new(dom_models.without(d.model), d.model)
                    .expect("target excluded from sources");
                deps.add(dep).expect("within arity");
            }
            rel.deps = deps;
        }
        Transformation {
            hir: Arc::new(hir),
            metamodels: self.metamodels.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_gen::{
        feature_workload, inject, transformation_source, FeatureSpec, Injection, CF_METAMODEL,
        FM_METAMODEL,
    };

    fn paper_transformation(k: usize) -> Transformation {
        Transformation::from_sources(&transformation_source(k), &[CF_METAMODEL, FM_METAMODEL])
            .unwrap()
    }

    #[test]
    fn check_consistent_workload() {
        let t = paper_transformation(2);
        let w = feature_workload(FeatureSpec::default());
        let report = t.check(&w.models).unwrap();
        assert!(report.consistent());
        assert_eq!(t.arity(), 3);
        assert_eq!(t.model_names().len(), 3);
    }

    #[test]
    fn shapes_enumerate_the_papers_transformations() {
        // For F ⊆ CF² × FM (fm at index 2):
        let fm = 2;
        // →F_FM : CFᵏ → FM.
        assert_eq!(Shape::towards(fm).targets().len(), 1);
        // →Fⁱ_CF.
        assert_eq!(Shape::towards(0).targets().len(), 1);
        // →F_CFᵏ : FM → CFᵏ.
        assert_eq!(Shape::of(&[0, 1]).targets().len(), 2);
        // →Fⁱ_{FM×CFᵏ⁻¹}.
        let s = Shape::all_but(0, 3);
        assert_eq!(s.targets().len(), 2);
        assert!(!s.targets().contains(DomIdx(0)));
        assert_eq!(Shape::all(3).targets().len(), 3);
        assert_eq!(Shape::of(&[0, 1]).to_string(), "→{M0 M1}");
    }

    #[test]
    fn enforce_repairs_injected_inconsistency() {
        let t = paper_transformation(2);
        let mut w = feature_workload(FeatureSpec {
            n_features: 4,
            ..FeatureSpec::default()
        });
        inject(&mut w, Injection::NewMandatoryInFm);
        assert!(!t.check(&w.models).unwrap().consistent());
        for engine in [EngineKind::Search, EngineKind::Sat] {
            let out = t
                .enforce(&w.models, Shape::of(&[0, 1]), engine)
                .unwrap()
                .expect("repairable");
            assert!(t.check(&out.models).unwrap().consistent(), "{engine:?}");
            assert!(out.cost > 0);
        }
    }

    #[test]
    fn standardized_transformation_misses_the_loophole() {
        // The §2.1 expressiveness gap, at the framework level.
        let t = paper_transformation(2);
        let std_t = t.standardized();
        let mut w = feature_workload(FeatureSpec {
            n_features: 3,
            k_configs: 2,
            mandatory_ratio: 1.0,
            select_prob: 0.0,
            seed: 5,
        });
        // Empty both configurations: extended semantics sees the missing
        // mandatory selections; standard semantics is blind.
        for c in 0..2 {
            let ids: Vec<_> = w.models[c].objects().map(|(id, _)| id).collect();
            for id in ids {
                w.models[c].delete(id).unwrap();
            }
        }
        assert!(!t.check(&w.models).unwrap().consistent());
        assert!(std_t.check(&w.models).unwrap().consistent());
    }

    #[test]
    fn enforce_batch_matches_per_request_enforce() {
        let t = paper_transformation(2);
        let requests: Vec<RepairRequest> = (0..6u64)
            .map(|seed| {
                let mut w = feature_workload(FeatureSpec {
                    n_features: 4,
                    seed,
                    ..FeatureSpec::default()
                });
                inject(&mut w, Injection::NewMandatoryInFm);
                RepairRequest {
                    models: w.models,
                    targets: Shape::of(&[0, 1]).targets(),
                }
            })
            .collect();
        for engine in [EngineKind::Search, EngineKind::Sat] {
            for jobs in [1usize, 3] {
                let opts = RepairOptions::default();
                let batch = t.enforce_batch(&requests, engine, opts.clone(), jobs);
                assert_eq!(batch.len(), requests.len());
                for (i, (req, out)) in requests.iter().zip(&batch).enumerate() {
                    let single = t
                        .enforce_with(
                            &req.models,
                            Shape::from_targets(req.targets),
                            engine,
                            opts.clone(),
                        )
                        .unwrap();
                    let out = out.as_ref().unwrap();
                    assert_eq!(
                        out.as_ref().map(|o| o.cost),
                        single.as_ref().map(|o| o.cost),
                        "{engine:?} jobs={jobs} request {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn enforce_with_unrepairable_shape_returns_none() {
        let t = paper_transformation(2);
        let mut w = feature_workload(FeatureSpec {
            n_features: 4,
            ..FeatureSpec::default()
        });
        inject(&mut w, Injection::NewMandatoryInFm);
        for engine in [EngineKind::Search, EngineKind::Sat] {
            let out = t.enforce(&w.models, Shape::towards(0), engine).unwrap();
            assert!(out.is_none(), "{engine:?}");
        }
    }

    #[test]
    fn error_display() {
        let e = Transformation::from_sources("junk", &[CF_METAMODEL]).unwrap_err();
        assert!(e.to_string().contains("syntax"));
        let e = Transformation::from_sources(&transformation_source(1), &["metamodel X {"])
            .unwrap_err();
        assert!(matches!(e, CoreError::Metamodel(_)));
    }

    /// ISSUE 5 satellite: `CoreError::source()` chains to the wrapped
    /// layer error — walking the chain reaches the inner error whose
    /// message the `Display` impl embeds.
    #[test]
    fn error_source_chains_to_the_wrapped_layer() {
        use std::error::Error as _;
        let t = paper_transformation(2);
        let w = feature_workload(FeatureSpec::default());
        let cases: Vec<CoreError> = vec![
            Transformation::from_sources("junk", &[CF_METAMODEL]).unwrap_err(),
            Transformation::from_sources(&transformation_source(1), &["metamodel X {"])
                .unwrap_err(),
            t.check(&w.models[..1]).unwrap_err(),
            t.enforce(&w.models, Shape::towards(256), EngineKind::Search)
                .unwrap_err(),
            t.enforce_with(
                &w.models,
                Shape::all(3),
                EngineKind::Search,
                RepairOptions {
                    tuple: mmt_dist::TupleCost::weighted(vec![1, 1]),
                    ..RepairOptions::default()
                },
            )
            .unwrap_err(),
        ];
        for e in cases {
            let source = e.source().unwrap_or_else(|| panic!("{e}: no source"));
            // The chain is real: the top-level message embeds the
            // wrapped error's own rendering.
            assert!(
                e.to_string().contains(&source.to_string()),
                "{e} does not embed {source}"
            );
        }
        // Model-layer errors chain through a live session edit.
        let mut session = t.session(&w.models).unwrap();
        let fm = w.fm.class_named("Feature").unwrap();
        let err = session
            .apply(
                mmt_deps::DomIdx(2),
                mmt_dist::EditOp::DelObj {
                    id: mmt_model::ObjId(9999),
                    class: fm,
                },
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
        assert!(err.source().is_some());
    }

    /// ISSUE 5 satellite (failing before): `Shape` constructors used to
    /// truncate `usize as u8`, so `towards(256)` silently meant "model
    /// 0" — a wrong-but-valid target set the engines happily repaired.
    /// Checked construction + entry-point validation turn every
    /// out-of-range index into a typed [`CoreError::Shape`].
    #[test]
    fn out_of_range_shapes_are_rejected_not_truncated() {
        let t = paper_transformation(2); // arity 3
        let w = feature_workload(FeatureSpec::default());
        let bad = [
            Shape::towards(256),   // wrapped to M0 before
            Shape::towards(3),     // in-bitset but beyond the arity
            Shape::of(&[0, 999]),  // one good index, one absurd
            Shape::of(&[0, 64]),   // exactly the bitset width
            Shape::all_but(70, 3), // u8-truncated to `without(M6)` before
            Shape::all_but(3, 3),  // "all but" a model the tuple lacks
        ];
        for shape in bad {
            for engine in [EngineKind::Search, EngineKind::Sat] {
                let err = t.enforce(&w.models, shape, engine).unwrap_err();
                assert!(
                    matches!(err, CoreError::Shape(ShapeError { .. })),
                    "{shape}: {err}"
                );
            }
            let mut session = t.session(&w.models).unwrap();
            let err = session.repair(shape).unwrap_err();
            assert!(matches!(err, CoreError::Shape(_)), "{shape}: {err}");
        }
        // In-range shapes still validate cleanly …
        assert_eq!(
            Shape::of(&[0, 1]).checked_targets(3).unwrap(),
            Shape::of(&[0, 1]).targets()
        );
        // … and the error names the offending index and the arity.
        let e = Shape::towards(256).checked_targets(3).unwrap_err();
        assert_eq!((e.index, e.arity), (256, 3));
        assert!(e.to_string().contains("256"));
        let e = Shape::towards(3).checked_targets(3).unwrap_err();
        assert_eq!((e.index, e.arity), (3, 3));
    }
}
