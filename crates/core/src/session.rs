//! Stateful synchronization sessions: the warm edit→check→repair loop.
//!
//! The paper's framework is a *synchronization service* — models drift
//! apart through edits, and the engine restores consistency with
//! least-change repairs. The stateless entry points
//! ([`Transformation::check`], [`Transformation::enforce`]) rebuild the
//! whole checking state on every call: one cold start per request. A
//! [`SyncSession`] pays that cold start **once** and then keeps the
//! incremental oracle warm across the whole loop:
//!
//! * [`SyncSession::apply`] pushes one [`EditOp`] through the live
//!   [`DeltaChecker`] — consistency status is
//!   re-established in time proportional to the edit, not the tuple;
//! * [`SyncSession::status`] / [`SyncSession::report`] read the cached
//!   verdicts — no evaluation at all;
//! * [`SyncSession::repair`] forks the warm checker and hands it to the
//!   repair engine as a pre-warmed search root
//!   ([`RepairEngine::repair_warm`]),
//!   skipping the engine's initial full check; the repair delta is
//!   auto-applied back through the same incremental path and journaled;
//! * [`SyncSession::rollback`] undoes journal entries by replaying
//!   exact inverse edits ([`Delta::inverse`]) through the same path.
//!
//! Every mutation lands in the **journal** in an *expanded*, exactly
//! invertible form ([`expand_op`]): a `DelObj` of an object that still
//! carries links or non-default attributes is journaled as explicit
//! `DelLink` / `SetAttr`-to-default ops followed by the bare deletion,
//! so [`Delta::inverse`] restores the object perfectly. Replaying
//! [`SyncSession::journal_script`] over the seed tuple reproduces the
//! live tuple byte for byte.
//!
//! Outcome contract: a session is an *optimization*, never a semantic
//! fork. [`SyncSession::repair`] returns exactly what the stateless
//! [`Transformation::enforce_with`] would return on the session's
//! current tuple — the warm path changes wall-clock time, not results.
//!
//! Ownership: a session owns everything it needs — the model tuple
//! (inside its warm checker) and a shared [`Arc<Transformation>`] — so
//! it is a `'static + Send` handle. Nothing pins it to the stack frame
//! that opened it: move it into a worker thread, store it in a
//! [`crate::SyncHub`], or hold it across await points in a server.

use crate::{CoreError, EngineKind, Shape, Transformation};
use mmt_check::{CheckOptions, CheckReport, DeltaChecker};
use mmt_deps::DomIdx;
use mmt_dist::{expand_op, Delta, EditOp};
use mmt_enforce::{RepairEngine, RepairError, RepairOptions, SatEngine, SearchEngine};
use mmt_model::Model;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The next journal-entry serial. One counter for the whole process, so
/// no two entries of any two sessions ever share a serial; 0 is never
/// issued. `Relaxed` is enough: `fetch_add` hands out distinct values
/// under any ordering, and a serial publishes no other data.
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(1);

/// Options a session is opened with.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Engine [`SyncSession::repair`] runs. [`EngineKind::Search`] (the
    /// default) exploits the warm checker as a pre-warmed search root;
    /// [`EngineKind::Sat`] re-grounds from the live tuple (CNF has no
    /// incremental state to reuse).
    pub engine: EngineKind,
    /// Repair options threaded through to the engine.
    pub repair: RepairOptions,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            engine: EngineKind::Search,
            repair: RepairOptions::default(),
        }
    }
}

/// What one journal entry records.
#[derive(Clone, Debug)]
pub enum JournalKind {
    /// One [`SyncSession::apply`] / [`SyncSession::apply_script`] call.
    Edit,
    /// One auto-applied [`SyncSession::repair`].
    Repair {
        /// The shape the repair ran under.
        shape: Shape,
        /// Its weighted least-change cost.
        cost: u64,
    },
}

/// One journaled session action: per-model edit scripts in expanded,
/// exactly invertible form (deletions never swallow structure).
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// Edit or repair.
    pub kind: JournalKind,
    /// Per-model scripts, in model-space order (empty for untouched
    /// models).
    pub deltas: Vec<Delta>,
}

/// The session's consistency status, read from the warm cache — no
/// evaluation happens to produce one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncStatus {
    /// True iff every directional check currently holds.
    pub consistent: bool,
    /// Violating universal bindings across all checks (uncapped).
    pub violations: usize,
}

/// A successful [`SyncSession::repair`]: the least-change scripts, as
/// returned by the engine, already applied to the session.
#[derive(Clone, Debug)]
pub struct SyncRepair {
    /// Total weighted distance of the repair.
    pub cost: u64,
    /// Per-model repair scripts (engine form, not journal-expanded).
    pub deltas: Vec<Delta>,
}

/// A long-lived synchronization session over one model tuple: owns the
/// warm incremental checker and the edit journal. See the
/// [module docs](self) for the design.
///
/// ```
/// use mmt_core::{Shape, SyncSession, Transformation};
/// use mmt_deps::DomIdx;
/// use mmt_dist::EditOp;
/// use mmt_gen::{feature_workload, FeatureSpec, CF_METAMODEL, FM_METAMODEL};
/// use mmt_model::{ObjId, Value};
///
/// let t = Transformation::from_sources(
///     &mmt_gen::transformation_source(2),
///     &[CF_METAMODEL, FM_METAMODEL],
/// ).unwrap();
/// let w = feature_workload(FeatureSpec::default());
///
/// // One cold start; everything after is O(edit).
/// let mut session = t.session(&w.models).unwrap();
/// assert!(session.status().consistent);
///
/// // Drift: add a fresh mandatory feature to the feature model.
/// let fm = &w.fm;
/// let feature = fm.class_named("Feature").unwrap();
/// let name = fm.attr_of(feature, mmt_model::Sym::new("name")).unwrap();
/// let mand = fm.attr_of(feature, mmt_model::Sym::new("mandatory")).unwrap();
/// let fm_idx = DomIdx(2);
/// let id = ObjId(session.models()[2].id_bound() as u32);
/// session.apply(fm_idx, EditOp::AddObj { id, class: feature }).unwrap();
/// session.apply(fm_idx, EditOp::SetAttr {
///     id, attr: name, value: Value::str("brakes"), old: Value::str(""),
/// }).unwrap();
/// let status = session.apply(fm_idx, EditOp::SetAttr {
///     id, attr: mand, value: Value::Bool(true), old: Value::Bool(false),
/// }).unwrap();
/// assert!(!status.consistent);
///
/// // Least-change repair towards the configurations, from the warm state.
/// let repair = session.repair(Shape::of(&[0, 1])).unwrap().expect("repairable");
/// assert!(repair.cost > 0);
/// assert!(session.status().consistent);
///
/// // The journal saw 3 edits + 1 repair; roll everything back.
/// assert_eq!(session.journal().len(), 4);
/// session.rollback_all().unwrap();
/// assert!(session.status().consistent);
/// assert!(session.models()[2].graph_eq(&w.models[2]));
/// ```
pub struct SyncSession {
    t: Arc<Transformation>,
    checker: DeltaChecker,
    journal: Vec<JournalEntry>,
    /// One serial per journal entry, in journal order.
    serials: Vec<u64>,
    /// Every model's `id_bound()` at open and after each journal entry:
    /// arity values per state, in journal order. Undoing an entry drops
    /// the tombstones it leaves past the bounds before it, so ids minted
    /// afterwards are the ones a replay of the shorter journal mints.
    bounds: Vec<usize>,
    opts: SessionOptions,
}

impl SyncSession {
    /// Opens a session over `models` (cloned; the session owns its
    /// tuple) with default [`SessionOptions`]. This is the one cold
    /// start: the initial full consistency check runs here.
    ///
    /// The session takes (or shares — pass an [`Arc<Transformation>`])
    /// ownership of the transformation: a `SyncSession` is a `'static +
    /// Send` handle that can outlive the opening stack frame, move
    /// across threads, and be parked in a [`crate::SyncHub`].
    pub fn new(
        t: impl Into<Arc<Transformation>>,
        models: &[Model],
    ) -> Result<SyncSession, CoreError> {
        SyncSession::with_options(t, models, SessionOptions::default())
    }

    /// As [`SyncSession::new`] with explicit options.
    pub fn with_options(
        t: impl Into<Arc<Transformation>>,
        models: &[Model],
        opts: SessionOptions,
    ) -> Result<SyncSession, CoreError> {
        let t = t.into();
        let check_opts = CheckOptions {
            max_violations: usize::MAX,
            ..CheckOptions::default()
        };
        let checker = DeltaChecker::with_options(t.hir_arc(), models, check_opts)?;
        let bounds = checker.models().iter().map(Model::id_bound).collect();
        Ok(SyncSession {
            t,
            checker,
            journal: Vec::new(),
            serials: Vec::new(),
            bounds,
            opts,
        })
    }

    /// The transformation this session synchronizes against (a shared
    /// handle — clone it to open sibling sessions over the same
    /// specification).
    pub fn transformation(&self) -> &Arc<Transformation> {
        &self.t
    }

    /// The live model tuple, in model-space order.
    pub fn models(&self) -> &[Model] {
        self.checker.models()
    }

    /// The journal: one entry per effective [`SyncSession::apply`],
    /// [`SyncSession::apply_script`], or [`SyncSession::repair`] (no-op
    /// actions and cost-0 repairs are not journaled).
    pub fn journal(&self) -> &[JournalEntry] {
        &self.journal
    }

    /// One serial per [`SyncSession::journal`] entry, in journal order.
    /// A serial names one push of one entry: it is drawn from a
    /// process-wide counter when the entry is journaled (by the live
    /// path or by [`SyncSession::replay_entry`]), leaves with the entry
    /// on [`SyncSession::rollback`], and is never issued again, in this
    /// session or any other. Two equal serials at the same index
    /// therefore mean the same entry, which lets a durable store find
    /// what changed since its last commit without comparing entries.
    /// Serials are never 0.
    pub fn journal_serials(&self) -> &[u64] {
        &self.serials
    }

    /// The warm checker itself — a read-only view for callers that want
    /// the cached match state (e.g. to fork their own search roots).
    pub fn checker(&self) -> &DeltaChecker {
        &self.checker
    }

    /// Current consistency status, from the warm cache. O(match state),
    /// no evaluation.
    pub fn status(&self) -> SyncStatus {
        SyncStatus {
            consistent: self.checker.consistent(),
            violations: self.checker.violation_count(),
        }
    }

    /// The full [`CheckReport`], assembled from the warm cache — no
    /// re-checking.
    pub fn report(&self) -> CheckReport {
        self.checker.report()
    }

    /// Applies one edit to the model at `model`: the tuple changes, the
    /// incremental oracle re-establishes consistency status in
    /// O(|edit|), and the (expanded) edit is journaled. No-op edits
    /// (setting an attribute to its current value, re-adding a present
    /// link, removing an absent one) change nothing and are not
    /// journaled.
    ///
    /// On [`CoreError::Model`] the session is unchanged; on
    /// [`CoreError::Eval`] the checker is poisoned and the session must
    /// be reopened.
    pub fn apply(&mut self, model: DomIdx, op: EditOp) -> Result<SyncStatus, CoreError> {
        let mut deltas = vec![Delta::new(); self.t.arity()];
        let result = self.apply_into(model, &op, &mut deltas);
        self.commit_entry(JournalKind::Edit, deltas);
        result.map(|()| self.status())
    }

    /// Applies a whole edit script to the model at `model`
    /// ([`SyncSession::apply`] per op, in script order) as **one**
    /// journal entry — one [`SyncSession::rollback`] step undoes the
    /// whole script. If an op fails midway, the ops already applied stay
    /// journaled (so they remain rollback-able) and the error is
    /// returned.
    pub fn apply_script(&mut self, model: DomIdx, delta: &Delta) -> Result<SyncStatus, CoreError> {
        let mut deltas = vec![Delta::new(); self.t.arity()];
        let mut result = Ok(());
        for op in delta.ops() {
            result = self.apply_into(model, op, &mut deltas);
            if result.is_err() {
                break;
            }
        }
        self.commit_entry(JournalKind::Edit, deltas);
        result.map(|()| self.status())
    }

    /// Runs a least-change repair under `shape` from the **warm**
    /// checker state, auto-applies the repair scripts to the session,
    /// and journals them (one entry). Returns `None` — journaling
    /// nothing — when no repair exists within the engine's bounds.
    ///
    /// The outcome (cost, scripts, resulting tuple) is exactly what the
    /// stateless [`Transformation::enforce_with`] would produce for the
    /// session's current tuple with the session's options; a consistent
    /// tuple short-circuits to a cost-0 repair without running any
    /// engine.
    pub fn repair(&mut self, shape: Shape) -> Result<Option<SyncRepair>, CoreError> {
        let targets = shape
            .checked_targets(self.t.arity())
            .map_err(CoreError::Shape)?;
        if targets.is_empty() {
            return Err(CoreError::Repair(RepairError::NoTargets));
        }
        if self.checker.consistent() {
            return Ok(Some(SyncRepair {
                cost: 0,
                deltas: vec![Delta::new(); self.t.arity()],
            }));
        }
        let outcome = match self.opts.engine {
            EngineKind::Search => {
                SearchEngine::new(self.opts.repair.clone()).repair_warm(&self.checker, targets)
            }
            EngineKind::Sat => {
                SatEngine::new(self.opts.repair.clone()).repair_warm(&self.checker, targets)
            }
        }
        .map_err(CoreError::Repair)?;
        let Some(out) = outcome else {
            return Ok(None);
        };
        let mut deltas = vec![Delta::new(); self.t.arity()];
        let mut result = Ok(());
        'models: for (i, script) in out.deltas.iter().enumerate() {
            for op in script.ops() {
                result = self.apply_into(DomIdx(i as u8), op, &mut deltas);
                if result.is_err() {
                    break 'models;
                }
            }
        }
        self.commit_entry(
            JournalKind::Repair {
                shape,
                cost: out.cost,
            },
            deltas,
        );
        result?;
        debug_assert!(self.checker.consistent(), "repair left violations behind");
        Ok(Some(SyncRepair {
            cost: out.cost,
            deltas: out.deltas,
        }))
    }

    /// Undoes the last `n` journal entries (saturating at the journal
    /// length) by replaying exact inverse edits through the incremental
    /// path, then dropping the tombstones each entry left past the id
    /// bounds it started from. Returns how many entries were undone.
    /// `rollback` of everything restores the seed tuple exactly, id
    /// bounds included.
    pub fn rollback(&mut self, n: usize) -> Result<usize, CoreError> {
        let n = n.min(self.journal.len());
        for _ in 0..n {
            let entry = self.journal.pop().expect("n is bounded by the length");
            self.serials.pop();
            let arity = entry.deltas.len();
            self.bounds.truncate(self.bounds.len() - arity);
            let prior = &self.bounds[self.bounds.len() - arity..];
            for (i, delta) in entry.deltas.iter().enumerate() {
                let model = DomIdx(i as u8);
                self.checker.apply_delta(model, &delta.inverse())?;
                self.checker.truncate_tombstones(model, prior[i]);
            }
        }
        Ok(n)
    }

    /// Undoes the whole journal ([`SyncSession::rollback`] of its
    /// length): the session returns to its seed tuple.
    pub fn rollback_all(&mut self) -> Result<usize, CoreError> {
        self.rollback(self.journal.len())
    }

    /// Replays one **already-expanded** journal entry — the exact form
    /// [`SyncSession::journal`] stores and a durable store persists —
    /// through the incremental path, then pushes the entry onto the
    /// journal verbatim, under a fresh
    /// [serial](SyncSession::journal_serials).
    ///
    /// Unlike [`SyncSession::apply`], ops are *not* re-expanded or
    /// no-op-filtered: expanded entries are fixpoints of expansion, so
    /// re-running them op by op reproduces the original session's
    /// checker state and journal bytes exactly. That is
    /// the recovery ≡ replay contract crash recovery (`mmt-store`)
    /// builds on. Empty entries are skipped (the live path never
    /// journals them).
    ///
    /// On error the entry is not journaled but the checker may have
    /// absorbed a prefix of it — discard the session, as with
    /// [`CoreError::Eval`] poisoning.
    pub fn replay_entry(&mut self, entry: JournalEntry) -> Result<SyncStatus, CoreError> {
        assert_eq!(
            entry.deltas.len(),
            self.t.arity(),
            "journal entry arity matches the session"
        );
        for (i, delta) in entry.deltas.iter().enumerate() {
            self.checker.apply_delta(DomIdx(i as u8), delta)?;
        }
        self.commit_entry(entry.kind, entry.deltas);
        Ok(self.status())
    }

    /// Reconstructs the tuple this session was opened over by replaying
    /// the journal's exact inverse over a copy of the live tuple —
    /// possible because entries are stored in expanded, exactly
    /// invertible form. Durable stores use this to write an id-faithful
    /// seed without having kept the original models around.
    pub fn seed_models(&self) -> Result<Vec<Model>, CoreError> {
        let mut models = self.checker.models().to_vec();
        let arity = models.len();
        for (e, entry) in self.journal.iter().enumerate().rev() {
            for (i, delta) in entry.deltas.iter().enumerate() {
                delta
                    .inverse()
                    .apply(&mut models[i])
                    .map_err(CoreError::Model)?;
                models[i].truncate_tombstones(self.bounds[e * arity + i]);
            }
        }
        Ok(models)
    }

    /// Flattens the journal into one per-model script, in entry order.
    /// Applying slot `i` to the seed tuple's model `i` reproduces the
    /// live model byte for byte — the replay invariant the differential
    /// suite checks.
    pub fn journal_script(&self) -> Vec<Delta> {
        let mut out = vec![Delta::new(); self.t.arity()];
        for entry in &self.journal {
            for (i, delta) in entry.deltas.iter().enumerate() {
                for &op in delta.ops() {
                    out[i].push(op);
                }
            }
        }
        out
    }

    /// Pushes a journal entry under a fresh serial, with the id bounds
    /// it leaves, unless it is empty (pure no-op action).
    fn commit_entry(&mut self, kind: JournalKind, deltas: Vec<Delta>) {
        if deltas.iter().any(|d| !d.is_empty()) {
            self.journal.push(JournalEntry { kind, deltas });
            self.serials
                .push(NEXT_SERIAL.fetch_add(1, Ordering::Relaxed));
            let models = self.checker.models();
            self.bounds.extend(models.iter().map(Model::id_bound));
        }
    }

    /// Applies one op in expanded form: checker updated, effective ops
    /// recorded into `entry`. Ops that fail leave the session unchanged
    /// and unrecorded.
    fn apply_into(
        &mut self,
        model: DomIdx,
        op: &EditOp,
        entry: &mut [Delta],
    ) -> Result<(), CoreError> {
        let m = model.index();
        assert!(m < self.t.arity(), "model index out of range");
        let mut script = Vec::new();
        expand_op(&self.checker.models()[m], op, &mut script);
        for e in script {
            self.checker.apply(model, &e)?;
            entry[m].push(e);
        }
        Ok(())
    }
}

impl std::fmt::Debug for SyncSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSession")
            .field("arity", &self.t.arity())
            .field("consistent", &self.checker.consistent())
            .field("journal_len", &self.journal.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_deps::DomSet;
    use mmt_gen::{feature_workload, inject, FeatureSpec, Injection};
    use mmt_model::text::print_model;
    use mmt_model::{ObjId, Sym, Value};

    fn fixture() -> (Transformation, mmt_gen::FeatureWorkload) {
        let t = Transformation::from_sources(
            &mmt_gen::transformation_source(2),
            &[mmt_gen::CF_METAMODEL, mmt_gen::FM_METAMODEL],
        )
        .unwrap();
        let w = feature_workload(FeatureSpec {
            n_features: 5,
            ..FeatureSpec::default()
        });
        (t, w)
    }

    /// The redesign's core guarantee, compile-asserted: a session is a
    /// `'static + Send` handle (it owns its tuple and shares the
    /// transformation behind `Arc`), so servers can hold it beyond the
    /// opening stack frame and move it across threads.
    #[test]
    fn sessions_are_static_send_handles() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<SyncSession>();
        assert_send::<SessionOptions>();
        // And in practice: open on this thread, drive on another —
        // impossible with the historical `SyncSession<'t>` borrow.
        let (t, w) = fixture();
        let session = t.session(&w.models).unwrap();
        drop(t); // the opening transformation value can die first
        let handle = std::thread::spawn(move || {
            let mut session = session;
            let fm = session.transformation().metamodels()[2].clone();
            let feature = fm.class_named("Feature").unwrap();
            let id = ObjId(session.models()[2].id_bound() as u32);
            session
                .apply(DomIdx(2), EditOp::AddObj { id, class: feature })
                .unwrap();
            session.rollback_all().unwrap();
            session.status()
        });
        assert!(handle.join().unwrap().consistent);
    }

    #[test]
    fn status_reads_cache_without_evaluation() {
        let (t, w) = fixture();
        let session = t.session(&w.models).unwrap();
        assert!(session.status().consistent);
        assert_eq!(session.status().violations, 0);
        assert!(session.report().consistent());
        // The initial check is the only evaluation that happened.
        assert_eq!(session.checker().delta_stats().edits, 0);
    }

    #[test]
    fn noop_edits_are_not_journaled() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        let fm = w.fm.class_named("Feature").unwrap();
        let mand = w.fm.attr_of(fm, Sym::new("mandatory")).unwrap();
        let cur = session.models()[2].attr(ObjId(0), mand).unwrap();
        session
            .apply(
                DomIdx(2),
                EditOp::SetAttr {
                    id: ObjId(0),
                    attr: mand,
                    value: cur,
                    old: cur,
                },
            )
            .unwrap();
        assert!(session.journal().is_empty());
    }

    #[test]
    fn failed_edit_leaves_session_unchanged() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        let fm = w.fm.class_named("Feature").unwrap();
        let before: Vec<String> = session.models().iter().map(print_model).collect();
        let bounds: Vec<usize> = session.models().iter().map(Model::id_bound).collect();
        let err = session.apply(
            DomIdx(2),
            EditOp::DelObj {
                id: ObjId(999),
                class: fm,
            },
        );
        assert!(matches!(err, Err(CoreError::Model(_))));
        assert!(session.journal().is_empty());
        let after: Vec<String> = session.models().iter().map(print_model).collect();
        assert_eq!(after, before);
        assert_eq!(
            session
                .models()
                .iter()
                .map(Model::id_bound)
                .collect::<Vec<_>>(),
            bounds
        );
        assert!(session.models()[2].graph_eq(&w.models[2]));
    }

    #[test]
    fn repair_restores_consistency_and_journals() {
        let (t, mut w) = fixture();
        let seed = w.models.clone();
        let mut session = t.session(&w.models).unwrap();
        inject(&mut w, Injection::NewMandatoryInFm);
        // Mirror the injection as session edits.
        let d = Delta::between(&seed[2], &w.models[2]).unwrap();
        let status = session.apply_script(DomIdx(2), &d).unwrap();
        assert!(!status.consistent);
        let repair = session
            .repair(Shape::of(&[0, 1]))
            .unwrap()
            .expect("repairable");
        assert!(repair.cost > 0);
        assert!(session.status().consistent);
        assert_eq!(session.journal().len(), 2);
        assert!(matches!(
            session.journal()[1].kind,
            JournalKind::Repair { cost, .. } if cost == repair.cost
        ));
        // Cost-0 repair on the now-consistent tuple journals nothing.
        let zero = session.repair(Shape::of(&[0, 1])).unwrap().unwrap();
        assert_eq!(zero.cost, 0);
        assert_eq!(session.journal().len(), 2);
        // Roll the repair and the edits back: the seed graph returns.
        session.rollback_all().unwrap();
        for (live, orig) in session.models().iter().zip(&seed) {
            assert_eq!(print_model(live), print_model(orig));
        }
    }

    #[test]
    fn unrepairable_shape_returns_none_and_journals_nothing() {
        let (t, mut w) = fixture();
        let seed = w.models.clone();
        let mut session = t.session(&w.models).unwrap();
        inject(&mut w, Injection::NewMandatoryInFm);
        let d = Delta::between(&seed[2], &w.models[2]).unwrap();
        session.apply_script(DomIdx(2), &d).unwrap();
        let journal_len = session.journal().len();
        let out = session.repair(Shape::towards(0)).unwrap();
        assert!(out.is_none());
        assert_eq!(session.journal().len(), journal_len);
        // And the empty shape errors like the engines do.
        assert!(matches!(
            session.repair(Shape::from_targets(DomSet::EMPTY)),
            Err(CoreError::Repair(RepairError::NoTargets))
        ));
    }

    #[test]
    fn partial_rollback_pops_entries_in_reverse() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        let cf = w.cf.class_named("Feature").unwrap();
        let name = w.cf.attr_of(cf, Sym::new("name")).unwrap();
        let id = ObjId(session.models()[0].id_bound() as u32);
        session
            .apply(DomIdx(0), EditOp::AddObj { id, class: cf })
            .unwrap();
        let mid = session.models()[0].clone();
        session
            .apply(
                DomIdx(0),
                EditOp::SetAttr {
                    id,
                    attr: name,
                    value: Value::str("late"),
                    old: Value::str(""),
                },
            )
            .unwrap();
        assert_eq!(session.rollback(1).unwrap(), 1);
        assert_eq!(print_model(&session.models()[0]), print_model(&mid));
        assert_eq!(session.rollback(5).unwrap(), 1); // saturates
        assert!(session.models()[0].graph_eq(&w.models[0]));
        assert_eq!(session.rollback(1).unwrap(), 0);
    }

    /// Rollback is exact down to the id bounds: undoing an `AddObj`
    /// drops its tombstone, so the next fresh object gets the undone
    /// one's id, while the tombstone of an earlier deletion stays.
    /// `seed_models` reconstructs the seed's bounds the same way.
    #[test]
    fn rollback_restores_id_bounds() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        let cf = w.cf.class_named("Feature").unwrap();
        let bound = session.models()[0].id_bound();
        let last = ObjId(bound as u32 - 1);
        session
            .apply(
                DomIdx(0),
                EditOp::DelObj {
                    id: last,
                    class: cf,
                },
            )
            .unwrap();
        for k in 0..2 {
            let id = ObjId((bound + k) as u32);
            session
                .apply(DomIdx(0), EditOp::AddObj { id, class: cf })
                .unwrap();
        }
        assert_eq!(session.models()[0].id_bound(), bound + 2);
        assert_eq!(session.seed_models().unwrap()[0].id_bound(), bound);
        session.rollback(1).unwrap();
        assert_eq!(session.models()[0].id_bound(), bound + 1);
        session.rollback(1).unwrap();
        assert_eq!(session.models()[0].id_bound(), bound);
        assert!(!session.models()[0].contains(last));
        session.rollback(1).unwrap();
        assert!(session.models()[0].graph_eq(&w.models[0]));
        assert_eq!(session.models()[0].id_bound(), bound);
    }

    #[test]
    fn journal_serials_are_never_reused() {
        let (t, w) = fixture();
        let fm = w.fm.class_named("Feature").unwrap();
        let name = w.fm.attr_of(fm, Sym::new("name")).unwrap();
        let rename = |s: &mut SyncSession, to: &str| {
            let old = s.models()[2].attr(ObjId(0), name).unwrap();
            s.apply(
                DomIdx(2),
                EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name,
                    value: Value::str(to),
                    old,
                },
            )
            .unwrap();
        };
        let mut a = t.session(&w.models).unwrap();
        let mut b = t.session(&w.models).unwrap();
        rename(&mut a, "x");
        rename(&mut a, "y");
        rename(&mut b, "x");
        assert_eq!(a.journal_serials().len(), 2);
        let first = a.journal_serials().to_vec();
        // A rollback takes the serial with the entry; the identical edit
        // comes back under a new one.
        a.rollback(1).unwrap();
        assert_eq!(a.journal_serials(), &first[..1]);
        rename(&mut a, "y");
        assert_eq!(a.journal_serials()[0], first[0]);
        assert!(a.journal_serials()[1] > first[1]);
        // Sessions never share a serial.
        assert!(!a.journal_serials().contains(&b.journal_serials()[0]));
        // Replay draws fresh serials too.
        let mut c = t.session(&w.models).unwrap();
        for entry in a.journal() {
            c.replay_entry(entry.clone()).unwrap();
        }
        assert!(c.journal_serials()[0] > a.journal_serials()[1]);
        assert!(!c.journal_serials().contains(&0));
    }

    #[test]
    fn delobj_journal_entries_are_expanded() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        let fm = w.fm.class_named("Feature").unwrap();
        // Delete a feature that carries a non-default name attribute.
        session
            .apply(
                DomIdx(2),
                EditOp::DelObj {
                    id: ObjId(0),
                    class: fm,
                },
            )
            .unwrap();
        let entry = &session.journal()[0];
        let ops = entry.deltas[2].ops();
        assert!(ops.len() >= 2, "expanded: attrs reset before deletion");
        assert!(matches!(ops[ops.len() - 1], EditOp::DelObj { .. }));
        assert!(ops[..ops.len() - 1]
            .iter()
            .all(|op| matches!(op, EditOp::SetAttr { .. } | EditOp::DelLink { .. })));
        // And the expansion inverts exactly.
        session.rollback_all().unwrap();
        assert_eq!(print_model(&session.models()[2]), print_model(&w.models[2]));
    }
}
