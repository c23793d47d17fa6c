//! The multi-tenant session hub: one process, many concurrent
//! edit→check→repair loops.
//!
//! [`SyncHub`] is the server-side registry the un-borrowed ownership
//! story ([`SyncSession`] as a `'static + Send` handle, transformations
//! behind [`Arc`]) exists for: it keys shared [`Transformation`]s by id,
//! opens *named* sessions over them, and hands out [`SessionHandle`]s
//! that interior-lock their session — so independent clients synchronize
//! their own tuples concurrently while sharing one resolved
//! specification (and therefore one compiled check-statics graph).
//!
//! Locking discipline:
//!
//! * the two registries are each behind an [`RwLock`] taken only for
//!   map operations (lookup, insert, remove) — never while a session
//!   runs, so a slow repair in one session cannot stall `open`/`get`
//!   traffic;
//! * each session is behind its own [`Mutex`] inside its
//!   [`SessionHandle`]; clients serialize per session (the session API
//!   is `&mut self`) but never across sessions;
//! * the cold start of [`SyncHub::open`] (the initial full consistency
//!   check) runs *outside* every lock; the insert afterwards is the
//!   authoritative duplicate check, so two racing `open`s of the same
//!   name resolve to exactly one winner.
//!
//! ```
//! use mmt_core::{Shape, SyncHub, Transformation};
//!
//! let t = Transformation::from_sources(
//!     &mmt_gen::transformation_source(2),
//!     &[mmt_gen::CF_METAMODEL, mmt_gen::FM_METAMODEL],
//! ).unwrap();
//! let w = mmt_gen::feature_workload(mmt_gen::FeatureSpec::default());
//!
//! let hub = SyncHub::new();
//! hub.register("F", t).unwrap();
//! let alice = hub.open("alice", "F", &w.models).unwrap();
//! hub.open("bob", "F", &w.models).unwrap();
//! assert_eq!(hub.list(), ["alice", "bob"]);
//!
//! // Sessions share the transformation but own independent tuples.
//! assert!(alice.with(|s| s.status().consistent));
//! hub.close("bob").unwrap();
//! assert_eq!(hub.list(), ["alice"]);
//! ```

use crate::{CoreError, LintReport, SessionOptions, SyncSession, Transformation};
use mmt_model::Model;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError};

use mmt_model::mmt_sync::{Mutex, MutexGuard, RwLock};

/// Typed errors of the hub registry layer. Session-internal failures
/// (bad edits, poisoned checkers, unrepairable shapes) stay
/// [`CoreError`]s and surface through [`HubError::Core`] only where the
/// hub itself drives a session (the cold start in [`SyncHub::open`]).
#[derive(Debug)]
pub enum HubError {
    /// No transformation is registered under this id.
    UnknownTransformation(String),
    /// A transformation is already registered under this id.
    DuplicateTransformation(String),
    /// No session is open under this name.
    UnknownSession(String),
    /// A session is already open under this name.
    DuplicateSession(String),
    /// Opening the session failed (the cold-start consistency check).
    Core(CoreError),
}

impl fmt::Display for HubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HubError::UnknownTransformation(id) => {
                write!(f, "no transformation registered as `{id}`")
            }
            HubError::DuplicateTransformation(id) => {
                write!(f, "a transformation is already registered as `{id}`")
            }
            HubError::UnknownSession(name) => write!(f, "no session open as `{name}`"),
            HubError::DuplicateSession(name) => {
                write!(f, "a session is already open as `{name}`")
            }
            HubError::Core(e) => write!(f, "opening session failed: {e}"),
        }
    }
}

impl std::error::Error for HubError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HubError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for HubError {
    fn from(e: CoreError) -> Self {
        HubError::Core(e)
    }
}

/// One named session slot: the session behind its own lock, plus the
/// shared transformation it synchronizes against. Handles are
/// reference-counted — [`SyncHub::close`] removes the slot from the
/// registry, but a client still holding the handle can finish (and
/// drain) its work.
pub struct SessionHandle {
    name: String,
    transformation_id: String,
    transformation: Arc<Transformation>,
    session: Mutex<SyncSession>,
}

impl SessionHandle {
    /// The name this session was opened under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registry id of the transformation this session was opened
    /// against — what a durable snapshot records so a restore can
    /// re-bind the session to the same registered specification.
    pub fn transformation_id(&self) -> &str {
        &self.transformation_id
    }

    /// The shared transformation this session synchronizes against.
    pub fn transformation(&self) -> &Arc<Transformation> {
        &self.transformation
    }

    /// Locks the session for exclusive use. A client that panicked
    /// mid-call poisons only its own session's mutex; the lock recovers
    /// the value (the session's own poisoning contract — an error that
    /// can tear it makes every later call fail with
    /// [`CoreError::Poisoned`] — is the real safety net).
    ///
    /// # Poisoning policy
    ///
    /// Mutex poisoning is deliberately *not* load-bearing here, because
    /// the session's own invariants make recovery safe:
    ///
    /// * every mutation ([`SyncSession::apply`],
    ///   [`SyncSession::repair`], rollback) journals its entry only
    ///   after the checker absorbed the whole op — a panic in *client*
    ///   code between session calls can never leave a half-journaled
    ///   step, so the journal replay invariant (replaying the journal
    ///   over the seed tuple ≡ the live state, byte for byte) survives
    ///   the unwind;
    /// * an error *inside* a session call that can tear it — an
    ///   evaluation error, a checker error while a repair (by either
    ///   engine) moves the session's checker, any error of a rollback or
    ///   a replay — poisons the session at the session level: every
    ///   later `Result`-returning call fails with [`CoreError::Poisoned`]
    ///   and touches nothing, which is stricter than mutex poisoning and
    ///   not recoverable by design.
    ///
    /// Recovering the mutex therefore only ever re-exposes a session
    /// that is consistent or already self-marked unusable — it never
    /// launders a torn state. `tests/hub_concurrent.rs` pins this with
    /// a differential replay after a mid-`with` client panic.
    pub fn lock(&self) -> MutexGuard<'_, SyncSession> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` under the session lock — the convenience form of
    /// [`SessionHandle::lock`] for single calls. A panic in `f`
    /// unwinds through the lock without corrupting the session; see
    /// the poisoning policy on [`SessionHandle::lock`].
    pub fn with<R>(&self, f: impl FnOnce(&mut SyncSession) -> R) -> R {
        f(&mut self.lock())
    }
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// A thread-safe registry of named, concurrently drivable
/// [`SyncSession`]s over shared [`Transformation`]s. See the
/// [module docs](self) for the locking discipline and an example.
///
/// `SyncHub` is `Send + Sync + 'static` (compile-asserted): one hub
/// value — typically behind an `Arc` — serves every connection of a
/// server process.
#[derive(Debug, Default)]
pub struct SyncHub {
    transformations: RwLock<HashMap<String, Registered>>,
    sessions: RwLock<HashMap<String, Arc<SessionHandle>>>,
}

/// One registered transformation and the lint report its registration
/// recorded (non-error findings; erroring specs never make it into the
/// registry). One entry holds both, so a reader sees both or neither.
#[derive(Debug)]
struct Registered {
    transformation: Arc<Transformation>,
    lint: Arc<LintReport>,
}

impl SyncHub {
    /// An empty hub.
    pub fn new() -> SyncHub {
        SyncHub::default()
    }

    /// Registers a transformation under `id` and returns the shared
    /// handle every session opened against `id` will hold. Errors with
    /// [`HubError::DuplicateTransformation`] if the id is taken.
    ///
    /// Registration runs the static-analysis pass
    /// ([`Transformation::lint`]) first, *outside* every hub lock:
    /// error-severity findings reject the spec with [`CoreError::Lint`]
    /// before any session can open against it; warnings are stored and
    /// readable through [`SyncHub::lint_report`].
    pub fn register(
        &self,
        id: &str,
        t: impl Into<Arc<Transformation>>,
    ) -> Result<Arc<Transformation>, HubError> {
        let t = t.into();
        let report = t.lint();
        if report.has_errors() {
            return Err(HubError::Core(CoreError::Lint(report)));
        }
        let mut map = self
            .transformations
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        match map.entry(id.to_string()) {
            Entry::Occupied(_) => Err(HubError::DuplicateTransformation(id.to_string())),
            Entry::Vacant(v) => {
                v.insert(Registered {
                    transformation: Arc::clone(&t),
                    lint: Arc::new(report),
                });
                Ok(t)
            }
        }
    }

    /// The lint report recorded when `id` was registered (warnings and
    /// infos only — erroring specs are rejected at registration).
    pub fn lint_report(&self, id: &str) -> Result<Arc<LintReport>, HubError> {
        self.transformations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .map(|r| Arc::clone(&r.lint))
            .ok_or_else(|| HubError::UnknownTransformation(id.to_string()))
    }

    /// The transformation registered under `id`.
    pub fn transformation(&self, id: &str) -> Result<Arc<Transformation>, HubError> {
        self.transformations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .map(|r| Arc::clone(&r.transformation))
            .ok_or_else(|| HubError::UnknownTransformation(id.to_string()))
    }

    /// Registered transformation ids, sorted.
    pub fn transformations(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .transformations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    /// Opens a session named `name` over `models` against the
    /// transformation registered as `transformation_id`, with default
    /// [`SessionOptions`]. The cold start (initial full consistency
    /// check) runs outside every hub lock.
    pub fn open(
        &self,
        name: &str,
        transformation_id: &str,
        models: &[Model],
    ) -> Result<Arc<SessionHandle>, HubError> {
        self.open_with(name, transformation_id, models, SessionOptions::default())
    }

    /// As [`SyncHub::open`] with explicit [`SessionOptions`].
    pub fn open_with(
        &self,
        name: &str,
        transformation_id: &str,
        models: &[Model],
        opts: SessionOptions,
    ) -> Result<Arc<SessionHandle>, HubError> {
        let t = self.transformation(transformation_id)?;
        // Cheap pre-check so a doomed open skips the cold start; the
        // entry check below stays authoritative under the write lock.
        if self
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(name)
        {
            return Err(HubError::DuplicateSession(name.to_string()));
        }
        let session = SyncSession::with_options(Arc::clone(&t), models, opts)?;
        self.insert(name, transformation_id, t, session)
    }

    /// Adopts an already-running session into the registry under `name`,
    /// stamped with the id of the (registered) transformation it
    /// synchronizes against. This is the restore path of durable
    /// snapshots: the session was rebuilt elsewhere (seed + journal
    /// replay) and must land in the hub *without* a second cold start.
    /// Errors like [`SyncHub::open`] on an unknown transformation id or
    /// a taken name.
    pub fn adopt(
        &self,
        name: &str,
        transformation_id: &str,
        session: SyncSession,
    ) -> Result<Arc<SessionHandle>, HubError> {
        let t = self.transformation(transformation_id)?;
        self.insert(name, transformation_id, t, session)
    }

    fn insert(
        &self,
        name: &str,
        transformation_id: &str,
        t: Arc<Transformation>,
        session: SyncSession,
    ) -> Result<Arc<SessionHandle>, HubError> {
        let handle = Arc::new(SessionHandle {
            name: name.to_string(),
            transformation_id: transformation_id.to_string(),
            transformation: t,
            session: Mutex::new(session),
        });
        let mut map = self
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        match map.entry(name.to_string()) {
            Entry::Occupied(_) => Err(HubError::DuplicateSession(name.to_string())),
            Entry::Vacant(v) => {
                v.insert(Arc::clone(&handle));
                Ok(handle)
            }
        }
    }

    /// The session open under `name`.
    pub fn get(&self, name: &str) -> Result<Arc<SessionHandle>, HubError> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| HubError::UnknownSession(name.to_string()))
    }

    /// Closes (unregisters) the session named `name`, returning its
    /// handle so the caller can drain final state — clients still
    /// holding the handle keep working on the now-anonymous session.
    pub fn close(&self, name: &str) -> Result<Arc<SessionHandle>, HubError> {
        self.sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .ok_or_else(|| HubError::UnknownSession(name.to_string()))
    }

    /// Handles of every open session, sorted by name — the enumeration
    /// a whole-hub snapshot walks.
    pub fn sessions(&self) -> Vec<Arc<SessionHandle>> {
        let mut handles: Vec<Arc<SessionHandle>> = self
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        handles.sort_by(|a, b| a.name.cmp(&b.name));
        handles
    }

    /// Names of every open session, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use mmt_gen::{feature_workload, FeatureSpec};

    fn fixture() -> (Transformation, mmt_gen::FeatureWorkload) {
        let t = Transformation::from_sources(
            &mmt_gen::transformation_source(2),
            &[mmt_gen::CF_METAMODEL, mmt_gen::FM_METAMODEL],
        )
        .unwrap();
        let w = feature_workload(FeatureSpec::default());
        (t, w)
    }

    /// The hub itself is a `'static + Send + Sync` value — one hub per
    /// server process, shared by every connection.
    #[test]
    fn hub_is_send_sync_static() {
        fn assert_hub<T: Send + Sync + 'static>() {}
        assert_hub::<SyncHub>();
        assert_hub::<SessionHandle>();
        assert_hub::<HubError>();
    }

    #[test]
    fn open_get_close_list_roundtrip() {
        let (t, w) = fixture();
        let hub = SyncHub::new();
        let shared = hub.register("F", t).unwrap();
        assert_eq!(hub.transformations(), ["F"]);
        assert!(hub.is_empty());

        let a = hub.open("alice", "F", &w.models).unwrap();
        assert_eq!(a.name(), "alice");
        assert!(Arc::ptr_eq(a.transformation(), &shared));
        hub.open("bob", "F", &w.models).unwrap();
        assert_eq!(hub.list(), ["alice", "bob"]);
        assert_eq!(hub.len(), 2);

        // get returns the same handle (same session state).
        let a2 = hub.get("alice").unwrap();
        assert!(Arc::ptr_eq(&a, &a2));

        // Sessions are independent: drive alice, bob is untouched.
        a.with(|s| {
            assert!(s.status().consistent);
        });
        let closed = hub.close("bob").unwrap();
        assert_eq!(hub.list(), ["alice"]);
        // A drained handle still works after close.
        assert!(closed.with(|s| s.status().consistent));
    }

    #[test]
    fn register_rejects_statically_broken_specs() {
        // Unsatisfiable `when` is an error-severity lint (MMT003):
        // registration must refuse before any session can open.
        let t = Transformation::from_sources(
            r#"transformation T(l : M, r : M) {
              top relation R {
                n : Int;
                domain l a : A { x = n };
                domain r b : A { x = n };
                when { n > 3 and n < 2 }
                depend l -> r;
              }
            }"#,
            &["metamodel M { class A { attr x: Int; } }"],
        )
        .unwrap();
        let hub = SyncHub::new();
        let err = hub.register("broken", t).unwrap_err();
        assert!(
            matches!(&err, HubError::Core(CoreError::Lint(r)) if r.has_errors()),
            "{err}"
        );
        assert!(hub.transformations().is_empty());
        assert!(hub.lint_report("broken").is_err());
    }

    #[test]
    fn register_records_lint_warnings() {
        let (t, _) = fixture();
        let hub = SyncHub::new();
        hub.register("F", t).unwrap();
        let report = hub.lint_report("F").unwrap();
        assert_eq!(report.errors(), 0);
        // The paper's bidirectional MF/OF relations overlap on the
        // feature model: the repair-conflict lint fires as a warning.
        assert!(report.warnings() > 0, "{}", report.render_text());
        assert!(matches!(
            hub.lint_report("nope"),
            Err(HubError::UnknownTransformation(_))
        ));
    }

    #[test]
    fn typed_errors_cover_every_registry_misuse() {
        let (t, w) = fixture();
        let hub = SyncHub::new();
        assert!(matches!(
            hub.open("a", "F", &w.models),
            Err(HubError::UnknownTransformation(id)) if id == "F"
        ));
        hub.register("F", t.clone()).unwrap();
        assert!(matches!(
            hub.register("F", t),
            Err(HubError::DuplicateTransformation(_))
        ));
        hub.open("a", "F", &w.models).unwrap();
        assert!(matches!(
            hub.open("a", "F", &w.models),
            Err(HubError::DuplicateSession(_))
        ));
        assert!(matches!(hub.get("b"), Err(HubError::UnknownSession(_))));
        assert!(matches!(hub.close("b"), Err(HubError::UnknownSession(_))));
        // A bad tuple surfaces the CoreError through the hub, chained.
        let err = hub.open("short", "F", &w.models[..1]).unwrap_err();
        assert!(matches!(err, HubError::Core(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(hub.list(), ["a"]);
    }

    #[test]
    fn sessions_share_one_transformation() {
        let (t, w) = fixture();
        let hub = SyncHub::new();
        hub.register("F", t).unwrap();
        let a = hub.open("a", "F", &w.models).unwrap();
        let b = hub.open("b", "F", &w.models).unwrap();
        assert!(Arc::ptr_eq(a.transformation(), b.transformation()));
        // Repairing in one session leaves the sibling's tuple alone.
        let fm = w.fm.class_named("Feature").unwrap();
        let id = mmt_model::ObjId(w.models[2].id_bound() as u32);
        a.with(|s| {
            s.apply(
                mmt_deps::DomIdx(2),
                mmt_dist::EditOp::AddObj { id, class: fm },
            )
            .unwrap();
            assert_eq!(s.journal().len(), 1);
        });
        b.with(|s| {
            assert!(s.journal().is_empty());
            assert!(s.status().consistent);
            let out = s.repair(Shape::of(&[0, 1])).unwrap().unwrap();
            assert_eq!(out.cost, 0);
        });
    }
}
