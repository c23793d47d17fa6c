//! The durable side of a served hub.
//!
//! ```text
//! <dir>/sessions/<name>/  one PersistentSession store per session
//! ```
//!
//! [`HubStore`] owns this layout. Each session's own `manifest` is its
//! one visibility point: [`PersistentSession::create`] publishes it by
//! atomic rename after the rest of the store is on disk, and
//! [`HubStore::close`] unlinks it and fsyncs the directory before it
//! removes the rest. [`HubStore::open`] recovers exactly the session
//! directories that hold a manifest; one without (left by a `create` or
//! `close` cut short) belongs to no one, and the next `create` of that
//! name clears it. A `<dir>/hub` file is the manifest of the layout
//! before this one and is refused ([`StoreError::Version`]).

use crate::{io_err, sync_dir, PersistentSession, StoreError};
use mmt_core::{HubError, SessionHandle, SessionOptions, SyncHub};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The store of a served [`SyncHub`]: its `sessions/` directory, the one
/// transformation id its sessions are bound to, and every durable
/// session's open store by name.
#[derive(Debug)]
pub struct HubStore {
    sessions_dir: PathBuf,
    transformation_id: String,
    sessions: BTreeMap<String, PersistentSession>,
}

impl HubStore {
    /// Opens the store at `dir`, creating it if need be, and recovers
    /// into `hub`, in name order, every `sessions/<name>/` that holds a
    /// manifest ([`PersistentSession::open`]), each bound to the
    /// transformation registered as `transformation_id`
    /// ([`StoreError::SpecMismatch`] if a store was written for another
    /// spec).
    pub fn open(
        dir: &Path,
        hub: &SyncHub,
        transformation_id: &str,
        opts: &SessionOptions,
    ) -> Result<HubStore, StoreError> {
        let legacy = dir.join("hub");
        if legacy.exists() {
            let text = fs::read_to_string(&legacy).unwrap_or_default();
            let found = text.lines().next().unwrap_or("").to_string();
            return Err(StoreError::Version {
                path: legacy,
                found,
            });
        }
        let t = hub.transformation(transformation_id)?;
        let sessions_dir = dir.join("sessions");
        fs::create_dir_all(&sessions_dir).map_err(|e| io_err(&sessions_dir, e))?;
        sync_dir(dir)?;
        let mut names = Vec::new();
        for entry in fs::read_dir(&sessions_dir).map_err(|e| io_err(&sessions_dir, e))? {
            let path = entry.map_err(|e| io_err(&sessions_dir, e))?.path();
            match path.file_name().and_then(|n| n.to_str()) {
                Some(name) if PersistentSession::exists(&path) => names.push(name.to_string()),
                _ => {}
            }
        }
        names.sort();
        let mut sessions = BTreeMap::new();
        for name in names {
            let (ps, session) =
                PersistentSession::open(&sessions_dir.join(&name), &t, opts.clone())?;
            hub.adopt(&name, transformation_id, session)?;
            sessions.insert(name, ps);
        }
        Ok(HubStore {
            sessions_dir,
            transformation_id: transformation_id.to_string(),
            sessions,
        })
    }

    /// Makes `handle`'s session durable. Refuses a name that is not a
    /// safe directory component, a session opened against another
    /// transformation than the store's, or a name already durable,
    /// before it writes anything; then clears a stale `sessions/<name>`
    /// and writes the session's store, its manifest last.
    pub fn create(&mut self, handle: &SessionHandle) -> Result<(), StoreError> {
        let name = handle.name();
        check_session_name(name)?;
        if handle.transformation_id() != self.transformation_id {
            return Err(StoreError::ForeignTransformation {
                expected: self.transformation_id.clone(),
                found: handle.transformation_id().to_string(),
            });
        }
        if self.sessions.contains_key(name) {
            return Err(HubError::DuplicateSession(name.to_string()).into());
        }
        let dir = self.sessions_dir.join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        let ps = handle.with(|s| PersistentSession::create(&dir, s))?;
        self.sessions.insert(name.to_string(), ps);
        Ok(())
    }

    /// Commits `handle`'s journal to its session's store: the commit
    /// point of one mutating request ([`PersistentSession::commit`]).
    pub fn commit(&mut self, handle: &SessionHandle) -> Result<(), StoreError> {
        let ps = self
            .sessions
            .get_mut(handle.name())
            .ok_or_else(|| HubError::UnknownSession(handle.name().to_string()))?;
        handle.with(|s| ps.commit(s))
    }

    /// Retires the durable session `name`: unlinks its manifest and
    /// fsyncs the directory, and only then forgets the session and
    /// removes the rest of its store. It succeeds once the unlink is
    /// durable: a directory it then cannot remove is only stale, as one
    /// a crash leaves.
    pub fn close(&mut self, name: &str) -> Result<(), StoreError> {
        if !self.sessions.contains_key(name) {
            return Err(HubError::UnknownSession(name.to_string()).into());
        }
        let dir = self.sessions_dir.join(name);
        let manifest = dir.join("manifest");
        fs::remove_file(&manifest).map_err(|e| io_err(&manifest, e))?;
        sync_dir(&dir)?;
        self.sessions.remove(name);
        let _ = fs::remove_dir_all(&dir);
        Ok(())
    }
}

/// Checks that `name` can name a session directory (a durable store's
/// `sessions/<name>`, or `mmt serve --out`'s `<dir>/<name>`): it must be
/// non-empty, not `.` or `..`, and hold no `/`, `\` or NUL, so that it
/// can neither escape nor alias its parent.
pub fn check_session_name(name: &str) -> Result<(), StoreError> {
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\', '\0']) {
        return Err(StoreError::InvalidName(name.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_core::{SyncSession, Transformation};
    use mmt_deps::DomIdx;
    use mmt_dist::EditOp;
    use mmt_gen::{feature_workload, FeatureSpec, CF_METAMODEL, FM_METAMODEL};
    use mmt_model::text::print_model;
    use mmt_model::ObjId;
    use std::path::PathBuf;

    fn fixture() -> (Transformation, mmt_gen::FeatureWorkload) {
        let t = Transformation::from_sources(
            &mmt_gen::transformation_source(2),
            &[CF_METAMODEL, FM_METAMODEL],
        )
        .unwrap();
        (t, feature_workload(FeatureSpec::default()))
    }

    /// A session's tuple: each model printed, with its id bound.
    fn tuple(s: &mut SyncSession) -> Vec<(String, usize)> {
        s.models()
            .iter()
            .map(|m| (print_model(m), m.id_bound()))
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmt-hub-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn hub_snapshot_round_trips() {
        let (t, w) = fixture();
        let dir = tmp("roundtrip");
        let opts = SessionOptions::default();
        let hub = SyncHub::new();
        hub.register("F", t.clone()).unwrap();
        let mut store = HubStore::open(&dir, &hub, "F", &opts).unwrap();
        let alice = hub.open("alice", "F", &w.models).unwrap();
        store.create(&alice).unwrap();
        store
            .create(&hub.open("bob", "F", &w.models).unwrap())
            .unwrap();
        // Drift alice so the two sessions are distinguishable.
        let feature = w.fm.class_named("Feature").unwrap();
        let id = ObjId(w.models[2].id_bound() as u32);
        alice
            .with(|s| s.apply(DomIdx(2), EditOp::AddObj { id, class: feature }))
            .unwrap();
        store.commit(&alice).unwrap();
        let (alice_tuple, bob_tuple) = (alice.with(tuple), hub.get("bob").unwrap().with(tuple));
        assert_ne!(alice_tuple, bob_tuple);
        assert_eq!(store.sessions.len(), 2);
        drop(store);

        let restored = SyncHub::new();
        restored.register("F", t).unwrap();
        let reopened = HubStore::open(&dir, &restored, "F", &opts).unwrap();
        assert_eq!(reopened.sessions.len(), 2);
        assert_eq!(restored.list(), ["alice", "bob"]);
        assert_eq!(restored.get("alice").unwrap().with(tuple), alice_tuple);
        assert_eq!(restored.get("bob").unwrap().with(tuple), bob_tuple);
        assert_eq!(
            restored.get("alice").unwrap().with(|s| s.journal().len()),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_requires_the_transformation() {
        let (t, w) = fixture();
        let dir = tmp("missing-t");
        let opts = SessionOptions::default();
        let hub = SyncHub::new();
        hub.register("F", t).unwrap();
        let mut store = HubStore::open(&dir, &hub, "F", &opts).unwrap();
        store
            .create(&hub.open("a", "F", &w.models).unwrap())
            .unwrap();

        let empty = SyncHub::new();
        let err = HubStore::open(&dir, &empty, "F", &opts).unwrap_err();
        assert!(matches!(err, StoreError::Hub(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each session's manifest is its visibility point: `create`
    /// publishes it and writes nothing else outside `sessions/<name>/`,
    /// `open` recovers exactly the directories that hold one, `close`
    /// removes it with the directory, and whatever `create` refuses
    /// (an unsafe name, a session of another transformation, a name
    /// already durable) it refuses before it writes anything. A `hub`
    /// manifest of the previous layout is a version error.
    #[test]
    fn session_manifests_are_the_visibility_point() {
        let (t, w) = fixture();
        let dir = tmp("manifest");
        let opts = SessionOptions::default();
        let hub = SyncHub::new();
        hub.register("F", t.clone()).unwrap();
        hub.register("G", t.clone()).unwrap();
        let mut store = HubStore::open(&dir, &hub, "F", &opts).unwrap();
        let bob = hub.open("bob", "F", &w.models).unwrap();
        store.create(&bob).unwrap();
        store
            .create(&hub.open("a b", "F", &w.models).unwrap())
            .unwrap();
        assert!(matches!(
            store.create(&bob),
            Err(StoreError::Hub(HubError::DuplicateSession(_)))
        ));
        let sessions = dir.join("sessions");
        let listing = |path: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(path)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(listing(&dir), ["sessions"]);
        assert_eq!(listing(&sessions), ["a b", "bob"]);
        assert_eq!(listing(&sessions.join("bob")), ["manifest", "seed", "wal"]);

        for bad in ["../escape", "back\\slash", "nul\0", ".", ""] {
            let handle = hub.open(bad, "F", &w.models).unwrap();
            assert!(
                matches!(store.create(&handle), Err(StoreError::InvalidName(_))),
                "{bad:?}"
            );
            hub.close(bad).unwrap();
        }
        let foreign = hub.open("foreign", "G", &w.models).unwrap();
        assert!(matches!(
            store.create(&foreign),
            Err(StoreError::ForeignTransformation { .. })
        ));
        assert_eq!(listing(&dir), ["sessions"]);
        assert_eq!(listing(&sessions), ["a b", "bob"]);

        // A directory without a manifest and a stray file are no
        // sessions.
        std::fs::create_dir_all(sessions.join("cut").join("seed")).unwrap();
        std::fs::write(sessions.join("stray"), "x").unwrap();
        let restored = SyncHub::new();
        restored.register("F", t.clone()).unwrap();
        let mut reopened = HubStore::open(&dir, &restored, "F", &opts).unwrap();
        assert_eq!(restored.list(), ["a b", "bob"]);
        reopened
            .create(&restored.open("cut", "F", &w.models).unwrap())
            .unwrap();
        assert!(PersistentSession::exists(&sessions.join("cut")));

        reopened.close("bob").unwrap();
        assert!(!sessions.join("bob").exists());
        assert!(reopened.close("bob").is_err());
        assert!(reopened.commit(&restored.get("bob").unwrap()).is_err());
        drop(reopened);
        let again = SyncHub::new();
        again.register("F", t.clone()).unwrap();
        HubStore::open(&dir, &again, "F", &opts).unwrap();
        assert_eq!(again.list(), ["a b", "cut"]);

        for (text, header) in [("mmt-hub 1\nsession a F\n", "mmt-hub 1"), ("", "")] {
            std::fs::write(dir.join("hub"), text).unwrap();
            let fresh = SyncHub::new();
            fresh.register("F", t.clone()).unwrap();
            match HubStore::open(&dir, &fresh, "F", &opts) {
                Err(StoreError::Version { found, .. }) => assert_eq!(found, header),
                other => panic!("{text:?}: expected Version, got {other:?}"),
            }
            assert!(fresh.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `close` retires a session on disk before it forgets it: when the
    /// manifest cannot be unlinked (here it is a directory), the close
    /// fails and the session stays durable, still committing; once the
    /// unlink can succeed, so does the close.
    #[test]
    fn close_keeps_the_session_until_the_unlink_is_durable() {
        let (t, w) = fixture();
        let dir = tmp("close-fails");
        let hub = SyncHub::new();
        hub.register("F", t).unwrap();
        let mut store = HubStore::open(&dir, &hub, "F", &SessionOptions::default()).unwrap();
        let a = hub.open("a", "F", &w.models).unwrap();
        store.create(&a).unwrap();
        let manifest = dir.join("sessions").join("a").join("manifest");
        let published = std::fs::read(&manifest).unwrap();
        std::fs::remove_file(&manifest).unwrap();
        std::fs::create_dir(&manifest).unwrap();

        assert!(matches!(store.close("a"), Err(StoreError::Io { .. })));
        assert!(store.sessions.contains_key("a"));
        let feature = w.fm.class_named("Feature").unwrap();
        let id = ObjId(w.models[2].id_bound() as u32);
        a.with(|s| s.apply(DomIdx(2), EditOp::AddObj { id, class: feature }))
            .unwrap();
        store.commit(&a).unwrap();

        std::fs::remove_dir(&manifest).unwrap();
        std::fs::write(&manifest, published).unwrap();
        store.close("a").unwrap();
        assert!(!store.sessions.contains_key("a"));
        assert!(!dir.join("sessions").join("a").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
