//! The durable side of a served hub.
//!
//! ```text
//! <dir>/hub               mmt-hub 1 / session <name> <transformation-id> ...
//! <dir>/sessions/<name>/  one PersistentSession store per session
//! ```
//!
//! [`HubStore`] owns this layout. The hub manifest is the unit of
//! visibility: [`HubStore::create`] writes a session's store first and
//! the manifest naming it last, and [`HubStore::close`] rewrites the
//! manifest before it removes the store, so a crash at any point leaves
//! a manifest that names only whole stores. [`HubStore::open`] trusts
//! only the sessions the manifest names; a directory it does not name
//! (left by a `create` or `close` cut short) belongs to no one, and the
//! next `create` of that name clears it.

use crate::session::write_sync;
use crate::{io_err, sync_dir, PersistentSession, StoreError};
use mmt_core::{HubError, SessionHandle, SessionOptions, SyncHub};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const HUB_VERSION: &str = "mmt-hub 1";

/// The store of a served [`SyncHub`]: its directory, and every durable
/// session's transformation id and open store by name, the record the
/// manifest is written from.
#[derive(Debug)]
pub struct HubStore {
    dir: PathBuf,
    sessions: BTreeMap<String, (String, PersistentSession)>,
}

impl HubStore {
    /// Opens the store at `dir`, creating the directory if need be, and
    /// recovers every session its manifest names
    /// ([`PersistentSession::open`]) into `hub`. The transformations the
    /// manifest references must already be registered under the same
    /// ids, with the same specs ([`StoreError::SpecMismatch`] otherwise).
    pub fn open(dir: &Path, hub: &SyncHub, opts: &SessionOptions) -> Result<HubStore, StoreError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut store = HubStore {
            dir: dir.to_path_buf(),
            sessions: BTreeMap::new(),
        };
        if dir.join("hub").is_file() {
            for (name, tid) in read_manifest(dir)? {
                let t = hub.transformation(&tid)?;
                let (ps, session) =
                    PersistentSession::open(&store.session_dir(&name), &t, opts.clone())?;
                hub.adopt(&name, &tid, session)?;
                store.sessions.insert(name, (tid, ps));
            }
        }
        Ok(store)
    }

    /// Makes `handle`'s session durable. Refuses a name or transformation
    /// id that is not a safe directory component and manifest token, or
    /// a name already durable, before it writes anything; then clears a
    /// stale `sessions/<name>`, writes the session's store, and only then
    /// rewrites the manifest to name it.
    pub fn create(&mut self, handle: &SessionHandle) -> Result<(), StoreError> {
        let (name, tid) = (handle.name(), handle.transformation_id());
        check_name(name)?;
        check_name(tid)?;
        if self.sessions.contains_key(name) {
            return Err(HubError::DuplicateSession(name.to_string()).into());
        }
        let dir = self.session_dir(name);
        remove_dir(&dir)?;
        let ps = handle.with(|s| PersistentSession::create(&dir, s))?;
        self.sessions
            .insert(name.to_string(), (tid.to_string(), ps));
        let written = self.write_manifest();
        if written.is_err() {
            self.sessions.remove(name);
        }
        written
    }

    /// Commits `handle`'s journal to its session's store: the commit
    /// point of one mutating request ([`PersistentSession::commit`]).
    pub fn commit(&mut self, handle: &SessionHandle) -> Result<(), StoreError> {
        let (_, ps) = self
            .sessions
            .get_mut(handle.name())
            .ok_or_else(|| HubError::UnknownSession(handle.name().to_string()))?;
        handle.with(|s| ps.commit(s))
    }

    /// Retires the durable session `name`: rewrites the manifest without
    /// it, then removes its store. A crash in between leaves a directory
    /// the manifest does not name.
    pub fn close(&mut self, name: &str) -> Result<(), StoreError> {
        if self.sessions.remove(name).is_none() {
            return Err(HubError::UnknownSession(name.to_string()).into());
        }
        self.write_manifest()?;
        remove_dir(&self.session_dir(name))
    }

    fn session_dir(&self, name: &str) -> PathBuf {
        self.dir.join("sessions").join(name)
    }

    /// Rewrites the manifest from the record, one `session <name> <id>`
    /// line per durable session under a version header, and fsyncs it
    /// and the directory.
    fn write_manifest(&self) -> Result<(), StoreError> {
        let mut text = format!("{HUB_VERSION}\n");
        for (name, (tid, _)) in &self.sessions {
            text.push_str(&format!("session {name} {tid}\n"));
        }
        write_sync(&self.dir.join("hub"), text.as_bytes())?;
        sync_dir(&self.dir)
    }
}

/// Session names and transformation ids double as store directory
/// components and manifest tokens, so the store refuses those that would
/// escape or alias (empty, `.`, `..`, separators, NUL) or break the
/// space-delimited manifest (whitespace).
fn check_name(name: &str) -> Result<(), StoreError> {
    let bad = name.is_empty()
        || name == "."
        || name == ".."
        || name.contains(['/', '\\', '\0'])
        || name.chars().any(char::is_whitespace);
    if bad {
        return Err(StoreError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// Removes a session store directory, if there is one.
fn remove_dir(dir: &Path) -> Result<(), StoreError> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| io_err(dir, e))?;
    }
    Ok(())
}

/// Reads the hub manifest back into `(session name, transformation id)`
/// pairs, with the same typed errors as every other store file (version
/// header, corrupt lines). A name `create` would refuse is corrupt too:
/// it would put a session's store, and `close`'s removal, outside
/// `sessions/`.
fn read_manifest(dir: &Path) -> Result<Vec<(String, String)>, StoreError> {
    let path = dir.join("hub");
    let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != HUB_VERSION {
        if text.len() < HUB_VERSION.len() {
            return Err(StoreError::ShortRead {
                path,
                len: text.len() as u64,
            });
        }
        return Err(StoreError::Version {
            path,
            found: header.to_string(),
        });
    }
    let mut entries = Vec::new();
    let mut offset = header.len() as u64 + 1;
    for line in lines {
        let entry = line
            .strip_prefix("session ")
            .and_then(|rest| rest.split_once(' '));
        match entry {
            Some((name, tid)) if check_name(name).is_ok() && check_name(tid).is_ok() => {
                entries.push((name.to_string(), tid.to_string()));
            }
            _ => {
                return Err(StoreError::Corrupt {
                    path,
                    offset,
                    detail: format!("bad hub manifest line {line:?}"),
                });
            }
        }
        offset += line.len() as u64 + 1;
    }
    Ok(entries)
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
        let mut store = HubStore::open(&dir, &hub, &opts).unwrap();
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
        let reopened = HubStore::open(&dir, &restored, &opts).unwrap();
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
        let mut store = HubStore::open(&dir, &hub, &opts).unwrap();
        store
            .create(&hub.open("a", "F", &w.models).unwrap())
            .unwrap();

        let empty = SyncHub::new();
        let err = HubStore::open(&dir, &empty, &opts).unwrap_err();
        assert!(matches!(err, StoreError::Hub(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The manifest names durable sessions in name order, `close` drops
    /// a name from it before its store goes, and an unsafe name is
    /// refused before anything is written.
    #[test]
    fn manifest_round_trips_and_rejects_garbage() {
        let (t, w) = fixture();
        let dir = tmp("manifest");
        let hub = SyncHub::new();
        hub.register("F", t.clone()).unwrap();
        hub.register("G", t).unwrap();
        let mut store = HubStore::open(&dir, &hub, &SessionOptions::default()).unwrap();
        let bob = hub.open("bob", "G", &w.models).unwrap();
        store.create(&bob).unwrap();
        store
            .create(&hub.open("alice", "F", &w.models).unwrap())
            .unwrap();
        assert!(matches!(
            store.create(&bob),
            Err(StoreError::Hub(HubError::DuplicateSession(_)))
        ));
        let text = "mmt-hub 1\nsession alice F\nsession bob G\n";
        assert_eq!(std::fs::read_to_string(dir.join("hub")).unwrap(), text);
        let entries = vec![
            ("alice".to_string(), "F".to_string()),
            ("bob".to_string(), "G".to_string()),
        ];
        assert_eq!(read_manifest(&dir).unwrap(), entries);

        for bad in ["../escape", "a b", "tab\there", ".", ""] {
            let handle = hub.open(bad, "F", &w.models).unwrap();
            assert!(
                matches!(store.create(&handle), Err(StoreError::InvalidName(_))),
                "{bad:?}"
            );
            hub.close(bad).unwrap();
        }
        assert!(!dir.join("escape").exists());
        assert_eq!(std::fs::read_to_string(dir.join("hub")).unwrap(), text);

        store.close("bob").unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), entries[..1]);
        assert!(!dir.join("sessions").join("bob").exists());
        assert!(store.close("bob").is_err());
        assert!(store.commit(&bob).is_err());

        for garbage in ["banana", "session ../escape F", "session a F G"] {
            std::fs::write(dir.join("hub"), format!("mmt-hub 1\n{garbage}\n")).unwrap();
            assert!(
                matches!(read_manifest(&dir).unwrap_err(), StoreError::Corrupt { .. }),
                "{garbage}"
            );
        }
        std::fs::write(dir.join("hub"), "mmt-hub 99\n").unwrap();
        assert!(matches!(
            read_manifest(&dir).unwrap_err(),
            StoreError::Version { .. }
        ));
        std::fs::write(dir.join("hub"), "x").unwrap();
        assert!(matches!(
            read_manifest(&dir).unwrap_err(),
            StoreError::ShortRead { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
