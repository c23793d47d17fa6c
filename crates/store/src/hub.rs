//! Whole-hub snapshot/restore.
//!
//! ```text
//! <dir>/hub               mmt-hub 1 / session <name> <transformation-id> ...
//! <dir>/sessions/<name>/  one PersistentSession store per session
//! ```
//!
//! The hub manifest is the unit of visibility: `persist_to` writes every
//! session store first and the manifest last, so a crash mid-snapshot
//! leaves either the previous manifest (naming only fully written
//! stores) or the new one. `restore_from` trusts only sessions the
//! manifest names.

use crate::session::write_sync;
use crate::{io_err, sync_dir, PersistentSession, StoreError};
use mmt_core::{SessionHandle, SessionOptions, SyncHub};
use std::fs;
use std::path::Path;
use std::sync::Arc;

const HUB_VERSION: &str = "mmt-hub 1";

/// Session names double as store directory components and manifest
/// tokens, so a snapshot refuses names that would escape or alias
/// (`..`, separators, NUL) or break the space-delimited manifest
/// (whitespace).
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

/// Writes the hub manifest (fsynced): one `session <name> <id>` line per
/// entry, under a version header. Used by [`HubStore::persist_to`] and
/// by servers that keep a store directory live-updated as sessions come
/// and go.
pub fn write_hub_manifest(dir: &Path, entries: &[(String, String)]) -> Result<(), StoreError> {
    let mut text = format!("{HUB_VERSION}\n");
    for (name, tid) in entries {
        check_name(name)?;
        check_name(tid)?;
        text.push_str(&format!("session {name} {tid}\n"));
    }
    write_sync(&dir.join("hub"), text.as_bytes())?;
    sync_dir(dir)
}

/// Reads the hub manifest back into `(session name, transformation id)`
/// pairs. Inverse of [`write_hub_manifest`], with the same typed errors
/// as every other store file (version header, corrupt lines).
pub fn read_hub_manifest(dir: &Path) -> Result<Vec<(String, String)>, StoreError> {
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
            Some((name, tid)) if !name.is_empty() && !tid.is_empty() => {
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

/// Durable snapshot/restore for a [`SyncHub`]: every open session's seed
/// tuple + journal, plus the registry manifest binding session names to
/// transformation ids.
pub trait HubStore {
    /// Snapshots every open session into `dir`, replacing any previous
    /// snapshot there. Each session is captured under its own lock (the
    /// snapshot is per-session consistent; sessions keep running in
    /// between). Returns the number of sessions persisted.
    fn persist_to(&self, dir: &Path) -> Result<usize, StoreError>;

    /// Restores every session a snapshot at `dir` names, adopting each
    /// recovered session into this hub. The transformations the manifest
    /// references must already be registered (under the same ids, with
    /// the same specs — [`StoreError::SpecMismatch`] otherwise). Returns
    /// each adopted handle paired with its still-open store, so a server
    /// can keep committing to it.
    fn restore_from(
        &self,
        dir: &Path,
        opts: &SessionOptions,
    ) -> Result<Vec<(Arc<SessionHandle>, PersistentSession)>, StoreError>;
}

impl HubStore for SyncHub {
    fn persist_to(&self, dir: &Path) -> Result<usize, StoreError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let sessions_dir = dir.join("sessions");
        if sessions_dir.exists() {
            fs::remove_dir_all(&sessions_dir).map_err(|e| io_err(&sessions_dir, e))?;
        }
        fs::create_dir_all(&sessions_dir).map_err(|e| io_err(&sessions_dir, e))?;
        let mut entries = Vec::new();
        for handle in self.sessions() {
            check_name(handle.name())?;
            let session_dir = sessions_dir.join(handle.name());
            handle.with(|s| PersistentSession::create(&session_dir, s))?;
            entries.push((
                handle.name().to_string(),
                handle.transformation_id().to_string(),
            ));
        }
        sync_dir(&sessions_dir)?;
        write_hub_manifest(dir, &entries)?;
        Ok(entries.len())
    }

    fn restore_from(
        &self,
        dir: &Path,
        opts: &SessionOptions,
    ) -> Result<Vec<(Arc<SessionHandle>, PersistentSession)>, StoreError> {
        let mut out = Vec::new();
        for (name, tid) in read_hub_manifest(dir)? {
            let t = self.transformation(&tid)?;
            let session_dir = dir.join("sessions").join(&name);
            let (store, session) = PersistentSession::open(&session_dir, &t, opts.clone())?;
            let handle = self.adopt(&name, &tid, session)?;
            out.push((handle, store));
        }
        Ok(out)
    }
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
        let hub = SyncHub::new();
        hub.register("F", t.clone()).unwrap();
        let alice = hub.open("alice", "F", &w.models).unwrap();
        hub.open("bob", "F", &w.models).unwrap();
        // Drift alice so the two sessions are distinguishable.
        let feature = w.fm.class_named("Feature").unwrap();
        let id = ObjId(w.models[2].id_bound() as u32);
        alice
            .with(|s| s.apply(DomIdx(2), EditOp::AddObj { id, class: feature }))
            .unwrap();
        let (alice_tuple, bob_tuple) = (alice.with(tuple), hub.get("bob").unwrap().with(tuple));
        assert_ne!(alice_tuple, bob_tuple);

        let dir = tmp("roundtrip");
        assert_eq!(hub.persist_to(&dir).unwrap(), 2);

        let restored = SyncHub::new();
        restored.register("F", t).unwrap();
        let opened = restored
            .restore_from(&dir, &SessionOptions::default())
            .unwrap();
        assert_eq!(opened.len(), 2);
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
        let hub = SyncHub::new();
        hub.register("F", t).unwrap();
        hub.open("a", "F", &w.models).unwrap();
        let dir = tmp("missing-t");
        hub.persist_to(&dir).unwrap();

        let empty = SyncHub::new();
        let err = empty
            .restore_from(&dir, &SessionOptions::default())
            .unwrap_err();
        assert!(matches!(err, StoreError::Hub(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trips_and_rejects_garbage() {
        let dir = tmp("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let entries = vec![
            ("alice".to_string(), "F".to_string()),
            ("bob".to_string(), "G".to_string()),
        ];
        write_hub_manifest(&dir, &entries).unwrap();
        assert_eq!(read_hub_manifest(&dir).unwrap(), entries);

        assert!(matches!(
            write_hub_manifest(&dir, &[("../escape".to_string(), "F".to_string())]),
            Err(StoreError::InvalidName(_))
        ));

        std::fs::write(dir.join("hub"), "mmt-hub 1\nbanana\n").unwrap();
        assert!(matches!(
            read_hub_manifest(&dir).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        std::fs::write(dir.join("hub"), "mmt-hub 99\n").unwrap();
        assert!(matches!(
            read_hub_manifest(&dir).unwrap_err(),
            StoreError::Version { .. }
        ));
        std::fs::write(dir.join("hub"), "x").unwrap();
        assert!(matches!(
            read_hub_manifest(&dir).unwrap_err(),
            StoreError::ShortRead { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
