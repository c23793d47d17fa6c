//! One session on disk: manifest + seed tuple + WAL.
//!
//! ```text
//! <dir>/manifest      mmt-store 1 / spec <hex> / arity <n>
//! <dir>/seed/<i>.seed id-faithful seed script per model
//! <dir>/wal           journal entries, one WAL record each
//! ```
//!
//! The manifest is written **last** during [`PersistentSession::create`]
//! (after seeds and WAL are on disk and the directory is fsynced), so a
//! store is either visibly absent or complete — a crash mid-create
//! leaves no half-store that [`PersistentSession::open`] would trust.

use crate::wal::Wal;
use crate::{
    io_err, parse_entry, parse_seed, render_entry, render_seed, spec_fingerprint, sync_dir,
    StoreError,
};
use mmt_core::{SessionOptions, SyncSession, Transformation};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST_VERSION: &str = "mmt-store 1";

/// The durable shadow of one [`SyncSession`]: owns the store directory
/// and its open WAL, and keeps them in sync with the live session via
/// [`PersistentSession::commit`].
#[derive(Debug)]
pub struct PersistentSession {
    dir: PathBuf,
    wal: Wal,
    /// The [journal serial](SyncSession::journal_serials) of the entry
    /// each WAL record holds, one per record. A record that holds no
    /// journal entry (one that replayed as empty) gets [`NO_ENTRY`].
    serials: Vec<u64>,
    arity: usize,
}

/// The serial of a WAL record that holds no journal entry: never issued
/// to one, so such a record never matches.
const NO_ENTRY: u64 = 0;

impl PersistentSession {
    /// True iff `dir` holds a completed session store (its manifest —
    /// the last file `create` writes — exists).
    pub fn exists(dir: &Path) -> bool {
        dir.join("manifest").is_file()
    }

    /// Snapshots `session` into a fresh store at `dir`: seed scripts
    /// reconstructed via [`SyncSession::seed_models`], one WAL record
    /// per journal entry, and the manifest last. Refuses to overwrite an
    /// existing store.
    pub fn create(dir: &Path, session: &SyncSession) -> Result<PersistentSession, StoreError> {
        let manifest = dir.join("manifest");
        if manifest.exists() {
            return Err(io_err(
                &manifest,
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "a session store already exists here",
                ),
            ));
        }
        let seed_dir = dir.join("seed");
        fs::create_dir_all(&seed_dir).map_err(|e| io_err(&seed_dir, e))?;
        for (i, model) in session.seed_models()?.iter().enumerate() {
            let path = seed_dir.join(format!("{i}.seed"));
            write_sync(&path, render_seed(model).as_bytes())?;
        }
        sync_dir(&seed_dir)?;
        let mut wal = Wal::create(&dir.join("wal"))?;
        for entry in session.journal() {
            wal.append(&render_entry(entry))?;
        }
        wal.sync()?;
        let manifest_text = format!(
            "{MANIFEST_VERSION}\nspec {}\narity {}\n",
            spec_fingerprint(session.transformation()),
            session.transformation().arity()
        );
        write_sync(&manifest, manifest_text.as_bytes())?;
        sync_dir(dir)?;
        Ok(PersistentSession {
            dir: dir.to_path_buf(),
            wal,
            serials: session.journal_serials().to_vec(),
            arity: session.transformation().arity(),
        })
    }

    /// Crash recovery: reload the seed tuple, cold-start a session over
    /// it, then replay the committed WAL prefix verbatim through
    /// [`SyncSession::replay_entry`] into the warm checker. The result's
    /// tuple, status and journal are identical to the session that last
    /// committed — or a typed [`StoreError`]; never a
    /// silently diverged session. The store remembers the serial each
    /// record was replayed under, so the returned pair commits by
    /// appending, as the crashed one did.
    pub fn open(
        dir: &Path,
        t: &Arc<Transformation>,
        opts: SessionOptions,
    ) -> Result<(PersistentSession, SyncSession), StoreError> {
        let manifest = dir.join("manifest");
        let (spec, arity) = read_manifest(&manifest)?;
        let expected = spec_fingerprint(t);
        if spec != expected || arity != t.arity() {
            return Err(StoreError::SpecMismatch {
                path: manifest,
                expected: format!("{expected} (arity {})", t.arity()),
                found: format!("{spec} (arity {arity})"),
            });
        }
        let mut models = Vec::with_capacity(arity);
        for (i, meta) in t.metamodels().iter().enumerate() {
            let path = dir.join("seed").join(format!("{i}.seed"));
            let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
            models.push(
                parse_seed(&text, meta).map_err(|detail| StoreError::Corrupt {
                    path: path.clone(),
                    offset: 0,
                    detail,
                })?,
            );
        }
        let mut session = SyncSession::with_options(Arc::clone(t), &models, opts)?;
        let wal_path = dir.join("wal");
        let (wal, payloads) = Wal::open(&wal_path)?;
        let mut serials = Vec::with_capacity(payloads.len());
        for (record, payload) in payloads.iter().enumerate() {
            let entry =
                parse_entry(payload, t.metamodels()).map_err(|detail| StoreError::Corrupt {
                    path: wal_path.clone(),
                    offset: wal.end_of(record),
                    detail,
                })?;
            let before = session.journal().len();
            session
                .replay_entry(entry)
                .map_err(|source| StoreError::Replay { record, source })?;
            let journaled = session.journal_serials().get(before);
            serials.push(journaled.copied().unwrap_or(NO_ENTRY));
        }
        Ok((
            PersistentSession {
                dir: dir.to_path_buf(),
                wal,
                serials,
                arity,
            },
            session,
        ))
    }

    /// The store directory this session persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Makes the WAL agree with `session`'s journal, then fsyncs — the
    /// commit point. The WAL keeps the records the two still share, is
    /// cut back where they diverge, and gets the journal's later entries
    /// appended, each rendered once. Records and entries are matched by
    /// [journal serial](SyncSession::journal_serials), never by content,
    /// so the work is the number of entries journaled since the last
    /// commit plus one `fdatasync`, whatever the journal's length. A
    /// commit with nothing new writes and syncs nothing.
    ///
    /// Serials are unique across sessions, so committing a session other
    /// than the one this store was created or opened with is still
    /// correct: no serial matches, and the WAL is rewritten from its
    /// first record.
    pub fn commit(&mut self, session: &SyncSession) -> Result<(), StoreError> {
        assert_eq!(
            session.transformation().arity(),
            self.arity,
            "committed session matches the store arity"
        );
        let target = session.journal_serials();
        // Entries journaled after the last commit carry serials the WAL
        // has never seen, so the shared prefix ends at the first
        // mismatch from the top and this loop runs once per such entry.
        let mut keep = self.serials.len().min(target.len());
        while keep > 0 && self.serials[keep - 1] != target[keep - 1] {
            keep -= 1;
        }
        if keep == self.serials.len() && keep == target.len() {
            return Ok(()); // nothing moved since the last commit
        }
        self.wal.truncate_to(keep)?;
        self.serials.truncate(keep);
        for (entry, &serial) in session.journal()[keep..].iter().zip(&target[keep..]) {
            self.wal.append(&render_entry(entry))?;
            self.serials.push(serial);
        }
        self.wal.sync()
    }
}

/// Writes a whole file and fsyncs it before returning.
pub(crate) fn write_sync(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = fs::File::create(path).map_err(|e| io_err(path, e))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| io_err(path, e))
}

/// Parses the manifest into (spec fingerprint, arity).
fn read_manifest(path: &Path) -> Result<(String, usize), StoreError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != MANIFEST_VERSION {
        if text.len() < MANIFEST_VERSION.len() {
            return Err(StoreError::ShortRead {
                path: path.to_path_buf(),
                len: text.len() as u64,
            });
        }
        return Err(StoreError::Version {
            path: path.to_path_buf(),
            found: header.to_string(),
        });
    }
    let corrupt = |detail: &str| StoreError::Corrupt {
        path: path.to_path_buf(),
        offset: 0,
        detail: detail.to_string(),
    };
    let spec = lines
        .next()
        .and_then(|l| l.strip_prefix("spec "))
        .ok_or_else(|| corrupt("manifest needs a `spec <fingerprint>` line"))?;
    let arity: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("arity "))
        .ok_or_else(|| corrupt("manifest needs an `arity <n>` line"))?
        .parse()
        .map_err(|_| corrupt("manifest arity is not a number"))?;
    Ok((spec.to_string(), arity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_core::{Shape, Transformation};
    use mmt_deps::{DomIdx, DomSet};
    use mmt_dist::EditOp;
    use mmt_gen::{
        feature_workload, FeatureSpec, SessionScriptGen, SessionStep, CF_METAMODEL, FM_METAMODEL,
    };
    use mmt_model::{ObjId, Value};

    fn fixture() -> (Arc<Transformation>, mmt_gen::FeatureWorkload) {
        let t = Transformation::from_sources(
            &mmt_gen::transformation_source(2),
            &[CF_METAMODEL, FM_METAMODEL],
        )
        .unwrap();
        (Arc::new(t), feature_workload(FeatureSpec::default()))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmt-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn drift(session: &mut SyncSession) {
        let fm = session.transformation().metamodels()[2].clone();
        let feature = fm.class_named("Feature").unwrap();
        let name = fm.attr_of(feature, mmt_model::Sym::new("name")).unwrap();
        let id = ObjId(session.models()[2].id_bound() as u32);
        session
            .apply(DomIdx(2), EditOp::AddObj { id, class: feature })
            .unwrap();
        session
            .apply(
                DomIdx(2),
                EditOp::SetAttr {
                    id,
                    attr: name,
                    value: Value::str("brakes"),
                    old: Value::str(""),
                },
            )
            .unwrap();
    }

    /// Sets the name of feature `@0` in the feature model to `to`.
    fn rename(session: &mut SyncSession, to: &str) {
        let fm = session.transformation().metamodels()[2].clone();
        let feature = fm.class_named("Feature").unwrap();
        let name = fm.attr_of(feature, mmt_model::Sym::new("name")).unwrap();
        let old = session.models()[2].attr(ObjId(0), name).unwrap();
        session
            .apply(
                DomIdx(2),
                EditOp::SetAttr {
                    id: ObjId(0),
                    attr: name,
                    value: Value::str(to),
                    old,
                },
            )
            .unwrap();
    }

    /// Reopens the WAL in `dir` and asserts that it holds exactly
    /// `session`'s journal, and that the file ends at its last record.
    fn assert_wal_is_journal(dir: &Path, session: &SyncSession, ctx: &str) {
        let path = dir.join("wal");
        let file_len = fs::metadata(&path).unwrap().len();
        let (wal, payloads) = Wal::open(&path).unwrap();
        let journal: Vec<String> = session.journal().iter().map(render_entry).collect();
        assert_eq!(payloads, journal, "{ctx}");
        assert_eq!(file_len, wal.end_of(wal.records()), "{ctx}");
    }

    /// One move of a session's journal: a push of one entry, or a pop
    /// of `n`.
    #[derive(Clone, Copy, Debug)]
    enum Move {
        Push,
        Pop(usize),
    }

    /// Runs `action` on `session`, records how it moved the journal, and
    /// says whether it journaled an entry.
    fn track(
        session: &mut SyncSession,
        moves: &mut Vec<Move>,
        action: impl FnOnce(&mut SyncSession),
    ) -> bool {
        let before = session.journal().len();
        action(session);
        let after = session.journal().len();
        if after < before {
            moves.push(Move::Pop(before - after));
        }
        if after > before {
            assert_eq!(after, before + 1, "one action journals one entry");
            moves.push(Move::Push);
        }
        after > before
    }

    #[test]
    fn wal_equals_the_journal_after_every_commit() {
        let (t, _) = fixture();
        let w = feature_workload(FeatureSpec {
            n_features: 5,
            ..FeatureSpec::default()
        });
        let mut session = t.session(&w.models).unwrap();
        let dir = tmp("walk");
        let mut store = PersistentSession::create(&dir, &session).unwrap();
        let targets = DomSet::from_iter([DomIdx(0), DomIdx(1)]);
        let mut gen = SessionScriptGen::new(targets, 4, 11);
        let mut moves = Vec::new();
        let (mut redone, mut repaired, mut idle) = (0, 0, 0);
        for step in 0..40 {
            let ctx = format!("step {step}");
            match gen.next_step(session.models()) {
                SessionStep::Edit { model, op } => {
                    let pushed = track(&mut session, &mut moves, |s| {
                        s.apply(model, op).unwrap();
                    });
                    if pushed && step % 5 == 1 {
                        // Rollback 1, then the identical edit: the same
                        // bytes come back under a new serial.
                        track(&mut session, &mut moves, |s| {
                            s.rollback(1).unwrap();
                        });
                        track(&mut session, &mut moves, |s| {
                            s.apply(model, op).unwrap();
                        });
                        redone += 1;
                    }
                }
                SessionStep::Repair { targets } => {
                    let pushed = track(&mut session, &mut moves, |s| {
                        s.repair(Shape::from_targets(targets)).unwrap();
                    });
                    repaired += usize::from(pushed);
                }
            }
            if step % 7 == 6 {
                track(&mut session, &mut moves, |s| {
                    s.rollback(2).unwrap();
                });
            }
            if step == 25 {
                // Past the start: the WAL is cut back to its header.
                track(&mut session, &mut moves, |s| {
                    s.rollback(s.journal().len() + 3).unwrap();
                });
            }
            store.commit(&session).unwrap();
            assert_wal_is_journal(&dir, &session, &ctx);
            if step % 8 == 3 {
                // Nothing changed: the file must not move either.
                let len = fs::metadata(dir.join("wal")).unwrap().len();
                store.commit(&session).unwrap();
                assert_eq!(fs::metadata(dir.join("wal")).unwrap().len(), len);
                assert_wal_is_journal(&dir, &session, &ctx);
                idle += 1;
            }
        }
        assert!(
            redone > 0 && repaired > 0 && idle > 0,
            "the walk covers its cases"
        );
        assert!(!session.journal().is_empty());

        // A sibling on the same seed moves its journal exactly as the
        // walk did, with other content. Per-session counters would give
        // it the walk's serials, and the commit would keep the walk's
        // records; process-wide serials make it rewrite them all.
        let mut sibling = t.session(&w.models).unwrap();
        for (i, m) in moves.iter().enumerate() {
            match *m {
                Move::Push => rename(&mut sibling, &format!("sibling{i}")),
                Move::Pop(n) => assert_eq!(sibling.rollback(n).unwrap(), n),
            }
        }
        assert_eq!(sibling.journal().len(), session.journal().len());
        store.commit(&sibling).unwrap();
        assert_wal_is_journal(&dir, &sibling, "sibling");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_that_replays_empty_is_rewritten_by_the_next_commit() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        drift(&mut session);
        let dir = tmp("empty-record");
        drop(PersistentSession::create(&dir, &session).unwrap());
        // A CRC-valid `edit` record with no ops parses to an entry that
        // replay skips, so WAL records and journal entries no longer
        // line up one to one after it.
        let mut wal = Wal::create(&dir.join("wal")).unwrap();
        let journal: Vec<String> = session.journal().iter().map(render_entry).collect();
        wal.append(&journal[0]).unwrap();
        wal.append("edit\n").unwrap();
        wal.append(&journal[1]).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (mut store, mut back) =
            PersistentSession::open(&dir, &t, SessionOptions::default()).unwrap();
        assert_eq!(back.journal().len(), 2);
        rename(&mut back, "renamed");
        store.commit(&back).unwrap();
        assert_wal_is_journal(&dir, &back, "after recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_open_reproduces_the_session() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        drift(&mut session);
        let dir = tmp("roundtrip");
        let mut store = PersistentSession::create(&dir, &session).unwrap();
        drift(&mut session);
        store.commit(&session).unwrap();

        let (_, back) = PersistentSession::open(&dir, &t, SessionOptions::default()).unwrap();
        assert_eq!(back.status(), session.status());
        assert_eq!(back.journal().len(), session.journal().len());
        for (a, b) in back.journal().iter().zip(session.journal()) {
            assert_eq!(render_entry(a), render_entry(b));
        }
        // The recovered tuple is printed-form identical (graph_eq would
        // additionally demand metamodel Arc identity, which a recovered
        // session cannot share with one opened from parsed files).
        for (a, b) in back.models().iter().zip(session.models()) {
            assert_eq!(
                mmt_model::text::print_model(a),
                mmt_model::text::print_model(b)
            );
            assert_eq!(a.id_bound(), b.id_bound());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let (t, w) = fixture();
        let session = t.session(&w.models).unwrap();
        let dir = tmp("overwrite");
        PersistentSession::create(&dir, &session).unwrap();
        let err = PersistentSession::create(&dir, &session).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_mismatch_is_typed() {
        let (t, w) = fixture();
        let session = t.session(&w.models).unwrap();
        let dir = tmp("spec");
        PersistentSession::create(&dir, &session).unwrap();
        let other = Arc::new(
            Transformation::from_sources(
                &mmt_gen::transformation_source(3),
                &[CF_METAMODEL, CF_METAMODEL, FM_METAMODEL],
            )
            .unwrap(),
        );
        let err = PersistentSession::open(&dir, &other, SessionOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::SpecMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_handles_rollback_then_new_edits() {
        let (t, w) = fixture();
        let mut session = t.session(&w.models).unwrap();
        let dir = tmp("rollback");
        let mut store = PersistentSession::create(&dir, &session).unwrap();
        drift(&mut session);
        store.commit(&session).unwrap();
        session.rollback(1).unwrap();
        drift(&mut session);
        store.commit(&session).unwrap();

        let (_, back) = PersistentSession::open(&dir, &t, SessionOptions::default()).unwrap();
        assert_eq!(back.journal().len(), session.journal().len());
        for (a, b) in back.models().iter().zip(session.models()) {
            assert_eq!(
                mmt_model::text::print_model(a),
                mmt_model::text::print_model(b)
            );
            assert_eq!(a.id_bound(), b.id_bound());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_errors_are_typed() {
        let (t, w) = fixture();
        let session = t.session(&w.models).unwrap();
        let dir = tmp("manifest");
        PersistentSession::create(&dir, &session).unwrap();
        let manifest = dir.join("manifest");
        std::fs::write(&manifest, "mmt-store 99\nspec x\narity 3\n").unwrap();
        assert!(matches!(
            PersistentSession::open(&dir, &t, SessionOptions::default()).unwrap_err(),
            StoreError::Version { .. }
        ));
        std::fs::write(&manifest, "mm").unwrap();
        assert!(matches!(
            PersistentSession::open(&dir, &t, SessionOptions::default()).unwrap_err(),
            StoreError::ShortRead { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
