//! Fault injection against the WAL-backed session store (ISSUE 6):
//!
//! * **torn writes** — cutting the journal at every record boundary
//!   and at offsets *inside* a record header / payload must recover
//!   exactly the longest committed prefix: status, printed models, id
//!   bounds, and rendered journal all equal an in-memory
//!   reference session replayed to that prefix;
//! * **bit rot** — flipping any single byte of the store either still
//!   recovers a committed prefix (bitwise equal to the reference) or
//!   fails with a *typed* [`StoreError`]. There is no third outcome:
//!   recovery never silently diverges from what was committed.
//!
//! The WAL format is part of the store's public contract (documented
//! in `mmt_store`): an 8-byte magic, then per record a little-endian
//! `u32` payload length, a `u32` CRC-32, and the UTF-8 payload. The
//! harness re-parses that framing here so it can aim its faults.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mmtf::core::{JournalEntry, SessionOptions, Shape, SyncSession, SyncStatus, Transformation};
use mmtf::gen::{feature_workload, FeatureSpec, SessionScriptGen, SessionStep};
use mmtf::model::text::print_model;
use mmtf::model::Model;
use mmtf::prelude::{DomSet, PersistentSession, StoreError};
use mmtf::store::render_entry;

const WAL_HEADER: usize = 8;

fn fixture(seed: u64) -> (Arc<Transformation>, Vec<Model>) {
    let w = feature_workload(FeatureSpec {
        n_features: 5,
        k_configs: 2,
        mandatory_ratio: 0.4,
        select_prob: 0.4,
        seed,
    });
    let t = Transformation::from_sources(
        &mmtf::gen::transformation_source(2),
        &[mmtf::gen::CF_METAMODEL, mmtf::gen::FM_METAMODEL],
    )
    .unwrap();
    (Arc::new(t), w.models)
}

/// Everything observable about a session, for bitwise comparison.
#[derive(Debug, PartialEq)]
struct Snapshot {
    status: SyncStatus,
    models: Vec<String>,
    id_bounds: Vec<usize>,
    journal: Vec<String>,
}

impl Snapshot {
    fn of(session: &SyncSession) -> Snapshot {
        Snapshot {
            status: session.status(),
            models: session.models().iter().map(print_model).collect(),
            id_bounds: session.models().iter().map(Model::id_bound).collect(),
            journal: session.journal().iter().map(render_entry).collect(),
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmt-store-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copies `src` (a committed store) to `dst`, substituting `wal` for
/// the journal bytes — the crash simulator.
fn clone_store(src: &Path, dst: &Path, wal: &[u8]) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst.join("seed")).unwrap();
    for entry in fs::read_dir(src.join("seed")).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join("seed").join(entry.file_name())).unwrap();
    }
    fs::write(dst.join("wal"), wal).unwrap();
    fs::copy(src.join("manifest"), dst.join("manifest")).unwrap();
}

/// Walks the WAL framing and returns the byte offset where each
/// record *ends* (so `ends[k]` = length of a journal holding exactly
/// `k + 1` records).
fn record_ends(wal: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = WAL_HEADER;
    while wal.len() - off >= 8 {
        let len = u32::from_le_bytes(wal[off..off + 4].try_into().unwrap()) as usize;
        assert!(wal.len() >= off + 8 + len, "committed WAL has a torn tail");
        off += 8 + len;
        ends.push(off);
    }
    assert_eq!(off, wal.len(), "trailing garbage in a committed WAL");
    ends
}

/// Drives a session through `steps` generated steps with a commit
/// after every step, returning the transformation, the committed
/// store directory, and the reference snapshot for every journal
/// prefix (`refs[k]` = the session after replaying `k` entries).
fn committed_store(
    tag: &str,
    seed: u64,
    steps: usize,
) -> (Arc<Transformation>, PathBuf, Vec<Snapshot>) {
    let (t, seed_models) = fixture(seed);
    let opts = SessionOptions::default();
    let mut session =
        SyncSession::with_options(Arc::clone(&t), &seed_models, opts.clone()).unwrap();
    let dir = scratch(tag);
    let mut store = PersistentSession::create(&dir, &session).unwrap();

    let targets = DomSet::from_iter([mmtf::deps::DomIdx(0), mmtf::deps::DomIdx(1)]);
    let mut gen = SessionScriptGen::new(targets, 3, seed.wrapping_mul(31).wrapping_add(7));
    for _ in 0..steps {
        match gen.next_step(session.models()) {
            SessionStep::Edit { model, op } => {
                session.apply(model, op).unwrap();
            }
            SessionStep::Repair { targets } => {
                let shape = Shape::from_targets(targets);
                session.repair(shape).unwrap();
            }
        }
        store.commit(&session).unwrap();
    }
    assert!(
        session.journal().len() >= 4,
        "fixture too quiet: only {} journal entries",
        session.journal().len()
    );

    // Reference: an uninterrupted in-memory session replayed to every
    // prefix of the committed journal.
    let entries: Vec<JournalEntry> = session.journal().to_vec();
    let mut refs = Vec::with_capacity(entries.len() + 1);
    let mut replayed =
        SyncSession::with_options(Arc::clone(&t), &seed_models, opts.clone()).unwrap();
    refs.push(Snapshot::of(&replayed));
    for entry in &entries {
        replayed.replay_entry(entry.clone()).unwrap();
        refs.push(Snapshot::of(&replayed));
    }
    assert_eq!(
        refs.last().unwrap(),
        &Snapshot::of(&session),
        "replay_entry does not reproduce the live session"
    );
    (t, dir, refs)
}

#[test]
fn every_truncation_recovers_the_longest_committed_prefix() {
    let (t, dir, refs) = committed_store("trunc", 11, 14);
    let wal = fs::read(dir.join("wal")).unwrap();
    let ends = record_ends(&wal);
    assert_eq!(ends.len() + 1, refs.len());

    // Cut points: every record boundary, plus offsets inside each
    // record's header and payload, plus the last byte before a
    // boundary (a maximally torn record).
    let mut cuts: Vec<usize> = vec![WAL_HEADER, wal.len()];
    let mut start = WAL_HEADER;
    for &end in &ends {
        cuts.extend([
            start + 3,
            start + 8,
            start + (end - start) / 2,
            end - 1,
            end,
        ]);
        start = end;
    }
    cuts.retain(|&c| (WAL_HEADER..=wal.len()).contains(&c));
    cuts.sort_unstable();
    cuts.dedup();

    let crash = scratch("trunc-crash");
    for cut in cuts {
        // A cut at offset `cut` commits every record that ends at or
        // before it; anything after is a torn tail.
        let committed = ends.iter().take_while(|&&e| e <= cut).count();
        clone_store(&dir, &crash, &wal[..cut]);
        let (_, recovered) = PersistentSession::open(&crash, &t, SessionOptions::default())
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(
            Snapshot::of(&recovered),
            refs[committed],
            "cut at {cut}: recovered state is not the {committed}-entry prefix"
        );
        // Recovery must also have repaired the file on disk: reopening
        // the *same* store sees the identical committed prefix.
        let (_, again) = PersistentSession::open(&crash, &t, SessionOptions::default()).unwrap();
        assert_eq!(
            Snapshot::of(&again),
            refs[committed],
            "cut at {cut}: second open diverged"
        );
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash);
}

#[test]
fn every_byte_flip_recovers_a_prefix_or_fails_typed() {
    let (t, dir, refs) = committed_store("flip", 23, 12);
    let wal = fs::read(dir.join("wal")).unwrap();
    let ends = record_ends(&wal);

    let crash = scratch("flip-crash");
    let mut recovered_full = 0usize;
    let mut recovered_prefix = 0usize;
    let mut rejected = 0usize;
    for off in 0..wal.len() {
        let mut bytes = wal.clone();
        bytes[off] ^= 0x40;
        clone_store(&dir, &crash, &bytes);
        match PersistentSession::open(&crash, &t, SessionOptions::default()) {
            Ok((_, session)) => {
                // A flip may shrink the committed prefix (e.g. by
                // inflating a length field into a torn tail) but must
                // never invent state: whatever came back has to be
                // bitwise equal to *some* committed prefix of the
                // reference — and at least every record before the
                // flipped byte.
                let k = session.journal().len();
                let intact = ends.iter().take_while(|&&e| e <= off).count();
                assert!(
                    k >= intact,
                    "flip at {off}: lost {} committed records before the fault",
                    intact - k
                );
                assert_eq!(
                    Snapshot::of(&session),
                    refs[k],
                    "flip at {off}: recovered state diverges from the {k}-entry prefix"
                );
                if k == ends.len() {
                    recovered_full += 1;
                } else {
                    recovered_prefix += 1;
                }
            }
            Err(
                StoreError::Corrupt { .. }
                | StoreError::Version { .. }
                | StoreError::ShortRead { .. },
            ) => rejected += 1,
            Err(other) => panic!("flip at {off}: untyped store failure: {other}"),
        }
    }
    // The harness must actually exercise both outcomes (and magic
    // flips must not slip through as full recoveries).
    assert!(rejected > 0, "no flip was ever rejected");
    assert!(
        recovered_prefix > 0,
        "no flip ever shortened the committed prefix"
    );
    assert!(
        recovered_full < wal.len(),
        "every flip recovered in full — faults are not landing"
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash);
}

#[test]
fn seed_and_manifest_rot_is_typed_not_silent() {
    let (t, dir, _) = committed_store("rot", 5, 8);

    // Garbage in a seed file: typed corruption, not a panic.
    let seed0 = dir.join("seed").join("0.seed");
    let mut text = fs::read_to_string(&seed0).unwrap();
    text.push_str("+ @0 : class#99\n");
    fs::write(&seed0, text).unwrap();
    match PersistentSession::open(&dir, &t, SessionOptions::default()) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("rotten seed: expected Corrupt, got {other:?}"),
    }

    // A store written by a different spec refuses to open.
    let manifest = fs::read_to_string(dir.join("manifest")).unwrap();
    let forged: String = manifest
        .lines()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("spec ") {
                format!("spec {}\n", rest.chars().rev().collect::<String>())
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    fs::write(dir.join("manifest"), forged).unwrap();
    match PersistentSession::open(&dir, &t, SessionOptions::default()) {
        Err(StoreError::SpecMismatch { .. }) => {}
        other => panic!("forged spec: expected SpecMismatch, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}
