//! Concurrency coverage for the multi-tenant [`SyncHub`] (ISSUE 5):
//!
//! * N threads drive **distinct** named sessions over one shared
//!   `Arc<Transformation>` — every session's outcome (status,
//!   journal, printed tuple and id bounds) is byte-identical to a
//!   single-threaded reference run of the same script;
//! * open/close races on one name resolve to exactly one winner per
//!   round, and a handle closed under a client keeps working.
//!
//! The suite is run under `RUST_TEST_THREADS=4` in CI (the
//! `concurrent-tests` job), stacking test-level parallelism on top of
//! the threads spawned here.

use mmtf::core::{HubError, SessionOptions, SyncHub, Transformation};
use mmtf::gen::{feature_workload, FeatureSpec, SessionScriptGen, SessionStep};
use mmtf::model::text::print_model;
use mmtf::model::Model;
use mmtf::prelude::{DomIdx, DomSet, Shape};
use mmtf::store::HubStore;
use std::sync::Arc;

const N_SESSIONS: usize = 8;

fn fixture() -> (Transformation, Vec<Model>) {
    let t = Transformation::from_sources(
        &mmtf::gen::transformation_source(2),
        &[mmtf::gen::CF_METAMODEL, mmtf::gen::FM_METAMODEL],
    )
    .unwrap();
    let w = feature_workload(FeatureSpec {
        n_features: 5,
        ..FeatureSpec::default()
    });
    (t, w.models)
}

/// One deterministic per-session workload: seeded drift with repair
/// checkpoints, exactly what a client would pump through the serve
/// protocol. Returns the session's observable outcome.
fn drive(session: &mut mmtf::core::SyncSession, seed: u64) -> Outcome {
    let targets = DomSet::from_iter([DomIdx(0), DomIdx(1)]);
    let mut gen = SessionScriptGen::new(targets, 3, seed);
    for _ in 0..12 {
        match gen.next_step(session.models()) {
            SessionStep::Edit { model, op } => {
                session.apply(model, op).unwrap();
            }
            SessionStep::Repair { targets } => {
                let _ = session.repair(Shape::from_targets(targets)).unwrap();
            }
        }
    }
    observe(session)
}

/// A session's consistency, journal length, and each model printed with
/// its id bound.
type Outcome = (bool, usize, Vec<(String, usize)>);

fn observe(session: &mmtf::core::SyncSession) -> Outcome {
    (
        session.status().consistent,
        session.journal().len(),
        session
            .models()
            .iter()
            .map(|m| (print_model(m), m.id_bound()))
            .collect(),
    )
}

/// N threads, N distinct sessions, one shared transformation: results
/// equal the single-threaded reference byte for byte.
#[test]
fn concurrent_sessions_match_single_threaded_reference() {
    let (t, models) = fixture();

    // Reference pass: the same N scripts, driven sequentially.
    let reference: Vec<_> = (0..N_SESSIONS)
        .map(|i| {
            let mut session = t.session(&models).unwrap();
            drive(&mut session, 1000 + i as u64)
        })
        .collect();

    let hub = Arc::new(SyncHub::new());
    let shared = hub.register("F", t).unwrap();
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N_SESSIONS)
            .map(|i| {
                let hub = Arc::clone(&hub);
                let models = &models;
                s.spawn(move || {
                    let name = format!("client-{i}");
                    let handle = hub.open(&name, "F", models).unwrap();
                    handle.with(|session| drive(session, 1000 + i as u64))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(got, want, "session {i} diverged from the reference run");
    }
    assert_eq!(hub.len(), N_SESSIONS);
    // Every session shares the one registered transformation.
    for name in hub.list() {
        let h = hub.get(&name).unwrap();
        assert!(Arc::ptr_eq(h.transformation(), &shared));
    }
}

/// Racing opens of one name admit exactly one winner; racing closes
/// admit exactly one closer; a closed handle keeps serving its holder.
#[test]
fn open_close_races_resolve_to_one_winner() {
    let (t, models) = fixture();
    let hub = Arc::new(SyncHub::new());
    hub.register("F", t).unwrap();

    for round in 0..6 {
        let opened: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let hub = Arc::clone(&hub);
                    let models = &models;
                    s.spawn(move || match hub.open("contested", "F", models) {
                        Ok(_) => true,
                        Err(HubError::DuplicateSession(_)) => false,
                        Err(e) => panic!("unexpected open error: {e}"),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&won| won)
                .count()
        });
        assert_eq!(opened, 1, "round {round}: exactly one open wins");
        assert_eq!(hub.list(), ["contested"]);

        let survivor = hub.get("contested").unwrap();
        let closed: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let hub = Arc::clone(&hub);
                    s.spawn(move || match hub.close("contested") {
                        Ok(_) => true,
                        Err(HubError::UnknownSession(_)) => false,
                        Err(e) => panic!("unexpected close error: {e}"),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&won| won)
                .count()
        });
        assert_eq!(closed, 1, "round {round}: exactly one close wins");
        assert!(hub.is_empty());
        // The drained handle still answers after its slot is gone.
        assert!(survivor.with(|session| session.status().consistent));
    }
}

/// Closing a session *while* its holder is mid-repair must not perturb
/// the repair outcome: the worker's full drive (edits + repair
/// checkpoints) stays byte-identical to a single-threaded reference run
/// even when the hub drops the slot under it. Mirrored in the loomlite
/// suite (`close_while_with_keeps_the_session_usable`), which explores
/// the same window exhaustively on a smaller fixture.
#[test]
fn close_while_repair_keeps_the_survivor_byte_identical() {
    let (t, models) = fixture();
    let hub = Arc::new(SyncHub::new());
    let shared = hub.register("F", t).unwrap();

    for round in 0..4u64 {
        let seed = 500 + round;
        let reference = {
            let mut session = shared.session(&models).unwrap();
            drive(&mut session, seed)
        };

        let handle = hub.open("contested", "F", &models).unwrap();
        let outcome = std::thread::scope(|s| {
            let worker = {
                let handle = Arc::clone(&handle);
                s.spawn(move || handle.with(|session| drive(session, seed)))
            };
            let closer = {
                let hub = Arc::clone(&hub);
                s.spawn(move || hub.close("contested").is_ok())
            };
            assert!(closer.join().unwrap(), "close must find the session");
            worker.join().unwrap()
        });
        assert_eq!(
            outcome, reference,
            "round {round}: close-under-repair perturbed the session"
        );
        assert!(hub.is_empty());
    }
}

/// Restoring a snapshot into a hub whose *other* sessions are live and
/// being driven: the restore adopts exactly the persisted sessions at
/// their persisted states, the live session's outcome stays
/// byte-identical to an undisturbed reference, and the hub ends with
/// the union. Mirrored in the loomlite suite
/// (`snapshot_enumeration_vs_concurrent_open`), which explores the
/// registry-walk-vs-insert window exhaustively.
#[test]
fn restore_from_while_sessions_are_driven() {
    let (t, models) = fixture();
    let dir = std::env::temp_dir().join(format!("mmt-hub-restore-race-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Build the snapshot: two sessions at distinct, known states.
    let source = SyncHub::new();
    source.register("F", t.clone()).unwrap();
    let mut persisted = Vec::new();
    for i in 0..2u64 {
        let name = format!("stored-{i}");
        let handle = source.open(&name, "F", &models).unwrap();
        let outcome = handle.with(|session| drive(session, 2000 + i));
        persisted.push((name, outcome));
    }
    source.persist_to(&dir).unwrap();

    let reference = {
        let mut session = t.session(&models).unwrap();
        drive(&mut session, 3000)
    };

    let hub = Arc::new(SyncHub::new());
    hub.register("F", t).unwrap();
    let live = hub.open("live", "F", &models).unwrap();
    let (live_outcome, adopted) = std::thread::scope(|s| {
        let driver = {
            let live = Arc::clone(&live);
            s.spawn(move || live.with(|session| drive(session, 3000)))
        };
        let restorer = {
            let hub = Arc::clone(&hub);
            let dir = dir.clone();
            s.spawn(move || hub.restore_from(&dir, &SessionOptions::default()).unwrap())
        };
        (driver.join().unwrap(), restorer.join().unwrap())
    });

    assert_eq!(
        live_outcome, reference,
        "restore disturbed the live session"
    );
    assert_eq!(adopted.len(), persisted.len());
    for (name, outcome) in &persisted {
        let handle = hub.get(name).unwrap();
        let restored = handle.with(|session| observe(session));
        assert_eq!(&restored, outcome, "{name} restored to a different state");
    }
    let mut names = hub.list();
    names.sort();
    assert_eq!(names, ["live", "stored-0", "stored-1"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The poisoning policy (see [`SessionHandle::lock`]'s rustdoc): a
/// client panicking inside `with` — after completed session calls —
/// leaves the journal replay invariant intact. Proven differentially: a
/// fresh session replayed from the survivor's seed tuple + journal
/// reproduces its status, journal length, printed models and id bounds
/// byte for byte.
///
/// [`SessionHandle::lock`]: mmtf::core::SessionHandle::lock
#[test]
fn panic_inside_with_leaves_a_replayable_session() {
    let (t, models) = fixture();
    let hub = Arc::new(SyncHub::new());
    let shared = hub.register("F", t).unwrap();
    let handle = hub.open("survivor", "F", &models).unwrap();
    handle.with(|session| drive(session, 77));

    // The client applies one more committed edit, then dies before
    // returning — the mutex poisons, the session must not.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle.with(|session| {
            let targets = DomSet::from_iter([DomIdx(0), DomIdx(1)]);
            let mut gen = SessionScriptGen::new(targets, 3, 78);
            loop {
                match gen.next_step(session.models()) {
                    SessionStep::Edit { model, op } => {
                        session.apply(model, op).unwrap();
                        break;
                    }
                    SessionStep::Repair { .. } => continue,
                }
            }
            panic!("client bug after a committed edit");
        })
    }));
    assert!(unwound.is_err(), "the seeded client panic must propagate");

    // The handle recovers, and the survivor's state replays exactly.
    let (journal, seed, survivor) = handle.with(|session| {
        (
            session.journal().to_vec(),
            session.seed_models().unwrap(),
            observe(session),
        )
    });
    let mut fresh = shared.session(&seed).unwrap();
    for entry in journal {
        fresh.replay_entry(entry).unwrap();
    }
    assert_eq!(observe(&fresh), survivor, "replayed session diverged");
    // Still fully usable: drive it further and repair to consistency.
    let consistent = handle.with(|session| {
        let targets = DomSet::from_iter([DomIdx(0), DomIdx(1)]);
        let _ = session.repair(Shape::from_targets(targets)).unwrap();
        session.status().consistent
    });
    assert!(consistent, "survivor must repair to consistency");
}
