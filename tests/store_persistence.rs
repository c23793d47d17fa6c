//! Persistence property testing of the WAL-backed session store
//! (ISSUE 6): over generated edit/repair scripts, a session that is
//! persisted, dropped, and reopened mid-flight must be observably
//! identical — status, printed models and their id bounds, rendered
//! journal, and the final written tuple, byte for byte — to one
//! uninterrupted in-memory session, under the search and the SAT
//! engine. Plus the
//! `rollback(n)` edge cases: saturation past the journal start,
//! rolling back across a persisted/recovered boundary, and
//! rollback-then-new-edits reusing the committed WAL prefix.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use mmtf::core::{SessionOptions, Shape, SyncSession, SyncStatus, Transformation};
use mmtf::gen::scenario::scenario_named;
use mmtf::gen::{feature_workload, FeatureSpec, SessionScriptGen, SessionStep};
use mmtf::model::text::print_model;
use mmtf::model::Model;
use mmtf::prelude::{DomSet, EngineKind, PersistentSession};
use mmtf::store::render_entry;

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
    let dir = std::env::temp_dir().join(format!("mmt-store-persist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Drives an uninterrupted reference session and a durable session
/// through the *same* generated script, persisting + dropping +
/// reopening the durable one at every `reopen_every` steps, and
/// asserts they are observably identical after every step.
fn assert_persisted_equals_uninterrupted(engine: EngineKind, seed: u64, tag: &str) {
    let (t, seed_models) = fixture(seed);
    let targets = DomSet::from_iter([mmtf::deps::DomIdx(0), mmtf::deps::DomIdx(1)]);
    assert_persisted_equals_uninterrupted_on(&t, &seed_models, targets, engine, seed, tag);
}

/// The scenario-generic core of the persistence differential: any
/// transformation, any seed tuple, any repair-target set.
fn assert_persisted_equals_uninterrupted_on(
    t: &Arc<Transformation>,
    seed_models: &[Model],
    targets: DomSet,
    engine: EngineKind,
    seed: u64,
    tag: &str,
) {
    let opts = SessionOptions {
        engine,
        ..SessionOptions::default()
    };
    let mut live = SyncSession::with_options(Arc::clone(t), seed_models, opts.clone()).unwrap();
    let mut durable = SyncSession::with_options(Arc::clone(t), seed_models, opts.clone()).unwrap();
    let dir = scratch(tag);
    let mut store = PersistentSession::create(&dir, &durable).unwrap();

    let mut gen = SessionScriptGen::new(targets, 3, seed.wrapping_mul(31).wrapping_add(7));
    let ctx = |step: usize| format!("engine={engine:?} seed={seed} step={step}");
    for step_no in 0..18 {
        // The generator is fed the *reference* models; both sessions
        // apply the identical step.
        match gen.next_step(live.models()) {
            SessionStep::Edit { model, op } => {
                live.apply(model, op).unwrap();
                durable.apply(model, op).unwrap();
            }
            SessionStep::Repair { targets } => {
                let shape = Shape::from_targets(targets);
                let a = live.repair(shape).unwrap();
                let b = durable.repair(shape).unwrap();
                assert_eq!(a.is_some(), b.is_some(), "{}", ctx(step_no));
            }
        }
        store.commit(&durable).unwrap();
        assert_eq!(
            Snapshot::of(&durable),
            Snapshot::of(&live),
            "{}",
            ctx(step_no)
        );

        if step_no % 6 == 4 {
            // Crash: forget the warm session entirely and recover it
            // from disk.
            drop(durable);
            drop(store);
            let (s, recovered) = PersistentSession::open(&dir, t, opts.clone())
                .unwrap_or_else(|e| panic!("{}: reopen failed: {e}", ctx(step_no)));
            store = s;
            durable = recovered;
            assert_eq!(
                Snapshot::of(&durable),
                Snapshot::of(&live),
                "{}: recovered session diverges",
                ctx(step_no)
            );
        }
    }
    // The final written tuple is byte-identical, and so is the
    // human-facing report.
    assert_eq!(live.report().to_string(), durable.report().to_string());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn search_incremental_survives_reopen() {
    for seed in [3, 17] {
        assert_persisted_equals_uninterrupted(EngineKind::Search, seed, "search-inc");
    }
}

#[test]
fn sat_engine_survives_reopen() {
    for seed in [3, 17] {
        assert_persisted_equals_uninterrupted(EngineKind::Sat, seed, "sat");
    }
}

/// The scenario sweep: persist-reopen ≡ uninterrupted over one named
/// corpus scenario, crash-recovering mid-script, under the warm search
/// and the SAT engine.
fn scenario_sweep(name: &str) {
    let sc = scenario_named(name).expect("known scenario");
    for seed in [3u64, 17] {
        let w = sc.workload(seed);
        let t = Arc::new(Transformation::from_hir(w.hir.clone()));
        assert_persisted_equals_uninterrupted_on(
            &t,
            &w.models,
            sc.repair_targets(),
            EngineKind::Search,
            seed,
            &format!("scn-{name}-search-{seed}"),
        );
    }
    let w = sc.workload(3);
    let t = Arc::new(Transformation::from_hir(w.hir.clone()));
    assert_persisted_equals_uninterrupted_on(
        &t,
        &w.models,
        sc.repair_targets(),
        EngineKind::Sat,
        3,
        &format!("scn-{name}-sat"),
    );
}

#[test]
fn scenario_fm2cfs_survives_reopen() {
    scenario_sweep("fm2cfs");
}

#[test]
fn scenario_company_survives_reopen() {
    scenario_sweep("company");
}

#[test]
fn scenario_class2rdbms_survives_reopen() {
    scenario_sweep("class2rdbms");
}

/// Applies `n` deterministic generated edit steps (repair steps are
/// executed too, to keep the script realistic).
fn drive(session: &mut SyncSession, gen: &mut SessionScriptGen, steps: usize) {
    for _ in 0..steps {
        match gen.next_step(session.models()) {
            SessionStep::Edit { model, op } => {
                session.apply(model, op).unwrap();
            }
            SessionStep::Repair { targets } => {
                session.repair(Shape::from_targets(targets)).unwrap();
            }
        }
    }
}

fn targets() -> DomSet {
    DomSet::from_iter([mmtf::deps::DomIdx(0), mmtf::deps::DomIdx(1)])
}

#[test]
fn rollback_past_the_journal_start_saturates_and_persists() {
    let (t, seed_models) = fixture(41);
    let opts = SessionOptions::default();
    let mut session =
        SyncSession::with_options(Arc::clone(&t), &seed_models, opts.clone()).unwrap();
    let seed_state = Snapshot::of(&session);
    let dir = scratch("rb-saturate");
    let mut store = PersistentSession::create(&dir, &session).unwrap();
    let mut gen = SessionScriptGen::new(targets(), 3, 99);
    drive(&mut session, &mut gen, 7);
    store.commit(&session).unwrap();
    let entries = session.journal().len();
    assert!(entries > 0);

    // Rolling back far past the start saturates at the seed …
    session.rollback(entries + 100).unwrap();
    assert_eq!(Snapshot::of(&session), seed_state);
    store.commit(&session).unwrap();
    // … and the persisted WAL shrinks to just its header.
    assert_eq!(fs::metadata(dir.join("wal")).unwrap().len(), 8);
    let (_, reopened) = PersistentSession::open(&dir, &t, opts).unwrap();
    assert_eq!(Snapshot::of(&reopened), seed_state);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rollback_across_a_recovered_boundary() {
    let (t, seed_models) = fixture(43);
    let opts = SessionOptions::default();

    // Reference: one uninterrupted session doing 6 steps, rolling back
    // 4 entries, then doing 3 more steps.
    let mut reference =
        SyncSession::with_options(Arc::clone(&t), &seed_models, opts.clone()).unwrap();
    let mut gen_a = SessionScriptGen::new(targets(), 3, 7);
    drive(&mut reference, &mut gen_a, 10);
    let persisted_entries = reference.journal().len();
    assert!(persisted_entries >= 4, "fixture too quiet");

    // Durable twin: same 6 steps, persist, *recover*, then roll back
    // through entries that were written before the crash.
    let mut durable =
        SyncSession::with_options(Arc::clone(&t), &seed_models, opts.clone()).unwrap();
    let dir = scratch("rb-boundary");
    let mut store = PersistentSession::create(&dir, &durable).unwrap();
    let mut gen_b = SessionScriptGen::new(targets(), 3, 7);
    drive(&mut durable, &mut gen_b, 10);
    store.commit(&durable).unwrap();
    drop(durable);
    drop(store);
    let (mut store, mut durable) = PersistentSession::open(&dir, &t, opts.clone()).unwrap();

    reference.rollback(4).unwrap();
    durable.rollback(4).unwrap();
    store.commit(&durable).unwrap();
    assert_eq!(Snapshot::of(&durable), Snapshot::of(&reference));

    // Fresh ids allocated after the rollback must agree too — the
    // recovered session's id allocator saw the full history.
    let mut gen_a2 = SessionScriptGen::new(targets(), 3, 13);
    let mut gen_b2 = SessionScriptGen::new(targets(), 3, 13);
    drive(&mut reference, &mut gen_a2, 3);
    drive(&mut durable, &mut gen_b2, 3);
    store.commit(&durable).unwrap();
    assert_eq!(Snapshot::of(&durable), Snapshot::of(&reference));

    let (_, reopened) = PersistentSession::open(&dir, &t, opts).unwrap();
    assert_eq!(Snapshot::of(&reopened), Snapshot::of(&reference));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rollback_then_new_edits_reuses_the_committed_wal_prefix() {
    let (t, seed_models) = fixture(47);
    let opts = SessionOptions::default();
    let mut session =
        SyncSession::with_options(Arc::clone(&t), &seed_models, opts.clone()).unwrap();
    let dir = scratch("rb-tail");
    let mut store = PersistentSession::create(&dir, &session).unwrap();
    let mut gen = SessionScriptGen::new(targets(), 3, 21);
    drive(&mut session, &mut gen, 6);
    store.commit(&session).unwrap();
    let entries = session.journal().len();
    assert!(entries >= 3, "fixture too quiet");
    let before = fs::read(dir.join("wal")).unwrap();

    // Rewind two entries, then write fresh history.
    session.rollback(2).unwrap();
    drive(&mut session, &mut gen, 3);
    store.commit(&session).unwrap();
    let after = fs::read(dir.join("wal")).unwrap();

    // The first `entries - 2` records were untouched on disk: commit
    // diffs against the live journal instead of rewriting the file.
    let keep = {
        // Walk the framing to find where record `entries - 2` ends.
        let mut off = 8usize;
        for _ in 0..entries - 2 {
            let len = u32::from_le_bytes(before[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
        }
        off
    };
    assert_eq!(
        &after[..keep],
        &before[..keep],
        "commit rewrote the shared WAL prefix"
    );
    assert_ne!(after, before);

    let (_, reopened) = PersistentSession::open(&dir, &t, opts).unwrap();
    assert_eq!(Snapshot::of(&reopened), Snapshot::of(&session));
    let _ = fs::remove_dir_all(&dir);
}
