//! Differential and journal property testing of the stateful session
//! layer (ISSUE 4):
//!
//! * **warmth** — [`SyncSession::repair`] must be byte-identical (cost +
//!   printed models + rendered deltas) to the stateless
//!   [`Transformation::enforce_with`] on the same tuple, under the
//!   search and the SAT engine;
//! * **journal replay** — replaying [`SyncSession::journal_script`]
//!   over the seed tuple reproduces the live tuple byte for byte, and
//!   `rollback_all` restores the seed exactly (via `Delta::inverse`).

use mmtf::core::{SessionOptions, Shape, Transformation};
use mmtf::dist::Delta;
use mmtf::enforce::RepairOptions;
use mmtf::gen::scenario::scenario_named;
use mmtf::gen::{feature_workload, FeatureSpec, SessionScriptGen, SessionStep};
use mmtf::model::text::print_model;
use mmtf::model::Model;
use mmtf::prelude::{DomSet, EngineKind};

fn fixture(seed: u64) -> (Transformation, Vec<Model>) {
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
    (t, w.models)
}

fn prints(models: &[Model]) -> Vec<String> {
    models.iter().map(print_model).collect()
}

fn deltas_text(deltas: &[Delta]) -> Vec<String> {
    deltas.iter().map(|d| d.to_string()).collect()
}

/// Drives one session + one stateless mirror through a generated
/// script, asserting warm ≡ cold at every repair checkpoint.
fn assert_session_matches_stateless(engine: EngineKind, seed: u64) {
    let (t, seed_models) = fixture(seed);
    let targets = DomSet::from_iter([mmtf::deps::DomIdx(0), mmtf::deps::DomIdx(1)]);
    assert_session_matches_stateless_on(&t, &seed_models, targets, engine, seed);
}

/// The scenario-generic core of the warmth differential: any
/// transformation, any seed tuple, any repair-target set.
fn assert_session_matches_stateless_on(
    t: &Transformation,
    seed_models: &[Model],
    targets: DomSet,
    engine: EngineKind,
    seed: u64,
) {
    let repair = RepairOptions::default();
    let opts = SessionOptions {
        engine,
        repair: repair.clone(),
    };
    let mut session = t.session_with(seed_models, opts).unwrap();
    let mut stateless: Vec<Model> = seed_models.to_vec();
    let mut gen = SessionScriptGen::new(targets, 3, seed.wrapping_mul(31).wrapping_add(7));
    let ctx = |step: usize| format!("engine={engine:?} seed={seed} step={step}");
    for step_no in 0..18 {
        match gen.next_step(session.models()) {
            SessionStep::Edit { model, op } => {
                session.apply(model, op).unwrap();
                let mut d = Delta::new();
                d.push(op);
                d.apply(&mut stateless[model.index()]).unwrap();
            }
            SessionStep::Repair { targets } => {
                let shape = Shape::from_targets(targets);
                let warm = session.repair(shape);
                let cold = t.enforce_with(&stateless, shape, engine, repair.clone());
                match (warm, cold) {
                    (Ok(None), Ok(None)) => {}
                    (Ok(Some(w)), Ok(Some(c))) => {
                        assert_eq!(w.cost, c.cost, "{}", ctx(step_no));
                        assert_eq!(
                            deltas_text(&w.deltas),
                            deltas_text(&c.deltas),
                            "{}",
                            ctx(step_no)
                        );
                        assert_eq!(
                            prints(session.models()),
                            prints(&c.models),
                            "{}",
                            ctx(step_no)
                        );
                        stateless = c.models;
                    }
                    (Err(w), Err(c)) => {
                        assert_eq!(w.to_string(), c.to_string(), "{}", ctx(step_no));
                    }
                    (w, c) => panic!(
                        "{}: warm and cold disagree: warm={:?} cold={:?}",
                        ctx(step_no),
                        w.map(|o| o.map(|r| r.cost)),
                        c.map(|o| o.map(|r| r.cost)),
                    ),
                }
            }
        }
        // The mirror stayed in lockstep.
        assert_eq!(
            prints(session.models()),
            prints(&stateless),
            "{}",
            ctx(step_no)
        );
    }
}

/// The warmth differential over both engines.
#[test]
fn warm_repair_is_byte_identical_to_stateless_enforce() {
    for seed in [1u64, 2, 3] {
        assert_session_matches_stateless(EngineKind::Search, seed);
        assert_session_matches_stateless(EngineKind::Sat, seed);
    }
}

/// More seeds on the hot configuration (warm incremental search).
#[test]
fn warm_incremental_search_over_more_seeds() {
    for seed in [4u64, 5, 6, 7, 8] {
        assert_session_matches_stateless(EngineKind::Search, seed);
    }
}

/// The scenario sweep: warm ≡ cold byte-identity over one named
/// corpus scenario, under the search and the SAT engine.
fn scenario_sweep(name: &str) {
    let sc = scenario_named(name).expect("known scenario");
    for seed in [1u64, 2] {
        let w = sc.workload(seed);
        let t = Transformation::from_hir(w.hir.clone());
        assert_session_matches_stateless_on(
            &t,
            &w.models,
            sc.repair_targets(),
            EngineKind::Search,
            seed,
        );
    }
    // One SAT pass per scenario (grounding is the expensive path).
    let w = sc.workload(1);
    let t = Transformation::from_hir(w.hir.clone());
    assert_session_matches_stateless_on(&t, &w.models, sc.repair_targets(), EngineKind::Sat, 1);
}

#[test]
fn scenario_fm2cfs_warm_equals_cold() {
    scenario_sweep("fm2cfs");
}

#[test]
fn scenario_company_warm_equals_cold() {
    scenario_sweep("company");
}

#[test]
fn scenario_class2rdbms_warm_equals_cold() {
    scenario_sweep("class2rdbms");
}

/// Journal replay + rollback: over random scripts with repair
/// checkpoints, the journal reproduces the live tuple byte for byte
/// from the seed, and rolling everything back restores the seed.
#[test]
fn journal_replays_and_rolls_back_exactly() {
    for seed in [11u64, 12, 13, 14] {
        let (t, seed_models) = fixture(seed);
        let mut session = t.session(&seed_models).unwrap();
        let targets = DomSet::from_iter([mmtf::deps::DomIdx(0), mmtf::deps::DomIdx(1)]);
        let mut gen = SessionScriptGen::new(targets, 4, seed);
        for _ in 0..20 {
            match gen.next_step(session.models()) {
                SessionStep::Edit { model, op } => {
                    session.apply(model, op).unwrap();
                }
                SessionStep::Repair { targets } => {
                    // May be unrepairable within bounds; both outcomes
                    // are fine for the replay property.
                    let _ = session.repair(Shape::from_targets(targets)).unwrap();
                }
            }
        }
        // Replay the journal over a copy of the seed tuple.
        let script = session.journal_script();
        let mut replayed = seed_models.clone();
        for (m, delta) in replayed.iter_mut().zip(&script) {
            delta.apply(m).unwrap();
        }
        for (i, (r, live)) in replayed.iter().zip(session.models()).enumerate() {
            assert_eq!(print_model(r), print_model(live), "seed={seed} model {i}");
            assert_eq!(r.id_bound(), live.id_bound(), "seed={seed} model {i}");
            assert!(r.graph_eq(live), "seed={seed} model {i}");
        }
        // Roll everything back: the seed object graphs return.
        let entries = session.journal().len();
        assert_eq!(session.rollback_all().unwrap(), entries);
        assert!(session.journal().is_empty());
        for (i, (orig, live)) in seed_models.iter().zip(session.models()).enumerate() {
            assert_eq!(
                print_model(orig),
                print_model(live),
                "seed={seed} model {i}"
            );
            assert!(orig.graph_eq(live), "seed={seed} model {i}");
        }
        assert!(session.status().consistent, "seed={seed}");
    }
}
