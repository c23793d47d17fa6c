//! Randomized differential testing of the two enforcement engines and
//! the checking engine, across seeded workloads and injections.

use mmt_bench::{broken_workload, paper_transformation};
use mmtf::dist::Delta;
use mmtf::gen::scenario::scenario_named;
use mmtf::gen::{feature_workload, inject, random_edits, FeatureSpec, Injection};
use mmtf::ground::{GroundOptions, GroundProblem, GroundStats};
use mmtf::model::conformance;
use mmtf::prelude::*;
use mmtf::sat::SolverStats;

#[path = "cases/conformance.rs"]
mod conformance_cases;
#[path = "cases/edge.rs"]
mod edge_specs;
#[path = "cases/pinned.rs"]
mod pinned;
use conformance_cases::CONFORMANCE_CASES;
use edge_specs::{edge_tuple, EDGE_SPECS, NAVIGATED_SPEC};
use pinned::{assert_conforms, pinned_cases, render_pinned_search_repairs, PinnedCase};

/// Both engines agree on repairability and minimal cost across a grid of
/// random workloads; every repaired tuple re-checks as consistent and the
/// untouched models are bit-identical.
#[test]
fn engines_agree_across_random_workloads() {
    let injections = [
        Injection::NewMandatoryInFm,
        Injection::RenameInConfig { config: 0 },
        Injection::SelectEverywhere,
        Injection::SelectUnknown { config: 0 },
    ];
    for seed in 0..6u64 {
        for (i, &injection) in injections.iter().enumerate() {
            let mut w = feature_workload(FeatureSpec {
                n_features: 3 + (seed as usize % 2),
                k_configs: 2,
                mandatory_ratio: 0.4,
                select_prob: 0.4,
                seed: seed * 13 + i as u64,
            });
            let t = Transformation::from_hir(w.hir.clone());
            inject(&mut w, injection);
            let shape = Shape::all(3);
            let a = t
                .enforce(&w.models, shape, EngineKind::Search)
                .expect("search runs");
            let b = t
                .enforce(&w.models, shape, EngineKind::Sat)
                .expect("sat runs");
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(
                        x.cost, y.cost,
                        "seed={seed} injection={injection:?}: minimal costs differ"
                    );
                    for out in [x, y] {
                        assert!(
                            t.check(&out.models).unwrap().consistent(),
                            "seed={seed} {injection:?}"
                        );
                        for m in &out.models {
                            assert!(mmtf::model::conformance::is_conformant(m));
                        }
                    }
                }
                (None, None) => {}
                _ => panic!(
                    "seed={seed} injection={injection:?}: engines disagree ({:?} vs {:?})",
                    a.as_ref().map(|o| o.cost),
                    b.as_ref().map(|o| o.cost)
                ),
            }
        }
    }
}

/// The scenario sweep: search ≡ SAT (repairability + minimal cost)
/// over one named corpus scenario. Each seed drifts one model with
/// random edits and repairs under both `all` and `all_but` shapes;
/// repair of the undrifted seed tuple must additionally be a cost-0
/// no-op on both engines.
fn scenario_sweep(name: &str) {
    let sc = scenario_named(name).expect("known scenario");
    for seed in 0..4u64 {
        let w = sc.workload(seed);
        let arity = w.models.len();
        let t = Transformation::from_hir(w.hir.clone());

        // Idempotence on the consistent seed tuple.
        for engine in [EngineKind::Search, EngineKind::Sat] {
            let out = t
                .enforce(&w.models, Shape::all(arity), engine)
                .unwrap()
                .expect("consistent tuple repairs trivially");
            assert_eq!(out.cost, 0, "{name} seed={seed} {engine:?}");
            for (orig, new) in w.models.iter().zip(&out.models) {
                assert!(orig.graph_eq(new), "{name} seed={seed} {engine:?}");
            }
        }

        // Drift one model, then compare engines across shapes.
        let target = (seed as usize) % arity;
        let mut models = w.models.clone();
        let mut drift = Delta::new();
        for op in random_edits(&models[target], 1 + (seed as usize % 2), seed * 7 + 3) {
            drift.push(op);
        }
        drift.apply(&mut models[target]).unwrap();
        for shape in [Shape::all(arity), Shape::all_but(target, arity)] {
            let ctx = format!("{name} seed={seed} target={target} shape={shape:?}");
            let a = t
                .enforce(&models, shape, EngineKind::Search)
                .expect("search runs");
            let b = t
                .enforce(&models, shape, EngineKind::Sat)
                .expect("sat runs");
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.cost, y.cost, "{ctx}: minimal costs differ");
                    for out in [x, y] {
                        assert!(t.check(&out.models).unwrap().consistent(), "{ctx}");
                        for m in &out.models {
                            assert!(mmtf::model::conformance::is_conformant(m), "{ctx}");
                        }
                    }
                }
                (None, None) => {}
                _ => panic!(
                    "{ctx}: engines disagree ({:?} vs {:?})",
                    a.as_ref().map(|o| o.cost),
                    b.as_ref().map(|o| o.cost)
                ),
            }
        }
    }
}

#[test]
fn scenario_fm2cfs_engines_agree() {
    scenario_sweep("fm2cfs");
}

#[test]
fn scenario_company_engines_agree() {
    scenario_sweep("company");
}

#[test]
fn scenario_class2rdbms_engines_agree() {
    scenario_sweep("class2rdbms");
}

/// Regression: porting the Company scenario surfaced a SAT-side pricing
/// gap — the grounded Int domain only contained the default 0 when no
/// other Int value was observed, so a fresh object could not *keep* its
/// zeroed attribute and SAT charged a phantom `SetAttr` (cost 3 vs the
/// search engine's 2 on the hire-forward repair). The domain now always
/// includes the default, mirroring the empty-string rule.
#[test]
fn fresh_objects_keep_default_int_attrs_on_both_engines() {
    use mmtf::gen::scenario::Scenario;
    use mmtf::model::Value;
    let sc = mmtf::gen::scenario::CompanyHr;
    let w = sc.workload(5);
    let t = Transformation::from_hir(w.hir.clone());
    let mut hired = w.models.clone();
    let person = hired[0].metamodel().clone().class_named("Person").unwrap();
    let id = hired[0].add(person).unwrap();
    hired[0]
        .set_attr_named(id, "name", Value::str("dana"))
        .unwrap();
    let search = t
        .enforce(&hired, Shape::towards(1), EngineKind::Search)
        .unwrap()
        .expect("repairable");
    let sat = t
        .enforce(&hired, Shape::towards(1), EngineKind::Sat)
        .unwrap()
        .expect("repairable");
    assert_eq!(
        search.cost, 2,
        "AddObj + SetAttr name; default salary is free"
    );
    assert_eq!(sat.cost, search.cost, "SAT must not price the Int default");
    let texts =
        |out: &RepairOutcome| -> Vec<String> { out.deltas.iter().map(|d| d.to_string()).collect() };
    assert_eq!(texts(&search), texts(&sat));
}

/// A repair's cost and rendered edit scripts.
fn render(out: &RepairOutcome) -> (u64, Vec<String>) {
    (out.cost, out.deltas.iter().map(|d| d.to_string()).collect())
}

/// The search's repair of `models` under `shape` through a sync session
/// (the warm path), rendered as [`render`] renders a cold one.
fn warm_search(
    t: &Transformation,
    models: &[Model],
    shape: Shape,
    opts: &RepairOptions,
) -> Option<(u64, Vec<String>)> {
    let opts = SessionOptions {
        engine: EngineKind::Search,
        repair: opts.clone(),
    };
    let mut session = SyncSession::with_options(t.clone(), models, opts).unwrap();
    let out = session.repair(shape).unwrap()?;
    Some((out.cost, out.deltas.iter().map(|d| d.to_string()).collect()))
}

/// Repair is idempotent: repairing an already-consistent tuple costs zero
/// and changes nothing.
#[test]
fn repair_is_idempotent_on_consistent_tuples() {
    for seed in [1u64, 5, 9] {
        let w = feature_workload(FeatureSpec {
            n_features: 4,
            k_configs: 2,
            mandatory_ratio: 0.5,
            select_prob: 0.3,
            seed,
        });
        let t = Transformation::from_hir(w.hir.clone());
        for engine in [EngineKind::Search, EngineKind::Sat] {
            let out = t
                .enforce(&w.models, Shape::all(3), engine)
                .unwrap()
                .expect("consistent tuple repairs trivially");
            assert_eq!(out.cost, 0, "seed={seed} {engine:?}");
            for (orig, new) in w.models.iter().zip(&out.models) {
                assert!(orig.graph_eq(new), "seed={seed} {engine:?}");
            }
        }
    }
}

/// The deltas reported by a repair replay onto the originals to produce
/// exactly the repaired models.
#[test]
fn reported_deltas_replay() {
    let mut w = feature_workload(FeatureSpec {
        n_features: 4,
        k_configs: 2,
        mandatory_ratio: 0.5,
        select_prob: 0.4,
        seed: 77,
    });
    let t = Transformation::from_hir(w.hir.clone());
    inject(&mut w, Injection::NewMandatoryInFm);
    for engine in [EngineKind::Search, EngineKind::Sat] {
        let out = t
            .enforce(&w.models, Shape::of(&[0, 1]), engine)
            .unwrap()
            .expect("repairable");
        for ((orig, new), delta) in w.models.iter().zip(&out.models).zip(&out.deltas) {
            let mut replay = orig.clone();
            delta.apply(&mut replay).expect("delta applies");
            assert!(replay.graph_eq(new), "{engine:?}");
        }
    }
}

/// Search and SAT agree on minimal *weighted* tuple distances — PR 1
/// only differentially tested the uniform case. Also cross-checks the
/// reported cost against an independent `tuple_distance` recomputation
/// over the returned deltas.
#[test]
fn engines_agree_under_weighted_tuple_costs() {
    let injections = [
        Injection::NewMandatoryInFm,
        Injection::RenameInConfig { config: 0 },
        Injection::SelectEverywhere,
        Injection::SelectUnknown { config: 1 },
    ];
    let weights = vec![1u64, 3, 7];
    for seed in 0..4u64 {
        for (i, &injection) in injections.iter().enumerate() {
            let mut w = feature_workload(FeatureSpec {
                n_features: 3,
                k_configs: 2,
                mandatory_ratio: 0.5,
                select_prob: 0.3,
                seed: seed * 17 + i as u64,
            });
            let t = Transformation::from_hir(w.hir.clone());
            inject(&mut w, injection);
            let opts = RepairOptions {
                tuple: TupleCost::weighted(weights.clone()),
                max_cost: 40,
                ..RepairOptions::default()
            };
            let shape = Shape::all(3);
            let search = t
                .enforce_with(&w.models, shape, EngineKind::Search, opts.clone())
                .expect("search runs");
            let sat = t
                .enforce_with(&w.models, shape, EngineKind::Sat, opts.clone())
                .expect("sat runs");
            assert_eq!(
                search.as_ref().map(|x| x.cost),
                sat.as_ref().map(|x| x.cost),
                "seed={seed} {injection:?}: search vs sat disagree"
            );
            for out in [&search, &sat].into_iter().flatten() {
                assert!(
                    t.check(&out.models).unwrap().consistent(),
                    "seed={seed} {injection:?}"
                );
                // The reported weighted cost is the weighted tuple
                // distance from the *injected* tuple (the repair input).
                let recomputed = mmtf::dist::tuple_distance(
                    &w.models,
                    &out.models,
                    &CostModel::default(),
                    &TupleCost::weighted(weights.clone()),
                )
                .unwrap();
                assert_eq!(out.cost, recomputed, "seed={seed} {injection:?}");
            }
        }
    }
}

/// Search outcomes are pinned byte for byte: the rendered cost and edit
/// scripts of a fixed set of repairs must equal the text recorded in
/// `tests/pins/search_repairs.txt`. Refactors of the search loop must
/// leave it unchanged; a deliberate change of search order re-records
/// the file and says why.
#[test]
fn search_repairs_match_pinned_outcomes() {
    let got = render_pinned_search_repairs();
    let want = include_str!("pins/search_repairs.txt");
    for (g, w) in got.split("== ").zip(want.split("== ")) {
        assert_eq!(g, w, "pinned search outcome changed");
    }
    assert_eq!(got, want, "pinned case list changed");
}

/// The SAT pin's case list: [`pinned_cases`], the cost-2 new-mandatory
/// repair at ten features (the `repair/sat/fm10` work-count row), and
/// every shape of every [`EDGE_SPECS`] entry.
fn sat_pinned_cases() -> Vec<PinnedCase> {
    let mut cases = pinned_cases();
    let w = broken_workload(10, 2, 53, Injection::NewMandatoryInFm);
    cases.push(PinnedCase {
        label: "NewMandatoryInFm fm10 seed=53 shape=cf1,cf2".into(),
        t: Transformation::from_hir(w.hir.clone()),
        models: w.models,
        shape: Shape::of(&[0, 1]),
        opts: RepairOptions::default(),
    });
    for e in &EDGE_SPECS {
        let (t, models) = edge_tuple(e, e.spec);
        for &shape in e.shapes {
            cases.push(PinnedCase {
                label: format!("{} shape={shape:?}", e.name),
                t: t.clone(),
                models: models.clone(),
                shape: Shape::of(shape),
                opts: RepairOptions::default(),
            });
        }
    }
    cases
}

/// The repair contract every SAT outcome must meet: the repaired tuple
/// checks consistent and conforms, models outside the shape are
/// byte-identical, and `models` is exactly the originals with `deltas`
/// applied (printed text and id space).
fn assert_outcome_contract(case: &PinnedCase, out: &RepairOutcome) {
    let ctx = &case.label;
    assert!(case.t.check(&out.models).unwrap().consistent(), "{ctx}");
    assert_conforms(ctx, out);
    let targets = case.shape.targets();
    for (i, orig) in case.models.iter().enumerate() {
        let (new, delta) = (&out.models[i], &out.deltas[i]);
        let mut replayed = orig.clone();
        delta.apply(&mut replayed).unwrap();
        assert_eq!(print_model(&replayed), print_model(new), "{ctx}: model {i}");
        assert_eq!(replayed.id_bound(), new.id_bound(), "{ctx}: model {i}");
        if !targets.contains(DomIdx(i as u8)) {
            assert!(delta.is_empty(), "{ctx}: model {i} is not a target");
            assert_eq!(print_model(orig), print_model(new), "{ctx}: model {i}");
            assert_eq!(orig.id_bound(), new.id_bound(), "{ctx}: model {i}");
        }
    }
}

/// Renders every SAT repair of [`sat_pinned_cases`]: cost and per-model
/// edit scripts (or `unrepairable`), one `== <case>` block each,
/// asserting the repair contract on each outcome.
fn render_pinned_sat_repairs() -> String {
    let mut out = String::new();
    for case in sat_pinned_cases() {
        let res = case
            .t
            .enforce_with(&case.models, case.shape, EngineKind::Sat, case.opts.clone());
        out.push_str(&format!("== {}\n", case.label));
        match res {
            Err(e) => out.push_str(&format!("error: {e}\n")),
            Ok(None) => out.push_str("unrepairable\n"),
            Ok(Some(o)) => {
                assert_outcome_contract(&case, &o);
                out.push_str(&format!("cost {}\n", o.cost));
                for d in &o.deltas {
                    out.push_str(&format!("{d}\n"));
                }
            }
        }
    }
    out
}

/// SAT outcomes are pinned byte for byte in `tests/pins/sat_repairs.txt`,
/// as search outcomes are: the rendered cost and edit scripts of every
/// case. A change to how the CNF is stored or solved must leave the file
/// unchanged. A change to the CNF itself or to the solver's heuristics
/// may swap one equal-cost repair for another; it re-records the file
/// and says why, and must never move a cost. Every case is solved on
/// this test's thread, so each after the first runs on the solver the
/// one before it left, cleared.
#[test]
fn sat_repairs_match_pinned_outcomes() {
    let got = render_pinned_sat_repairs();
    let want = include_str!("pins/sat_repairs.txt");
    for (g, w) in got.split("== ").zip(want.split("== ")) {
        assert_eq!(g, w, "pinned SAT outcome changed");
    }
    assert_eq!(got, want, "pinned case list changed");
}

/// A thread reuses the solver of its last ground problem: fm10 solved
/// after fm30 runs on fm30's storage, and must ground and solve as the
/// first fm10 did on a new solver, with the same grounding statistics,
/// the same solver path and the same decoded models.
#[test]
fn a_reused_solver_grounds_and_solves_as_a_new_one() {
    let t = paper_transformation(2);
    let targets = Shape::of(&[0, 1]).targets();
    let solve = |n: usize| -> (GroundStats, SolverStats, u64, Vec<String>) {
        let w = broken_workload(n, 2, 53, Injection::NewMandatoryInFm);
        let mut problem =
            GroundProblem::build(t.hir(), &w.models, targets, GroundOptions::default()).unwrap();
        let (cost, models) = problem.solve_min_cost().expect("repairable");
        let printed = models.iter().map(print_model).collect();
        (problem.stats(), problem.solver_stats(), cost, printed)
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let first = solve(10);
            let larger = solve(30);
            assert_ne!(first.0, larger.0, "fm30 grounds a larger problem");
            assert_eq!(solve(10), first);
        });
    });
}

/// Regression: a SAT comparison on a mutable object read the first
/// attribute of the object whose domain held the value, in hash-map
/// order, instead of the attribute it navigates. Repairs of this tuple
/// came back as none, cost 1 or cost 3 from call to call.
#[test]
fn sat_comparisons_read_the_navigated_attribute() {
    let (t, models) = edge_tuple(&EDGE_SPECS[0], NAVIGATED_SPEC);
    for call in 0..10 {
        let out = t
            .enforce(&models, Shape::towards(1), EngineKind::Sat)
            .unwrap()
            .unwrap_or_else(|| panic!("call {call}: repairable"));
        assert_eq!(out.cost, 1, "call {call}: copy `first` into q");
        assert!(t.check(&out.models).unwrap().consistent(), "call {call}");
    }
}

/// Regression: the search derived no candidate from a `where` that
/// equates two navigations, so it found no repair of this tuple towards
/// `b`, where SAT copies `p.first` into `q` at cost 1. Both orientations
/// of the equation, under both pinned shapes, must repair at SAT's cost,
/// cold and warm alike.
#[test]
fn search_copies_a_navigated_attribute() {
    let edge = &EDGE_SPECS[0];
    for spec in [
        NAVIGATED_SPEC.to_string(),
        NAVIGATED_SPEC.replace("p.first = q.first", "q.first = p.first"),
    ] {
        let (t, models) = edge_tuple(edge, &spec);
        for &shape in edge.shapes {
            let ctx = format!("{spec} shape={shape:?}");
            let targets = Shape::of(shape).targets();
            let opts = RepairOptions::default();
            let out = SearchEngine::new(opts.clone())
                .repair(t.hir_arc(), &models, targets)
                .unwrap()
                .unwrap_or_else(|| panic!("{ctx}: repairable"));
            assert_eq!(out.cost, 1, "{ctx}: copy `first` into q");
            assert!(t.check(&out.models).unwrap().consistent(), "{ctx}");
            let warm = warm_search(&t, &models, Shape::of(shape), &opts);
            assert_eq!(warm, Some(render(&out)), "{ctx}");
        }
    }
}

/// Regression: the search derived edits that break the target's
/// metamodel — an `AddLink` that gives an object a second container or
/// passes a slot's upper bound, a `DelLink` that takes a slot below its
/// lower bound, a `DelObj` whose scrubbed links do — and so "repaired"
/// each of [`CONFORMANCE_CASES`] with a model SAT would not return, at
/// or below the least conformant cost. Both engines must now find a
/// conformant repair at that cost.
#[test]
fn repairs_conform_to_the_metamodel() {
    for case in &CONFORMANCE_CASES {
        let t = Transformation::from_sources(case.spec, &case.metamodels).unwrap();
        let models: Vec<Model> = case
            .models
            .iter()
            .zip(t.metamodels())
            .map(|(src, mm)| parse_model(src, mm).unwrap())
            .collect();
        assert!(
            models.iter().all(conformance::is_conformant),
            "{}",
            case.name
        );
        let opts = RepairOptions {
            cost: case.cost,
            ..RepairOptions::default()
        };
        for engine in [EngineKind::Search, EngineKind::Sat] {
            let ctx = format!("{} on {engine:?}", case.name);
            let out = t
                .enforce_with(&models, Shape::towards(case.target), engine, opts.clone())
                .unwrap()
                .unwrap_or_else(|| panic!("{ctx}: repairable"));
            assert_conforms(&ctx, &out);
            assert!(t.check(&out.models).unwrap().consistent(), "{ctx}");
            assert_eq!(out.cost, case.least, "{ctx}: {:?}", out.deltas);
        }
    }
}

/// Regression: the SAT engine rebuilt each target from an empty model,
/// so trailing tombstones of the original were lost and the outcome's
/// id space (and the ids the next edit mints) differed from the
/// original with the deltas applied.
#[test]
fn sat_outcomes_keep_the_originals_id_space() {
    let mut w = broken_workload(5, 2, 53, Injection::NewMandatoryInFm);
    let last = ObjId(w.models[0].id_bound() as u32 - 1);
    w.models[0].delete(last).unwrap();
    let t = Transformation::from_hir(w.hir.clone());
    let out = t
        .enforce(&w.models, Shape::of(&[0, 1]), EngineKind::Sat)
        .unwrap()
        .expect("repairable");
    let replayed: Vec<usize> = w
        .models
        .iter()
        .zip(&out.deltas)
        .map(|(m, d)| {
            let mut m = m.clone();
            d.apply(&mut m).unwrap();
            m.id_bound()
        })
        .collect();
    let got: Vec<usize> = out.models.iter().map(Model::id_bound).collect();
    assert_eq!(got, replayed);
}

/// An explicit tuple weighting of the wrong arity is an error on both
/// engines, not a silently mispriced repair.
#[test]
fn mismatched_tuple_arity_is_rejected() {
    let w = feature_workload(FeatureSpec {
        n_features: 3,
        k_configs: 2,
        mandatory_ratio: 0.5,
        select_prob: 0.3,
        seed: 1,
    });
    let t = Transformation::from_hir(w.hir.clone());
    let opts = RepairOptions {
        tuple: TupleCost::weighted(vec![1, 100]), // arity 2 for a 3-tuple
        ..RepairOptions::default()
    };
    for engine in [EngineKind::Search, EngineKind::Sat] {
        let err = t
            .enforce_with(&w.models, Shape::all(3), engine, opts.clone())
            .unwrap_err();
        assert!(
            err.to_string().contains("arity"),
            "{engine:?}: unexpected error {err}"
        );
    }
}
