//! Randomized differential testing of the two enforcement engines and
//! the checking engine, across seeded workloads and injections.

use mmtf::dist::Delta;
use mmtf::enforce::search::{reference_search, repair_search};
use mmtf::gen::scenario::scenario_named;
use mmtf::gen::{feature_workload, inject, random_edits, FeatureSpec, Injection};
use mmtf::prelude::*;

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

/// §3's correctness law at every counterexample cap: with
/// `violations_per_check` at 0 or 1, the incremental search and the
/// from-scratch reference return the same repair, and every repair
/// either returns checks consistent. A cap of 0 captures no
/// counterexample, so a search whose goal test is "nothing captured"
/// accepts the inconsistent root at cost 0.
#[test]
fn search_repairs_are_consistent_at_every_violation_cap() {
    let injections = [
        Injection::NewMandatoryInFm,
        Injection::RenameInConfig { config: 0 },
        Injection::SelectEverywhere,
        Injection::SelectUnknown { config: 1 },
    ];
    for seed in [53u64, 7] {
        for &injection in &injections {
            let mut w = feature_workload(FeatureSpec {
                n_features: 5,
                k_configs: 2,
                mandatory_ratio: 0.35,
                select_prob: 0.45,
                seed,
            });
            inject(&mut w, injection);
            let t = Transformation::from_hir(w.hir.clone());
            let targets = Shape::of(&[0, 1]).targets();
            for cap in [0usize, 1] {
                let ctx = format!("seed={seed} {injection:?} violations_per_check={cap}");
                let opts = RepairOptions {
                    violations_per_check: cap,
                    ..RepairOptions::default()
                };
                let inc = repair_search(t.hir_arc(), &w.models, targets, &opts).unwrap();
                let scr = reference_search(t.hir(), &w.models, targets, &opts).unwrap();
                let render = |o: &RepairOutcome| {
                    let deltas: Vec<String> = o.deltas.iter().map(|d| d.to_string()).collect();
                    (o.cost, deltas)
                };
                assert_eq!(
                    inc.as_ref().map(render),
                    scr.as_ref().map(render),
                    "{ctx}: oracles disagree"
                );
                for out in [&inc, &scr].into_iter().flatten() {
                    assert!(t.check(&out.models).unwrap().consistent(), "{ctx}");
                }
            }
        }
    }
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
/// over the returned deltas, and runs the incremental search against
/// the from-scratch `reference_search`.
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
            let inc = t
                .enforce_with(&w.models, shape, EngineKind::Search, opts.clone())
                .expect("incremental search runs");
            let scr = reference_search(t.hir(), &w.models, shape.targets(), &opts)
                .expect("reference search runs");
            let sat = t
                .enforce_with(&w.models, shape, EngineKind::Sat, opts.clone())
                .expect("sat runs");
            let costs: Vec<Option<u64>> = [&inc, &scr, &sat]
                .iter()
                .map(|o| o.as_ref().map(|x| x.cost))
                .collect();
            assert_eq!(
                costs[0], costs[1],
                "seed={seed} {injection:?}: oracles disagree"
            );
            assert_eq!(
                costs[0], costs[2],
                "seed={seed} {injection:?}: search vs sat disagree"
            );
            for out in [&inc, &scr, &sat].into_iter().flatten() {
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

/// Renders every pinned search repair: cost and per-model edit scripts,
/// one `== <case>` block each. The cases: eight seeded random-edit
/// requests on the paper's feature tuple; the four injections over six
/// feature workloads, repaired into every model (at uniform and at
/// `1,3,7` tuple weights) and into the configurations only; and every
/// corpus scenario at four seeds after a seeded `random_edits` drift,
/// under `all` and `all_but` shapes.
fn render_pinned_search_repairs() -> String {
    let mut out = String::new();
    let mut push = |case: String, res: Result<Option<RepairOutcome>, CoreError>| {
        out.push_str(&format!("== {case}\n"));
        match res {
            Err(e) => out.push_str(&format!("error: {e}\n")),
            Ok(None) => out.push_str("unrepairable\n"),
            Ok(Some(o)) => {
                out.push_str(&format!("cost {}\n", o.cost));
                for d in &o.deltas {
                    out.push_str(&format!("{d}\n"));
                }
            }
        }
    };
    let search = EngineKind::Search;
    let bounded = RepairOptions {
        max_cost: 8,
        max_states: 20_000,
        ..RepairOptions::default()
    };
    for seed in 0..8u64 {
        let mut w = feature_workload(FeatureSpec {
            n_features: 3,
            k_configs: 2,
            mandatory_ratio: 0.4,
            select_prob: 0.4,
            seed: seed * 11 + 1,
        });
        let m = (seed as usize) % w.models.len();
        let mut drift = Delta::new();
        for op in random_edits(&w.models[m], 2, seed * 31 + m as u64) {
            drift.push(op);
        }
        drift.apply(&mut w.models[m]).unwrap();
        let t = Transformation::from_hir(w.hir.clone());
        let res = t.enforce_with(&w.models, Shape::all(3), search, bounded.clone());
        push(format!("random-edit seed={seed}"), res);
    }
    let injections = [
        Injection::NewMandatoryInFm,
        Injection::RenameInConfig { config: 0 },
        Injection::SelectEverywhere,
        Injection::SelectUnknown { config: 1 },
    ];
    let weighted = RepairOptions {
        tuple: TupleCost::weighted(vec![1, 3, 7]),
        max_cost: 40,
        ..RepairOptions::default()
    };
    for seed in 0..6u64 {
        for (i, &injection) in injections.iter().enumerate() {
            let mut w = feature_workload(FeatureSpec {
                n_features: 3 + (seed as usize % 3),
                k_configs: 2,
                mandatory_ratio: 0.4,
                select_prob: 0.4,
                seed: seed * 13 + i as u64,
            });
            inject(&mut w, injection);
            let t = Transformation::from_hir(w.hir.clone());
            for (label, shape, opts) in [
                ("all", Shape::all(3), RepairOptions::default()),
                ("all weights=1,3,7", Shape::all(3), weighted.clone()),
                ("cf1,cf2", Shape::of(&[0, 1]), RepairOptions::default()),
            ] {
                let res = t.enforce_with(&w.models, shape, search, opts);
                push(format!("{injection:?} seed={seed} shape={label}"), res);
            }
        }
    }
    for sc in mmtf::gen::scenario::all_scenarios() {
        for seed in 0..4u64 {
            let w = sc.workload(seed);
            let arity = w.models.len();
            let t = Transformation::from_hir(w.hir.clone());
            let target = (seed as usize) % arity;
            let mut models = w.models.clone();
            let mut drift = Delta::new();
            for op in random_edits(&models[target], 1 + seed as usize, seed * 7 + 3) {
                drift.push(op);
            }
            drift.apply(&mut models[target]).unwrap();
            for (label, shape) in [
                ("all".to_string(), Shape::all(arity)),
                (format!("all_but({target})"), Shape::all_but(target, arity)),
            ] {
                let res = t.enforce(&models, shape, search);
                push(format!("{} seed={seed} shape={label}", sc.name()), res);
            }
        }
    }
    out
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
