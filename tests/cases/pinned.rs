//! The repair requests whose outcomes are pinned in
//! `tests/pins/search_repairs.txt` (and, with more cases, in
//! `tests/pins/sat_repairs.txt`), and the search pin's renderer, shared
//! by the engine suite and the intern-order suite.

use mmtf::dist::Delta;
use mmtf::gen::{feature_workload, inject, random_edits, FeatureSpec, Injection};
use mmtf::model::conformance;
use mmtf::prelude::*;

/// One request of the pinned repair lists: a tuple, a shape and the
/// options to repair it under.
pub struct PinnedCase {
    pub label: String,
    pub t: Transformation,
    pub models: Vec<Model>,
    pub shape: Shape,
    pub opts: RepairOptions,
}

/// The requests whose search repairs are pinned in
/// `tests/pins/search_repairs.txt` and whose SAT costs open
/// `tests/pins/sat_repairs.txt`: eight seeded random-edit requests on
/// the paper's feature tuple; the four injections over six feature
/// workloads, repaired into every model (at uniform and at `1,3,7`
/// tuple weights) and into the configurations only; and every corpus
/// scenario at four seeds after a seeded `random_edits` drift, under
/// `all` and `all_but` shapes.
pub fn pinned_cases() -> Vec<PinnedCase> {
    let mut cases = Vec::new();
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
        cases.push(PinnedCase {
            label: format!("random-edit seed={seed}"),
            t: Transformation::from_hir(w.hir.clone()),
            models: w.models,
            shape: Shape::all(3),
            opts: bounded.clone(),
        });
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
                cases.push(PinnedCase {
                    label: format!("{injection:?} seed={seed} shape={label}"),
                    t: t.clone(),
                    models: w.models.clone(),
                    shape,
                    opts,
                });
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
                cases.push(PinnedCase {
                    label: format!("{} seed={seed} shape={label}", sc.name()),
                    t: t.clone(),
                    models: models.clone(),
                    shape,
                    opts: RepairOptions::default(),
                });
            }
        }
    }
    cases
}

/// Every repaired model must be an instance of its metamodel.
pub fn assert_conforms(label: &str, out: &RepairOutcome) {
    for (i, m) in out.models.iter().enumerate() {
        let found = conformance::validate(m);
        assert!(found.is_empty(), "{label}: model {i}: {found:?}");
    }
}

/// Renders every pinned search repair: cost and per-model edit scripts,
/// one `== <case>` block each. Every repair must conform.
pub fn render_pinned_search_repairs() -> String {
    let mut out = String::new();
    for case in pinned_cases() {
        let res = case.t.enforce_with(
            &case.models,
            case.shape,
            EngineKind::Search,
            case.opts.clone(),
        );
        out.push_str(&format!("== {}\n", case.label));
        match res {
            Err(e) => out.push_str(&format!("error: {e}\n")),
            Ok(None) => out.push_str("unrepairable\n"),
            Ok(Some(o)) => {
                assert_conforms(&case.label, &o);
                out.push_str(&format!("cost {}\n", o.cost));
                for d in &o.deltas {
                    out.push_str(&format!("{d}\n"));
                }
            }
        }
    }
    out
}
