//! Scale smoke tests: the checking engine handles workloads well beyond
//! the paper's illustrative sizes, and the engines stay within sane
//! budgets at moderate repair scales.

use mmt_bench::broken_workload;
use mmtf::gen::{feature_workload, inject, FeatureSpec, Injection};
use mmtf::prelude::*;
use std::time::Instant;

#[test]
fn checking_scales_to_hundreds_of_features() {
    let w = feature_workload(FeatureSpec {
        n_features: 300,
        k_configs: 4,
        mandatory_ratio: 0.3,
        select_prob: 0.4,
        seed: 1,
    });
    let t = Transformation::from_hir(w.hir.clone());
    let start = Instant::now();
    let report = t.check(&w.models).unwrap();
    let elapsed = start.elapsed();
    assert!(report.consistent());
    // Generous bound: a laptop-scale budget even in debug builds.
    assert!(
        elapsed.as_secs() < 30,
        "checking 300 features x 4 configs took {elapsed:?}"
    );
}

#[test]
fn sat_repair_handles_moderate_scopes() {
    let mut w = feature_workload(FeatureSpec {
        n_features: 12,
        k_configs: 2,
        mandatory_ratio: 0.3,
        select_prob: 0.4,
        seed: 2,
    });
    let t = Transformation::from_hir(w.hir.clone());
    inject(&mut w, Injection::NewMandatoryInFm);
    let out = t
        .enforce(&w.models, Shape::of(&[0, 1]), EngineKind::Sat)
        .unwrap()
        .expect("repairable");
    assert!(t.check(&out.models).unwrap().consistent());
}

#[test]
fn many_configurations() {
    // The paper's k-ary scenario with k = 6 configurations.
    let k = 6;
    let mut w = feature_workload(FeatureSpec {
        n_features: 6,
        k_configs: k,
        mandatory_ratio: 0.4,
        select_prob: 0.4,
        seed: 3,
    });
    let t = Transformation::from_hir(w.hir.clone());
    assert!(t.check(&w.models).unwrap().consistent());
    inject(&mut w, Injection::NewMandatoryInFm);
    // Repairing all k configurations at once. The SAT engine is the one
    // built for this scale (6 interdependent targets) — exactly why the
    // paper routes enforcement through a model finder.
    let shape = Shape::of(&(0..k).collect::<Vec<_>>());
    let out = t
        .enforce(&w.models, shape, EngineKind::Sat)
        .unwrap()
        .expect("repairable");
    assert!(t.check(&out.models).unwrap().consistent());
    // Each configuration was touched at most twice (add + name).
    for d in &out.deltas[..k] {
        assert!(d.len() <= 2);
    }
}

/// The search's work stays flat in the model size: the cost-2 repair of
/// a new mandatory feature into both configurations (k = 2, seed 53)
/// evaluates at most 16 states at 10, 100 and 1 000 features. Its bound
/// prices the two configurations the failing checks read, so no cost-1
/// state that fixes neither is expanded; uniform-cost search expanded
/// every cost-1 state first, 71 of them at 10 features.
#[test]
fn search_state_count_is_flat_in_n() {
    let opts = RepairOptions {
        max_states: 16,
        ..RepairOptions::default()
    };
    for n in [10, 100, 1000] {
        let w = broken_workload(n, 2, 53, Injection::NewMandatoryInFm);
        let t = Transformation::from_hir(w.hir.clone());
        let out = t
            .enforce_with(
                &w.models,
                Shape::of(&[0, 1]),
                EngineKind::Search,
                opts.clone(),
            )
            .unwrap_or_else(|e| panic!("n = {n}: {e}"))
            .unwrap_or_else(|| panic!("n = {n}: repairable"));
        assert_eq!(out.cost, 2, "n = {n}");
        assert!(t.check(&out.models).unwrap().consistent(), "n = {n}");
    }
}
