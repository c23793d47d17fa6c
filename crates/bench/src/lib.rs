//! Shared fixtures for the benchmark harness: the paper's transformation,
//! seeded feature workloads and the §2.1 loophole triple. The paper's
//! claims themselves are asserted by `tests/paper_scenarios.rs`.

use mmt_core::Transformation;
use mmt_gen::{feature_workload, inject, FeatureSpec, FeatureWorkload, Injection};
use mmt_model::text::{parse_metamodel, parse_model};
use mmt_model::Model;

/// The paper's `F = MF ∧ OF` for `k` configurations, via `mmt_gen`.
pub fn paper_transformation(k: usize) -> Transformation {
    Transformation::from_sources(
        &mmt_gen::transformation_source(k),
        &[mmt_gen::CF_METAMODEL, mmt_gen::FM_METAMODEL],
    )
    .expect("paper transformation resolves")
}

/// A consistent workload of the given size.
pub fn consistent_workload(n_features: usize, k: usize, seed: u64) -> FeatureWorkload {
    feature_workload(FeatureSpec {
        n_features,
        k_configs: k,
        mandatory_ratio: 0.35,
        select_prob: 0.45,
        seed,
    })
}

/// A workload with one §1/§3 inconsistency injected.
pub fn broken_workload(
    n_features: usize,
    k: usize,
    seed: u64,
    injection: Injection,
) -> FeatureWorkload {
    let mut w = consistent_workload(n_features, k, seed);
    inject(&mut w, injection);
    w
}

/// The §2.1 loophole triple: empty configurations, one mandatory feature.
pub fn loophole_models() -> [Model; 3] {
    let cf = parse_metamodel(mmt_gen::CF_METAMODEL).expect("static");
    let fm = parse_metamodel(mmt_gen::FM_METAMODEL).expect("static");
    [
        parse_model("model cf1 : CF { }", &cf).expect("static"),
        parse_model("model cf2 : CF { }", &cf).expect("static"),
        parse_model(
            r#"model fm : FM { f = Feature { name = "engine", mandatory = true } }"#,
            &fm,
        )
        .expect("static"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_sane() {
        let t = paper_transformation(2);
        let w = consistent_workload(4, 2, 1);
        assert!(t.check(&w.models).unwrap().consistent());
        let b = broken_workload(4, 2, 1, Injection::NewMandatoryInFm);
        assert!(!t.check(&b.models).unwrap().consistent());
        let models = loophole_models();
        assert!(!t.check(&models).unwrap().consistent());
        assert!(t.standardized().check(&models).unwrap().consistent());
    }
}
