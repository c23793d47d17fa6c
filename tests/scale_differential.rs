//! Scale differential smoke tests: the incremental structures stay
//! exactly equivalent to their from-scratch counterparts at model sizes
//! two orders of magnitude beyond the unit-test workloads (≥10⁴
//! objects, seeded edit scripts).
//!
//! These are release-only (`#[cfg_attr(debug_assertions, ignore)]`):
//! debug builds already differential-test the same properties at small
//! sizes (`delta_differential.rs`, plus the checker's internal
//! `assert_counters`), and a 10⁵-object full evaluation in an
//! unoptimized build would dominate the tier-1 suite. CI runs them in
//! the release scale-smoke step.

use mmtf::check::{CheckOptions, Checker, DeltaChecker, ModelIndex};
use mmtf::deps::DomIdx;
use mmtf::dist::{Delta, EditOp};
use mmtf::gen::{feature_workload, random_edits, FeatureSpec};
use mmtf::model::{ClassId, Model};
use mmtf::qvtr::Hir;
use std::collections::HashSet;
use std::sync::Arc;

/// Options that record every counterexample.
fn uncapped() -> CheckOptions {
    CheckOptions {
        max_violations: usize::MAX,
        ..CheckOptions::default()
    }
}

/// Incremental and from-scratch reports agree on `models` (same
/// verdicts, same violation multiset, same tuples).
fn assert_agrees(checker: &DeltaChecker, models: &[Model], ctx: &str) {
    let scratch = Checker::with_options(checker.hir(), models, uncapped())
        .unwrap()
        .check()
        .unwrap();
    let inc = checker.report();
    assert_eq!(inc.checks.len(), scratch.checks.len(), "{ctx}");
    for (a, b) in inc.checks.iter().zip(&scratch.checks) {
        assert_eq!(a.relation, b.relation, "{ctx}");
        assert_eq!(a.dep, b.dep, "{ctx}");
        assert_eq!(
            a.holds, b.holds,
            "{ctx}: {} {} disagree",
            a.relation_name, a.dep
        );
        let mut va: Vec<String> = a.violations.iter().map(|v| v.to_string()).collect();
        let mut vb: Vec<String> = b.violations.iter().map(|v| v.to_string()).collect();
        va.sort();
        vb.sort();
        assert_eq!(va, vb, "{ctx}: {} {}", a.relation_name, a.dep);
    }
    for (x, y) in checker.models().iter().zip(models) {
        assert!(x.graph_eq(y), "{ctx}: model tuples diverged");
    }
}

/// Drives `n_edits` seeded random edits per target model through a
/// warm [`DeltaChecker`] (mirroring them on a plain tuple), then
/// differential-checks the final state against a scratch [`Checker`].
fn run_scale_script(hir: &Arc<Hir>, seed_models: &[Model], n_edits: usize, seed: u64, ctx: &str) {
    let mut models = seed_models.to_vec();
    let mut checker = DeltaChecker::with_options(hir, &models, uncapped()).unwrap();
    for (target, model) in models.iter_mut().enumerate() {
        let edits = random_edits(model, n_edits, seed + target as u64);
        for op in edits {
            checker.apply(DomIdx(target as u8), &op).unwrap();
            let mut mirror = Delta::new();
            mirror.push(op);
            mirror.apply(model).unwrap();
        }
    }
    assert_agrees(&checker, &models, ctx);
}

/// n = 10⁴ per model, edit scripts on every model of the tuple.
#[test]
#[cfg_attr(debug_assertions, ignore = "scale smoke: run with --release")]
fn delta_checker_matches_scratch_at_10k() {
    let w = feature_workload(FeatureSpec {
        n_features: 10_000,
        k_configs: 2,
        mandatory_ratio: 0.3,
        select_prob: 0.4,
        seed: 41,
    });
    run_scale_script(&w.hir, &w.models, 40, 0x5CA1E, "10k script");
}

/// n = 10⁵ on the tuple, 100 edits on the feature model: the CI
/// scale-smoke workload. Also bounds wall-clock sanity — the whole
/// script must beat a from-scratch re-check per edit by construction,
/// so a hang or accidental O(n)-per-edit regression times out the step.
#[test]
#[cfg_attr(debug_assertions, ignore = "scale smoke: run with --release")]
fn delta_checker_matches_scratch_at_100k() {
    let w = feature_workload(FeatureSpec {
        n_features: 100_000,
        k_configs: 2,
        mandatory_ratio: 0.3,
        select_prob: 0.4,
        seed: 43,
    });
    let mut models = w.models.to_vec();
    let mut checker = DeltaChecker::with_options(&w.hir, &models, uncapped()).unwrap();
    let edits = random_edits(&models[0], 100, 0xBEEF);
    for op in edits {
        checker.apply(DomIdx(0), &op).unwrap();
        let mut mirror = Delta::new();
        mirror.push(op);
        mirror.apply(&mut models[0]).unwrap();
    }
    assert_agrees(&checker, &models, "100k script");
}

/// Point-updated [`ModelIndex`] iterates identically to a fresh
/// rebuild: class extents (ascending), attribute buckets (ascending),
/// and cached lengths — across a random edit script and a
/// tombstone-heavy phase that deletes half the live objects.
#[test]
#[cfg_attr(debug_assertions, ignore = "scale smoke: run with --release")]
fn model_index_point_updates_match_rebuild_at_scale() {
    let w = feature_workload(FeatureSpec {
        n_features: 10_000,
        k_configs: 2,
        mandatory_ratio: 0.3,
        select_prob: 0.4,
        seed: 47,
    });
    let mut model = w.models[0].clone();
    let mut index = ModelIndex::build(&model);
    let apply = |model: &mut Model, index: &mut ModelIndex, op: &EditOp| match *op {
        // Same maintenance order as `DeltaChecker::apply`.
        EditOp::AddObj { id, class } => {
            model.add_at(id, class).unwrap();
            index.add_obj(model, id);
        }
        EditOp::DelObj { id, .. } => {
            index.remove_obj(model, id);
            model.delete(id).unwrap();
        }
        EditOp::SetAttr {
            id,
            attr,
            value,
            old,
        } => {
            model.set_attr(id, attr, value).unwrap();
            index.update_attr(id, attr, old, value);
        }
        EditOp::AddLink { src, r, dst } => {
            model.add_link(src, r, dst).unwrap();
        }
        EditOp::DelLink { src, r, dst } => {
            model.remove_link(src, r, dst).unwrap();
        }
    };
    for op in random_edits(&model, 300, 0xD1FF) {
        apply(&mut model, &mut index, &op);
    }
    assert_index_matches_rebuild(&index, &model, "after edit script");
    // Tombstone-heavy: delete every other live object. Link scrub can
    // remove further state, but extents and attribute buckets must keep
    // matching a rebuild over the swiss-cheese id space.
    let victims: Vec<_> = model.objects().map(|(id, _)| id).step_by(2).collect();
    for id in victims {
        index.remove_obj(&model, id);
        model.delete(id).unwrap();
    }
    assert_index_matches_rebuild(&index, &model, "after mass deletion");
}

fn assert_index_matches_rebuild(index: &ModelIndex, model: &Model, ctx: &str) {
    let rebuilt = ModelIndex::build(model);
    let meta = model.metamodel();
    for c in 0..meta.class_count() as u32 {
        let class = ClassId(c);
        let a: Vec<_> = index.extent_iter(class).collect();
        let b: Vec<_> = rebuilt.extent_iter(class).collect();
        assert_eq!(a, b, "{ctx}: extent of class {c} diverged");
        assert_eq!(index.extent_len(class), a.len(), "{ctx}: extent_len {c}");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "{ctx}: extent {c} order");
    }
    // Every (attr, value) pair live in the model, each checked once.
    let mut seen = HashSet::new();
    for (_, obj) in model.objects() {
        for (slot, &attr) in meta.class(obj.class).all_attrs.iter().enumerate() {
            let value = obj.attrs[slot];
            if !seen.insert((attr, value)) {
                continue;
            }
            let a: Vec<_> = index.by_attr_iter(attr, value).collect();
            let b: Vec<_> = rebuilt.by_attr_iter(attr, value).collect();
            assert_eq!(a, b, "{ctx}: bucket ({attr:?}, {value}) diverged");
            assert_eq!(
                index.by_attr_len(attr, value),
                a.len(),
                "{ctx}: by_attr_len ({attr:?}, {value})"
            );
            assert!(
                a.windows(2).all(|w| w[0] < w[1]),
                "{ctx}: bucket ({attr:?}, {value}) order"
            );
        }
    }
}
