//! Differential property testing of the incremental checker: across
//! seeded random edit sequences from `mmt-gen`, a [`DeltaChecker`]
//! tracking the edits one by one must agree with a from-scratch
//! [`Checker`] rebuilt on the edited tuple — same per-check verdicts,
//! same violation multiset — after *every* edit.

use mmtf::check::{CheckOptions, CheckReport, Checker, DeltaChecker};
use mmtf::deps::DomIdx;
use mmtf::dist::{Delta, EditOp};
use mmtf::gen::scenario::scenario_named;
use mmtf::gen::{feature_workload, inject, random_edits, FeatureSpec, Injection};
use mmtf::model::text::{parse_metamodel, parse_model};
use mmtf::model::Model;
use mmtf::qvtr::{parse_and_resolve, Hir};

/// Options that record every counterexample.
fn uncapped() -> CheckOptions {
    CheckOptions {
        max_violations: usize::MAX,
        ..CheckOptions::default()
    }
}

/// Incremental and from-scratch reports agree on `models`.
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
            "{ctx}: {} {} disagree\nincremental:\n{inc}\nscratch:\n{scratch}",
            a.relation_name, a.dep
        );
        let mut va: Vec<String> = a.violations.iter().map(|v| v.to_string()).collect();
        let mut vb: Vec<String> = b.violations.iter().map(|v| v.to_string()).collect();
        va.sort();
        vb.sort();
        assert_eq!(va, vb, "{ctx}: {} {}", a.relation_name, a.dep);
    }
    // The checker's own tuple must mirror the externally edited one.
    for (x, y) in checker.models().iter().zip(models) {
        assert!(x.graph_eq(y), "{ctx}: model tuples diverged");
    }
}

/// Runs one random edit sequence against `target`, checking agreement
/// after every single op.
fn run_sequence(
    hir: &std::sync::Arc<Hir>,
    models: &[Model],
    target: usize,
    n_edits: usize,
    seed: u64,
) {
    let mut models = models.to_vec();
    let mut checker = DeltaChecker::with_options(hir, &models, uncapped()).unwrap();
    let edits = random_edits(&models[target], n_edits, seed);
    for (i, op) in edits.iter().enumerate() {
        checker.apply(DomIdx(target as u8), op).unwrap();
        let mut mirror = Delta::new();
        mirror.push(*op);
        mirror.apply(&mut models[target]).unwrap();
        assert_agrees(
            &checker,
            &models,
            &format!("seed={seed} target={target} edit {i} ({op})"),
        );
    }
}

/// ≥100 random edit sequences over the paper's feature workload (the
/// ISSUE 2 acceptance bar), verified edit by edit.
#[test]
fn delta_checker_matches_scratch_on_random_feature_edits() {
    let mut sequences = 0u32;
    for seed in 0..12u64 {
        let w = feature_workload(FeatureSpec {
            n_features: 4 + (seed as usize % 3),
            k_configs: 2,
            mandatory_ratio: 0.4,
            select_prob: 0.4,
            seed,
        });
        for target in 0..w.models.len() {
            for n_edits in [2usize, 5, 8] {
                run_sequence(
                    &w.hir,
                    &w.models,
                    target,
                    n_edits,
                    seed * 1000 + target as u64 * 10 + n_edits as u64,
                );
                sequences += 1;
            }
        }
    }
    assert!(sequences >= 100, "only {sequences} sequences exercised");
}

/// The same property over a reference-heavy metamodel, so link edits
/// (and deletion scrub) go through the incremental path too.
#[test]
fn delta_checker_matches_scratch_on_random_link_edits() {
    let uml = parse_metamodel(
        "metamodel UML { class Class { attr name: Str; ref attrs: Attribute [0..*] containment; } class Attribute { attr name: Str; } }",
    )
    .unwrap();
    let rdb = parse_metamodel(
        "metamodel RDB { class Table { attr name: Str; ref cols: Column [0..*] containment; } class Column { attr name: Str; } }",
    )
    .unwrap();
    let src = r#"
transformation C2T(uml : UML, rdb : RDB) {
  top relation AttrToCol {
    cn, an : Str;
    domain uml c : Class { name = cn, attrs = a : Attribute { name = an } };
    domain rdb t : Table { name = cn, cols = col : Column { name = an } };
  }
}
"#;
    let hir = std::sync::Arc::new(parse_and_resolve(src, &[uml.clone(), rdb.clone()]).unwrap());
    let m_uml = parse_model(
        r#"model u : UML {
            a1 = Attribute { name = "id" }
            a2 = Attribute { name = "age" }
            c1 = Class { name = "Person", attrs = [a1, a2] }
            c2 = Class { name = "Order", attrs = [] }
        }"#,
        &uml,
    )
    .unwrap();
    let m_rdb = parse_model(
        r#"model r : RDB {
            col1 = Column { name = "id" }
            col2 = Column { name = "age" }
            t1 = Table { name = "Person", cols = [col1, col2] }
        }"#,
        &rdb,
    )
    .unwrap();
    let models = [m_uml, m_rdb];
    for seed in 0..10u64 {
        for target in 0..2usize {
            run_sequence(&hir, &models, target, 10, seed * 31 + target as u64);
        }
    }
}

/// The scenario sweep: the incremental ≡ from-scratch property over
/// one named corpus scenario, seeded random edit sequences against
/// every model of the tuple, agreement checked after every single op.
fn scenario_sweep(name: &str) {
    let sc = scenario_named(name).expect("known scenario");
    for seed in 0..4u64 {
        let w = sc.workload(seed);
        for target in 0..w.models.len() {
            run_sequence(
                &w.hir,
                &w.models,
                target,
                6,
                seed * 101 + target as u64 * 17 + 5,
            );
        }
    }
}

#[test]
fn scenario_fm2cfs_incremental_matches_scratch() {
    scenario_sweep("fm2cfs");
}

#[test]
fn scenario_company_incremental_matches_scratch() {
    scenario_sweep("company");
}

#[test]
fn scenario_class2rdbms_incremental_matches_scratch() {
    scenario_sweep("class2rdbms");
}

/// Both checkers honour the counterexample cap, 0 included: each check
/// records min(cap, violations) counterexamples and the same verdict.
#[test]
fn counterexample_caps_agree() {
    let injections = [
        Injection::NewMandatoryInFm,
        Injection::RenameInConfig { config: 0 },
        Injection::SelectEverywhere,
        Injection::SelectUnknown { config: 1 },
    ];
    let counts = |r: &CheckReport| -> Vec<(bool, usize)> {
        r.checks
            .iter()
            .map(|c| (c.holds, c.violations.len()))
            .collect()
    };
    for seed in [53u64, 3] {
        for &injection in &injections {
            let mut w = feature_workload(FeatureSpec {
                n_features: 5,
                k_configs: 2,
                mandatory_ratio: 0.35,
                select_prob: 0.45,
                seed,
            });
            inject(&mut w, injection);
            let all = Checker::with_options(&w.hir, &w.models, uncapped())
                .unwrap()
                .check()
                .unwrap();
            for cap in [0usize, 1, 2] {
                let ctx = format!("seed={seed} {injection:?} max_violations={cap}");
                let want: Vec<(bool, usize)> = counts(&all)
                    .into_iter()
                    .map(|(holds, n)| (holds, n.min(cap)))
                    .collect();
                let opts = CheckOptions {
                    max_violations: cap,
                    ..CheckOptions::default()
                };
                let scratch = Checker::with_options(&w.hir, &w.models, opts)
                    .unwrap()
                    .check()
                    .unwrap();
                let inc = DeltaChecker::with_options(&w.hir, &w.models, opts)
                    .unwrap()
                    .report();
                assert_eq!(counts(&scratch), want, "{ctx}: Checker");
                assert_eq!(counts(&inc), want, "{ctx}: DeltaChecker");
            }
        }
    }
}

/// Batch application: a whole [`Delta`] applied via `apply_delta`
/// agrees with the scratch checker on the final state.
#[test]
fn delta_checker_applies_whole_scripts() {
    let w = feature_workload(FeatureSpec {
        n_features: 6,
        k_configs: 3,
        mandatory_ratio: 0.4,
        select_prob: 0.4,
        seed: 5,
    });
    for target in 0..w.models.len() {
        let mut models = w.models.clone();
        let mut checker = DeltaChecker::with_options(&w.hir, &models, uncapped()).unwrap();
        let mut script = Delta::new();
        for op in random_edits(&models[target], 12, 77 + target as u64) {
            script.push(op);
        }
        checker.apply_delta(DomIdx(target as u8), &script).unwrap();
        script.apply(&mut models[target]).unwrap();
        assert_agrees(&checker, &models, &format!("batch target={target}"));
        // Sanity on the dist-side read-set helper: the script's write-set
        // is non-empty and every written object is in the edited model's
        // id space.
        let touched = script.touched_objs();
        assert!(!touched.is_empty());
        for o in touched {
            assert!((o.index()) < models[target].id_bound());
        }
    }
}

/// The incremental oracle's skip accounting: edits to one configuration
/// must leave the checks that never read it untouched.
#[test]
fn edits_skip_unrelated_checks() {
    let w = feature_workload(FeatureSpec {
        n_features: 6,
        k_configs: 3,
        mandatory_ratio: 0.5,
        select_prob: 0.4,
        seed: 11,
    });
    let mut checker = DeltaChecker::with_options(&w.hir, &w.models, uncapped()).unwrap();
    // Rename a feature in cf1: MF fm→cf2, MF fm→cf3, OF cf2→fm and
    // OF cf3→fm never read cf1.
    let edits = random_edits(&w.models[0], 6, 99);
    for op in &edits {
        checker.apply(DomIdx(0), op).unwrap();
    }
    let stats = checker.delta_stats();
    assert!(stats.edits > 0);
    assert!(
        stats.checks_skipped >= stats.edits * 4,
        "expected ≥4 skipped checks per cf1 edit, got {stats:?}"
    );
}

/// The §3 repair loop driven entirely through the incremental checker:
/// inject, watch it flag the violation, repair, watch it recover —
/// against EditOps produced by `Delta::between` (the dist-side diff).
#[test]
fn delta_checker_tracks_diff_scripts() {
    let w = feature_workload(FeatureSpec {
        n_features: 5,
        k_configs: 2,
        mandatory_ratio: 0.5,
        select_prob: 0.3,
        seed: 21,
    });
    let mut broken = w.models.clone();
    let feature_fm = w.fm.class_named("Feature").unwrap();
    let id = broken[2].add(feature_fm).unwrap();
    broken[2]
        .set_attr_named(id, "name", mmtf::model::Value::str("$new"))
        .unwrap();
    broken[2]
        .set_attr_named(id, "mandatory", mmtf::model::Value::Bool(true))
        .unwrap();

    let mut checker = DeltaChecker::with_options(&w.hir, &w.models, uncapped()).unwrap();
    assert!(checker.consistent());
    let break_script = Delta::between(&w.models[2], &broken[2]).unwrap();
    checker.apply_delta(DomIdx(2), &break_script).unwrap();
    assert!(!checker.consistent());
    assert_agrees(&checker, &broken, "after injected diff");
    // Count violating bindings through the search-facing API.
    let mut violations = 0;
    checker.for_each_violation(usize::MAX, |_, _, _| violations += 1);
    assert!(violations > 0);
    // Undo via the reverse diff.
    let undo = Delta::between(&broken[2], &w.models[2]).unwrap();
    checker.apply_delta(DomIdx(2), &undo).unwrap();
    assert!(checker.consistent());
    assert_agrees(&checker, &w.models, "after undo diff");
    assert!(matches!(
        break_script.ops()[0],
        EditOp::AddObj { .. } | EditOp::DelObj { .. } | EditOp::SetAttr { .. }
    ));
}
