//! Shared fixtures for the benchmark harness: the paper's transformation,
//! seeded feature workloads, the §2.1 loophole triple and the warm and
//! cold session scripts. The paper's claims themselves are asserted by
//! `tests/paper_scenarios.rs`; the work counts of these fixtures are
//! pinned by `tests/work_counts.rs`, which replays the same steps as
//! the benches.

use mmt_check::DeltaChecker;
use mmt_core::{EngineKind, SessionOptions, Shape, SyncSession, Transformation};
use mmt_deps::{DomIdx, DomSet};
use mmt_dist::{Delta, EditOp};
use mmt_enforce::RepairOptions;
use mmt_gen::{
    feature_workload, inject, FeatureSpec, FeatureWorkload, Injection, SessionScriptGen,
    SessionStep,
};
use mmt_model::text::{parse_metamodel, parse_model, print_model};
use mmt_model::{Model, ObjId, Sym, Value};
use std::sync::Arc;

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

/// Drifts a session over a paper tuple (`k` configurations, then the
/// feature model) by adding a fresh mandatory feature, `brakes`, to its
/// feature model: three edits, after which the least-change repair into
/// the configurations costs 2.
pub fn drift_new_mandatory(session: &mut SyncSession) {
    let fm = session.models().len() - 1;
    let meta = session.models()[fm].metamodel().clone();
    let feature = meta.class_named("Feature").expect("static class");
    let name = meta
        .attr_of(feature, Sym::new("name"))
        .expect("static attr");
    let mandatory = meta
        .attr_of(feature, Sym::new("mandatory"))
        .expect("static attr");
    let id = ObjId(session.models()[fm].id_bound() as u32);
    let fm = DomIdx(fm as u8);
    for op in [
        EditOp::AddObj { id, class: feature },
        EditOp::SetAttr {
            id,
            attr: name,
            value: Value::str("brakes"),
            old: Value::str(""),
        },
        EditOp::SetAttr {
            id,
            attr: mandatory,
            value: Value::Bool(true),
            old: Value::Bool(false),
        },
    ] {
        session.apply(fm, op).expect("drift applies");
    }
}

/// Attributes per class (and columns per table) in [`c2t_sources`].
pub const C2T_ATTRS: usize = 9;

/// The class↔RDBMS tuple that servebench's `edit_c2t_1e5` opens, as
/// model text: `classes` classes of [`C2T_ATTRS`] attributes each in
/// `uml`, mirrored by same-named tables and columns in `rdb`, so
/// `classes × 10` objects per side. Returns the transformation and the
/// two sources, printed by [`print_model`]; parsing them is a cold open.
///
/// The names carry a `_c2t` tag, as servebench tags them with its seed.
pub fn c2t_sources(classes: usize) -> (Transformation, [String; 2]) {
    let t = Transformation::from_sources(
        &mmt_gen::scenario::class2rdbms_transformation_source(),
        &[
            mmt_gen::scenario::UML_METAMODEL,
            mmt_gen::scenario::RDB_METAMODEL,
        ],
    )
    .expect("class2rdbms resolves");
    let side = |m: usize, container: &str, member: &str, link: &str| {
        let meta = Arc::clone(&t.hir().models[m].meta);
        let (outer, inner) = (
            meta.class_named(container).expect("static class"),
            meta.class_named(member).expect("static class"),
        );
        let r = meta.ref_of(outer, Sym::new(link)).expect("static ref");
        let name = Sym::new("name");
        let outer_name = meta.attr_of(outer, name).expect("static attr");
        let inner_name = meta.attr_of(inner, name).expect("static attr");
        let param = t.hir().models[m].name.resolve();
        let mut model = Model::with_capacity(&param, meta, classes * (C2T_ATTRS + 1));
        for c in 0..classes {
            let k = model.add(outer).expect("concrete");
            model
                .set_attr(k, outer_name, Value::str(&format!("C{c}_c2t")))
                .expect("typed");
            for a in 0..C2T_ATTRS {
                let at = model.add(inner).expect("concrete");
                model
                    .set_attr(at, inner_name, Value::str(&format!("f{c}_{a}_c2t")))
                    .expect("typed");
                model.add_link(k, r, at).expect("typed link");
            }
        }
        print_model(&model)
    };
    let sources = [
        side(0, "Class", "Attribute", "attrs"),
        side(1, "Table", "Column", "cols"),
    ];
    (t, sources)
}

/// Parses [`c2t_sources`]' texts against their transformation.
pub fn parse_c2t(t: &Transformation, sources: &[String; 2]) -> Vec<Model> {
    sources
        .iter()
        .zip(&t.hir().models)
        .map(|(src, param)| parse_model(src, &param.meta).expect("printed model parses"))
        .collect()
}

/// The edit kinds of servebench's `edit_c2t_1e5`, cheap band first:
/// unlink an attribute from its class, rename a class, rename an
/// attribute, rename a column, delete an attribute. The last three read
/// a nested template from its inner end.
pub const C2T_EDITS: [&str; 5] = [
    "attr_unlink",
    "class_rename",
    "attr_rename",
    "col_rename",
    "attr_del",
];

/// The edit of kind `kind` (one of [`C2T_EDITS`]) on class `c` and its
/// attribute `a` (or that attribute's column) of the tuple [`parse_c2t`]
/// gives: the model it edits and the op. Renames pick a name no other
/// object carries.
pub fn c2t_edit(models: &[Model], kind: &str, c: usize, a: usize) -> (DomIdx, EditOp) {
    let m = if kind == "col_rename" { 1 } else { 0 };
    let model = &models[m];
    let meta = model.metamodel();
    // The printed sources list each class before its attributes, and
    // parsing numbers objects in text order.
    let owner = ObjId((c * (C2T_ATTRS + 1)) as u32);
    let member = ObjId(owner.0 + 1 + a as u32);
    let rename = |id: ObjId| {
        let class = model.class_of(id).expect("live object");
        let name = meta.attr_of(class, Sym::new("name")).expect("static attr");
        EditOp::SetAttr {
            id,
            attr: name,
            value: Value::str("renamed_c2t"),
            old: model.attr(id, name).expect("typed"),
        }
    };
    let op = match kind {
        "attr_unlink" => EditOp::DelLink {
            src: owner,
            r: meta
                .ref_of(
                    meta.class_named("Class").expect("static class"),
                    Sym::new("attrs"),
                )
                .expect("static ref"),
            dst: member,
        },
        "class_rename" => rename(owner),
        "attr_rename" | "col_rename" => rename(member),
        "attr_del" => EditOp::DelObj {
            id: member,
            class: model.class_of(member).expect("live object"),
        },
        _ => panic!("unknown C2T edit kind `{kind}`"),
    };
    (DomIdx(m as u8), op)
}

/// One cycle of servebench's edit and rollback, without the session:
/// applies `op` to `checker` in its exactly invertible form (journalled
/// into `landed`, cleared first), then undoes it op by op.
pub fn edit_and_undo(checker: &mut DeltaChecker, model: DomIdx, op: &EditOp, landed: &mut Delta) {
    landed.truncate(0);
    checker
        .apply_expanded(model, op, landed)
        .expect("edit applies");
    for op in landed.ops().iter().rev() {
        checker.apply(model, &op.inverse()).expect("undo applies");
    }
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

/// The `session_warm` script: `Some(d)` = drift action `d`, `None` =
/// repair checkpoint. Five drifts, eleven checkpoints.
///
/// It models synchronization *traffic* rather than catastrophe: every
/// request that touches the tuple re-establishes consistency before
/// committing, so most checkpoints hit an already-consistent tuple
/// (cost-0 repair). Three drifts are benign, two are breaking
/// (`BREAKING`), each repaired at cost 1.
const SCRIPT: [Option<usize>; 16] = [
    Some(0),
    None,
    None,
    Some(1),
    None,
    None,
    Some(2),
    None,
    None,
    Some(3),
    None,
    None,
    Some(4),
    None,
    None,
    None,
];

/// Drifts 0..5; breaking ones at 2 and 4 (configurations select a
/// feature the feature model does not know).
const BREAKING: [usize; 2] = [2, 4];

/// The `d`-th drift action against the current tuple. Benign drifts
/// evolve the feature model without breaking consistency: drift 0
/// creates one fresh *optional* feature (`roam` — nothing selects it),
/// and later benign drifts rename it. Breaking drifts make a
/// configuration select a feature the feature model does not know
/// (create + name, two ops).
fn drift(d: usize, models: &[Model], roam: ObjId) -> (DomIdx, Delta) {
    let mut script = Delta::new();
    if BREAKING.contains(&d) {
        let target = DomIdx((d % 2) as u8);
        let m = &models[target.index()];
        let meta = m.metamodel();
        let class = meta.class_named("Feature").expect("static class");
        let attr = meta.attr_of(class, Sym::new("name")).expect("static attr");
        let id = ObjId(m.id_bound() as u32);
        script.push(EditOp::AddObj { id, class });
        script.push(EditOp::SetAttr {
            id,
            attr,
            value: Value::str(&format!("$ghost{d}")),
            old: Value::str(""),
        });
        (target, script)
    } else {
        let fm = DomIdx(2);
        let meta = models[fm.index()].metamodel();
        let class = meta.class_named("Feature").expect("static class");
        let attr = meta.attr_of(class, Sym::new("name")).expect("static attr");
        if d == 0 {
            script.push(EditOp::AddObj { id: roam, class });
        } else {
            script.push(EditOp::SetAttr {
                id: roam,
                attr,
                value: Value::str(&format!("extra{d}")),
                old: Value::str(""),
            });
        }
        (fm, script)
    }
}

/// A search-engine session with default repair options.
fn search_session(t: &Transformation, seed_models: &[Model]) -> SyncSession {
    t.session_with(
        seed_models,
        SessionOptions {
            engine: EngineKind::Search,
            repair: RepairOptions::default(),
        },
    )
    .expect("session opens")
}

/// The warm loop: one session driving the 16-step `session_warm`
/// script (five drifts, eleven repair checkpoints), repairs from the
/// warm checker. Returns the summed repair cost (2 × cost-1
/// deletions) and the session, so callers can read its statistics.
pub fn run_warm(t: &Transformation, seed_models: &[Model]) -> (u64, SyncSession) {
    let mut session = search_session(t, seed_models);
    let shape = Shape::of(&[0, 1]);
    let roam = ObjId(seed_models[2].id_bound() as u32);
    let mut total_cost = 0u64;
    for step in SCRIPT {
        match step {
            Some(d) => {
                let (target, script) = drift(d, session.models(), roam);
                session
                    .apply_script(target, &script)
                    .expect("drift applies");
            }
            None => {
                let out = session
                    .repair(shape)
                    .expect("engine runs")
                    .expect("repairable");
                total_cost += out.cost;
            }
        }
    }
    (total_cost, session)
}

/// The cold loop: the same script against a plain tuple, every
/// checkpoint a from-scratch `enforce_with`. Returns the summed repair
/// cost.
pub fn run_cold(t: &Transformation, seed_models: &[Model]) -> u64 {
    let mut models: Vec<Model> = seed_models.to_vec();
    let shape = Shape::of(&[0, 1]);
    let roam = ObjId(seed_models[2].id_bound() as u32);
    let mut total_cost = 0u64;
    for step in SCRIPT {
        match step {
            Some(d) => {
                let (target, script) = drift(d, &models, roam);
                script
                    .apply(&mut models[target.index()])
                    .expect("drift applies");
            }
            None => {
                let out = t
                    .enforce_with(&models, shape, EngineKind::Search, RepairOptions::default())
                    .expect("engine runs")
                    .expect("repairable");
                total_cost += out.cost;
                models = out.models;
            }
        }
    }
    total_cost
}

/// Steps in a generated scenario script.
const SCENARIO_STEPS: usize = 16;

/// The warm loop over an arbitrary corpus scenario: a seeded
/// [`SessionScriptGen`] drives 16 steps of drift and repair
/// checkpoints against one live session. Returns the summed
/// repair cost and the session.
pub fn run_warm_scenario(
    t: &Transformation,
    seed_models: &[Model],
    targets: DomSet,
    seed: u64,
) -> (u64, SyncSession) {
    let mut session = search_session(t, seed_models);
    let mut gen = SessionScriptGen::new(targets, 3, seed);
    let mut total_cost = 0u64;
    for _ in 0..SCENARIO_STEPS {
        match gen.next_step(session.models()) {
            SessionStep::Edit { model, op } => {
                session.apply(model, op).expect("drift applies");
            }
            SessionStep::Repair { targets } => {
                if let Some(out) = session.repair(Shape::from_targets(targets)).expect("runs") {
                    total_cost += out.cost;
                }
            }
        }
    }
    (total_cost, session)
}

/// The cold mirror of [`run_warm_scenario`]: the same generated
/// script, every checkpoint a from-scratch `enforce_with`.
pub fn run_cold_scenario(
    t: &Transformation,
    seed_models: &[Model],
    targets: DomSet,
    seed: u64,
) -> u64 {
    let mut models: Vec<Model> = seed_models.to_vec();
    let mut gen = SessionScriptGen::new(targets, 3, seed);
    let mut total_cost = 0u64;
    for _ in 0..SCENARIO_STEPS {
        match gen.next_step(&models) {
            SessionStep::Edit { model, op } => {
                let mut d = Delta::new();
                d.push(op);
                d.apply(&mut models[model.index()]).expect("drift applies");
            }
            SessionStep::Repair { targets } => {
                let out = t
                    .enforce_with(
                        &models,
                        Shape::from_targets(targets),
                        EngineKind::Search,
                        RepairOptions::default(),
                    )
                    .expect("engine runs");
                if let Some(out) = out {
                    total_cost += out.cost;
                    models = out.models;
                }
            }
        }
    }
    total_cost
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
        let (t, sources) = c2t_sources(3);
        let models = parse_c2t(&t, &sources);
        assert_eq!(models[0].len(), 3 * (C2T_ATTRS + 1));
        assert_eq!(print_model(&models[1]), sources[1]);
        assert!(t.check(&models).unwrap().consistent());
    }
}
