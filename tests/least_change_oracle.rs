//! Least change against ground truth: an exhaustive oracle, and both
//! engines checked against it, cold and warm.
//!
//! §3 defines enforcement as least change, which Echo realizes by
//! searching for all consistent models at increasing distance inside an
//! Alloy bounded scope. [`least_change`] does the same over a closed
//! universe with no engine code: Dijkstra by weighted cost over every
//! single edit of every target model (each live object, `SLACK` fresh
//! objects per concrete class, and a value pool it collects itself), so
//! it shares none of the search's candidates and none of the grounding.
//! Every case then runs through six engine paths (search and SAT, each
//! cold through `enforce_with`, warm through `SyncSession::repair`, and
//! recovered: `SyncSession::repair` on a session reopened from a store
//! with `PersistentSession::open`) and checks §3's laws on each:
//!
//! - the repaired tuple checks consistent, and every model conforms to
//!   its metamodel;
//! - models outside the shape stay byte-identical, id space included;
//! - the cost is the oracle's minimum, so a consistent input costs 0
//!   and changes nothing.
//!
//! An engine may miss the minimum only through an entry of
//! [`KNOWN_GAPS`], which pins what it returns today.

#[path = "cases/conformance.rs"]
mod conformance_cases;
#[path = "cases/edge.rs"]
mod edge_specs;

use conformance_cases::CONFORMANCE_CASES;
use edge_specs::{edge_tuple, EDGE_SPECS};
use mmtf::dist::EditOp;
use mmtf::gen::scenario::{
    company_transformation_source, scenario_named, COMPANY_METAMODEL, WORLD_METAMODEL,
};
use mmtf::gen::{feature_workload, inject, random_edits, FeatureSpec, Injection};
use mmtf::model::conformance;
use mmtf::model::AttrType;
use mmtf::prelude::*;
use mmtf::qvtr::{Atom, Constraint, HirExpr};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The oracle's cost cap: every case's minimum lies within it, and a
/// case whose minimum does not fails.
const CAP: u64 = 6;

/// Fresh objects per concrete class per target model, as SAT's default
/// `slack_objs`.
const SLACK: usize = 2;

/// The most states one oracle run may pop: a case that grows past it
/// fails instead of slowly inflating the suite.
const MAX_POPPED: usize = 5_000;

/// The most objects one case's tuple may hold.
const MAX_OBJECTS: usize = 12;

/// A case where an engine misses the oracle's minimum today: the case,
/// the engine, and what both its cold and its warm path return, as
/// [`render`] prints it. The suite asserts that result, so an entry
/// must go once its gap closes.
struct KnownGap {
    case: &'static str,
    engine: EngineKind,
    returns: &'static str,
}

/// The search's state budget on a [`KNOWN_GAPS`] case, so that a gap
/// that exhausts the budget does so quickly.
const GAP_MAX_STATES: u64 = 2_000;

const KNOWN_GAPS: [KnownGap; 2] = [
    // The oracle and SAT raise `q.age` and add a `Q` for `s` at cost 4;
    // the search derives `where` candidates only from `=`, so a `<=`
    // gives it nothing to try.
    KnownGap {
        case: "where-reads-universal shape=[1]",
        engine: EngineKind::Search,
        returns: "error: repair: search exhausted its budget of 2000 states",
    },
    // The oracle and SAT copy `first` into `q` at cost 1; the search
    // derives no candidate from a relation call in `where` (at the
    // default budget it ends with no repair).
    KnownGap {
        case: "call-in-where shape=[1]",
        engine: EngineKind::Search,
        returns: "error: repair: search exhausted its budget of 2000 states",
    },
];

/// One repair request: a tuple, a shape and the options both the oracle
/// (its op prices and tuple weights) and the engines run under.
struct Case {
    label: String,
    t: Transformation,
    models: Vec<Model>,
    shape: Shape,
    opts: RepairOptions,
    /// The tuple the recovered path's store is created over, and the
    /// edits, made through its session, that turn it into `models`, so
    /// that recovery replays them: `models` and none, unless the case
    /// is a drift.
    seed: Vec<Model>,
    drift: Vec<(DomIdx, EditOp)>,
}

impl Case {
    fn new(label: String, t: Transformation, models: Vec<Model>, shape: Shape) -> Case {
        Case {
            label,
            t,
            seed: models.clone(),
            models,
            shape,
            opts: RepairOptions::default(),
            drift: Vec::new(),
        }
    }
}

/// How a case reaches an engine.
#[derive(Clone, Copy, Debug)]
enum Via<'a> {
    /// `enforce_with` on the tuple.
    Cold,
    /// A session opened on the tuple.
    Warm,
    /// A session reopened from the store at this directory.
    Recovered(&'a Path),
}

/// A store holding `case.seed` and its drift, committed, at a fresh
/// directory that is removed on drop.
struct Store(PathBuf);

impl Store {
    fn create(case: &Case) -> Store {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mmt-oracle-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = SyncSession::new(case.t.clone(), &case.seed).unwrap();
        let mut store = PersistentSession::create(&dir, &session).unwrap();
        for &(model, op) in &case.drift {
            session.apply(model, op).unwrap();
        }
        store.commit(&session).unwrap();
        Store(dir)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The values a `SetAttr` of the oracle may write: every attribute
/// value of the tuple, every literal of the spec, one fresh string, each
/// type's default and both booleans.
struct Pool {
    strs: Vec<Value>,
    ints: Vec<Value>,
}

impl Pool {
    fn collect(hir: &Hir, models: &[Model]) -> Pool {
        let mut pool = Pool {
            strs: Vec::new(),
            ints: Vec::new(),
        };
        for m in models {
            for (_, obj) in m.objects() {
                obj.attrs.iter().for_each(|&v| pool.add(v));
            }
        }
        for rel in &hir.relations {
            for d in &rel.domains {
                for c in &d.constraints {
                    if let Constraint::AttrEq {
                        rhs: Atom::Lit(v), ..
                    } = *c
                    {
                        pool.add(v);
                    }
                }
            }
            for e in rel.when.iter().chain(&rel.where_) {
                pool.add_literals(e);
            }
        }
        for v in [Value::str("$new0"), Value::str(""), Value::Int(0)] {
            pool.add(v);
        }
        pool
    }

    fn add(&mut self, v: Value) {
        let values = match v.ty() {
            AttrType::Str => &mut self.strs,
            AttrType::Int => &mut self.ints,
            AttrType::Bool => return,
        };
        if !values.contains(&v) {
            values.push(v);
        }
    }

    fn add_literals(&mut self, e: &HirExpr) {
        match e {
            HirExpr::Lit(v) => self.add(*v),
            HirExpr::Cmp(_, a, b)
            | HirExpr::And(a, b)
            | HirExpr::Or(a, b)
            | HirExpr::Implies(a, b) => {
                self.add_literals(a);
                self.add_literals(b);
            }
            HirExpr::Not(a) => self.add_literals(a),
            HirExpr::Var(_) | HirExpr::Nav(..) | HirExpr::Call(..) => {}
        }
    }

    fn of(&self, ty: AttrType) -> &[Value] {
        match ty {
            AttrType::Str => &self.strs,
            AttrType::Int => &self.ints,
            AttrType::Bool => &[Value::Bool(false), Value::Bool(true)],
        }
    }
}

/// Every edit of the oracle's universe on `m`, whose ids from `fresh_from`
/// on are fresh: add an object of a concrete class that has fewer than
/// [`SLACK`] fresh ones (at `id_bound()`), delete any object, set any
/// attribute to any other pool value of its type, and add or delete any
/// link between live objects that the reference's type admits.
fn edits(m: &Model, fresh_from: usize, pool: &Pool) -> Vec<EditOp> {
    let meta = m.metamodel();
    let mut out = Vec::new();
    for (class, decl) in meta.classes() {
        let fresh = m
            .objects()
            .filter(|(id, o)| id.index() >= fresh_from && o.class == class)
            .count();
        if !decl.is_abstract && fresh < SLACK {
            let id = ObjId(m.id_bound() as u32);
            out.push(EditOp::AddObj { id, class });
        }
    }
    for (id, obj) in m.objects() {
        let class = meta.class(obj.class);
        out.push(EditOp::DelObj {
            id,
            class: obj.class,
        });
        for (&attr, &old) in class.all_attrs.iter().zip(&obj.attrs) {
            for &value in pool.of(meta.attr(attr).ty) {
                if value != old {
                    out.push(EditOp::SetAttr {
                        id,
                        attr,
                        value,
                        old,
                    });
                }
            }
        }
        for (&r, dsts) in class.all_refs.iter().zip(&obj.refs) {
            let target = meta.reference(r).target;
            for (dst, d) in m.objects() {
                if meta.conforms(d.class, target) {
                    out.push(if dsts.contains(&dst) {
                        EditOp::DelLink { src: id, r, dst }
                    } else {
                        EditOp::AddLink { src: id, r, dst }
                    });
                }
            }
        }
    }
    out
}

/// One state of the oracle's search: the edit that reaches it from its
/// parent (on the model at the given index), and its key.
struct Node {
    parent: usize,
    edit: Option<(usize, EditOp)>,
    /// The rendered delta from the original of each target model.
    key: Vec<String>,
}

/// The least-change minimum of `case` within [`CAP`] (`None` when no
/// repair costs that little), by Dijkstra over every edit of [`edits`]
/// on every target model, each priced at its op's
/// [`RepairOptions::cost`] × the model's tuple weight. Two states are
/// the same when every target's delta from its original renders alike.
/// A popped state is a goal when the tuple checks consistent and every
/// target conforms to its metamodel.
fn least_change(case: &Case) -> Option<u64> {
    let originals = &case.models;
    let targets: Vec<usize> = (0..originals.len())
        .filter(|&i| case.shape.targets().contains(DomIdx(i as u8)))
        .collect();
    let weights = case.opts.tuple.resolved(originals.len()).unwrap();
    let pool = Pool::collect(case.t.hir(), originals);
    let fresh_from: Vec<usize> = originals.iter().map(Model::id_bound).collect();
    let unchanged = |t: usize| Delta::between(&originals[t], &originals[t]).unwrap();
    let mut nodes = vec![Node {
        parent: 0,
        edit: None,
        key: targets.iter().map(|&t| unchanged(t).to_string()).collect(),
    }];
    let mut best: HashMap<Vec<String>, u64> = HashMap::new();
    best.insert(nodes[0].key.clone(), 0);
    let mut open = BinaryHeap::from([Reverse((0u64, 0usize))]);
    let mut popped = 0;
    while let Some(Reverse((g, idx))) = open.pop() {
        if best[&nodes[idx].key] < g {
            continue; // reached more cheaply since
        }
        popped += 1;
        assert!(
            popped <= MAX_POPPED,
            "{}: oracle past its ceiling",
            case.label
        );
        let state = replay(originals, &nodes, idx);
        let conformant = targets
            .iter()
            .all(|&t| conformance::validate(&state[t]).is_empty());
        if conformant && case.t.check(&state).unwrap().consistent() {
            return Some(g);
        }
        for (k, &t) in targets.iter().enumerate() {
            for op in edits(&state[t], fresh_from[t], &pool) {
                let total = g + case.opts.cost.of(&op) * weights.weight(t);
                if total > CAP {
                    continue;
                }
                let mut next = state[t].clone();
                if op.apply(&mut next).is_err() {
                    continue;
                }
                let mut key = nodes[idx].key.clone();
                key[k] = Delta::between(&originals[t], &next).unwrap().to_string();
                if best.get(&key).is_some_and(|&b| b <= total) {
                    continue;
                }
                best.insert(key.clone(), total);
                nodes.push(Node {
                    parent: idx,
                    edit: Some((t, op)),
                    key,
                });
                open.push(Reverse((total, nodes.len() - 1)));
            }
        }
    }
    None
}

/// The tuple of state `idx`: the originals with its path of edits.
fn replay(originals: &[Model], nodes: &[Node], idx: usize) -> Vec<Model> {
    let mut path = Vec::new();
    let mut at = idx;
    while let Some(edit) = nodes[at].edit {
        path.push(edit);
        at = nodes[at].parent;
    }
    let mut state = originals.to_vec();
    for (t, op) in path.into_iter().rev() {
        op.apply(&mut state[t]).unwrap();
    }
    state
}

/// An engine path's result: the cost, the repaired tuple and its deltas,
/// or `None` when the engine found no repair.
type Repair = Option<(u64, Vec<Model>, Vec<Delta>)>;

/// Runs `case` through `engine`, reached `via` one of its paths.
fn repair(
    case: &Case,
    engine: EngineKind,
    via: Via,
    opts: RepairOptions,
) -> Result<Repair, String> {
    let session_opts = SessionOptions {
        engine,
        repair: opts.clone(),
    };
    let mut session = match via {
        Via::Cold => {
            let out = case
                .t
                .enforce_with(&case.models, case.shape, engine, opts)
                .map_err(|e| e.to_string())?;
            return Ok(out.map(|o| (o.cost, o.models, o.deltas)));
        }
        Via::Warm => SyncSession::with_options(case.t.clone(), &case.models, session_opts)
            .map_err(|e| e.to_string())?,
        Via::Recovered(dir) => {
            let t = Arc::new(case.t.clone());
            PersistentSession::open(dir, &t, session_opts)
                .map_err(|e| e.to_string())?
                .1
        }
    };
    let out = session.repair(case.shape).map_err(|e| e.to_string())?;
    Ok(out.map(|r| (r.cost, session.models().to_vec(), r.deltas)))
}

/// A result as [`KnownGap::returns`] spells it.
fn render(res: &Result<Repair, String>) -> String {
    match res {
        Ok(Some((cost, ..))) => format!("cost {cost}"),
        Ok(None) => "unrepairable".into(),
        Err(e) => format!("error: {e}"),
    }
}

/// Checks §3's laws on every engine path of `case`, against the
/// oracle's minimum.
fn check_case(case: &Case) {
    let objects: usize = case.models.iter().map(Model::len).sum();
    assert!(objects <= MAX_OBJECTS, "{}: {objects} objects", case.label);
    let min = least_change(case).unwrap_or_else(|| panic!("{}: cost past {CAP}", case.label));
    let store = Store::create(case);
    for engine in [EngineKind::Search, EngineKind::Sat] {
        let gap = KNOWN_GAPS
            .iter()
            .find(|g| g.case == case.label && g.engine == engine);
        let mut opts = case.opts.clone();
        if gap.is_some() {
            opts.max_states = GAP_MAX_STATES;
        }
        for via in [Via::Cold, Via::Warm, Via::Recovered(&store.0)] {
            let ctx = format!("{} on {engine:?} {via:?}", case.label);
            if let Some(gap) = gap {
                if !matches!(via, Via::Recovered(_)) {
                    let res = repair(case, engine, via, opts.clone());
                    assert_eq!(render(&res), gap.returns, "{ctx}: a known gap moved");
                }
                continue;
            }
            let res = repair(case, engine, via, opts.clone());
            let out = res.unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let (cost, models, deltas) =
                out.unwrap_or_else(|| panic!("{ctx}: no repair, the oracle's costs {min}"));
            assert_eq!(cost, min, "{ctx}: {deltas:?}");
            assert_repaired(case, &ctx, &models);
            if cost == 0 {
                assert!(deltas.iter().all(Delta::is_empty), "{ctx}: {deltas:?}");
            }
        }
    }
}

/// The repaired tuple `models` checks consistent, conforms, and keeps
/// every model outside the shape byte-identical.
fn assert_repaired(case: &Case, ctx: &str, models: &[Model]) {
    assert!(case.t.check(models).unwrap().consistent(), "{ctx}");
    let targets = case.shape.targets();
    for (i, (orig, new)) in case.models.iter().zip(models).enumerate() {
        let found = conformance::validate(new);
        assert!(found.is_empty(), "{ctx}: model {i}: {found:?}");
        if !targets.contains(DomIdx(i as u8)) {
            assert_eq!(print_model(orig), print_model(new), "{ctx}: model {i}");
            assert_eq!(orig.id_bound(), new.id_bound(), "{ctx}: model {i}");
        }
    }
}

/// Parses `texts` over the metamodels of `t`.
fn parse_models(t: &Transformation, texts: &[&str]) -> Vec<Model> {
    texts
        .iter()
        .zip(t.metamodels())
        .map(|(text, mm)| parse_model(text, mm).unwrap())
        .collect()
}

/// Regression: both engines repaired this tuple at cost 1 by linking
/// `n1` to contain `leaf`, its own container, which closes a containment
/// cycle. The oracle's minimum is 2.
#[test]
fn containment_cycle_matches_the_oracle() {
    let t = Transformation::from_sources(
        r#"
transformation Cyc(a : S, b : T) {
  top relation Kid {
    n : Str;
    domain a p : P { name = n };
    domain b x : Node { name = n, kids = k : Node { name = "leaf" } };
    depend a -> b;
  }
}
"#,
        &[
            "metamodel S { class P { attr name: Str; } }",
            "metamodel T { class Node { attr name: Str; ref kids: Node [0..*] containment; } }",
        ],
    )
    .unwrap();
    let models = parse_models(
        &t,
        &[
            r#"model a : S { p = P { name = "n1" } }"#,
            r#"model b : T { n1 = Node { name = "n1" } leaf = Node { name = "leaf", kids = [n1] } }"#,
        ],
    );
    let case = Case::new("containment cycle".into(), t, models, Shape::towards(1));
    assert_eq!(least_change(&case), Some(2));
    check_case(&case);
}

/// Regression: `bob` has no employee and `ann` earns past the cap. The
/// oracle and SAT delete `bob` and lower the salary, at cost 2; the
/// search's value pool held no Int but 12, so it paid 3 for deletions.
#[test]
fn company_salary_matches_the_oracle() {
    let t = Transformation::from_sources(
        &company_transformation_source(),
        &[WORLD_METAMODEL, COMPANY_METAMODEL],
    )
    .unwrap();
    let models = parse_models(
        &t,
        &[
            r#"model world : World { a = Person { name = "ann" } b = Person { name = "bob" } }"#,
            r#"model company : Company { a = Employee { name = "ann", salary = 12 } }"#,
        ],
    );
    let case = Case::new("company".into(), t, models, Shape::all(2));
    assert_eq!(least_change(&case), Some(2));
    check_case(&case);
}

/// Every tuple whose cheapest repair would break a link constraint of
/// the target's metamodel, at its op prices: the oracle's minimum is the
/// least conformant cost the case records.
#[test]
fn conformance_cases_match_the_oracle() {
    for c in &CONFORMANCE_CASES {
        let t = Transformation::from_sources(c.spec, &c.metamodels).unwrap();
        let models = parse_models(&t, &c.models);
        let mut case = Case::new(c.name.into(), t, models, Shape::towards(c.target));
        case.opts.cost = c.cost;
        assert_eq!(least_change(&case), Some(c.least), "{}", c.name);
        check_case(&case);
    }
}

/// Every shape of every edge spec (the ways SAT's grounding splits a
/// check), with the search's two known gaps among them.
#[test]
fn edge_specs_match_the_oracle() {
    for e in &EDGE_SPECS {
        let (t, models) = edge_tuple(e, e.spec);
        for &shape in e.shapes {
            let label = format!("{} shape={shape:?}", e.name);
            check_case(&Case::new(
                label,
                t.clone(),
                models.clone(),
                Shape::of(shape),
            ));
        }
    }
}

/// The paper's feature tuple at two features and two configurations:
/// every injection at three seeds, towards the configurations, the
/// feature model and all three.
#[test]
fn feature_grid_matches_the_oracle() {
    let injections = [
        Injection::NewMandatoryInFm,
        Injection::RenameInConfig { config: 0 },
        Injection::SelectEverywhere,
        Injection::SelectUnknown { config: 1 },
    ];
    for seed in 0..3u64 {
        for injection in injections {
            for (name, shape) in [
                ("cf1,cf2", Shape::of(&[0, 1])),
                ("fm", Shape::of(&[2])),
                ("all", Shape::all(3)),
            ] {
                let case = feature_case(seed, injection, name, shape);
                check_case(&case);
            }
        }
    }
}

/// A feature-model edit costs five configuration edits, so the new
/// mandatory feature is selected in both configurations at cost 3 (`cf1`
/// renames its optional `feat1`, `cf2` adds and names a feature) instead
/// of being dropped from the feature model at cost 5.
#[test]
fn weighted_feature_case_matches_the_oracle() {
    let mut case = feature_case(0, Injection::NewMandatoryInFm, "all", Shape::all(3));
    case.opts.tuple = TupleCost::weighted(vec![1, 1, 5]);
    case.label.push_str(" weights=1,1,5");
    assert_eq!(least_change(&case), Some(3));
    check_case(&case);
}

/// The feature tuple of `seed` at two features, broken by `injection`.
fn feature_case(seed: u64, injection: Injection, name: &str, shape: Shape) -> Case {
    let mut w = feature_workload(FeatureSpec {
        n_features: 2,
        k_configs: 2,
        seed,
        ..FeatureSpec::default()
    });
    inject(&mut w, injection);
    let t = Transformation::from_hir(w.hir.clone());
    let label = format!("{injection:?} seed={seed} shape={name}");
    Case::new(label, t, w.models, shape)
}

/// One corpus scenario at three seeds: the consistent seed tuple, then
/// one `random_edits` drift of one model, repaired under `all` and
/// `all_but` that model. The recovered path's store holds the seed
/// tuple and the drift as a journaled edit, which recovery replays.
fn scenario_matches_the_oracle(name: &str) {
    let sc = scenario_named(name).expect("known scenario");
    for seed in 0..3u64 {
        let w = sc.workload(seed);
        let arity = w.models.len();
        let t = Transformation::from_hir(w.hir.clone());
        let label = format!("{name} seed={seed}");
        check_case(&Case::new(
            format!("{label} undrifted"),
            t.clone(),
            w.models.clone(),
            Shape::all(arity),
        ));
        let target = seed as usize % arity;
        let mut models = w.models.clone();
        let drift = random_edits(&models[target], 1, seed * 7 + 3);
        for op in &drift {
            op.apply(&mut models[target]).unwrap();
        }
        for (shape_name, shape) in [
            ("all".to_string(), Shape::all(arity)),
            (format!("all_but({target})"), Shape::all_but(target, arity)),
        ] {
            let label = format!("{label} shape={shape_name}");
            let mut case = Case::new(label, t.clone(), models.clone(), shape);
            case.seed = w.models.clone();
            case.drift = drift.iter().map(|&op| (DomIdx(target as u8), op)).collect();
            check_case(&case);
        }
    }
}

#[test]
fn scenario_fm2cfs_matches_the_oracle() {
    scenario_matches_the_oracle("fm2cfs");
}

#[test]
fn scenario_company_matches_the_oracle() {
    scenario_matches_the_oracle("company");
}

#[test]
fn scenario_class2rdbms_matches_the_oracle() {
    scenario_matches_the_oracle("class2rdbms");
}

/// Every known gap names a case of the edge specs, so none can outlive
/// its case unnoticed.
#[test]
fn every_known_gap_names_a_case() {
    let labels: Vec<String> = EDGE_SPECS
        .iter()
        .flat_map(|e| e.shapes.iter().map(|s| format!("{} shape={s:?}", e.name)))
        .collect();
    for gap in &KNOWN_GAPS {
        assert!(labels.iter().any(|l| l == gap.case), "{}", gap.case);
    }
}
