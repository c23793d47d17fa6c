//! Seeded workload generators.
//!
//! Each generator writes its inputs as text, loads them back through the
//! same parsers `mmt serve` uses, and then builds one round's request
//! stream by driving an in-process [`SyncSession`] over the loaded tuple.
//! Every edit is therefore valid against the live tuple, and every
//! answer is known before timing starts. The server and the traced
//! replay read the same bytes.

use crate::answer::{Expect, RepairView, StatusView};
use crate::json::quote;
use crate::trace::Tracer;
use mmt_core::{EngineKind, SessionOptions, Shape, SyncSession, Transformation};
use mmt_deps::DomIdx;
use mmt_dist::EditOp;
use mmt_gen::scenario::{
    class2rdbms_transformation_source, company_transformation_source, CompanyHr, Scenario,
    COMPANY_METAMODEL, RDB_METAMODEL, SALARY_CAP, UML_METAMODEL, WORLD_METAMODEL,
};
use mmt_gen::{
    feature_workload, render_step, transformation_source, FeatureSpec, SessionStep, CF_METAMODEL,
    FM_METAMODEL,
};
use mmt_model::text::{parse_metamodel, parse_model, print_model};
use mmt_model::{ClassId, Model, ObjId, Sym, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The workloads, in the order the spread mode alternates them.
pub const NAMES: [&str; 4] = [
    "edit_c2t_1e5",
    "repair_search_fm30",
    "repair_sat_fm10",
    "durable_hr",
];

/// The timed request verbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    Edit,
    Status,
    Repair,
    Rollback,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::Edit, Verb::Status, Verb::Repair, Verb::Rollback];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Edit => "edit",
            Verb::Status => "status",
            Verb::Repair => "repair",
            Verb::Rollback => "rollback",
        }
    }
}

/// What the replay does for one request.
#[derive(Clone, Debug)]
pub enum Action {
    Edit(DomIdx, EditOp),
    Status,
    Repair(Shape),
    /// Undo this many entries (`usize::MAX` for `"all"`).
    Rollback(usize),
}

/// One request of a round, pre-rendered.
#[derive(Clone, Debug)]
pub struct Req {
    pub verb: Verb,
    /// Index into [`Workload::kinds`]: the user edit of the cycle this
    /// request belongs to.
    pub kind: usize,
    /// The cycle this request belongs to: one user edit and the
    /// requests that follow it up to the next user edit.
    pub cycle: usize,
    pub action: Action,
    pub expect: Expect,
    /// The request line, newline included.
    pub line: String,
}

/// Where a workload's generated inputs live.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub spec: PathBuf,
    pub metamodels: Vec<PathBuf>,
    pub models: Vec<PathBuf>,
}

impl Inputs {
    /// The `mmt serve` arguments that load these inputs.
    pub fn serve_args(&self) -> Vec<String> {
        let mut args = vec!["serve".to_string(), "-t".into(), path_str(&self.spec)];
        args.push("-M".into());
        args.extend(self.metamodels.iter().map(|p| path_str(p)));
        args.push("-m".into());
        args.extend(self.models.iter().map(|p| path_str(p)));
        args
    }
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// One generated workload: inputs on disk plus one round's requests.
pub struct Workload {
    pub name: &'static str,
    pub dir: PathBuf,
    pub inputs: Inputs,
    pub engine: EngineKind,
    /// Served with `--store`: every mutating request commits to a WAL.
    pub durable: bool,
    /// The answer to `open` (request id 0).
    pub open: StatusView,
    /// Request `i` carries id `i + 1`.
    pub reqs: Vec<Req>,
    /// The user-edit kinds the cycles draw from, with their shares.
    pub kinds: Vec<(&'static str, usize)>,
    /// Objects per model.
    pub sizes: Vec<(String, usize)>,
    /// Status after the last request of a round.
    pub final_status: StatusView,
}

impl Workload {
    pub fn session_options(&self) -> SessionOptions {
        SessionOptions {
            engine: self.engine,
            ..SessionOptions::default()
        }
    }

    pub fn serve_args(&self) -> Vec<String> {
        let mut args = self.inputs.serve_args();
        if self.engine == EngineKind::Sat {
            args.extend(["--engine".to_string(), "sat".to_string()]);
        }
        args
    }
}

/// Loads inputs exactly as `mmt serve` does: metamodels, then the spec,
/// then each model against its parameter's metamodel.
pub fn load(inputs: &Inputs, tr: &mut Tracer) -> Result<(Transformation, Vec<Model>), String> {
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let spec = read(&inputs.spec)?;
    let mm_srcs: Vec<String> = inputs
        .metamodels
        .iter()
        .map(read)
        .collect::<Result<_, _>>()?;
    let model_srcs: Vec<String> = inputs.models.iter().map(read).collect::<Result<_, _>>()?;
    let span = tr.begin("model.parse");
    let metamodels = mm_srcs
        .iter()
        .map(|s| parse_metamodel(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    tr.end(span);
    let span = tr.begin("qvtr.resolve");
    let hir = mmt_qvtr::parse_and_resolve(&spec, &metamodels).map_err(|e| e.to_string())?;
    tr.end(span);
    let t = Transformation::from_hir(hir);
    let span = tr.begin("model.parse");
    let models = model_srcs
        .iter()
        .zip(&t.hir().models)
        .map(|(src, param)| parse_model(src, &param.meta).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    tr.end(span);
    Ok((t, models))
}

/// Workload sizes: full scale, or the tiny smoke scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
}

/// Generates workload `name` for `seed` under `dir`.
pub fn generate(name: &str, seed: u64, dir: &Path, scale: Scale) -> Result<Workload, String> {
    let dir = dir.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let s = scale.smoke;
    match name {
        "edit_c2t_1e5" => c2t(
            dir,
            seed,
            if s { 12 } else { 5000 },
            if s { 20 } else { 1000 },
        ),
        "repair_search_fm30" => features(
            "repair_search_fm30",
            dir,
            seed,
            if s { 6 } else { 30 },
            EngineKind::Search,
            if s { 10 } else { 200 },
        ),
        "repair_sat_fm10" => features(
            "repair_sat_fm10",
            dir,
            seed,
            if s { 4 } else { 10 },
            EngineKind::Sat,
            if s { 10 } else { 400 },
        ),
        "durable_hr" => company(dir, seed, if s { 30 } else { 1000 }),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Writes the inputs and loads them back; the loaded models must print
/// to the written bytes, so object ids survive the round trip.
fn write_inputs(
    dir: &Path,
    spec: &str,
    metamodels: &[(&str, &str)],
    models: &[Model],
) -> Result<(Inputs, Transformation, Vec<Model>), String> {
    let write = |file: String, text: &str| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok::<PathBuf, String>(path)
    };
    let mut texts = Vec::new();
    let inputs = Inputs {
        spec: write("spec.qvtr".into(), spec)?,
        metamodels: metamodels
            .iter()
            .map(|(name, src)| write(format!("{name}.mm"), src))
            .collect::<Result<_, _>>()?,
        models: models
            .iter()
            .map(|m| {
                let text = print_model(m);
                let path = write(format!("{}.model", m.name), &text);
                texts.push(text);
                path
            })
            .collect::<Result<_, _>>()?,
    };
    let (t, loaded) = load(&inputs, &mut Tracer::new(false))?;
    for (m, text) in loaded.iter().zip(&texts) {
        if print_model(m) != *text {
            return Err(format!("model {} does not round-trip through text", m.name));
        }
    }
    Ok((inputs, t, loaded))
}

/// Drives the reference session and records each request with its
/// expected answer.
struct Builder {
    s: SyncSession,
    engine: EngineKind,
    reqs: Vec<Req>,
    kind: usize,
    cycle: usize,
}

impl Builder {
    fn new(t: Transformation, models: &[Model], opts: SessionOptions) -> Builder {
        Builder {
            engine: opts.engine,
            s: SyncSession::with_options(t, models, opts).expect("generated seed tuples open"),
            reqs: Vec::new(),
            kind: 0,
            cycle: 0,
        }
    }

    fn push(&mut self, verb: Verb, action: Action, expect: Expect, fields: &str) {
        let line = format!(
            "{{\"id\":{},\"cmd\":\"{}\",\"session\":\"s\"{fields}}}\n",
            self.reqs.len() + 1,
            verb.name()
        );
        self.reqs.push(Req {
            verb,
            kind: self.kind,
            cycle: self.cycle,
            action,
            expect,
            line,
        });
    }

    fn model(&self, m: usize) -> &Model {
        &self.s.models()[m]
    }

    /// The `mmt sync` script line for `step`, without its leading verb:
    /// the payload of the matching `serve` request.
    fn script_arg(&self, step: SessionStep) -> String {
        let line = render_step(self.s.transformation().hir(), &step);
        let (_, arg) = line
            .split_once(' ')
            .expect("script lines are `<verb> <args>`");
        arg.to_string()
    }

    fn edit(&mut self, m: usize, op: EditOp) {
        let model = DomIdx(m as u8);
        let text = self.script_arg(SessionStep::Edit { model, op });
        self.s.apply(model, op).expect("generated edits apply");
        let expect = Expect::Status(StatusView::of_session(&self.s));
        let fields = format!(",\"edit\":{}", quote(&text));
        self.push(Verb::Edit, Action::Edit(model, op), expect, &fields);
    }

    fn set(&mut self, m: usize, id: ObjId, attr: &str, value: Value) {
        let model = self.model(m);
        let class = model.class_of(id).expect("live object");
        let attr = model
            .metamodel()
            .attr_of(class, Sym::new(attr))
            .expect("declared attribute");
        let old = model.attr(id, attr).expect("live object");
        self.edit(
            m,
            EditOp::SetAttr {
                id,
                attr,
                value,
                old,
            },
        );
    }

    fn status(&mut self) {
        let expect = Expect::Status(StatusView::of_session(&self.s));
        self.push(Verb::Status, Action::Status, expect, "");
    }

    fn repair(&mut self, targets: &[usize]) {
        let shape = Shape::of(targets);
        let names = self.script_arg(SessionStep::Repair {
            targets: shape.targets(),
        });
        let out = self.s.repair(shape).expect("generated repairs run");
        let fields = format!(",\"targets\":{}", quote(&names));
        self.push(
            Verb::Repair,
            Action::Repair(shape),
            Expect::Repair(RepairView::of_outcome(&out)),
            &fields,
        );
    }

    /// `None` rolls back everything.
    fn rollback(&mut self, n: Option<usize>) {
        let undone = self
            .s
            .rollback(n.unwrap_or(usize::MAX))
            .expect("rollback replays exact inverses");
        let fields = match n {
            Some(n) => format!(",\"n\":{n}"),
            None => ",\"n\":\"all\"".to_string(),
        };
        self.push(
            Verb::Rollback,
            Action::Rollback(n.unwrap_or(usize::MAX)),
            Expect::Rollback {
                undone: undone as u64,
            },
            &fields,
        );
    }

    fn finish(
        self,
        name: &'static str,
        dir: PathBuf,
        inputs: Inputs,
        durable: bool,
        open: StatusView,
        kinds: Vec<(&'static str, usize)>,
    ) -> Workload {
        let sizes = self
            .s
            .models()
            .iter()
            .map(|m| (m.name.to_string(), m.len()))
            .collect();
        Workload {
            name,
            dir,
            inputs,
            engine: self.engine,
            durable,
            open,
            final_status: StatusView::of_session(&self.s),
            reqs: self.reqs,
            kinds,
            sizes,
        }
    }
}

/// `cycles` kind indices with exact shares, shuffled: every round
/// carries the same mix whatever the seed, so quantiles that sit inside
/// one kind's latency band stay there.
fn deck(shares: &[(&'static str, usize)], cycles: usize, rng: &mut StdRng) -> Vec<usize> {
    let total: usize = shares.iter().map(|s| s.1).sum();
    let mut out = Vec::with_capacity(cycles);
    for (k, &(_, share)) in shares.iter().enumerate() {
        out.extend(std::iter::repeat_n(k, cycles * share / total));
    }
    while out.len() < cycles {
        out.push(0);
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// Appends `_<tag>` to every string `name`. Applied to a whole tuple it
/// keeps every correspondence, so the seed changes the bytes the server
/// reads but not the work it does: every seed measures the same tuple
/// shape.
fn retag(models: &mut [Model], tag: u64) {
    for m in models {
        let ids: Vec<ObjId> = m.objects().map(|(id, _)| id).collect();
        for id in ids {
            if let Ok(Value::Str(s)) = m.attr_named(id, "name") {
                let renamed = Value::str(&format!("{}_{tag:x}", s.resolve()));
                m.set_attr_named(id, "name", renamed)
                    .expect("declared attr");
            }
        }
    }
}

fn class_id(m: &Model, name: &str) -> ClassId {
    m.metamodel().class_named(name).expect("static class")
}

/// class↔RDBMS at `classes × (1 + 9)` objects per side. Each cycle is
/// one user edit, `status`, then `rollback "all"`, so every cycle starts
/// from the seed tuple. Repairs that search at 10⁵ objects are out of
/// scope, so this workload sends none.
fn c2t(dir: PathBuf, seed: u64, classes: usize, cycles: usize) -> Result<Workload, String> {
    const ATTRS: usize = 9;
    let uml_mm = parse_metamodel(UML_METAMODEL).expect("static metamodel");
    let rdb_mm = parse_metamodel(RDB_METAMODEL).expect("static metamodel");
    let mut uml = Model::with_capacity("uml", Arc::clone(&uml_mm), classes * (ATTRS + 1));
    let mut rdb = Model::with_capacity("rdb", Arc::clone(&rdb_mm), classes * (ATTRS + 1));
    let (class, attribute) = (class_id(&uml, "Class"), class_id(&uml, "Attribute"));
    let (table, column) = (class_id(&rdb, "Table"), class_id(&rdb, "Column"));
    let attrs = uml_mm.ref_of(class, Sym::new("attrs")).expect("static ref");
    let cols = rdb_mm.ref_of(table, Sym::new("cols")).expect("static ref");
    let mut layout = Vec::with_capacity(classes);
    for c in 0..classes {
        let cname = Value::str(&format!("C{c}"));
        let k = uml.add(class).expect("concrete");
        uml.set_attr_named(k, "name", cname).expect("attr");
        let t = rdb.add(table).expect("concrete");
        rdb.set_attr_named(t, "name", cname).expect("attr");
        let mut members = Vec::with_capacity(ATTRS);
        for a in 0..ATTRS {
            let aname = Value::str(&format!("f{c}_{a}"));
            let at = uml.add(attribute).expect("concrete");
            uml.set_attr_named(at, "name", aname).expect("attr");
            uml.add_link(k, attrs, at).expect("typed link");
            let col = rdb.add(column).expect("concrete");
            rdb.set_attr_named(col, "name", aname).expect("attr");
            rdb.add_link(t, cols, col).expect("typed link");
            members.push((at, col));
        }
        layout.push((k, members));
    }
    let mut models = [uml, rdb];
    retag(&mut models, seed);
    let (inputs, t, models) = write_inputs(
        &dir,
        &class2rdbms_transformation_source(),
        &[("UML", UML_METAMODEL), ("RDB", RDB_METAMODEL)],
        &models,
    )?;
    let opts = SessionOptions::default();
    let mut b = Builder::new(t, &models, opts);
    let open = StatusView::of_session(&b.s);
    // Shares per 20 cycles. Unlinks and class renames form the cheap
    // band that holds the edit and rollback medians; the nested-template
    // kinds, O(n) and ten times dearer, are the top fifth, so the p90s
    // sit in the middle of their band.
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = vec![
        ("attr_unlink", 8),
        ("class_rename", 8),
        ("attr_rename", 2),
        ("col_rename", 1),
        ("attr_del", 1),
    ];
    let order = deck(&kinds, cycles, &mut rng);
    // Each kind's targets are spread evenly over the classes from a
    // seeded offset: an edit's cost depends on its target, and even
    // spacing gives every seed the same spread of costs.
    let per_kind: Vec<usize> = (0..kinds.len())
        .map(|k| order.iter().filter(|&&x| x == k).count())
        .collect();
    let mut drawn = vec![0usize; kinds.len()];
    let offset = rng.gen_range(0..classes);
    for (i, kind) in order.into_iter().enumerate() {
        (b.kind, b.cycle) = (kind, i);
        let slot = drawn[kind] * classes / per_kind[kind];
        drawn[kind] += 1;
        let (k, members) = &layout[(slot + offset) % classes];
        let (at, col) = members[rng.gen_range(0..ATTRS)];
        let fresh = Value::str(&format!("n{seed:x}_{i}"));
        match kinds[kind].0 {
            "attr_rename" => b.set(0, at, "name", fresh),
            "col_rename" => b.set(1, col, "name", fresh),
            "class_rename" => b.set(0, *k, "name", fresh),
            "attr_unlink" => b.edit(
                0,
                EditOp::DelLink {
                    src: *k,
                    r: attrs,
                    dst: at,
                },
            ),
            "attr_del" => b.edit(
                0,
                EditOp::DelObj {
                    id: at,
                    class: attribute,
                },
            ),
            _ => unreachable!("kind list above"),
        }
        b.status();
        b.rollback(None);
    }
    Ok(b.finish("edit_c2t_1e5", dir, inputs, false, open, kinds))
}

/// The paper's F = MF ∧ OF over `n` features and two configurations.
/// Each cycle is one breaking drift with a fresh name, `repair cf1,cf2`,
/// `status`, then `rollback "all"`.
fn features(
    name: &'static str,
    dir: PathBuf,
    seed: u64,
    n: usize,
    engine: EngineKind,
    cycles: usize,
) -> Result<Workload, String> {
    // The structure comes from the generator's default seed; the run's
    // seed renames features, picks drift targets and orders the cycles.
    let mut w = feature_workload(FeatureSpec {
        n_features: n,
        k_configs: 2,
        ..FeatureSpec::default()
    });
    retag(&mut w.models, seed);
    let (inputs, t, models) = write_inputs(
        &dir,
        &transformation_source(2),
        &[("CF", CF_METAMODEL), ("FM", FM_METAMODEL)],
        &w.models,
    )?;
    let opts = SessionOptions {
        engine,
        ..SessionOptions::default()
    };
    let mut b = Builder::new(t, &models, opts);
    let open = StatusView::of_session(&b.s);
    // Shares per 10 cycles: a new mandatory feature (cost 2) is the
    // majority, so the repair median and p95 both fall in its band.
    let kinds = vec![
        ("new_mandatory_in_fm", 8),
        ("rename_in_config", 1),
        ("select_unknown", 1),
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let fm = 2;
    for (i, kind) in deck(&kinds, cycles, &mut rng).into_iter().enumerate() {
        (b.kind, b.cycle) = (kind, i);
        let fresh = Value::str(&format!("nf{seed}_{i}"));
        let config = rng.gen_range(0..2);
        match kinds[kind].0 {
            "new_mandatory_in_fm" => {
                let id = ObjId(b.model(fm).id_bound() as u32);
                let class = class_id(b.model(fm), "Feature");
                b.edit(fm, EditOp::AddObj { id, class });
                b.set(fm, id, "name", fresh);
                b.set(fm, id, "mandatory", Value::Bool(true));
            }
            "rename_in_config" => {
                let live: Vec<ObjId> = b.model(config).objects().map(|(id, _)| id).collect();
                let id = live[rng.gen_range(0..live.len())];
                b.set(config, id, "name", fresh);
            }
            "select_unknown" => {
                let id = ObjId(b.model(config).id_bound() as u32);
                let class = class_id(b.model(config), "Feature");
                b.edit(config, EditOp::AddObj { id, class });
                b.set(config, id, "name", fresh);
            }
            _ => unreachable!("kind list above"),
        }
        b.repair(&[0, 1]);
        b.status();
        b.rollback(None);
    }
    Ok(b.finish(name, dir, inputs, false, open, kinds))
}

/// Company HR (World↔Company), served durably. Each cycle is an
/// over-cap salary or a person rename, `repair world,company`, then
/// `status`; every tenth cycle ends with `rollback 2` instead. Nothing
/// rolls back to the seed, so the journal grows through the round.
fn company(dir: PathBuf, seed: u64, cycles: usize) -> Result<Workload, String> {
    let metamodels = [
        parse_metamodel(WORLD_METAMODEL).expect("static metamodel"),
        parse_metamodel(COMPANY_METAMODEL).expect("static metamodel"),
    ];
    // The scenario sizes its tuple by `seed % 3`: seed 2 gives five
    // people. The run's seed renames them and drives the edits.
    let mut seed_models = CompanyHr.seed_models(&metamodels, 2);
    retag(&mut seed_models, seed);
    let (inputs, t, models) = write_inputs(
        &dir,
        &company_transformation_source(),
        &[("World", WORLD_METAMODEL), ("Company", COMPANY_METAMODEL)],
        &seed_models,
    )?;
    let mut b = Builder::new(t, &models, SessionOptions::default());
    let open = StatusView::of_session(&b.s);
    let kinds = vec![("salary_over_cap", 1), ("person_rename", 1)];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    for (i, kind) in deck(&kinds, cycles, &mut rng).into_iter().enumerate() {
        (b.kind, b.cycle) = (kind, i);
        match kinds[kind].0 {
            "salary_over_cap" => {
                let class = class_id(b.model(1), "Employee");
                let staff: Vec<ObjId> = b.model(1).objects_of(class).collect();
                let id = staff[rng.gen_range(0..staff.len())];
                let pay = SALARY_CAP + 1 + rng.gen_range(0..90) as i64;
                b.set(1, id, "salary", Value::Int(pay));
            }
            "person_rename" => {
                let class = class_id(b.model(0), "Person");
                let people: Vec<ObjId> = b.model(0).objects_of(class).collect();
                let id = people[rng.gen_range(0..people.len())];
                b.set(0, id, "name", Value::str(&format!("p{seed}_{i}")));
            }
            _ => unreachable!("kind list above"),
        }
        b.repair(&[0, 1]);
        if i % 10 == 9 {
            b.rollback(Some(2));
        } else {
            b.status();
        }
    }
    Ok(b.finish("durable_hr", dir, inputs, true, open, kinds))
}
