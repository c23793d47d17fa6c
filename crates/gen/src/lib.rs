//! # mmt-gen — synthetic workload generators
//!
//! The paper evaluates on its running example (feature models vs. `k`
//! configurations) but publishes no datasets; this crate generates seeded
//! synthetic workloads with the same shape at controllable scale —
//! consistent by construction, with injectable inconsistencies matching
//! the paper's §1/§3 update scenarios.
//!
//! Beyond the running example, the [`scenario`] module carries the
//! ported exemplar catalog (Company HR, class↔RDBMS) behind the
//! [`Scenario`](scenario::Scenario) abstraction the differential
//! suites and benches sweep over.

pub mod scenario;

use mmt_deps::{Dep, DepSet, DomIdx, DomSet};
use mmt_dist::EditOp;
use mmt_model::text::parse_metamodel;
use mmt_model::{AttrType, ClassId, Metamodel, Model, ObjId, RefId, Value};
use mmt_qvtr::{parse_and_resolve, Hir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

/// Parameters for a feature-model workload.
#[derive(Clone, Debug)]
pub struct FeatureSpec {
    /// Number of features in the feature model.
    pub n_features: usize,
    /// Number of configurations (`k` in the paper).
    pub k_configs: usize,
    /// Fraction of features that are mandatory.
    pub mandatory_ratio: f64,
    /// Probability an optional feature is selected in a configuration.
    pub select_prob: f64,
    /// RNG seed (workloads are fully reproducible).
    pub seed: u64,
}

impl Default for FeatureSpec {
    fn default() -> Self {
        FeatureSpec {
            n_features: 8,
            k_configs: 2,
            mandatory_ratio: 0.3,
            select_prob: 0.4,
            seed: 42,
        }
    }
}

/// A generated workload: metamodels, resolved transformation, and a
/// consistent model tuple `(cf_1, …, cf_k, fm)`.
pub struct FeatureWorkload {
    /// The CF metamodel.
    pub cf: Arc<Metamodel>,
    /// The FM metamodel.
    pub fm: Arc<Metamodel>,
    /// The resolved `F = MF ∧ OF` transformation over `k + 1` models,
    /// behind the shared handle the un-borrowed stack consumes
    /// (`DeltaChecker`/engines clone it instead of borrowing).
    pub hir: Arc<Hir>,
    /// Models in model-space order: `cf_1 … cf_k, fm`.
    pub models: Vec<Model>,
    /// The spec that produced this workload.
    pub spec: FeatureSpec,
}

/// The QVT-R source of the paper's `F = MF ∧ OF` specification,
/// generalized to `k` configurations, with the §2.2 dependency sets
/// `MF̄ = {CF₁ … CF_k → FM} ∪ {FM → CF_i}` and `OF̄ = {CF_i → FM}`.
pub fn transformation_source(k: usize) -> String {
    assert!(k >= 1, "need at least one configuration");
    let mut params = String::new();
    for i in 1..=k {
        let _ = write!(params, "cf{i} : CF, ");
    }
    let mut mf_domains = String::new();
    let mut of_domains = String::new();
    for i in 1..=k {
        let _ = writeln!(
            mf_domains,
            "    domain cf{i} s{i} : Feature {{ name = n }};"
        );
        let _ = writeln!(
            of_domains,
            "    domain cf{i} t{i} : Feature {{ name = m }};"
        );
    }
    let all_cfs: Vec<String> = (1..=k).map(|i| format!("cf{i}")).collect();
    let union_cfs = all_cfs.join(" | ");
    let space_cfs = all_cfs.join(" ");
    format!(
        r#"transformation F({params}fm : FM) {{
  top relation MF {{
    n : Str;
{mf_domains}    domain fm f : Feature {{ name = n, mandatory = true }};
    depend {space_cfs} -> fm;
    depend fm -> {space_cfs};
  }}
  top relation OF {{
    m : Str;
{of_domains}    domain fm g : Feature {{ name = m }};
    depend {union_cfs} -> fm;
  }}
}}"#
    )
}

/// The textual CF metamodel (Figure 1, left).
pub const CF_METAMODEL: &str = "metamodel CF { class Feature { attr name: Str; } }";

/// The textual FM metamodel (Figure 1, right).
pub const FM_METAMODEL: &str =
    "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }";

/// Generates a consistent workload from `spec`.
pub fn feature_workload(spec: FeatureSpec) -> FeatureWorkload {
    let cf = parse_metamodel(CF_METAMODEL).expect("static metamodel");
    let fm = parse_metamodel(FM_METAMODEL).expect("static metamodel");
    let hir = Arc::new(
        parse_and_resolve(
            &transformation_source(spec.k_configs),
            &[cf.clone(), fm.clone()],
        )
        .expect("static transformation"),
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let names: Vec<String> = (0..spec.n_features).map(|i| format!("feat{i}")).collect();
    let mut mandatory: Vec<bool> = (0..spec.n_features)
        .map(|_| rng.gen_bool(spec.mandatory_ratio))
        .collect();
    // Guarantee at least one mandatory feature (for any positive ratio):
    // mandatory features are selected in every configuration, so this
    // keeps configurations non-empty — injections such as
    // [`Injection::RenameInConfig`] rely on having something to rename.
    if spec.n_features > 0 && spec.mandatory_ratio > 0.0 && !mandatory.contains(&true) {
        mandatory[0] = true;
    }
    // Selections: every mandatory feature in every configuration; optional
    // features with probability `select_prob`.
    let mut selections: Vec<Vec<bool>> = (0..spec.k_configs)
        .map(|_| {
            (0..spec.n_features)
                .map(|f| mandatory[f] || rng.gen_bool(spec.select_prob))
                .collect()
        })
        .collect();
    // MF also demands the converse: a feature selected in *every*
    // configuration must be mandatory. Deselect such optionals somewhere.
    for f in 0..spec.n_features {
        if !mandatory[f] && selections.iter().all(|s| s[f]) {
            let victim = rng.gen_range(0..spec.k_configs);
            selections[victim][f] = false;
        }
    }
    let feature_cf = cf.class_named("Feature").expect("static class");
    let feature_fm = fm.class_named("Feature").expect("static class");
    let mut models = Vec::with_capacity(spec.k_configs + 1);
    for (c, sel) in selections.iter().enumerate() {
        let mut m = Model::with_capacity(&format!("cf{}", c + 1), Arc::clone(&cf), spec.n_features);
        for f in 0..spec.n_features {
            if sel[f] {
                let id = m.add(feature_cf).expect("concrete class");
                m.set_attr_named(id, "name", Value::str(&names[f]))
                    .expect("declared attr");
            }
        }
        models.push(m);
    }
    let mut m = Model::with_capacity("fm", Arc::clone(&fm), spec.n_features);
    for f in 0..spec.n_features {
        let id = m.add(feature_fm).expect("concrete class");
        m.set_attr_named(id, "name", Value::str(&names[f]))
            .expect("declared attr");
        m.set_attr_named(id, "mandatory", Value::Bool(mandatory[f]))
            .expect("declared attr");
    }
    models.push(m);
    FeatureWorkload {
        cf,
        fm,
        hir,
        models,
        spec,
    }
}

/// The §1/§3 update scenarios that break consistency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Add a brand-new mandatory feature to FM (§3: needs `→F_CFᵏ`).
    NewMandatoryInFm,
    /// Rename a feature in one configuration (§1: needs
    /// `→Fⁱ_{FM×CFᵏ⁻¹}`).
    RenameInConfig {
        /// Which configuration (0-based).
        config: usize,
    },
    /// Select a feature in every configuration without making it
    /// mandatory (breaks `CF₁…CF_k → FM`; repaired by `→F_FM`).
    SelectEverywhere,
    /// Select a feature unknown to FM in one configuration (breaks OF).
    SelectUnknown {
        /// Which configuration (0-based).
        config: usize,
    },
}

/// Applies an injection to a workload's models, returning a description
/// of what changed. Panics if the workload is too small to inject into.
pub fn inject(w: &mut FeatureWorkload, injection: Injection) -> String {
    let k = w.spec.k_configs;
    let fm_idx = k;
    match injection {
        Injection::NewMandatoryInFm => {
            let feature = w.fm.class_named("Feature").expect("static class");
            let m = &mut w.models[fm_idx];
            let id = m.add(feature).expect("concrete");
            m.set_attr_named(id, "name", Value::str("$injected"))
                .expect("attr");
            m.set_attr_named(id, "mandatory", Value::Bool(true))
                .expect("attr");
            "added mandatory feature `$injected` to fm".into()
        }
        Injection::RenameInConfig { config } => {
            let m = &mut w.models[config];
            let (id, _) = m.objects().next().expect("nonempty configuration");
            let old = m.attr_named(id, "name").expect("attr");
            m.set_attr_named(id, "name", Value::str("$renamed"))
                .expect("attr");
            format!("renamed {old} to `$renamed` in cf{}", config + 1)
        }
        Injection::SelectEverywhere => {
            // Pick an FM feature that is optional; select it in every
            // configuration that misses it.
            let target = {
                let fm_model = &w.models[fm_idx];
                fm_model
                    .objects()
                    .find(|(id, _)| fm_model.attr_named(*id, "mandatory") == Ok(Value::Bool(false)))
                    .map(|(id, _)| fm_model.attr_named(id, "name").expect("attr"))
            };
            // If every feature happens to be mandatory, introduce a fresh
            // optional one first.
            let target = match target {
                Some(t) => t,
                None => {
                    let feature_fm = w.fm.class_named("Feature").expect("static class");
                    let m = &mut w.models[fm_idx];
                    let id = m.add(feature_fm).expect("concrete");
                    let t = Value::str("$optional");
                    m.set_attr_named(id, "name", t).expect("attr");
                    t
                }
            };
            let feature_cf = w.cf.class_named("Feature").expect("static class");
            for c in 0..k {
                let m = &mut w.models[c];
                let present = m
                    .objects()
                    .any(|(id, _)| m.attr_named(id, "name") == Ok(target));
                if !present {
                    let id = m.add(feature_cf).expect("concrete");
                    m.set_attr_named(id, "name", target).expect("attr");
                }
            }
            format!("selected optional {target} in every configuration")
        }
        Injection::SelectUnknown { config } => {
            let feature_cf = w.cf.class_named("Feature").expect("static class");
            let m = &mut w.models[config];
            let id = m.add(feature_cf).expect("concrete");
            m.set_attr_named(id, "name", Value::str("$unknown"))
                .expect("attr");
            format!("selected unknown feature `$unknown` in cf{}", config + 1)
        }
    }
}

/// Generates a seeded random edit script of `n_edits` atomic
/// [`EditOp`]s, valid when applied to `model` in order.
///
/// Works against any metamodel: object creation/deletion, attribute
/// overwrites (values drawn from the model's own strings plus a few
/// fresh ones), and — when the metamodel declares references — link
/// insertion/removal. The script is kept coherent by replaying it on a
/// scratch copy as it is generated, so deletions never dangle and ids
/// match the evolving model. Some generated ops are deliberate no-ops
/// (re-setting an attribute to its current value, re-adding a present
/// link): incremental checkers must tolerate those, so the differential
/// tests want them in the mix.
pub fn random_edits(model: &Model, n_edits: usize, seed: u64) -> Vec<EditOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = model.clone();
    let meta = Arc::clone(scratch.metamodel());
    let concrete: Vec<ClassId> = (0..meta.class_count() as u32)
        .map(ClassId)
        .filter(|&c| !meta.class(c).is_abstract)
        .collect();
    // Value pools per attribute type.
    let mut strings: Vec<Value> = Vec::new();
    for (_, obj) in model.objects() {
        for (slot, &attr) in meta.class(obj.class).all_attrs.iter().enumerate() {
            if meta.attr(attr).ty == AttrType::Str && !strings.contains(&obj.attrs[slot]) {
                strings.push(obj.attrs[slot]);
            }
        }
    }
    for i in 0..3 {
        let v = Value::str(&format!("$edit{i}"));
        if !strings.contains(&v) {
            strings.push(v);
        }
    }
    if concrete.is_empty() {
        return Vec::new(); // all-abstract metamodel: no edit is expressible
    }
    let has_refs = concrete.iter().any(|&c| !meta.class(c).all_refs.is_empty());
    let mut ops = Vec::with_capacity(n_edits);
    let mut guard = 0usize;
    while ops.len() < n_edits && guard < n_edits * 50 {
        guard += 1;
        let live: Vec<ObjId> = scratch.objects().map(|(id, _)| id).collect();
        let roll = rng.gen_range(0..100usize);
        if roll < 15 || live.is_empty() {
            // Create an object.
            let class = concrete[rng.gen_range(0..concrete.len())];
            let id = scratch.add(class).expect("concrete class");
            ops.push(EditOp::AddObj { id, class });
        } else if roll < 27 {
            // Delete an object.
            let id = live[rng.gen_range(0..live.len())];
            let class = scratch.class_of(id).expect("live");
            scratch.delete(id).expect("live");
            ops.push(EditOp::DelObj { id, class });
        } else if roll < 75 || !has_refs {
            // Overwrite an attribute.
            let id = live[rng.gen_range(0..live.len())];
            let class = scratch.class_of(id).expect("live");
            let attrs = &meta.class(class).all_attrs;
            if attrs.is_empty() {
                continue;
            }
            let attr = attrs[rng.gen_range(0..attrs.len())];
            let value = match meta.attr(attr).ty {
                AttrType::Str => strings[rng.gen_range(0..strings.len())],
                AttrType::Int => Value::Int(rng.gen_range(0..6) as i64),
                AttrType::Bool => Value::Bool(rng.gen_bool(0.5)),
            };
            let old = scratch.attr(id, attr).expect("declared attr");
            scratch.set_attr(id, attr, value).expect("typed value");
            ops.push(EditOp::SetAttr {
                id,
                attr,
                value,
                old,
            });
        } else {
            // Rewire a link.
            let id = live[rng.gen_range(0..live.len())];
            let class = scratch.class_of(id).expect("live");
            let refs = &meta.class(class).all_refs;
            if refs.is_empty() {
                continue;
            }
            let r = refs[rng.gen_range(0..refs.len())];
            let dsts: Vec<ObjId> = scratch.objects_of(meta.reference(r).target).collect();
            if dsts.is_empty() {
                continue;
            }
            let dst = dsts[rng.gen_range(0..dsts.len())];
            if rng.gen_bool(0.5) && scratch.has_link(id, r, dst) {
                scratch.remove_link(id, r, dst).expect("typed link");
                ops.push(EditOp::DelLink { src: id, r, dst });
            } else {
                scratch.add_link(id, r, dst).expect("typed link");
                ops.push(EditOp::AddLink { src: id, r, dst });
            }
        }
    }
    ops
}

/// Generates a seeded script of up to `n_edits` structural edits on
/// the links `model` already has, valid when applied to it in order:
/// unlinks of existing links, relinks (an existing link's target moved
/// to another source with the same reference, or an unlinked link put
/// back while its target has no other link through that reference, so
/// a contained object keeps one container), and deletions of linked
/// objects, which scrub their links. [`random_edits`] mostly adds
/// links; this covers their removal. The script is replayed on a
/// scratch copy as it is generated, and stops early once no link is
/// left to edit.
pub fn link_edits(model: &Model, n_edits: usize, seed: u64) -> Vec<EditOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = model.clone();
    let meta = Arc::clone(scratch.metamodel());
    let mut unlinked: Vec<(ObjId, RefId, ObjId)> = Vec::new();
    let mut ops = Vec::with_capacity(n_edits);
    while ops.len() < n_edits {
        let mut links: Vec<(ObjId, RefId, ObjId)> = Vec::new();
        for (src, obj) in scratch.objects() {
            for &r in &meta.class(obj.class).all_refs {
                let targets = scratch.targets(src, r).expect("declared ref");
                links.extend(targets.iter().map(|&dst| (src, r, dst)));
            }
        }
        unlinked.retain(|&(src, r, dst)| {
            scratch.contains(src)
                && scratch.contains(dst)
                && !scratch.incoming(dst).iter().any(|&(_, via)| via == r)
        });
        if links.is_empty() && unlinked.is_empty() {
            break;
        }
        let roll = rng.gen_range(0..100usize);
        if links.is_empty() || (roll < 20 && !unlinked.is_empty()) {
            // Put an unlinked link back.
            let (src, r, dst) = unlinked.swap_remove(rng.gen_range(0..unlinked.len()));
            scratch.add_link(src, r, dst).expect("typed link");
            ops.push(EditOp::AddLink { src, r, dst });
            continue;
        }
        let (src, r, dst) = links[rng.gen_range(0..links.len())];
        if roll < 55 {
            scratch.remove_link(src, r, dst).expect("typed link");
            ops.push(EditOp::DelLink { src, r, dst });
            unlinked.push((src, r, dst));
        } else if roll < 80 {
            // Move the target to another source of the reference.
            let owner = meta.reference(r).owner;
            let others: Vec<ObjId> = scratch.objects_of(owner).filter(|&o| o != src).collect();
            if others.is_empty() {
                continue;
            }
            let to = others[rng.gen_range(0..others.len())];
            scratch.remove_link(src, r, dst).expect("typed link");
            scratch.add_link(to, r, dst).expect("typed link");
            ops.push(EditOp::DelLink { src, r, dst });
            ops.push(EditOp::AddLink { src: to, r, dst });
        } else {
            // Delete one end of the link.
            let id = if rng.gen_bool(0.5) { src } else { dst };
            let class = scratch.class_of(id).expect("live");
            scratch.delete(id).expect("live");
            ops.push(EditOp::DelObj { id, class });
        }
    }
    ops.truncate(n_edits);
    ops
}

/// One step of a synchronization-session script (the workload a
/// `mmt_core` `SyncSession` consumes: drift edits interleaved with
/// repair checkpoints).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionStep {
    /// Apply one edit to the model at `model`.
    Edit {
        /// The model the edit lands on.
        model: DomIdx,
        /// The edit itself.
        op: EditOp,
    },
    /// A repair checkpoint: restore consistency under `targets`.
    Repair {
        /// The repair shape's target set.
        targets: DomSet,
    },
}

/// Seeded generator of session scripts with interleaved repair
/// checkpoints, for differential testing of the stateful sync layer
/// against the stateless engines.
///
/// Steps are generated *against the current tuple*: because an
/// auto-applied repair rewrites models in ways no offline generator can
/// predict, the caller feeds the live models back into
/// [`SessionScriptGen::next_step`] after executing each step. The same
/// seed over the same executed tuple evolution yields the same script,
/// so a warm session and a stateless replay driven by the same
/// generator see identical steps.
pub struct SessionScriptGen {
    rng: StdRng,
    targets: DomSet,
    repair_every: usize,
    step: usize,
}

impl SessionScriptGen {
    /// A generator whose every `repair_every`-th step is a repair
    /// checkpoint under `targets` (0 = no checkpoints, edits only).
    pub fn new(targets: DomSet, repair_every: usize, seed: u64) -> SessionScriptGen {
        SessionScriptGen {
            rng: StdRng::seed_from_u64(seed),
            targets,
            repair_every,
            step: 0,
        }
    }

    /// The next step, valid against `models` (the live tuple after every
    /// previous step was executed). Edits are drawn via [`random_edits`]
    /// from a randomly chosen model; models with no expressible edit are
    /// skipped.
    pub fn next_step(&mut self, models: &[Model]) -> SessionStep {
        self.step += 1;
        if self.repair_every > 0 && self.step.is_multiple_of(self.repair_every) {
            return SessionStep::Repair {
                targets: self.targets,
            };
        }
        for _ in 0..models.len() * 4 {
            let i = self.rng.gen_range(0..models.len());
            let seed = self.rng.next_u64();
            if let Some(op) = random_edits(&models[i], 1, seed).into_iter().next() {
                return SessionStep::Edit {
                    model: DomIdx(i as u8),
                    op,
                };
            }
        }
        // Nothing editable anywhere (degenerate metamodels): checkpoint.
        SessionStep::Repair {
            targets: self.targets,
        }
    }
}

/// Renders one [`SessionStep`] in the `mmt sync` script syntax (see the
/// CLI), resolving parameter, class, attribute, and reference names
/// through `hir`. Ids and values are written as their `Display` writes
/// them, the syntax of model text.
pub fn render_step(hir: &Hir, step: &SessionStep) -> String {
    match step {
        SessionStep::Repair { targets } => {
            let names: Vec<String> = targets
                .iter()
                .map(|t| hir.models[t.index()].name.resolve())
                .collect();
            format!("repair {}", names.join(","))
        }
        SessionStep::Edit { model, op } => {
            let param = hir.models[model.index()].name;
            let meta = &hir.models[model.index()].meta;
            match *op {
                EditOp::AddObj { id, class } => {
                    format!("edit {param} add {} {id}", meta.class(class).name)
                }
                EditOp::DelObj { id, .. } => format!("edit {param} del {id}"),
                EditOp::SetAttr {
                    id, attr, value, ..
                } => format!("edit {param} set {id}.{} = {value}", meta.attr(attr).name),
                EditOp::AddLink { src, r, dst } => {
                    format!("edit {param} link {src}.{} {dst}", meta.reference(r).name)
                }
                EditOp::DelLink { src, r, dst } => {
                    format!("edit {param} unlink {src}.{} {dst}", meta.reference(r).name)
                }
            }
        }
    }
}

/// Characters that stress every layer that escapes text: every control
/// character Rust's `{:?}` escapes, quotes, backslashes, combining
/// marks (which it writes as `\u{..}`), a zero-width space and a byte
/// order mark, non-ASCII letters and the last scalar value. The model
/// text round trip and the JSON status writer are tested on strings of
/// them ([`tricky_string`]).
pub const TRICKY_CHARS: &[char] = &[
    '\0',
    '\u{1}',
    '\u{7}',
    '\u{8}',
    '\t',
    '\n',
    '\u{b}',
    '\u{c}',
    '\r',
    '\u{1b}',
    '\u{1f}',
    '\u{7f}',
    '\u{85}',
    '"',
    '\'',
    '\\',
    '\u{300}',
    '\u{301}',
    '\u{36f}',
    '\u{200b}',
    '\u{feff}',
    'a',
    'Z',
    ' ',
    '{',
    '}',
    'é',
    'ß',
    'Ж',
    '日',
    '✓',
    '\u{10ffff}',
];

/// The string of [`TRICKY_CHARS`] that `picks` index, in order.
///
/// # Panics
///
/// If a pick is not below `TRICKY_CHARS.len()`.
pub fn tricky_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| TRICKY_CHARS[i]).collect()
}

/// A random dependency set over `arity` domains (for entailment benches).
pub fn random_depset(arity: usize, n_deps: usize, seed: u64) -> DepSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = DepSet::new(arity);
    while set.len() < n_deps {
        let target = DomIdx(rng.gen_range(0..arity) as u8);
        let mut sources = DomSet::EMPTY;
        for i in 0..arity {
            if i != target.index() && rng.gen_bool(0.4) {
                sources = sources.with(DomIdx(i as u8));
            }
        }
        if sources.is_empty() {
            continue;
        }
        let dep = Dep::new(sources, target).expect("target excluded");
        set.add(dep).expect("in range");
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_check::Checker;

    #[test]
    fn generated_workload_is_consistent() {
        for seed in [1, 7, 99] {
            for k in [1, 2, 3] {
                let w = feature_workload(FeatureSpec {
                    k_configs: k,
                    seed,
                    ..FeatureSpec::default()
                });
                let report = Checker::new(&w.hir, &w.models).unwrap().check().unwrap();
                assert!(report.consistent(), "seed={seed} k={k}\n{report}");
            }
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = feature_workload(FeatureSpec::default());
        let b = feature_workload(FeatureSpec::default());
        for (x, y) in a.models.iter().zip(&b.models) {
            // Same structure (ids align by construction).
            assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    fn injections_break_consistency() {
        for injection in [
            Injection::NewMandatoryInFm,
            Injection::RenameInConfig { config: 0 },
            Injection::SelectEverywhere,
            Injection::SelectUnknown { config: 1 },
        ] {
            let mut w = feature_workload(FeatureSpec {
                n_features: 6,
                k_configs: 2,
                mandatory_ratio: 0.5,
                select_prob: 0.5,
                seed: 3,
            });
            let what = inject(&mut w, injection);
            let report = Checker::new(&w.hir, &w.models).unwrap().check().unwrap();
            assert!(!report.consistent(), "{injection:?}: {what}");
        }
    }

    #[test]
    fn transformation_source_scales_with_k() {
        for k in [1, 2, 5] {
            let src = transformation_source(k);
            assert_eq!(src.matches("domain cf").count(), 2 * k);
        }
    }

    #[test]
    fn random_edit_scripts_replay_cleanly() {
        use mmt_dist::Delta;
        for seed in [1u64, 9, 23] {
            let w = feature_workload(FeatureSpec {
                n_features: 5,
                k_configs: 2,
                mandatory_ratio: 0.4,
                select_prob: 0.4,
                seed,
            });
            for target in 0..w.models.len() {
                let ops = random_edits(&w.models[target], 10, seed * 7 + target as u64);
                assert_eq!(ops.len(), 10);
                // Deterministic.
                assert_eq!(
                    ops,
                    random_edits(&w.models[target], 10, seed * 7 + target as u64)
                );
                // Valid when replayed in order.
                let mut d = Delta::new();
                for op in ops {
                    d.push(op);
                }
                let mut replay = w.models[target].clone();
                d.apply(&mut replay).unwrap();
            }
        }
    }

    #[test]
    fn random_edit_scripts_cover_links_when_the_metamodel_has_them() {
        let mm = mmt_model::text::parse_metamodel(
            "metamodel X { class Node { attr name: Str; ref next: Node [0..*]; } }",
        )
        .unwrap();
        let m = mmt_model::text::parse_model(
            r#"model m : X {
                a = Node { name = "a", next = [b] }
                b = Node { name = "b" }
            }"#,
            &mm,
        )
        .unwrap();
        let ops = random_edits(&m, 40, 3);
        assert!(ops
            .iter()
            .any(|op| matches!(op, EditOp::AddLink { .. } | EditOp::DelLink { .. })));
        let mut d = mmt_dist::Delta::new();
        for op in ops {
            d.push(op);
        }
        let mut replay = m.clone();
        d.apply(&mut replay).unwrap();
    }

    #[test]
    fn session_scripts_interleave_checkpoints_deterministically() {
        let w = feature_workload(FeatureSpec::default());
        let targets = DomSet::from_iter([DomIdx(0), DomIdx(1)]);
        let run = |seed: u64| {
            let mut gen = SessionScriptGen::new(targets, 4, seed);
            let mut models = w.models.clone();
            let mut steps = Vec::new();
            for _ in 0..12 {
                let step = gen.next_step(&models);
                if let SessionStep::Edit { model, op } = &step {
                    // Execute edits so later steps stay valid.
                    let mut d = mmt_dist::Delta::new();
                    d.push(*op);
                    d.apply(&mut models[model.index()]).unwrap();
                }
                steps.push(step);
            }
            steps
        };
        let a = run(5);
        assert_eq!(a, run(5), "same seed, same script");
        // Every 4th step is a checkpoint, the rest are edits.
        for (i, step) in a.iter().enumerate() {
            if (i + 1) % 4 == 0 {
                assert_eq!(*step, SessionStep::Repair { targets }, "step {i}");
            } else {
                assert!(matches!(step, SessionStep::Edit { .. }), "step {i}");
            }
        }
    }

    #[test]
    fn session_steps_render_to_sync_script_syntax() {
        let w = feature_workload(FeatureSpec::default());
        let fm_feature = w.fm.class_named("Feature").unwrap();
        let name =
            w.fm.attr_of(fm_feature, mmt_model::Sym::new("name"))
                .unwrap();
        let add = SessionStep::Edit {
            model: DomIdx(2),
            op: EditOp::AddObj {
                id: ObjId(9),
                class: fm_feature,
            },
        };
        assert_eq!(render_step(&w.hir, &add), "edit fm add Feature @9");
        let set = SessionStep::Edit {
            model: DomIdx(2),
            op: EditOp::SetAttr {
                id: ObjId(9),
                attr: name,
                value: Value::str("gps"),
                old: Value::str(""),
            },
        };
        assert_eq!(render_step(&w.hir, &set), "edit fm set @9.name = \"gps\"");
        let repair = SessionStep::Repair {
            targets: DomSet::from_iter([DomIdx(0), DomIdx(1)]),
        };
        assert_eq!(render_step(&w.hir, &repair), "repair cf1,cf2");
    }

    #[test]
    fn random_depset_has_requested_size() {
        let s = random_depset(6, 9, 11);
        assert_eq!(s.len(), 9);
        assert_eq!(s.arity(), 6);
        // Deterministic.
        assert_eq!(random_depset(6, 9, 11), s);
    }
}
