//! # mmt-ground — bounded relational grounding to CNF
//!
//! The Alloy/Kodkod substitute (§3): embeds the extended QVT-R checking
//! semantics into propositional logic over a *bounded universe* and solves
//! for consistent target models at minimal distance from the originals.
//!
//! For every model the repair *shape* allows to change (the target set),
//! the grounder builds a symbolic universe: the original objects plus
//! `slack` fresh objects per concrete class. Decision variables encode
//! object liveness, one-hot attribute values over the active domain
//! (original values across all models, plus fresh string symbols), and
//! per-pair links. Every directional check `R_{S→T}` of every top relation
//! is instantiated over the universe; cost literals mirror
//! [`mmt_dist::Delta`]'s operation costs; a weighted sequential counter
//! bounds the total cost, and [`GroundProblem::solve_min_cost`] relaxes
//! the bound `k = 0, 1, 2, …` — precisely the paper's "iterative process
//! of searching for all consistent models at increasing distance".

pub mod formula;

use formula::{CnfBuilder, Formula};
use mmt_deps::{Dep, DomIdx, DomSet};
use mmt_dist::{CostModel, TupleCost};
use mmt_model::{AttrId, AttrType, ClassId, Model, ObjId, RefId, Sym, Upper, Value};
use mmt_qvtr::{Atom, CmpOp, Constraint, Hir, HirExpr, HirRelation, RelId, VarId, VarTy};
use mmt_sat::{Lit, SatResult, Var};
use std::collections::HashMap;
use std::fmt;

/// Universe bounds for the grounding.
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    /// Fresh objects added per concrete class per mutable model.
    pub slack_objs: usize,
    /// Fresh string symbols added to the string domain.
    pub fresh_strings: usize,
}

impl Default for Scope {
    fn default() -> Self {
        Scope {
            slack_objs: 2,
            fresh_strings: 1,
        }
    }
}

/// Options for building a ground problem.
#[derive(Clone, Debug)]
pub struct GroundOptions {
    /// Universe bounds.
    pub scope: Scope,
    /// Per-operation costs (shared with the search engine).
    pub cost: CostModel,
    /// Per-model weight multipliers (§3 weighted tuple distance).
    pub tuple: TupleCost,
    /// Maximum total cost considered (the counter's bound).
    pub max_cost: u64,
    /// Cap on quantifier instantiations (guards against scope blow-ups).
    pub max_instantiations: u64,
}

impl Default for GroundOptions {
    fn default() -> Self {
        GroundOptions {
            scope: Scope::default(),
            cost: CostModel::default(),
            tuple: TupleCost::auto(),
            max_cost: 16,
            max_instantiations: 2_000_000,
        }
    }
}

/// Grounding statistics.
#[derive(Clone, Copy, Default, Debug)]
pub struct GroundStats {
    /// SAT variables allocated.
    pub vars: usize,
    /// Clauses emitted.
    pub clauses: u64,
    /// Universal-quantifier instantiations.
    pub universal_instantiations: u64,
    /// Cost literals (potential edits).
    pub cost_items: usize,
}

/// Errors raised while grounding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundError {
    /// Reference multiplicities other than `0..1`, `1..1`, `0..*`, `1..*`
    /// are not encodable.
    UnsupportedMultiplicity {
        /// Reference name.
        reference: String,
    },
    /// The scope produced more instantiations than allowed.
    ScopeTooLarge {
        /// The cap that was exceeded.
        cap: u64,
    },
    /// A dependency targets a model with no domain in its relation.
    NoTargetDomain {
        /// Relation name.
        relation: Sym,
    },
    /// Relation call grounding recursed past the depth limit.
    RecursionLimit,
    /// Wrong number of models supplied.
    ModelCountMismatch {
        /// Expected.
        expected: usize,
        /// Got.
        got: usize,
    },
    /// An explicit tuple weighting does not match the tuple's arity.
    Tuple(mmt_dist::TupleArityError),
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::UnsupportedMultiplicity { reference } => {
                write!(f, "reference `{reference}`: only 0..1, 1..1, 0..*, 1..* multiplicities are encodable")
            }
            GroundError::ScopeTooLarge { cap } => {
                write!(f, "grounding exceeded {cap} quantifier instantiations")
            }
            GroundError::NoTargetDomain { relation } => {
                write!(f, "relation `{relation}`: dependency target lacks a domain")
            }
            GroundError::RecursionLimit => f.write_str("call grounding recursion limit"),
            GroundError::ModelCountMismatch { expected, got } => {
                write!(f, "expected {expected} models, got {got}")
            }
            GroundError::Tuple(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GroundError {}

/// An object in a mutable model's bounded universe.
#[derive(Clone, Copy, Debug)]
struct UObj {
    /// Id in the decoded model (original id, or fresh past the bound).
    id: ObjId,
    class: ClassId,
    original: bool,
}

/// Symbolic state of one mutable model.
struct MutModel {
    universe: Vec<UObj>,
    alive: Vec<Var>,
    /// `(universe idx, attr) → one-hot (value, var)` list.
    attr_vars: HashMap<(u32, AttrId), Vec<(Value, Var)>>,
    /// `(src universe idx, ref, dst universe idx) → var`.
    link_vars: HashMap<(u32, RefId, u32), Var>,
}

/// A ground value: an object (frozen id or universe index) or a constant.
#[derive(Clone, Copy, PartialEq, Debug)]
enum GVal {
    FrozenObj(ObjId),
    MutObj(u32),
    Val(Value),
}

type GBinding = Vec<Option<GVal>>;

/// A built ground problem, ready for minimal-cost solving.
pub struct GroundProblem<'a> {
    originals: &'a [Model],
    targets: DomSet,
    opts: GroundOptions,
    builder: CnfBuilder,
    muts: HashMap<u8, MutModel>,
    cost_outs: Vec<Lit>,
    stats: GroundStats,
}

impl<'a> GroundProblem<'a> {
    /// Grounds the consistency of `hir` over `models`, allowing only the
    /// models in `targets` to change.
    pub fn build(
        hir: &'a Hir,
        models: &'a [Model],
        targets: DomSet,
        mut opts: GroundOptions,
    ) -> Result<GroundProblem<'a>, GroundError> {
        if models.len() != hir.arity() {
            return Err(GroundError::ModelCountMismatch {
                expected: hir.arity(),
                got: models.len(),
            });
        }
        opts.tuple = opts
            .tuple
            .resolved(models.len())
            .map_err(GroundError::Tuple)?;
        let mut g = Grounder {
            hir,
            models,
            targets,
            opts: opts.clone(),
            builder: CnfBuilder::new(),
            muts: HashMap::new(),
            str_domain: Vec::new(),
            int_domain: Vec::new(),
            cost_items: Vec::new(),
            instantiations: 0,
            depth: 0,
        };
        g.collect_domains();
        g.build_universes()?;
        g.encode_consistency()?;
        let cost_items = std::mem::take(&mut g.cost_items);
        let cost_outs = g.builder.encode_cost_counter(&cost_items, opts.max_cost);
        let stats = GroundStats {
            vars: g.builder.solver.num_vars(),
            clauses: g.builder.clauses_added,
            universal_instantiations: g.instantiations,
            cost_items: cost_items.len(),
        };
        Ok(GroundProblem {
            originals: models,
            targets,
            opts,
            builder: g.builder,
            muts: g.muts,
            cost_outs,
            stats,
        })
    }

    /// Grounding statistics.
    pub fn stats(&self) -> GroundStats {
        self.stats
    }

    /// Finds consistent target models at minimal total cost, searching
    /// cost bounds `0, 1, …, max_cost` (§3's increasing-distance loop).
    /// Returns `(cost, decoded model tuple)` or `None` when no repair
    /// exists within the scope and cost bound.
    pub fn solve_min_cost(&mut self) -> Option<(u64, Vec<Model>)> {
        for k in 0..=self.opts.max_cost {
            let assumption = self.cost_outs[k as usize].negate();
            if self.builder.solver.solve_with(&[assumption]) == SatResult::Sat {
                let models = self.decode();
                return Some((k, models));
            }
        }
        None
    }

    /// Decodes the current SAT model into a full model tuple (targets
    /// rebuilt from the assignment, non-targets cloned).
    fn decode(&self) -> Vec<Model> {
        let solver = &self.builder.solver;
        let mut out = Vec::with_capacity(self.originals.len());
        for (i, orig) in self.originals.iter().enumerate() {
            let mi = DomIdx(i as u8);
            if !self.targets.contains(mi) {
                out.push(orig.clone());
                continue;
            }
            let mm = &self.muts[&mi.0];
            let meta = orig.metamodel();
            let mut m = Model::new(&orig.name.resolve(), std::sync::Arc::clone(meta));
            // Objects.
            for (u, obj) in mm.universe.iter().enumerate() {
                if solver.value(mm.alive[u]) == Some(true) {
                    m.add_at(obj.id, obj.class).expect("fresh id space");
                }
            }
            // Attributes.
            for (u, obj) in mm.universe.iter().enumerate() {
                if solver.value(mm.alive[u]) != Some(true) {
                    continue;
                }
                for &attr in &meta.class(obj.class).all_attrs {
                    let vars = &mm.attr_vars[&(u as u32, attr)];
                    for &(v, var) in vars {
                        if solver.value(var) == Some(true) {
                            m.set_attr(obj.id, attr, v).expect("typed one-hot");
                            break;
                        }
                    }
                }
            }
            // Links.
            for (&(su, r, du), &var) in &mm.link_vars {
                if solver.value(var) == Some(true)
                    && solver.value(mm.alive[su as usize]) == Some(true)
                    && solver.value(mm.alive[du as usize]) == Some(true)
                {
                    let src = mm.universe[su as usize];
                    let dst = mm.universe[du as usize];
                    m.add_link(src.id, r, dst.id).expect("typed link var");
                }
            }
            out.push(m);
        }
        out
    }
}

/// Transient state while building.
struct Grounder<'a> {
    hir: &'a Hir,
    models: &'a [Model],
    targets: DomSet,
    opts: GroundOptions,
    builder: CnfBuilder,
    muts: HashMap<u8, MutModel>,
    str_domain: Vec<Value>,
    int_domain: Vec<Value>,
    cost_items: Vec<(Lit, u64)>,
    instantiations: u64,
    depth: u32,
}

const MAX_GROUND_DEPTH: u32 = 16;

impl<'a> Grounder<'a> {
    fn collect_domains(&mut self) {
        let mut strs: Vec<Value> = Vec::new();
        let mut ints: Vec<Value> = Vec::new();
        for m in self.models {
            let meta = m.metamodel();
            for (_, obj) in m.objects() {
                for (slot, &attr) in meta.class(obj.class).all_attrs.iter().enumerate() {
                    let v = obj.attrs[slot];
                    match meta.attr(attr).ty {
                        AttrType::Str => {
                            if !strs.contains(&v) {
                                strs.push(v);
                            }
                        }
                        AttrType::Int => {
                            if !ints.contains(&v) {
                                ints.push(v);
                            }
                        }
                        AttrType::Bool => {}
                    }
                }
            }
        }
        // Literal values mentioned in relation patterns/expressions also
        // belong to the active domain.
        for rel in &self.hir.relations {
            for d in &rel.domains {
                for c in &d.constraints {
                    if let Constraint::AttrEq {
                        rhs: Atom::Lit(v), ..
                    } = c
                    {
                        match v.ty() {
                            AttrType::Str if !strs.contains(v) => strs.push(*v),
                            AttrType::Int if !ints.contains(v) => ints.push(*v),
                            _ => {}
                        }
                    }
                }
            }
            for e in rel.when.iter().chain(rel.where_.iter()) {
                collect_expr_lits(e, &mut strs, &mut ints);
            }
        }
        for i in 0..self.opts.scope.fresh_strings {
            let v = Value::Str(Sym::new(&format!("$new{i}")));
            if !strs.contains(&v) {
                strs.push(v);
            }
        }
        // The empty string (attribute default) must be representable.
        let empty = Value::Str(Sym::new(""));
        if !strs.contains(&empty) {
            strs.push(empty);
        }
        // Likewise the Int default: a fresh object keeping its zeroed
        // attribute must cost nothing, so 0 has to be in the domain even
        // when every observed value (model or literal) is non-zero.
        let zero = Value::Int(0);
        if !ints.contains(&zero) {
            ints.push(zero);
        }
        self.str_domain = strs;
        self.int_domain = ints;
    }

    fn domain_of(&self, ty: AttrType) -> Vec<Value> {
        match ty {
            AttrType::Str => self.str_domain.clone(),
            AttrType::Int => self.int_domain.clone(),
            AttrType::Bool => vec![Value::Bool(false), Value::Bool(true)],
        }
    }

    fn build_universes(&mut self) -> Result<(), GroundError> {
        for t in self.targets.iter() {
            let model = &self.models[t.index()];
            let meta = model.metamodel();
            let mut universe: Vec<UObj> = Vec::new();
            for (id, obj) in model.objects() {
                universe.push(UObj {
                    id,
                    class: obj.class,
                    original: true,
                });
            }
            let mut next = model.id_bound() as u32;
            for (cid, class) in meta.classes() {
                if class.is_abstract {
                    continue;
                }
                for _ in 0..self.opts.scope.slack_objs {
                    universe.push(UObj {
                        id: ObjId(next),
                        class: cid,
                        original: false,
                    });
                    next += 1;
                }
            }
            let mut mm = MutModel {
                alive: Vec::with_capacity(universe.len()),
                attr_vars: HashMap::new(),
                link_vars: HashMap::new(),
                universe,
            };
            let weight = self.opts.tuple.weight(t.index());
            // Liveness + object-level costs.
            for u in 0..mm.universe.len() {
                let v = self.builder.fresh();
                mm.alive.push(v);
                let obj = mm.universe[u];
                if obj.original {
                    self.cost_items
                        .push((Lit::neg(v), self.opts.cost.del_obj * weight));
                } else {
                    self.cost_items
                        .push((Lit::pos(v), self.opts.cost.add_obj * weight));
                }
            }
            // Attribute one-hots + change costs.
            for u in 0..mm.universe.len() {
                let obj = mm.universe[u];
                for &attr in &meta.class(obj.class).all_attrs {
                    let ty = meta.attr(attr).ty;
                    let domain = self.domain_of(ty);
                    let vars: Vec<(Value, Var)> = domain
                        .iter()
                        .map(|&val| (val, self.builder.fresh()))
                        .collect();
                    // Exactly one.
                    let all: Vec<Lit> = vars.iter().map(|&(_, v)| Lit::pos(v)).collect();
                    self.builder.clause(&all);
                    for i in 0..vars.len() {
                        for j in i + 1..vars.len() {
                            self.builder
                                .clause(&[Lit::neg(vars[i].1), Lit::neg(vars[j].1)]);
                        }
                    }
                    // Cost: changed ← alive ∧ (value ≠ baseline).
                    let baseline = if obj.original {
                        model.attr(obj.id, attr).expect("original object")
                    } else {
                        ty.default_value()
                    };
                    let chg = Lit::pos(self.builder.fresh());
                    for &(val, var) in &vars {
                        if val != baseline {
                            self.builder
                                .clause(&[Lit::neg(mm.alive[u]), Lit::neg(var), chg]);
                        }
                    }
                    self.cost_items
                        .push((chg, self.opts.cost.set_attr * weight));
                    mm.attr_vars.insert((u as u32, attr), vars);
                }
            }
            // Links + costs + structural constraints.
            for su in 0..mm.universe.len() {
                let sobj = mm.universe[su];
                for &r in &meta.class(sobj.class).all_refs {
                    let rdecl = meta.reference(r);
                    let mut slot_lits: Vec<Lit> = Vec::new();
                    for du in 0..mm.universe.len() {
                        let dobj = mm.universe[du];
                        if !meta.conforms(dobj.class, rdecl.target) {
                            continue;
                        }
                        let v = self.builder.fresh();
                        let l = Lit::pos(v);
                        // link → both endpoints alive.
                        self.builder.clause(&[l.negate(), Lit::pos(mm.alive[su])]);
                        self.builder.clause(&[l.negate(), Lit::pos(mm.alive[du])]);
                        let originally_linked =
                            sobj.original && dobj.original && model.has_link(sobj.id, r, dobj.id);
                        if originally_linked {
                            // Removal cost, charged only if both endpoints
                            // survive (otherwise DelObj already paid).
                            let chg = Lit::pos(self.builder.fresh());
                            self.builder.clause(&[
                                Lit::neg(mm.alive[su]),
                                Lit::neg(mm.alive[du]),
                                l,
                                chg,
                            ]);
                            self.cost_items
                                .push((chg, self.opts.cost.del_link * weight));
                            // A present link defaults to present: no cost
                            // for keeping it.
                        } else {
                            self.cost_items.push((l, self.opts.cost.add_link * weight));
                        }
                        slot_lits.push(l);
                        mm.link_vars.insert((su as u32, r, du as u32), v);
                    }
                    // Multiplicity bounds (alive sources only).
                    match (rdecl.lower, rdecl.upper) {
                        (0, Upper::Many) => {}
                        (1, Upper::Many) | (1, Upper::Bounded(1)) | (0, Upper::Bounded(1)) => {
                            if rdecl.lower == 1 {
                                // alive → at least one target.
                                let mut cl = vec![Lit::neg(mm.alive[su])];
                                cl.extend(slot_lits.iter().copied());
                                self.builder.clause(&cl);
                            }
                            if rdecl.upper == Upper::Bounded(1) {
                                for i in 0..slot_lits.len() {
                                    for j in i + 1..slot_lits.len() {
                                        self.builder.clause(&[
                                            slot_lits[i].negate(),
                                            slot_lits[j].negate(),
                                        ]);
                                    }
                                }
                            }
                        }
                        _ => {
                            return Err(GroundError::UnsupportedMultiplicity {
                                reference: rdecl.name.resolve(),
                            })
                        }
                    }
                }
            }
            // Single-container constraint for containment references.
            let mut containment_incoming: HashMap<u32, Vec<Lit>> = HashMap::new();
            for (&(_, r, du), &v) in &mm.link_vars {
                if meta.reference(r).containment {
                    containment_incoming
                        .entry(du)
                        .or_default()
                        .push(Lit::pos(v));
                }
            }
            for (_, incoming) in containment_incoming {
                for i in 0..incoming.len() {
                    for j in i + 1..incoming.len() {
                        self.builder
                            .clause(&[incoming[i].negate(), incoming[j].negate()]);
                    }
                }
            }
            self.muts.insert(t.0, mm);
        }
        Ok(())
    }

    fn encode_consistency(&mut self) -> Result<(), GroundError> {
        let top: Vec<RelId> = self.hir.top_relations().map(|(rid, _)| rid).collect();
        for rid in top {
            let deps: Vec<Dep> = self.hir.relation(rid).deps.deps().to_vec();
            for dep in deps {
                let binding = vec![None; self.hir.relation(rid).vars.len()];
                let f = self.ground_check(rid, dep, binding)?;
                self.builder.add_formula(f);
            }
        }
        Ok(())
    }

    /// Candidate ground values for a variable.
    fn candidates(&self, rel: &HirRelation, v: VarId) -> Vec<GVal> {
        match rel.vars[v.index()].ty {
            VarTy::Prim(ty) => self.domain_of(ty).into_iter().map(GVal::Val).collect(),
            VarTy::Obj { model, class } => {
                if let Some(mm) = self.muts.get(&model.0) {
                    let meta = self.models[model.index()].metamodel();
                    mm.universe
                        .iter()
                        .enumerate()
                        .filter(|(_, o)| meta.conforms(o.class, class))
                        .map(|(u, _)| GVal::MutObj(u as u32))
                        .collect()
                } else {
                    self.models[model.index()]
                        .objects_of(class)
                        .map(GVal::FrozenObj)
                        .collect()
                }
            }
        }
    }

    /// Grounds the directional check `rel_{dep}` with `binding` pre-fixed
    /// (used for call grounding, where roots are bound).
    fn ground_check(
        &mut self,
        rid: RelId,
        dep: Dep,
        binding: GBinding,
    ) -> Result<Formula, GroundError> {
        if self.depth >= MAX_GROUND_DEPTH {
            return Err(GroundError::RecursionLimit);
        }
        self.depth += 1;
        let result = self.ground_check_inner(rid, dep, binding);
        self.depth -= 1;
        result
    }

    fn ground_check_inner(
        &mut self,
        rid: RelId,
        dep: Dep,
        binding: GBinding,
    ) -> Result<Formula, GroundError> {
        let rel = self.hir.relation(rid).clone();
        if rel.domain_for_model(dep.target).is_none() {
            return Err(GroundError::NoTargetDomain { relation: rel.name });
        }
        // Universal side: patterns of S-domains + when-only object vars.
        let mut src_constraints: Vec<Constraint> = Vec::new();
        for d in &rel.domains {
            if dep.sources.contains(d.model) {
                src_constraints.extend_from_slice(&d.constraints);
            }
        }
        let mut src_vars: Vec<VarId> = Vec::new();
        for c in &src_constraints {
            constraint_vars(c, &mut src_vars);
        }
        if let Some(when) = &rel.when {
            let mut wv = Vec::new();
            when.free_vars(&mut wv);
            for v in wv {
                if !src_vars.contains(&v) && binding[v.index()].is_none() {
                    if let VarTy::Obj { model, class } = rel.vars[v.index()].ty {
                        src_constraints.push(Constraint::Obj {
                            var: v,
                            model,
                            class,
                        });
                    }
                    src_vars.push(v);
                }
            }
        }
        // Existential side.
        let tgt_domain = rel
            .domain_for_model(dep.target)
            .expect("checked above")
            .clone();
        let mut tgt_constraints: Vec<Constraint> = tgt_domain.constraints.clone();
        let mut tgt_vars: Vec<VarId> = Vec::new();
        for c in &tgt_constraints {
            constraint_vars(c, &mut tgt_vars);
        }
        if let Some(wher) = &rel.where_ {
            let mut wv = Vec::new();
            wher.free_vars(&mut wv);
            for v in wv {
                if !src_vars.contains(&v) && !tgt_vars.contains(&v) && binding[v.index()].is_none()
                {
                    if let VarTy::Obj { model, class } = rel.vars[v.index()].ty {
                        tgt_constraints.push(Constraint::Obj {
                            var: v,
                            model,
                            class,
                        });
                    }
                    tgt_vars.push(v);
                }
            }
        }
        // Enumerate universal bindings with pruning; the `when` condition
        // and source constraints form the antecedent, the existential
        // disjunction the consequent.
        let mut parts: Vec<Formula> = Vec::new();
        let mut b = binding;
        let src_c = src_constraints.clone();
        let tgt_c = tgt_constraints.clone();
        let rel2 = rel.clone();
        self.enum_bindings(&rel, &src_constraints, &mut b, &mut |g, b| {
            g.instantiations += 1;
            if g.instantiations > g.opts.max_instantiations {
                return Err(GroundError::ScopeTooLarge {
                    cap: g.opts.max_instantiations,
                });
            }
            let mut cond_parts: Vec<Formula> = Vec::with_capacity(src_c.len() + 1);
            for c in &src_c {
                cond_parts.push(g.constraint_formula(&rel2, c, b));
            }
            if let Some(when) = &rel2.when {
                cond_parts.push(g.expr_formula(&rel2, when, b, dep)?);
            }
            let cond = Formula::and(cond_parts);
            if cond.is_const(false) {
                return Ok(());
            }
            // Existential: Or over witness bindings.
            let mut wits: Vec<Formula> = Vec::new();
            let rel3 = rel2.clone();
            let tgt_cc = tgt_c.clone();
            g.enum_bindings(&rel2, &tgt_c, b, &mut |g, b| {
                let mut wparts: Vec<Formula> = Vec::with_capacity(tgt_cc.len() + 1);
                for c in &tgt_cc {
                    wparts.push(g.constraint_formula(&rel3, c, b));
                }
                if let Some(wher) = &rel3.where_ {
                    wparts.push(g.expr_formula(&rel3, wher, b, dep)?);
                }
                let w = Formula::and(wparts);
                if !w.is_const(false) {
                    wits.push(w);
                }
                Ok(())
            })?;
            parts.push(Formula::implies(cond, Formula::or(wits)));
            Ok(())
        })?;
        Ok(Formula::and(parts))
    }

    /// Enumerates assignments for the unbound variables of `constraints`,
    /// pruning branches where a fully-bound constraint folds to constant
    /// false. `visit` is called with the binding completed; the binding is
    /// restored afterwards.
    fn enum_bindings(
        &mut self,
        rel: &HirRelation,
        constraints: &[Constraint],
        binding: &mut GBinding,
        visit: &mut dyn FnMut(&mut Self, &mut GBinding) -> Result<(), GroundError>,
    ) -> Result<(), GroundError> {
        let mut vars: Vec<VarId> = Vec::new();
        for c in constraints {
            constraint_vars(c, &mut vars);
        }
        vars.retain(|v| binding[v.index()].is_none());
        self.enum_rec(rel, constraints, &vars, 0, binding, visit)
    }

    fn enum_rec(
        &mut self,
        rel: &HirRelation,
        constraints: &[Constraint],
        vars: &[VarId],
        at: usize,
        binding: &mut GBinding,
        visit: &mut dyn FnMut(&mut Self, &mut GBinding) -> Result<(), GroundError>,
    ) -> Result<(), GroundError> {
        if at >= vars.len() {
            return visit(self, binding);
        }
        let v = vars[at];
        let candidates = self.candidates(rel, v);
        for cand in candidates {
            binding[v.index()] = Some(cand);
            // Prune on constant-false fully-bound constraints.
            let mut dead = false;
            for c in constraints {
                let mut cv = Vec::new();
                constraint_vars(c, &mut cv);
                if cv.iter().all(|x| binding[x.index()].is_some())
                    && self.constraint_formula(rel, c, binding).is_const(false)
                {
                    dead = true;
                    break;
                }
            }
            if !dead {
                self.enum_rec(rel, constraints, vars, at + 1, binding, visit)?;
            }
            binding[v.index()] = None;
        }
        Ok(())
    }

    /// Translates a single constraint under a binding (all its vars bound).
    fn constraint_formula(&self, rel: &HirRelation, c: &Constraint, binding: &GBinding) -> Formula {
        match *c {
            Constraint::Obj { var, model, class } => match binding[var.index()] {
                Some(GVal::FrozenObj(o)) => {
                    let m = &self.models[model.index()];
                    Formula::Const(
                        m.get(o)
                            .map(|obj| m.metamodel().conforms(obj.class, class))
                            .unwrap_or(false),
                    )
                }
                Some(GVal::MutObj(u)) => {
                    let mm = &self.muts[&model.0];
                    let meta = self.models[model.index()].metamodel();
                    let obj = mm.universe[u as usize];
                    if meta.conforms(obj.class, class) {
                        Formula::Lit(Lit::pos(mm.alive[u as usize]))
                    } else {
                        Formula::Const(false)
                    }
                }
                _ => Formula::Const(false),
            },
            Constraint::AttrEq { obj, attr, rhs } => {
                let value = match rhs {
                    Atom::Lit(v) => v,
                    Atom::Var(v) => match binding[v.index()] {
                        Some(GVal::Val(val)) => val,
                        _ => return Formula::Const(false),
                    },
                };
                let model = obj_model(rel, obj);
                match binding[obj.index()] {
                    Some(GVal::FrozenObj(o)) => {
                        Formula::Const(self.models[model.index()].attr(o, attr) == Ok(value))
                    }
                    Some(GVal::MutObj(u)) => {
                        let mm = &self.muts[&model.0];
                        match mm.attr_vars.get(&(u, attr)) {
                            Some(vars) => vars
                                .iter()
                                .find(|&&(v, _)| v == value)
                                .map(|&(_, var)| Formula::Lit(Lit::pos(var)))
                                .unwrap_or(Formula::Const(false)),
                            None => Formula::Const(false),
                        }
                    }
                    _ => Formula::Const(false),
                }
            }
            Constraint::RefContains { obj, r, dst } => {
                let model = obj_model(rel, obj);
                match (binding[obj.index()], binding[dst.index()]) {
                    (Some(GVal::FrozenObj(s)), Some(GVal::FrozenObj(d))) => {
                        Formula::Const(self.models[model.index()].has_link(s, r, d))
                    }
                    (Some(GVal::MutObj(su)), Some(GVal::MutObj(du))) => {
                        let mm = &self.muts[&model.0];
                        mm.link_vars
                            .get(&(su, r, du))
                            .map(|&v| Formula::Lit(Lit::pos(v)))
                            .unwrap_or(Formula::Const(false))
                    }
                    _ => Formula::Const(false),
                }
            }
        }
    }

    /// Translates a boolean expression under a fully bound binding.
    fn expr_formula(
        &mut self,
        rel: &HirRelation,
        e: &HirExpr,
        binding: &GBinding,
        dir: Dep,
    ) -> Result<Formula, GroundError> {
        Ok(match e {
            HirExpr::Lit(Value::Bool(b)) => Formula::Const(*b),
            HirExpr::Lit(_) => unreachable!("type checker admits only booleans"),
            HirExpr::Var(v) => match binding[v.index()] {
                Some(GVal::Val(Value::Bool(b))) => Formula::Const(b),
                _ => unreachable!("type checker: boolean variable"),
            },
            HirExpr::Nav(v, attr) => match self.nav_term(rel, *v, *attr, binding) {
                Term::Const(Value::Bool(b)) => Formula::Const(b),
                Term::Const(_) => unreachable!("type checker: boolean attribute"),
                Term::ObjConst(_) => unreachable!("navigation yields a value"),
                Term::Slot(model, u) => {
                    let mm = &self.muts[&model.0];
                    let vars = &mm.attr_vars[&(u, *attr)];
                    vars.iter()
                        .find(|&&(val, _)| val == Value::Bool(true))
                        .map(|&(_, var)| Formula::Lit(Lit::pos(var)))
                        .unwrap_or(Formula::Const(false))
                }
            },
            HirExpr::Cmp(op, a, b) => self.cmp_formula(rel, *op, a, b, binding)?,
            HirExpr::And(a, b) => Formula::and(vec![
                self.expr_formula(rel, a, binding, dir)?,
                self.expr_formula(rel, b, binding, dir)?,
            ]),
            HirExpr::Or(a, b) => Formula::or(vec![
                self.expr_formula(rel, a, binding, dir)?,
                self.expr_formula(rel, b, binding, dir)?,
            ]),
            HirExpr::Implies(a, b) => Formula::implies(
                self.expr_formula(rel, a, binding, dir)?,
                self.expr_formula(rel, b, binding, dir)?,
            ),
            HirExpr::Not(a) => Formula::not(self.expr_formula(rel, a, binding, dir)?),
            HirExpr::Call(rid, args) => self.ground_call(*rid, args, binding, dir)?,
        })
    }

    fn nav_term(&self, rel: &HirRelation, v: VarId, attr: AttrId, binding: &GBinding) -> Term {
        let model = obj_model(rel, v);
        match binding[v.index()] {
            Some(GVal::FrozenObj(o)) => Term::Const(
                self.models[model.index()]
                    .attr(o, attr)
                    .expect("typed navigation"),
            ),
            Some(GVal::MutObj(u)) => Term::Slot(model, u),
            _ => unreachable!("navigation on bound object variable"),
        }
    }

    fn value_term(&self, rel: &HirRelation, e: &HirExpr, binding: &GBinding) -> Term {
        match e {
            HirExpr::Lit(v) => Term::Const(*v),
            HirExpr::Var(v) => match binding[v.index()] {
                Some(GVal::Val(val)) => Term::Const(val),
                Some(GVal::FrozenObj(o)) => Term::ObjConst(ObjRef::Frozen(o)),
                Some(GVal::MutObj(u)) => Term::ObjConst(ObjRef::Mut(obj_model(rel, *v), u)),
                None => unreachable!("type checker: bound variable"),
            },
            HirExpr::Nav(v, attr) => self.nav_term(rel, *v, *attr, binding),
            _ => unreachable!("type checker: value expression"),
        }
    }

    fn cmp_formula(
        &mut self,
        rel: &HirRelation,
        op: CmpOp,
        a: &HirExpr,
        b: &HirExpr,
        binding: &GBinding,
    ) -> Result<Formula, GroundError> {
        let ta = self.value_term(rel, a, binding);
        let tb = self.value_term(rel, b, binding);
        let eq = |x: &Term, y: &Term, g: &Self| -> Formula {
            match (x, y) {
                (Term::Const(v1), Term::Const(v2)) => Formula::Const(v1 == v2),
                (Term::ObjConst(o1), Term::ObjConst(o2)) => Formula::Const(o1 == o2),
                (Term::Const(v), Term::Slot(model, u)) | (Term::Slot(model, u), Term::Const(v)) => {
                    g.slot_eq_const(&g.muts[&model.0], *u, *v)
                }
                (Term::Slot(m1, u1), Term::Slot(m2, u2)) => g.slots_eq(*m1, *u1, *m2, *u2),
                _ => Formula::Const(false),
            }
        };
        Ok(match op {
            CmpOp::Eq => eq(&ta, &tb, self),
            CmpOp::Neq => Formula::not(eq(&ta, &tb, self)),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let cmp_ints = |x: i64, y: i64| match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    _ => unreachable!(),
                };
                match (&ta, &tb) {
                    (Term::Const(Value::Int(x)), Term::Const(Value::Int(y))) => {
                        Formula::Const(cmp_ints(*x, *y))
                    }
                    _ => {
                        let expand = |t: &Term, g: &Self| -> Vec<(i64, Formula)> {
                            match t {
                                Term::Const(Value::Int(x)) => {
                                    vec![(*x, Formula::Const(true))]
                                }
                                Term::Slot(model, u) => g
                                    .int_domain
                                    .iter()
                                    .map(|&v| {
                                        let Value::Int(x) = v else { unreachable!() };
                                        (x, g.slot_eq_const(&g.muts[&model.0], *u, v))
                                    })
                                    .collect(),
                                _ => vec![],
                            }
                        };
                        let xs = expand(&ta, self);
                        let ys = expand(&tb, self);
                        let mut alts = Vec::new();
                        for (x, fx) in &xs {
                            for (y, fy) in &ys {
                                if cmp_ints(*x, *y) {
                                    alts.push(Formula::and(vec![fx.clone(), fy.clone()]));
                                }
                            }
                        }
                        Formula::or(alts)
                    }
                }
            }
        })
    }

    /// `slot == const` using the one-hot list of the slot's attribute.
    fn slot_eq_const(&self, mm: &MutModel, u: u32, v: Value) -> Formula {
        for ((uu, _attr), vars) in &mm.attr_vars {
            if *uu != u {
                continue;
            }
            if let Some(&(_, var)) = vars.iter().find(|&&(val, _)| val == v) {
                return Formula::Lit(Lit::pos(var));
            }
        }
        Formula::Const(false)
    }

    fn slots_eq(&self, m1: DomIdx, u1: u32, m2: DomIdx, u2: u32) -> Formula {
        let mm1 = &self.muts[&m1.0];
        let mm2 = &self.muts[&m2.0];
        let mut alts = Vec::new();
        for ((uu, _), vars1) in &mm1.attr_vars {
            if *uu != u1 {
                continue;
            }
            for &(v, var1) in vars1 {
                for ((uu2, _), vars2) in &mm2.attr_vars {
                    if *uu2 != u2 {
                        continue;
                    }
                    if let Some(&(_, var2)) = vars2.iter().find(|&&(val, _)| val == v) {
                        alts.push(Formula::and(vec![
                            Formula::Lit(Lit::pos(var1)),
                            Formula::Lit(Lit::pos(var2)),
                        ]));
                    }
                }
            }
        }
        Formula::or(alts)
    }

    /// Grounds a relation invocation under the caller's direction (§2.3
    /// projection, mirroring the concrete evaluator).
    fn ground_call(
        &mut self,
        rid: RelId,
        args: &[VarId],
        binding: &GBinding,
        dir: Dep,
    ) -> Result<Formula, GroundError> {
        let callee = self.hir.relation(rid).clone();
        let callee_models = callee.domain_models();
        let proj_sources = dir.sources.intersect(callee_models);
        let proj_target = if callee_models.contains(dir.target) {
            Some(dir.target)
        } else {
            None
        };
        let mut cbinding: GBinding = vec![None; callee.vars.len()];
        for (dom, &arg) in callee.domains.iter().zip(args) {
            cbinding[dom.root.index()] =
                Some(binding[arg.index()].expect("call arguments are bound"));
        }
        match proj_target {
            Some(t) => {
                let dep = Dep::new(proj_sources.without(t), t).expect("t not in sources");
                self.ground_check(rid, dep, cbinding)
            }
            None => {
                // Closed predicate: ∃ extension satisfying all patterns +
                // when + where.
                let mut all: Vec<Constraint> = Vec::new();
                for d in &callee.domains {
                    all.extend_from_slice(&d.constraints);
                }
                let inner_dir = Dep {
                    sources: callee_models,
                    target: dir.target,
                };
                let mut wits: Vec<Formula> = Vec::new();
                let mut b = cbinding;
                let callee2 = callee.clone();
                let all2 = all.clone();
                self.enum_bindings(&callee, &all, &mut b, &mut |g, b| {
                    let mut parts: Vec<Formula> = Vec::new();
                    for c in &all2 {
                        parts.push(g.constraint_formula(&callee2, c, b));
                    }
                    if let Some(w) = &callee2.when {
                        parts.push(g.expr_formula(&callee2, w, b, inner_dir)?);
                    }
                    if let Some(w) = &callee2.where_ {
                        parts.push(g.expr_formula(&callee2, w, b, inner_dir)?);
                    }
                    let f = Formula::and(parts);
                    if !f.is_const(false) {
                        wits.push(f);
                    }
                    Ok(())
                })?;
                Ok(Formula::or(wits))
            }
        }
    }
}

/// A symbolic value term in expressions.
enum Term {
    Const(Value),
    ObjConst(ObjRef),
    Slot(DomIdx, u32),
}

#[derive(Clone, Copy, PartialEq)]
enum ObjRef {
    Frozen(ObjId),
    Mut(DomIdx, u32),
}

fn obj_model(rel: &HirRelation, v: VarId) -> DomIdx {
    match rel.vars[v.index()].ty {
        VarTy::Obj { model, .. } => model,
        VarTy::Prim(_) => unreachable!("object variable expected"),
    }
}

fn constraint_vars(c: &Constraint, out: &mut Vec<VarId>) {
    match *c {
        Constraint::Obj { var, .. } => {
            if !out.contains(&var) {
                out.push(var);
            }
        }
        Constraint::AttrEq { obj, rhs, .. } => {
            if !out.contains(&obj) {
                out.push(obj);
            }
            if let Atom::Var(v) = rhs {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        Constraint::RefContains { obj, dst, .. } => {
            if !out.contains(&obj) {
                out.push(obj);
            }
            if !out.contains(&dst) {
                out.push(dst);
            }
        }
    }
}

fn collect_expr_lits(e: &HirExpr, strs: &mut Vec<Value>, ints: &mut Vec<Value>) {
    match e {
        HirExpr::Lit(v) => match v.ty() {
            AttrType::Str => {
                if !strs.contains(v) {
                    strs.push(*v);
                }
            }
            AttrType::Int => {
                if !ints.contains(v) {
                    ints.push(*v);
                }
            }
            AttrType::Bool => {}
        },
        HirExpr::Cmp(_, a, b) => {
            collect_expr_lits(a, strs, ints);
            collect_expr_lits(b, strs, ints);
        }
        HirExpr::And(a, b) | HirExpr::Or(a, b) | HirExpr::Implies(a, b) => {
            collect_expr_lits(a, strs, ints);
            collect_expr_lits(b, strs, ints);
        }
        HirExpr::Not(a) => collect_expr_lits(a, strs, ints),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_check::Checker;
    use mmt_model::text::{parse_metamodel, parse_model};
    use mmt_model::Metamodel;
    use mmt_qvtr::parse_and_resolve;
    use std::sync::Arc;

    fn metamodels() -> (Arc<Metamodel>, Arc<Metamodel>) {
        let cf = parse_metamodel("metamodel CF { class Feature { attr name: Str; } }").unwrap();
        let fm = parse_metamodel(
            "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }",
        )
        .unwrap();
        (cf, fm)
    }

    const F_SRC: &str = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  top relation MF {
    n : Str;
    domain cf1 s1 : Feature { name = n };
    domain cf2 s2 : Feature { name = n };
    domain fm  f  : Feature { name = n, mandatory = true };
    depend cf1 cf2 -> fm;
    depend fm -> cf1 cf2;
  }
}
"#;

    fn cf_model(cf: &Arc<Metamodel>, name: &str, feats: &[&str]) -> Model {
        let mut body = String::new();
        for (i, f) in feats.iter().enumerate() {
            body.push_str(&format!("f{i} = Feature {{ name = \"{f}\" }}\n"));
        }
        parse_model(&format!("model {name} : CF {{ {body} }}"), cf).unwrap()
    }

    fn fm_model(fm: &Arc<Metamodel>, feats: &[(&str, bool)]) -> Model {
        let mut body = String::new();
        for (i, (f, m)) in feats.iter().enumerate() {
            body.push_str(&format!(
                "f{i} = Feature {{ name = \"{f}\", mandatory = {m} }}\n"
            ));
        }
        parse_model(&format!("model fm : FM {{ {body} }}"), fm).unwrap()
    }

    fn targets(idx: &[u8]) -> DomSet {
        DomSet::from_iter(idx.iter().map(|&i| DomIdx(i)))
    }

    #[test]
    fn consistent_input_repairs_at_zero_cost() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let mut p = GroundProblem::build(&hir, &models, targets(&[0, 1]), GroundOptions::default())
            .unwrap();
        let (cost, repaired) = p.solve_min_cost().expect("solvable");
        assert_eq!(cost, 0);
        for (orig, rep) in models.iter().zip(&repaired) {
            assert!(orig.graph_eq(rep));
        }
    }

    /// §3's flagship scenario: a new mandatory feature is added to the
    /// feature model. Repairing a *single* configuration cannot restore
    /// consistency (the other still misses the feature), while the
    /// multi-target shape `FM → CF^k` succeeds.
    #[test]
    fn multi_target_shape_needed() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true), ("brakes", true)]),
        ];
        // Single-target: only cf1 may change → no repair (cf2 still
        // violates FM → CF2).
        let mut single =
            GroundProblem::build(&hir, &models, targets(&[0]), GroundOptions::default()).unwrap();
        assert!(single.solve_min_cost().is_none());
        // Multi-target: both configurations may change.
        let mut multi =
            GroundProblem::build(&hir, &models, targets(&[0, 1]), GroundOptions::default())
                .unwrap();
        let (cost, repaired) = multi.solve_min_cost().expect("repairable");
        // Each configuration gains `brakes`: AddObj + SetAttr = 2 per
        // configuration.
        assert_eq!(cost, 4);
        let report = Checker::new(&hir, &repaired).unwrap().check().unwrap();
        assert!(report.consistent(), "{report}");
        // The untouched fm is identical.
        assert!(models[2].graph_eq(&repaired[2]));
    }

    /// The reverse §3 scenario: a feature selected in every configuration
    /// must become mandatory — repairing towards FM.
    #[test]
    fn repair_towards_feature_model() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine", "gps"]),
            cf_model(&cf, "cf2", &["engine", "gps"]),
            fm_model(&fm, &[("engine", true), ("gps", false)]),
        ];
        let mut p =
            GroundProblem::build(&hir, &models, targets(&[2]), GroundOptions::default()).unwrap();
        let (cost, repaired) = p.solve_min_cost().expect("repairable");
        // Minimal repair: flip gps.mandatory — one attribute change.
        assert_eq!(cost, 1);
        let report = Checker::new(&hir, &repaired).unwrap().check().unwrap();
        assert!(report.consistent(), "{report}");
    }

    #[test]
    fn weighted_tuple_cost_changes_repair() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation G(cf1 : CF, fm : FM) {
  top relation Sel {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n };
    depend cf1 -> fm;
    depend fm -> cf1;
  }
}
"#;
        let hir = parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            fm_model(&fm, &[("radio", false)]),
        ];
        // Both models may change. With fm heavily weighted, the repair
        // must leave fm untouched and rewrite cf1 instead.
        let opts = GroundOptions {
            tuple: TupleCost::weighted(vec![1, 100]),
            max_cost: 30,
            ..GroundOptions::default()
        };
        let mut p = GroundProblem::build(&hir, &models, targets(&[0, 1]), opts).unwrap();
        let (_, repaired) = p.solve_min_cost().expect("repairable");
        assert!(
            models[1].graph_eq(&repaired[1]),
            "expensive fm should be untouched"
        );
        let report = Checker::new(&hir, &repaired).unwrap().check().unwrap();
        assert!(report.consistent(), "{report}");
    }

    #[test]
    fn decoded_models_are_conformant() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &[]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let mut p = GroundProblem::build(&hir, &models, targets(&[0, 1]), GroundOptions::default())
            .unwrap();
        let (_, repaired) = p.solve_min_cost().expect("repairable");
        for m in &repaired {
            assert!(mmt_model::conformance::is_conformant(m));
        }
    }

    #[test]
    fn stats_populated() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let p =
            GroundProblem::build(&hir, &models, targets(&[0]), GroundOptions::default()).unwrap();
        let s = p.stats();
        assert!(s.vars > 0);
        assert!(s.clauses > 0);
        assert!(s.universal_instantiations > 0);
        assert!(s.cost_items > 0);
    }

    #[test]
    fn instantiation_cap_enforced() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["a", "b", "c", "d"]),
            cf_model(&cf, "cf2", &["a", "b", "c", "d"]),
            fm_model(&fm, &[("a", true)]),
        ];
        let opts = GroundOptions {
            max_instantiations: 3,
            ..GroundOptions::default()
        };
        assert!(matches!(
            GroundProblem::build(&hir, &models, targets(&[0, 1]), opts),
            Err(GroundError::ScopeTooLarge { .. })
        ));
    }
}
