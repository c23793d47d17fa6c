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
//! ([`ValueDomain`]: original values across all models, the spec's
//! literals, fresh string symbols and the defaults), and per-pair links.
//! The other models are exact bounds, like the partial instances Kodkod
//! takes: their patterns fold to constants. Every directional check
//! `R_{S→T}` of every top relation is instantiated over the universe;
//! cost literals mirror [`mmt_dist::Delta`]'s operation costs; a
//! weighted sequential counter bounds the total cost, and
//! [`GroundProblem::solve_min_cost`] relaxes the bound `k = 0, 1, 2, …` —
//! precisely the paper's "iterative process of searching for all
//! consistent models at increasing distance".
//!
//! ## Grounding a check by what its witness side reads
//!
//! A check reads `∀U. C(U) → ∃E. W`, where `C` is the source patterns
//! and `when`, and `W` the target pattern and `where`. `W` reads only
//! part of the universal variables `U`: call it `D`, and `R` the rest.
//! Since `W` does not depend on `R`,
//!
//! ```text
//! ∀D ∀R. (C → W(D))  ≡  ∀D. ((∃R. C) → W(D))
//! ```
//!
//! and the `∃` distributes over the connected components `Rᵢ` of `R`
//! under the source constraints and `when` (miniscoping). So the grounder
//! enumerates `D` once and emits `(C_D ∧ ⋀ᵢ ∃Rᵢ. Cᵢ) → W(D)`, where `C_D`
//! holds the constraints that read no variable of `R`. A `D`-binding is
//! skipped when `W` folds to true, as it does whenever a frozen target
//! holds a witness, and when the antecedent folds to false. The paper's
//! `MF_{cf1 cf2 → fm}` reads only `n` on its witness side, so it grounds
//! at most `|Str| × (1 + |U_cf1| + |U_cf2|)` bindings instead of
//! `|U_cf1| × |Str| × |U_cf2|`.

#![forbid(unsafe_code)]

pub mod formula;

use formula::{cost_counter_width, CnfBuilder, Formula};
use mmt_deps::{Dep, DomIdx, DomSet};
use mmt_dist::{CostModel, TupleCost};
use mmt_model::fx::FxHashMap;
use mmt_model::{AttrId, AttrType, ClassId, Metamodel, Model, ObjId, RefId, Sym, Upper, Value};
use mmt_qvtr::{Atom, CmpOp, Constraint, Hir, HirExpr, HirRelation, RelId, VarId, VarTy};
use mmt_sat::{Lit, SatResult, Var};
use std::fmt;
use std::sync::Arc;

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
    /// Maximum total cost considered (the counter's bound). The counter
    /// is no wider than the cost items can sum to, so a bound past that
    /// costs nothing.
    pub max_cost: u64,
    /// Cap on instantiations, as [`GroundStats::universal_instantiations`]
    /// counts them (guards against scope blow-ups), and, separately, on
    /// the cost counter's cells (its width times the cost items).
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
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct GroundStats {
    /// SAT variables allocated.
    pub vars: usize,
    /// Clauses emitted.
    pub clauses: u64,
    /// Universal bindings enumerated: each binding of a check's `D` (the
    /// universal variables its witness side reads) and each binding of a
    /// connected component of the rest (see the crate docs).
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
    /// The cost counter would have more cells (its width times the cost
    /// items) than the instantiation cap allows: heavy weights under a
    /// large cost bound.
    CostCounterTooWide {
        /// Outputs the counter would have.
        width: u128,
        /// Cost items it would count.
        items: usize,
        /// The cap on instantiations it exceeds.
        cap: u64,
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
            GroundError::CostCounterTooWide { width, items, cap } => write!(
                f,
                "cost counter {width} outputs wide over {items} cost items exceeds {cap} cells"
            ),
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

/// Symbolic state of one mutable model. Every table is addressed by
/// universe index and slot, so no clause order depends on hashing.
struct MutModel {
    universe: Vec<UObj>,
    alive: Vec<Var>,
    /// Where each universe object's attribute slots start in `attr_vars`.
    attr_at: Vec<u32>,
    /// Per attribute slot (in the class's `all_attrs` order), the first of
    /// its one-hot variables: one per value of the attribute type's
    /// domain, consecutive, in domain order.
    attr_vars: Vec<Var>,
    /// Where each universe object's reference slots start in `links`.
    link_at: Vec<u32>,
    /// Per reference slot (in the class's `all_refs` order), the link
    /// variable to each universe object the reference admits, by
    /// ascending universe index.
    links: Vec<Vec<(u32, Var)>>,
}

impl MutModel {
    /// The first one-hot variable of object `u`'s `attr`, if its class
    /// has that attribute.
    fn attr_base(&self, meta: &Metamodel, u: u32, attr: AttrId) -> Option<Var> {
        let slot = meta.attr_slot(self.universe[u as usize].class, attr)?;
        Some(self.attr_vars[self.attr_at[u as usize] as usize + slot])
    }

    /// The variable of the link `su --r--> du`, if `r` admits it.
    fn link(&self, meta: &Metamodel, su: u32, r: RefId, du: u32) -> Option<Var> {
        let slot = meta.ref_slot(self.universe[su as usize].class, r)?;
        let links = &self.links[self.link_at[su as usize] as usize + slot];
        let i = links.binary_search_by_key(&du, |&(d, _)| d).ok()?;
        Some(links[i].1)
    }
}

/// The active value domain of each attribute type, and where each value
/// sits in its type's domain: the values a repair may write. Both
/// engines draw from it, the grounding for its one-hot attribute
/// variables and the search for its `SetAttr` candidates, so neither
/// can reach a value the other cannot.
pub struct ValueDomain {
    strs: Vec<Value>,
    ints: Vec<Value>,
    bools: [Value; 2],
    pos: FxHashMap<Value, u32>,
}

impl ValueDomain {
    /// Every value observed in `models` or written in `hir` (pattern
    /// literals, then `when` and `where` literals, relation by
    /// relation), plus `fresh_strings` fresh strings and each type's
    /// default — each once, in first-seen order. Clause order follows
    /// it, and so does the search's candidate order.
    pub fn collect(hir: &Hir, models: &[Model], fresh_strings: usize) -> ValueDomain {
        let bools = [Value::Bool(false), Value::Bool(true)];
        let mut d = ValueDomain {
            strs: Vec::new(),
            ints: Vec::new(),
            bools,
            pos: bools.iter().zip(0..).map(|(&v, i)| (v, i)).collect(),
        };
        for m in models {
            for (_, obj) in m.objects() {
                for &v in obj.attrs.iter() {
                    d.push(v);
                }
            }
        }
        // Literal values mentioned in relation patterns/expressions also
        // belong to the active domain.
        for rel in &hir.relations {
            for dom in &rel.domains {
                for c in &dom.constraints {
                    if let Constraint::AttrEq {
                        rhs: Atom::Lit(v), ..
                    } = c
                    {
                        d.push(*v);
                    }
                }
            }
            for e in rel.when.iter().chain(rel.where_.iter()) {
                d.push_literals(e);
            }
        }
        for i in 0..fresh_strings {
            d.push(Value::Str(Sym::new(&format!("$new{i}"))));
        }
        // The empty string (attribute default) must be representable.
        d.push(Value::Str(Sym::EMPTY));
        // Likewise the Int default: a fresh object keeping its zeroed
        // attribute must cost nothing, so 0 has to be in the domain even
        // when every observed value (model or literal) is non-zero.
        d.push(Value::Int(0));
        d
    }

    /// Adds a string or integer value to its type's domain, once.
    fn push(&mut self, v: Value) {
        let domain = match v.ty() {
            AttrType::Str => &mut self.strs,
            AttrType::Int => &mut self.ints,
            AttrType::Bool => return,
        };
        if let std::collections::hash_map::Entry::Vacant(e) = self.pos.entry(v) {
            e.insert(domain.len() as u32);
            domain.push(v);
        }
    }

    /// Adds the literals of an expression.
    fn push_literals(&mut self, e: &HirExpr) {
        match e {
            HirExpr::Lit(v) => self.push(*v),
            HirExpr::Cmp(_, a, b)
            | HirExpr::And(a, b)
            | HirExpr::Or(a, b)
            | HirExpr::Implies(a, b) => {
                self.push_literals(a);
                self.push_literals(b);
            }
            HirExpr::Not(a) => self.push_literals(a),
            _ => {}
        }
    }

    /// The domain of attribute type `ty`, in first-seen order.
    pub fn of(&self, ty: AttrType) -> &[Value] {
        match ty {
            AttrType::Str => &self.strs,
            AttrType::Int => &self.ints,
            AttrType::Bool => &self.bools,
        }
    }

    /// Where `v` sits in its type's domain, if the domain holds it.
    fn pos(&self, v: Value) -> Option<u32> {
        self.pos.get(&v).copied()
    }
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
    builder: CnfBuilder,
    /// Symbolic state of each model, `None` for the frozen ones.
    muts: Vec<Option<MutModel>>,
    domains: ValueDomain,
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
            domains: ValueDomain::collect(hir, models, opts.scope.fresh_strings),
            opts,
            builder: CnfBuilder::new(),
            muts: Vec::with_capacity(models.len()),
            extents: Vec::new(),
            cost_items: Vec::new(),
            instantiations: 0,
            depth: 0,
        };
        g.build_universes(targets)?;
        g.build_extents();
        g.encode_consistency()?;
        let cost_items = std::mem::take(&mut g.cost_items);
        // The counter's cells come out of the instantiation budget too
        // (in u128, a width of at most 2⁶⁴ times a `usize` cannot overflow).
        let width = cost_counter_width(&cost_items, g.opts.max_cost);
        if width * cost_items.len() as u128 > u128::from(g.opts.max_instantiations) {
            return Err(GroundError::CostCounterTooWide {
                width,
                items: cost_items.len(),
                cap: g.opts.max_instantiations,
            });
        }
        let cost_outs = g.builder.encode_cost_counter(&cost_items, g.opts.max_cost);
        let stats = GroundStats {
            vars: g.builder.solver.num_vars(),
            clauses: g.builder.clauses_added,
            universal_instantiations: g.instantiations,
            cost_items: cost_items.len(),
        };
        Ok(GroundProblem {
            originals: models,
            builder: g.builder,
            muts: g.muts,
            domains: g.domains,
            cost_outs,
            stats,
        })
    }

    /// Grounding statistics.
    pub fn stats(&self) -> GroundStats {
        self.stats
    }

    /// The solver's statistics so far: its path through every
    /// [`solve_min_cost`](Self::solve_min_cost) round.
    pub fn solver_stats(&self) -> mmt_sat::SolverStats {
        self.builder.solver.stats()
    }

    /// Finds consistent target models at minimal total cost, searching
    /// cost bounds `0, 1, …` (§3's increasing-distance loop) up to
    /// `max_cost`, or up to what the cost items can sum to if that is
    /// less: the cost counter's last output. Returns `(cost, decoded
    /// model tuple)` or `None` when no repair exists within the scope and
    /// cost bound.
    pub fn solve_min_cost(&mut self) -> Option<(u64, Vec<Model>)> {
        for (k, out) in (0..).zip(&self.cost_outs) {
            if self.builder.solver.solve_with(&[out.negate()]) == SatResult::Sat {
                return Some((k, self.decode()));
            }
        }
        None
    }

    /// Decodes the current SAT model into a full model tuple (targets
    /// rebuilt from the assignment, non-targets cloned).
    fn decode(&self) -> Vec<Model> {
        let solver = &self.builder.solver;
        let holds = |v: Var| solver.value(v) == Some(true);
        let mut out = Vec::with_capacity(self.originals.len());
        for (orig, mm) in self.originals.iter().zip(&self.muts) {
            let Some(mm) = mm else {
                out.push(orig.clone());
                continue;
            };
            let meta = orig.metamodel();
            let mut m = Model::new(&orig.name.resolve(), Arc::clone(meta));
            for (u, obj) in mm.universe.iter().enumerate() {
                if holds(mm.alive[u]) {
                    m.add_at(obj.id, obj.class).expect("fresh id space");
                }
            }
            for (u, obj) in mm.universe.iter().enumerate() {
                if !holds(mm.alive[u]) {
                    continue;
                }
                let class = meta.class(obj.class);
                for (slot, &attr) in class.all_attrs.iter().enumerate() {
                    let base = mm.attr_vars[mm.attr_at[u] as usize + slot];
                    let domain = self.domains.of(meta.attr(attr).ty);
                    if let Some(i) = (0..domain.len()).find(|&i| holds(Var(base.0 + i as u32))) {
                        m.set_attr(obj.id, attr, domain[i]).expect("typed one-hot");
                    }
                }
                for (slot, &r) in class.all_refs.iter().enumerate() {
                    for &(du, var) in &mm.links[mm.link_at[u] as usize + slot] {
                        if holds(var) && holds(mm.alive[du as usize]) {
                            let dst = mm.universe[du as usize].id;
                            m.add_link(obj.id, r, dst).expect("typed link var");
                        }
                    }
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
    opts: GroundOptions,
    builder: CnfBuilder,
    /// Symbolic state of each model, `None` for the frozen ones.
    muts: Vec<Option<MutModel>>,
    domains: ValueDomain,
    /// The candidates of an object variable: `extents[model][class]`,
    /// filled for every pair some relation variable ranges over.
    extents: Vec<Vec<Vec<GVal>>>,
    cost_items: Vec<(Lit, u64)>,
    instantiations: u64,
    depth: u32,
}

const MAX_GROUND_DEPTH: u32 = 16;

/// A visitor of complete bindings; it returns `true` to stop the
/// enumeration.
type Visit<'v, 'a> = dyn FnMut(&mut Grounder<'a>, &mut GBinding) -> Result<bool, GroundError> + 'v;

/// A conjunction of pattern constraints and `when`/`where` expressions,
/// with the variables an enumeration of it binds.
#[derive(Default)]
struct Part<'a> {
    vars: Vec<VarId>,
    cons: Vec<Constraint>,
    exprs: Vec<&'a HirExpr>,
}

/// A directional check `R_{S→T}` split by what its witness side reads
/// (see the crate docs).
struct Split<'a> {
    /// `D` and `C_D`: the unbound universal variables the witness side
    /// reads, and the universal constraints (and `when`) that read no
    /// variable of `R`.
    d: Part<'a>,
    /// Each connected component `Rᵢ` of `R`, with the constraints `Cᵢ`
    /// (and `when`) that read it.
    comps: Vec<Part<'a>>,
    /// `W`: the target pattern, a generator for each object variable only
    /// `where` reads, and `where`. It binds its unbound variables outside
    /// `D`.
    witness: Part<'a>,
}

impl<'a> Split<'a> {
    /// Splits `rel_{dep}` with the variables of `binding` already bound
    /// (none for a top-level check; the domain roots for a call).
    fn new(rel: &'a HirRelation, dep: Dep, binding: &GBinding) -> Option<Split<'a>> {
        let target = rel.domain_for_model(dep.target)?;
        let unbound = |v: VarId| binding[v.index()].is_none();
        // Universal side: the S patterns, plus a generator for each
        // object variable only `when` reads.
        let mut src: Vec<Constraint> = Vec::new();
        for d in &rel.domains {
            if dep.sources.contains(d.model) {
                src.extend_from_slice(&d.constraints);
            }
        }
        let mut univ: Vec<VarId> = Vec::new();
        for c in &src {
            for v in constraint_vars(c) {
                if unbound(v) && !univ.contains(&v) {
                    univ.push(v);
                }
            }
        }
        let mut when_vars = Vec::new();
        if let Some(when) = &rel.when {
            when.free_vars(&mut when_vars);
        }
        for &v in &when_vars {
            if unbound(v) && !univ.contains(&v) {
                if let VarTy::Obj { model, class } = rel.vars[v.index()].ty {
                    src.push(Constraint::Obj {
                        var: v,
                        model,
                        class,
                    });
                    univ.push(v);
                }
            }
        }
        // Witness side: the T pattern, plus a generator for each object
        // variable only `where` reads.
        let mut witness = Part {
            cons: target.constraints.clone(),
            ..Part::default()
        };
        let mut reads: Vec<VarId> = Vec::new();
        for c in &witness.cons {
            for v in constraint_vars(c) {
                if !reads.contains(&v) {
                    reads.push(v);
                }
            }
        }
        if let Some(wher) = &rel.where_ {
            let mut where_vars = Vec::new();
            wher.free_vars(&mut where_vars);
            for v in where_vars {
                if reads.contains(&v) {
                    continue;
                }
                if unbound(v) && !univ.contains(&v) {
                    if let VarTy::Obj { model, class } = rel.vars[v.index()].ty {
                        witness.cons.push(Constraint::Obj {
                            var: v,
                            model,
                            class,
                        });
                    }
                }
                reads.push(v);
            }
            witness.exprs.push(wher);
        }
        for c in &witness.cons {
            for v in constraint_vars(c) {
                if unbound(v) && !univ.contains(&v) && !witness.vars.contains(&v) {
                    witness.vars.push(v);
                }
            }
        }
        let (d_vars, r_vars): (Vec<VarId>, Vec<VarId>) =
            univ.into_iter().partition(|v| reads.contains(v));
        // R's components: label each variable, and merge the labels of
        // the variables one constraint (or `when`) reads together.
        let mut label: Vec<usize> = (0..r_vars.len()).collect();
        for c in &src {
            merge_labels(&mut label, &r_vars, constraint_vars(c));
        }
        merge_labels(&mut label, &r_vars, when_vars.iter().copied());
        let mut comps: Vec<Part<'a>> = Vec::new();
        let mut comp_of_label: Vec<Option<usize>> = vec![None; r_vars.len()];
        for (i, &v) in r_vars.iter().enumerate() {
            let c = *comp_of_label[label[i]].get_or_insert_with(|| {
                comps.push(Part::default());
                comps.len() - 1
            });
            comps[c].vars.push(v);
        }
        let comp_of = |v: VarId| {
            let i = r_vars.iter().position(|&x| x == v)?;
            comp_of_label[label[i]]
        };
        // What reads a variable of R joins its component; the rest is C_D.
        let mut d = Part {
            vars: d_vars,
            ..Part::default()
        };
        for c in src {
            match constraint_vars(&c).find_map(comp_of) {
                Some(i) => comps[i].cons.push(c),
                None => d.cons.push(c),
            }
        }
        if let Some(when) = &rel.when {
            match when_vars.iter().find_map(|&v| comp_of(v)) {
                Some(i) => comps[i].exprs.push(when),
                None => d.exprs.push(when),
            }
        }
        Some(Split { d, comps, witness })
    }
}

/// Whether class `start` lies on a cycle of the metamodel's class-level
/// containment graph, whose edges run from a class to every concrete
/// class one of its containment references admits. Allocates nothing
/// for a class that contains nothing.
fn on_containment_cycle(meta: &Metamodel, start: ClassId) -> bool {
    let contained = |c: ClassId| {
        meta.class(c)
            .all_refs
            .iter()
            .filter(|&&r| meta.reference(r).containment)
            .flat_map(|&r| {
                meta.concrete_subtypes(meta.reference(r).target)
                    .iter()
                    .copied()
            })
    };
    let mut seen: Vec<ClassId> = Vec::new();
    let mut stack: Vec<ClassId> = contained(start).collect();
    while let Some(c) = stack.pop() {
        if c == start {
            return true;
        }
        if !seen.contains(&c) {
            seen.push(c);
            stack.extend(contained(c));
        }
    }
    false
}

/// Gives every variable of `vars` that is in `r_vars` one label.
fn merge_labels(label: &mut [usize], r_vars: &[VarId], vars: impl Iterator<Item = VarId>) {
    let mut joined: Option<usize> = None;
    for v in vars {
        let Some(i) = r_vars.iter().position(|&x| x == v) else {
            continue;
        };
        let old = label[i];
        match joined {
            None => joined = Some(old),
            Some(new) if new != old => {
                for l in label.iter_mut().filter(|l| **l == old) {
                    *l = new;
                }
            }
            Some(_) => {}
        }
    }
}

impl<'a> Grounder<'a> {
    fn build_universes(&mut self, targets: DomSet) -> Result<(), GroundError> {
        for t in 0..self.models.len() {
            let mm = if targets.contains(DomIdx(t as u8)) {
                Some(self.build_universe(t)?)
            } else {
                None
            };
            self.muts.push(mm);
        }
        Ok(())
    }

    /// The symbolic universe of target model `t`: its variables, the
    /// costs of changing them, and the metamodel's structural
    /// constraints.
    fn build_universe(&mut self, t: usize) -> Result<MutModel, GroundError> {
        let model = &self.models[t];
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
        // Prices saturate, which is exact: the cost counter caps every
        // weight at `max_cost + 1` anyway.
        let weight = self.opts.tuple.weight(t);
        let cost = self.opts.cost;
        // Liveness + object-level costs.
        let mut alive = Vec::with_capacity(universe.len());
        for obj in &universe {
            let v = self.builder.fresh();
            alive.push(v);
            self.cost_items.push(if obj.original {
                (Lit::neg(v), cost.del_obj.saturating_mul(weight))
            } else {
                (Lit::pos(v), cost.add_obj.saturating_mul(weight))
            });
        }
        // Attribute one-hots + change costs.
        let mut attr_at = Vec::with_capacity(universe.len());
        let mut attr_vars = Vec::new();
        let mut lits: Vec<Lit> = Vec::new();
        for (u, obj) in universe.iter().enumerate() {
            attr_at.push(attr_vars.len() as u32);
            for &attr in &meta.class(obj.class).all_attrs {
                let ty = meta.attr(attr).ty;
                let domain = self.domains.of(ty);
                let base = self.builder.fresh_run(domain.len());
                attr_vars.push(base);
                let var = |i: usize| Var(base.0 + i as u32);
                // Exactly one.
                lits.clear();
                lits.extend((0..domain.len()).map(|i| Lit::pos(var(i))));
                self.builder.clause(&lits);
                for i in 0..domain.len() {
                    for j in i + 1..domain.len() {
                        self.builder.clause(&[Lit::neg(var(i)), Lit::neg(var(j))]);
                    }
                }
                // Cost: changed ← alive ∧ (value ≠ baseline).
                let baseline = if obj.original {
                    model.attr(obj.id, attr).expect("original object")
                } else {
                    ty.default_value()
                };
                let chg = Lit::pos(self.builder.fresh());
                for (i, &val) in domain.iter().enumerate() {
                    if val != baseline {
                        self.builder
                            .clause(&[Lit::neg(alive[u]), Lit::neg(var(i)), chg]);
                    }
                }
                self.cost_items
                    .push((chg, cost.set_attr.saturating_mul(weight)));
            }
        }
        // Links + costs + structural constraints.
        let mut link_at = Vec::with_capacity(universe.len());
        let mut links: Vec<Vec<(u32, Var)>> = Vec::new();
        for (su, sobj) in universe.iter().enumerate() {
            link_at.push(links.len() as u32);
            for &r in &meta.class(sobj.class).all_refs {
                let rdecl = meta.reference(r);
                let mut slot: Vec<(u32, Var)> = Vec::new();
                for (du, dobj) in universe.iter().enumerate() {
                    if !meta.conforms(dobj.class, rdecl.target) {
                        continue;
                    }
                    let v = self.builder.fresh();
                    let l = Lit::pos(v);
                    // link → both endpoints alive.
                    self.builder.clause(&[l.negate(), Lit::pos(alive[su])]);
                    self.builder.clause(&[l.negate(), Lit::pos(alive[du])]);
                    let originally_linked =
                        sobj.original && dobj.original && model.has_link(sobj.id, r, dobj.id);
                    if originally_linked {
                        // Removal cost, charged only if both endpoints
                        // survive (otherwise DelObj already paid).
                        let chg = Lit::pos(self.builder.fresh());
                        self.builder
                            .clause(&[Lit::neg(alive[su]), Lit::neg(alive[du]), l, chg]);
                        self.cost_items
                            .push((chg, cost.del_link.saturating_mul(weight)));
                        // A present link defaults to present: no cost
                        // for keeping it.
                    } else {
                        self.cost_items
                            .push((l, cost.add_link.saturating_mul(weight)));
                    }
                    slot.push((du as u32, v));
                }
                // Multiplicity bounds (alive sources only).
                match (rdecl.lower, rdecl.upper) {
                    (0, Upper::Many) => {}
                    (1, Upper::Many) | (1, Upper::Bounded(1)) | (0, Upper::Bounded(1)) => {
                        if rdecl.lower == 1 {
                            // alive → at least one target.
                            lits.clear();
                            lits.push(Lit::neg(alive[su]));
                            lits.extend(slot.iter().map(|&(_, v)| Lit::pos(v)));
                            self.builder.clause(&lits);
                        }
                        if rdecl.upper == Upper::Bounded(1) {
                            for i in 0..slot.len() {
                                for j in i + 1..slot.len() {
                                    self.builder
                                        .clause(&[Lit::neg(slot[i].1), Lit::neg(slot[j].1)]);
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
                links.push(slot);
            }
        }
        // Single-container constraint: at most one containment link into
        // each object.
        let mut incoming: Vec<Vec<Lit>> = vec![Vec::new(); universe.len()];
        for (su, sobj) in universe.iter().enumerate() {
            for (slot, &r) in meta.class(sobj.class).all_refs.iter().enumerate() {
                if meta.reference(r).containment {
                    for &(du, v) in &links[link_at[su] as usize + slot] {
                        incoming[du as usize].push(Lit::pos(v));
                    }
                }
            }
        }
        for into in &incoming {
            for i in 0..into.len() {
                for j in i + 1..into.len() {
                    self.builder.clause(&[into[i].negate(), into[j].negate()]);
                }
            }
        }
        // Acyclic containment, through reach variables over the objects
        // whose class lies on a containment cycle of the metamodel (no
        // other object can close one): R(u, v) ⇐ link(u, v),
        // R(u, w) ⇐ R(u, v) ∧ link(v, w), and ¬R(u, u).
        let cyclic_classes: Vec<ClassId> = meta
            .classes()
            .map(|(c, _)| c)
            .filter(|&c| on_containment_cycle(meta, c))
            .collect();
        let cyclic: Vec<u32> = (0..universe.len() as u32)
            .filter(|&u| cyclic_classes.contains(&universe[u as usize].class))
            .collect();
        let n = cyclic.len();
        let reach_base = self.builder.fresh_run(n * n);
        let reach = |i: usize, j: usize| Var(reach_base.0 + (i * n + j) as u32);
        for i in 0..n {
            self.builder.clause(&[Lit::neg(reach(i, i))]);
        }
        for (i, &su) in cyclic.iter().enumerate() {
            let refs = &meta.class(universe[su as usize].class).all_refs;
            for (slot, &r) in refs.iter().enumerate() {
                if !meta.reference(r).containment {
                    continue;
                }
                for &(du, v) in &links[link_at[su as usize] as usize + slot] {
                    let Ok(j) = cyclic.binary_search(&du) else {
                        continue;
                    };
                    self.builder.clause(&[Lit::neg(v), Lit::pos(reach(i, j))]);
                    for k in 0..n {
                        self.builder.clause(&[
                            Lit::neg(reach(k, i)),
                            Lit::neg(v),
                            Lit::pos(reach(k, j)),
                        ]);
                    }
                }
            }
        }
        Ok(MutModel {
            universe,
            alive,
            attr_at,
            attr_vars,
            link_at,
            links,
        })
    }

    /// Fills `extents` for every `(model, class)` a relation variable
    /// ranges over: the conforming universe objects of a mutable model,
    /// the conforming objects of a frozen one.
    fn build_extents(&mut self) {
        let mut pairs: Vec<(DomIdx, ClassId)> = Vec::new();
        for rel in &self.hir.relations {
            for var in &rel.vars {
                if let VarTy::Obj { model, class } = var.ty {
                    pairs.push((model, class));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        self.extents = self
            .models
            .iter()
            .map(|m| vec![Vec::new(); m.metamodel().class_count()])
            .collect();
        for (model, class) in pairs {
            let m = &self.models[model.index()];
            let extent: Vec<GVal> = match &self.muts[model.index()] {
                Some(mm) => (0..mm.universe.len() as u32)
                    .filter(|&u| m.metamodel().conforms(mm.universe[u as usize].class, class))
                    .map(GVal::MutObj)
                    .collect(),
                None => m.objects_of(class).map(GVal::FrozenObj).collect(),
            };
            self.extents[model.index()][class.index()] = extent;
        }
    }

    fn encode_consistency(&mut self) -> Result<(), GroundError> {
        let hir = self.hir;
        for (rid, rel) in hir.top_relations() {
            for &dep in rel.deps.deps() {
                let f = self.ground_check(rid, dep, vec![None; rel.vars.len()])?;
                self.builder.add_formula(f);
            }
        }
        Ok(())
    }

    /// The symbolic state of a mutable model.
    fn mut_model(&self, model: DomIdx) -> &MutModel {
        self.muts[model.index()]
            .as_ref()
            .expect("universe objects live in mutable models")
    }

    /// Candidate `i` of variable `v`: a value of its type's domain, or an
    /// object of its class's extent; `None` past the last.
    fn candidate(&self, rel: &HirRelation, v: VarId, i: usize) -> Option<GVal> {
        match rel.vars[v.index()].ty {
            VarTy::Prim(ty) => self.domains.of(ty).get(i).map(|&val| GVal::Val(val)),
            VarTy::Obj { model, class } => {
                self.extents[model.index()][class.index()].get(i).copied()
            }
        }
    }

    /// Counts one binding of a check's `D` or of one of its components,
    /// failing past the cap.
    fn instantiate(&mut self) -> Result<(), GroundError> {
        self.instantiations += 1;
        if self.instantiations > self.opts.max_instantiations {
            return Err(GroundError::ScopeTooLarge {
                cap: self.opts.max_instantiations,
            });
        }
        Ok(())
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

    /// `⋀ over D. (C_D ∧ ⋀ᵢ ∃Rᵢ. Cᵢ) → W(D)` (see the crate docs).
    fn ground_check_inner(
        &mut self,
        rid: RelId,
        dep: Dep,
        mut binding: GBinding,
    ) -> Result<Formula, GroundError> {
        let rel: &'a HirRelation = self.hir.relation(rid);
        let split = Split::new(rel, dep, &binding)
            .ok_or(GroundError::NoTargetDomain { relation: rel.name })?;
        // A frozen witness side folds to a constant, and a true one skips
        // the antecedent: try it first.
        let witness_first = self.muts[dep.target.index()].is_none();
        let mut parts: Vec<Formula> = Vec::new();
        self.enum_rec(
            rel,
            &split.d.cons,
            &split.d.vars,
            &mut binding,
            &mut |g, b| {
                g.instantiate()?;
                let c_d = g.conjunction(rel, &split.d, b, dep)?;
                if c_d.is_const(false) {
                    return Ok(false);
                }
                let mut w = None;
                if witness_first {
                    let f = g.exists(rel, &split.witness, b, dep, false)?;
                    if f.is_const(true) {
                        return Ok(false);
                    }
                    w = Some(f);
                }
                let mut antecedent = Vec::with_capacity(split.comps.len() + 1);
                antecedent.push(c_d);
                for comp in &split.comps {
                    let e = g.exists(rel, comp, b, dep, true)?;
                    if e.is_const(false) {
                        return Ok(false);
                    }
                    antecedent.push(e);
                }
                let w = match w {
                    Some(w) => w,
                    None => g.exists(rel, &split.witness, b, dep, false)?,
                };
                parts.push(Formula::implies(Formula::and(antecedent), w));
                Ok(false)
            },
        )?;
        Ok(Formula::and(parts))
    }

    /// `∃ part.vars. part` under `binding`: the disjunction over the
    /// bindings of the part's variables, stopping at the first that folds
    /// to true. With `count`, every binding counts as an instantiation.
    fn exists(
        &mut self,
        rel: &HirRelation,
        part: &Part<'_>,
        binding: &mut GBinding,
        dir: Dep,
        count: bool,
    ) -> Result<Formula, GroundError> {
        let mut alts: Vec<Formula> = Vec::new();
        self.enum_rec(rel, &part.cons, &part.vars, binding, &mut |g, b| {
            if count {
                g.instantiate()?;
            }
            let f = g.conjunction(rel, part, b, dir)?;
            let found = f.is_const(true);
            if !f.is_const(false) {
                alts.push(f);
            }
            Ok(found)
        })?;
        Ok(Formula::or(alts))
    }

    /// The conjunction of a part under a binding of all its variables.
    fn conjunction(
        &mut self,
        rel: &HirRelation,
        part: &Part<'_>,
        binding: &GBinding,
        dir: Dep,
    ) -> Result<Formula, GroundError> {
        let mut conj = Vec::with_capacity(part.cons.len() + part.exprs.len());
        for c in &part.cons {
            let f = self.constraint_formula(rel, c, binding);
            if f.is_const(false) {
                return Ok(f);
            }
            conj.push(f);
        }
        for e in &part.exprs {
            conj.push(self.expr_formula(rel, e, binding, dir)?);
        }
        Ok(Formula::and(conj))
    }

    /// Binds each of `vars` in turn to each of its candidates and calls
    /// `visit` on every complete binding. A branch is pruned as soon as
    /// a constraint of `cons` that reads the variable just bound has all
    /// its variables bound and folds to false. Returns `true` when
    /// `visit` stopped the enumeration. `binding` is restored on return.
    fn enum_rec(
        &mut self,
        rel: &HirRelation,
        cons: &[Constraint],
        vars: &[VarId],
        binding: &mut GBinding,
        visit: &mut Visit<'_, 'a>,
    ) -> Result<bool, GroundError> {
        let Some((&v, rest)) = vars.split_first() else {
            return visit(self, binding);
        };
        let mut stopped = false;
        let mut i = 0;
        while let Some(cand) = self.candidate(rel, v, i) {
            i += 1;
            binding[v.index()] = Some(cand);
            let dead = cons.iter().any(|c| {
                constraint_vars(c).any(|x| x == v)
                    && constraint_vars(c).all(|x| binding[x.index()].is_some())
                    && self.constraint_formula(rel, c, binding).is_const(false)
            });
            if !dead && self.enum_rec(rel, cons, rest, binding, visit)? {
                stopped = true;
                break;
            }
        }
        binding[v.index()] = None;
        Ok(stopped)
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
                    let mm = self.mut_model(model);
                    let meta = self.models[model.index()].metamodel();
                    if meta.conforms(mm.universe[u as usize].class, class) {
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
                    Some(GVal::MutObj(u)) => self.slot_eq_const(model, u, attr, value),
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
                        let meta = self.models[model.index()].metamodel();
                        self.mut_model(model)
                            .link(meta, su, r, du)
                            .map(|v| Formula::Lit(Lit::pos(v)))
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
                Term::Slot(model, u, attr) => self.slot_eq_const(model, u, attr, Value::Bool(true)),
            },
            HirExpr::Cmp(op, a, b) => self.cmp_formula(rel, *op, a, b, binding),
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
            Some(GVal::MutObj(u)) => Term::Slot(model, u, attr),
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
        &self,
        rel: &HirRelation,
        op: CmpOp,
        a: &HirExpr,
        b: &HirExpr,
        binding: &GBinding,
    ) -> Formula {
        let ta = self.value_term(rel, a, binding);
        let tb = self.value_term(rel, b, binding);
        let eq = |x: &Term, y: &Term| -> Formula {
            match (*x, *y) {
                (Term::Const(v1), Term::Const(v2)) => Formula::Const(v1 == v2),
                (Term::ObjConst(o1), Term::ObjConst(o2)) => Formula::Const(o1 == o2),
                (Term::Const(v), Term::Slot(model, u, attr))
                | (Term::Slot(model, u, attr), Term::Const(v)) => {
                    self.slot_eq_const(model, u, attr, v)
                }
                (Term::Slot(m1, u1, a1), Term::Slot(m2, u2, a2)) => {
                    self.slots_eq((m1, u1, a1), (m2, u2, a2))
                }
                _ => Formula::Const(false),
            }
        };
        match op {
            CmpOp::Eq => eq(&ta, &tb),
            CmpOp::Neq => Formula::not(eq(&ta, &tb)),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let cmp_ints = |x: i64, y: i64| match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                    _ => unreachable!(),
                };
                match (ta, tb) {
                    (Term::Const(Value::Int(x)), Term::Const(Value::Int(y))) => {
                        Formula::Const(cmp_ints(x, y))
                    }
                    _ => {
                        let expand = |t: Term| -> Vec<(i64, Formula)> {
                            match t {
                                Term::Const(Value::Int(x)) => {
                                    vec![(x, Formula::Const(true))]
                                }
                                Term::Slot(model, u, attr) => self
                                    .domains
                                    .ints
                                    .iter()
                                    .map(|&v| {
                                        let Value::Int(x) = v else { unreachable!() };
                                        (x, self.slot_eq_const(model, u, attr, v))
                                    })
                                    .collect(),
                                _ => vec![],
                            }
                        };
                        let xs = expand(ta);
                        let ys = expand(tb);
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
        }
    }

    /// `slot == v`: the one-hot variable of `v` in attribute `attr` of
    /// universe object `u`, or false when its domain lacks `v`.
    fn slot_eq_const(&self, model: DomIdx, u: u32, attr: AttrId, v: Value) -> Formula {
        let meta = self.models[model.index()].metamodel();
        if meta.attr(attr).ty != v.ty() {
            return Formula::Const(false);
        }
        match (
            self.mut_model(model).attr_base(meta, u, attr),
            self.domains.pos(v),
        ) {
            (Some(base), Some(i)) => Formula::Lit(Lit::pos(Var(base.0 + i))),
            _ => Formula::Const(false),
        }
    }

    /// `slot1 == slot2`: both attributes hold the same domain value.
    fn slots_eq(
        &self,
        (m1, u1, a1): (DomIdx, u32, AttrId),
        (m2, u2, a2): (DomIdx, u32, AttrId),
    ) -> Formula {
        let (meta1, meta2) = (
            self.models[m1.index()].metamodel(),
            self.models[m2.index()].metamodel(),
        );
        let ty = meta1.attr(a1).ty;
        let bases = (
            self.mut_model(m1).attr_base(meta1, u1, a1),
            self.mut_model(m2).attr_base(meta2, u2, a2),
        );
        let (Some(b1), Some(b2)) = bases else {
            return Formula::Const(false);
        };
        if meta2.attr(a2).ty != ty {
            return Formula::Const(false);
        }
        let n = self.domains.of(ty).len() as u32;
        Formula::or(
            (0..n)
                .map(|i| {
                    Formula::and(vec![
                        Formula::Lit(Lit::pos(Var(b1.0 + i))),
                        Formula::Lit(Lit::pos(Var(b2.0 + i))),
                    ])
                })
                .collect(),
        )
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
        let callee: &'a HirRelation = self.hir.relation(rid);
        let callee_models = callee.domain_models();
        let mut cbinding: GBinding = vec![None; callee.vars.len()];
        for (dom, &arg) in callee.domains.iter().zip(args) {
            cbinding[dom.root.index()] =
                Some(binding[arg.index()].expect("call arguments are bound"));
        }
        if callee_models.contains(dir.target) {
            let t = dir.target;
            let sources = dir.sources.intersect(callee_models).without(t);
            let dep = Dep::new(sources, t).expect("t not in sources");
            return self.ground_check(rid, dep, cbinding);
        }
        // Closed predicate: ∃ extension satisfying all patterns + when +
        // where.
        let mut all = Part::default();
        for d in &callee.domains {
            all.cons.extend_from_slice(&d.constraints);
        }
        for c in &all.cons {
            for v in constraint_vars(c) {
                if cbinding[v.index()].is_none() && !all.vars.contains(&v) {
                    all.vars.push(v);
                }
            }
        }
        all.exprs.extend(callee.when.iter().chain(&callee.where_));
        let inner_dir = Dep {
            sources: callee_models,
            target: dir.target,
        };
        self.exists(callee, &all, &mut cbinding, inner_dir, false)
    }
}

/// A symbolic value term in expressions.
#[derive(Clone, Copy)]
enum Term {
    Const(Value),
    ObjConst(ObjRef),
    /// An attribute of a mutable object: model, universe index, attribute.
    Slot(DomIdx, u32, AttrId),
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

/// The variables a constraint reads: its object, then its value or
/// target variable.
fn constraint_vars(c: &Constraint) -> impl Iterator<Item = VarId> {
    let (obj, other) = match *c {
        Constraint::Obj { var, .. } => (var, None),
        Constraint::AttrEq { obj, rhs, .. } => match rhs {
            Atom::Var(v) => (obj, Some(v)),
            Atom::Lit(_) => (obj, None),
        },
        Constraint::RefContains { obj, dst, .. } => (obj, Some(dst)),
    };
    std::iter::once(obj).chain(other)
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

    /// The cost counter's cells, its width times the cost items, count
    /// against the instantiation cap: at the cap the problem grounds,
    /// one cell past it the typed error names the width.
    #[test]
    fn cost_counter_cells_are_capped() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(F_SRC, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true), ("brakes", true)]),
        ];
        let opts = |max_instantiations| GroundOptions {
            max_cost: 2,
            max_instantiations,
            ..GroundOptions::default()
        };
        let build = |cap| GroundProblem::build(&hir, &models, targets(&[0, 1]), opts(cap));
        let stats = build(u64::MAX).unwrap().stats();
        // Every cost item weighs at least 1, so the width is max_cost + 1.
        let cells = 3 * stats.cost_items as u64;
        assert!(stats.universal_instantiations <= cells);
        assert!(build(cells).is_ok());
        assert_eq!(
            build(cells - 1).err(),
            Some(GroundError::CostCounterTooWide {
                width: 3,
                items: stats.cost_items,
                cap: cells - 1,
            })
        );
    }
}
