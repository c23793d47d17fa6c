//! Resolved, typed representation of a transformation (HIR).
//!
//! Produced by [`mod@crate::resolve`] from the parsed AST plus the concrete
//! metamodels. All names are resolved to ids: classes/attributes/references
//! to metamodel ids, variables to [`VarId`]s, relations to [`RelId`]s, and
//! model parameters to [`DomIdx`]s in the transformation's *model space*.
//!
//! Dependency sets ([`DepSet`]) are expressed over the model space, so the
//! §2.3 call-direction typing rule is a direct Horn entailment.

use crate::ast::CmpOp;
use mmt_deps::{DepSet, DomIdx};
use mmt_model::{AttrId, AttrType, ClassId, Metamodel, RefId, Sym, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a variable within one relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into the relation's variable table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a relation within one transformation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RelId(pub u32);

impl RelId {
    /// Index into the transformation's relation table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The type of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarTy {
    /// Primitive (attribute-valued) variable.
    Prim(AttrType),
    /// Object variable bound by a template over `class` in model `model`.
    Obj {
        /// Model-space index the object lives in.
        model: DomIdx,
        /// Static class of the variable.
        class: ClassId,
    },
}

/// A variable: name plus type.
#[derive(Clone, Debug)]
pub struct HirVar {
    /// Source name.
    pub name: Sym,
    /// Resolved type.
    pub ty: VarTy,
}

/// A literal or variable in pattern-constraint position.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Atom {
    /// Constant value.
    Lit(Value),
    /// Variable reference (primitive-typed).
    Var(VarId),
}

/// One flattened pattern constraint.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Constraint {
    /// `var` ranges over the extent of `class` in model `model`
    /// (generator; one per template, root or nested).
    Obj {
        /// The object variable.
        var: VarId,
        /// Model it ranges over.
        model: DomIdx,
        /// Class whose extent it ranges over.
        class: ClassId,
    },
    /// `obj.attr = rhs`.
    AttrEq {
        /// Object variable.
        obj: VarId,
        /// Attribute.
        attr: AttrId,
        /// Right-hand side.
        rhs: Atom,
    },
    /// `dst ∈ obj.r` — the reference slot contains the target object.
    RefContains {
        /// Source object variable.
        obj: VarId,
        /// Reference.
        r: RefId,
        /// Target object variable.
        dst: VarId,
    },
}

/// A resolved domain: root template flattened into constraints.
#[derive(Clone, Debug)]
pub struct HirDomain {
    /// Model-space index this domain patterns over.
    pub model: DomIdx,
    /// Root object variable.
    pub root: VarId,
    /// Root class.
    pub class: ClassId,
    /// Flattened constraints (root `Obj` constraint first).
    pub constraints: Vec<Constraint>,
    /// All variables occurring in this domain's pattern.
    pub vars: Vec<VarId>,
}

/// A resolved `when`/`where` expression.
#[derive(Clone, Debug, PartialEq)]
pub enum HirExpr {
    /// Literal.
    Lit(Value),
    /// Variable (primitive or object; object vars compare by identity).
    Var(VarId),
    /// Attribute navigation.
    Nav(VarId, AttrId),
    /// Comparison.
    Cmp(CmpOp, Box<HirExpr>, Box<HirExpr>),
    /// Conjunction.
    And(Box<HirExpr>, Box<HirExpr>),
    /// Disjunction.
    Or(Box<HirExpr>, Box<HirExpr>),
    /// Implication.
    Implies(Box<HirExpr>, Box<HirExpr>),
    /// Negation.
    Not(Box<HirExpr>),
    /// Relation invocation: args bind the callee's domain roots in order.
    Call(RelId, Vec<VarId>),
}

impl HirExpr {
    /// Collects the variables free in this expression into `out`,
    /// **deduplicated**: each variable appears at most once (counting
    /// entries already in `out`), in first-occurrence order.
    pub fn free_vars(&self, out: &mut Vec<VarId>) {
        fn push(out: &mut Vec<VarId>, v: VarId) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        match self {
            HirExpr::Lit(_) => {}
            HirExpr::Var(v) => push(out, *v),
            HirExpr::Nav(v, _) => push(out, *v),
            HirExpr::Cmp(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            HirExpr::And(a, b) | HirExpr::Or(a, b) | HirExpr::Implies(a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            HirExpr::Not(a) => a.free_vars(out),
            HirExpr::Call(_, args) => {
                for v in args {
                    push(out, *v);
                }
            }
        }
    }

    /// Collects every call in the expression into `out`,
    /// **deduplicated**: a syntactically repeated invocation (same callee,
    /// same argument list, counting entries already in `out`) appears
    /// once, in first-occurrence order.
    pub fn calls(&self, out: &mut Vec<(RelId, Vec<VarId>)>) {
        match self {
            HirExpr::Cmp(_, a, b) => {
                a.calls(out);
                b.calls(out);
            }
            HirExpr::And(a, b) | HirExpr::Or(a, b) | HirExpr::Implies(a, b) => {
                a.calls(out);
                b.calls(out);
            }
            HirExpr::Not(a) => a.calls(out),
            HirExpr::Call(r, args) if !out.iter().any(|(rid, a)| rid == r && a == args) => {
                out.push((*r, args.clone()));
            }
            _ => {}
        }
    }
}

/// A resolved relation.
#[derive(Clone, Debug)]
pub struct HirRelation {
    /// Relation name.
    pub name: Sym,
    /// Whether declared `top` (checked directly; non-top only when called).
    pub is_top: bool,
    /// Variable table.
    pub vars: Vec<HirVar>,
    /// Domains, in declaration order. Each references a distinct model.
    pub domains: Vec<HirDomain>,
    /// Optional pre-condition.
    pub when: Option<HirExpr>,
    /// Optional post-condition.
    pub where_: Option<HirExpr>,
    /// Attached checking dependencies `R̄`, over the transformation's model
    /// space. Defaults to the standard semantics over this relation's
    /// domain models when no `depend` clause is given (§2.2 conservativity).
    pub deps: DepSet,
}

impl HirRelation {
    /// The set of model indices this relation has domains over.
    pub fn domain_models(&self) -> mmt_deps::DomSet {
        mmt_deps::DomSet::from_iter(self.domains.iter().map(|d| d.model))
    }

    /// The domain over model `m`, if any.
    pub fn domain_for_model(&self, m: DomIdx) -> Option<&HirDomain> {
        self.domains.iter().find(|d| d.model == m)
    }

    /// Variable lookup by name.
    pub fn var_named(&self, name: Sym) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }
}

/// A model parameter of the transformation.
#[derive(Clone, Debug)]
pub struct ModelParam {
    /// Parameter name (e.g. `cf1`).
    pub name: Sym,
    /// Metamodel it conforms to.
    pub meta: Arc<Metamodel>,
}

/// A fully resolved transformation.
#[derive(Clone, Debug)]
pub struct Hir {
    /// Transformation name.
    pub name: Sym,
    /// Model parameters; their order defines the model space (`DomIdx`).
    pub models: Vec<ModelParam>,
    /// Relations, `RelId`-indexed.
    pub relations: Vec<HirRelation>,
    rel_by_name: HashMap<Sym, RelId>,
}

impl Hir {
    /// Builds the transformation, indexing relations by name.
    pub fn new(name: Sym, models: Vec<ModelParam>, relations: Vec<HirRelation>) -> Hir {
        let rel_by_name = relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name, RelId(i as u32)))
            .collect();
        Hir {
            name,
            models,
            relations,
            rel_by_name,
        }
    }

    /// Number of model parameters (the model-space arity).
    pub fn arity(&self) -> usize {
        self.models.len()
    }

    /// Relation lookup by id.
    pub fn relation(&self, id: RelId) -> &HirRelation {
        &self.relations[id.index()]
    }

    /// Relation lookup by name. Interns nothing.
    pub fn relation_named(&self, name: &str) -> Option<RelId> {
        self.rel_by_name.get(&Sym::lookup(name)?).copied()
    }

    /// Model-parameter lookup by name. Interns nothing.
    pub fn model_named(&self, name: &str) -> Option<DomIdx> {
        let sym = Sym::lookup(name)?;
        self.models
            .iter()
            .position(|m| m.name == sym)
            .map(|i| DomIdx(i as u8))
    }

    /// Iterates over top relations.
    pub fn top_relations(&self) -> impl Iterator<Item = (RelId, &HirRelation)> {
        self.relations
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_top)
            .map(|(i, r)| (RelId(i as u32), r))
    }
}

impl fmt::Display for Hir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transformation {}(", self.name)?;
        for (i, m) in self.models.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} : {}", m.name, m.meta.name)?;
        }
        writeln!(f, ") — {} relations", self.relations.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(i: u32) -> HirExpr {
        HirExpr::Var(VarId(i))
    }

    /// ISSUE 8 satellite: `free_vars` output is deduplicated in
    /// first-occurrence order — callers no longer need the ad-hoc
    /// `sort_unstable(); dedup();` dance (and the ones treating the
    /// result as a set iterate each variable exactly once).
    #[test]
    fn free_vars_deduplicates_in_first_occurrence_order() {
        // (v1 = v0) and (v0.a = v2) and not (v1 = v2)
        let e = HirExpr::And(
            Box::new(HirExpr::And(
                Box::new(HirExpr::Cmp(CmpOp::Eq, Box::new(var(1)), Box::new(var(0)))),
                Box::new(HirExpr::Cmp(
                    CmpOp::Eq,
                    Box::new(HirExpr::Nav(VarId(0), mmt_model::AttrId(0))),
                    Box::new(var(2)),
                )),
            )),
            Box::new(HirExpr::Not(Box::new(HirExpr::Cmp(
                CmpOp::Eq,
                Box::new(var(1)),
                Box::new(var(2)),
            )))),
        );
        let mut fv = Vec::new();
        e.free_vars(&mut fv);
        assert_eq!(fv, vec![VarId(1), VarId(0), VarId(2)]);
    }

    /// Entries already in `out` count as seen: pre-seeded vectors are
    /// extended, never duplicated (the `plan_check` accumulation style).
    #[test]
    fn free_vars_respects_preexisting_entries() {
        let e = HirExpr::And(
            Box::new(var(3)),
            Box::new(HirExpr::Call(RelId(0), vec![VarId(1), VarId(4)])),
        );
        let mut fv = vec![VarId(1), VarId(3)];
        e.free_vars(&mut fv);
        assert_eq!(fv, vec![VarId(1), VarId(3), VarId(4)]);
    }

    /// `calls` deduplicates syntactically identical invocations but keeps
    /// same-callee calls with different argument lists distinct.
    #[test]
    fn calls_deduplicates_identical_invocations() {
        let call = |r: u32, args: &[u32]| {
            HirExpr::Call(RelId(r), args.iter().map(|&i| VarId(i)).collect())
        };
        let e = HirExpr::And(
            Box::new(HirExpr::And(
                Box::new(call(0, &[1, 2])),
                Box::new(call(0, &[1, 2])),
            )),
            Box::new(HirExpr::Or(
                Box::new(call(0, &[2, 1])),
                Box::new(HirExpr::Not(Box::new(call(1, &[1, 2])))),
            )),
        );
        let mut cs = Vec::new();
        e.calls(&mut cs);
        assert_eq!(
            cs,
            vec![
                (RelId(0), vec![VarId(1), VarId(2)]),
                (RelId(0), vec![VarId(2), VarId(1)]),
                (RelId(1), vec![VarId(1), VarId(2)]),
            ]
        );
    }
}
