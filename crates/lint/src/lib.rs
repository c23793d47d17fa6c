//! # mmt-lint — static analysis over resolved transformations
//!
//! A diagnostics engine over the resolved [`Hir`]: every finding is a
//! [`Lint`] with a stable code (`MMT001`…), a [`Severity`], and a
//! human-readable message, collected into a [`LintReport`] with a text
//! renderer. Three families:
//!
//! - **Well-formedness** (`MMT001`–`MMT007`): unused variables,
//!   primitive variables no domain can bind, statically-unsatisfiable
//!   `when`/`where` clauses, relations unreachable from any top
//!   relation, call cycles, and domains over uninstantiable classes.
//! - **Repair-conflict analysis** (`MMT010`/`MMT011`): the race-detector
//!   analog. Using the same per-model footprints the incremental
//!   [`DeltaChecker`](mmt_check::DeltaChecker) invalidates with
//!   ([`mmt_check::footprint`] — one computation, no drift), flag
//!   relation pairs whose witness-side *write* footprint intersects
//!   another relation's universal *read* footprint: a repair satisfying
//!   one check can re-trigger the other (possible repair ping-pong).
//! - **Grounding-cost estimation** (`MMT020`): static bounds on SAT
//!   grounding size per directional check, warning when growth is
//!   exponential in the object-template degree (the class2rdbms
//!   scaling blocker).
//!
//! Errors should reject a spec at registration time; warnings are
//! advisory. The analysis is conservative: unsatisfiability and
//! conflicts are reported only when definite (soundness argument in
//! ARCHITECTURE.md).
//!
//! ```
//! use mmt_model::text::parse_metamodel;
//! use mmt_qvtr::parse_and_resolve;
//! use mmt_lint::{lint, LintOptions};
//!
//! let mm = parse_metamodel("metamodel M { class A { attr x: Int; } }").unwrap();
//! let hir = parse_and_resolve(
//!     r#"transformation T(l : M, r : M) {
//!       top relation R {
//!         n : Int;
//!         domain l a : A { x = n };
//!         domain r b : A { x = n };
//!         when { n > 3 and n < 2 }
//!       }
//!     }"#,
//!     &[mm],
//! ).unwrap();
//! let report = lint(&hir, &LintOptions::default());
//! assert!(report.has_errors()); // MMT003: `when` is unsatisfiable
//! ```

mod unsat;

use mmt_check::footprint::{check_footprints, CheckFootprints, Footprint};
use mmt_check::EvalError;
use mmt_deps::{Dep, DomIdx};
use mmt_model::Metamodel;
use mmt_qvtr::{Constraint, Hir, HirRelation, RelId, VarId};
use std::fmt;

/// How serious a lint finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but not definitely broken.
    Warn,
    /// The spec is statically broken; registration should reject it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable lint codes. Codes are never reused; gaps are reserved for
/// future lints in the same family (00x well-formedness, 01x
/// repair-conflict, 02x grounding cost).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintCode {
    /// `MMT001`: a declared variable is never used.
    UnusedVariable,
    /// `MMT002`: a directional check cannot bind a primitive variable.
    UnboundPrimVariable,
    /// `MMT003`: `when` is statically unsatisfiable.
    UnsatisfiableWhen,
    /// `MMT004`: `where` is statically unsatisfiable.
    UnsatisfiableWhere,
    /// `MMT005`: a non-top relation is unreachable from any top relation.
    UnreachableRelation,
    /// `MMT006`: relations call each other in a cycle.
    CallCycle,
    /// `MMT007`: a domain ranges over a class with no concrete subtype.
    UninstantiableDomain,
    /// `MMT010`: one relation's repairs write what another reads.
    RepairConflict,
    /// `MMT011`: a bidirectional relation's own directions overlap.
    BidirectionalCoupling,
    /// `MMT020`: SAT grounding size is exponential in template degree.
    GroundingBlowup,
}

impl LintCode {
    /// Every lint code, in catalog order.
    pub const ALL: [LintCode; 10] = [
        LintCode::UnusedVariable,
        LintCode::UnboundPrimVariable,
        LintCode::UnsatisfiableWhen,
        LintCode::UnsatisfiableWhere,
        LintCode::UnreachableRelation,
        LintCode::CallCycle,
        LintCode::UninstantiableDomain,
        LintCode::RepairConflict,
        LintCode::BidirectionalCoupling,
        LintCode::GroundingBlowup,
    ];

    /// The stable code string (`"MMT001"`…).
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnusedVariable => "MMT001",
            LintCode::UnboundPrimVariable => "MMT002",
            LintCode::UnsatisfiableWhen => "MMT003",
            LintCode::UnsatisfiableWhere => "MMT004",
            LintCode::UnreachableRelation => "MMT005",
            LintCode::CallCycle => "MMT006",
            LintCode::UninstantiableDomain => "MMT007",
            LintCode::RepairConflict => "MMT010",
            LintCode::BidirectionalCoupling => "MMT011",
            LintCode::GroundingBlowup => "MMT020",
        }
    }

    /// A short kebab-case name for the lint.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::UnusedVariable => "unused-variable",
            LintCode::UnboundPrimVariable => "unbound-prim-variable",
            LintCode::UnsatisfiableWhen => "unsatisfiable-when",
            LintCode::UnsatisfiableWhere => "unsatisfiable-where",
            LintCode::UnreachableRelation => "unreachable-relation",
            LintCode::CallCycle => "call-cycle",
            LintCode::UninstantiableDomain => "uninstantiable-domain",
            LintCode::RepairConflict => "repair-conflict",
            LintCode::BidirectionalCoupling => "bidirectional-coupling",
            LintCode::GroundingBlowup => "grounding-blowup",
        }
    }

    /// The fixed severity of this lint.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::UnboundPrimVariable
            | LintCode::UnsatisfiableWhen
            | LintCode::UnsatisfiableWhere
            | LintCode::CallCycle
            | LintCode::UninstantiableDomain => Severity::Error,
            LintCode::UnusedVariable
            | LintCode::UnreachableRelation
            | LintCode::RepairConflict
            | LintCode::GroundingBlowup => Severity::Warn,
            LintCode::BidirectionalCoupling => Severity::Info,
        }
    }

    /// Parses a code string (`"MMT001"`) back to the lint.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.code() == s)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Lint {
    /// Which lint fired.
    pub code: LintCode,
    /// The relation the finding anchors to, when there is a single one.
    pub relation: Option<String>,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Lint {
    /// The finding's severity (fixed per code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity(), self.code)?;
        if let Some(r) = &self.relation {
            write!(f, " relation `{r}`:")?;
        }
        write!(f, " {}", self.message)
    }
}

/// Options controlling a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Codes to suppress entirely (the `--allow MMT0xx` mechanism).
    pub allow: Vec<LintCode>,
}

/// The findings of one lint run, in catalog-then-relation order.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, most severe first.
    pub lints: Vec<Lint>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of info-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.lints.iter().filter(|l| l.severity() == s).count()
    }

    /// True when any finding is an error (registration should reject).
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// True when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// Renders the report as human-readable lines plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for l in &self.lints {
            out.push_str(&l.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info(s)\n",
            self.errors(),
            self.warnings(),
            self.infos()
        ));
        out
    }
}

/// Grounding degree (universal + witness object variables) at which
/// `MMT020` fires: SAT grounding size grows as `n^u · (n+slack)^w`, and
/// degree ≥ 4 is the class2rdbms regime where slack growth became the
/// scaling blocker.
pub const GROUNDING_DEGREE_LIMIT: usize = 4;

/// Runs every lint over `hir` and returns the collected report.
/// Findings whose codes appear in `opts.allow` are suppressed.
pub fn lint(hir: &Hir, opts: &LintOptions) -> LintReport {
    let mut lints: Vec<Lint> = Vec::new();

    // Per-(relation, dep) footprints; MMT002 findings fall out of the
    // planning errors.
    let mut fps: Vec<(RelId, Dep, CheckFootprints)> = Vec::new();
    for (i, rel) in hir.relations.iter().enumerate() {
        let rid = RelId(i as u32);
        for &dep in rel.deps.deps() {
            match check_footprints(hir, rid, dep) {
                Ok(f) => fps.push((rid, dep, f)),
                Err(e) => lints.push(unbound_lint(hir, rel, dep, e)),
            }
        }
    }

    for rel in &hir.relations {
        lint_unused(rel, &mut lints);
        lint_uninstantiable(hir, rel, &mut lints);
        lint_unsat(rel, &mut lints);
    }
    lint_reachability(hir, &mut lints);
    lint_cycles(hir, &mut lints);
    lint_conflicts(hir, &fps, &mut lints);
    lint_coupling(hir, &fps, &mut lints);
    lint_grounding(hir, &fps, &mut lints);

    lints.retain(|l| !opts.allow.contains(&l.code));
    lints.sort_by_key(|l| std::cmp::Reverse(l.severity()));
    LintReport { lints }
}

fn unbound_lint(hir: &Hir, rel: &HirRelation, dep: Dep, e: EvalError) -> Lint {
    let tgt = hir.models[dep.target.index()].name;
    let message = match e {
        EvalError::UnboundVar { var, .. } => format!(
            "primitive variable `{var}` cannot be bound when checking towards `{tgt}`: \
             no source or target pattern pins it, and a free primitive ranges over an \
             infinite domain"
        ),
        other => format!("the check towards `{tgt}` cannot be planned: {other}"),
    };
    Lint {
        code: LintCode::UnboundPrimVariable,
        relation: Some(rel.name.to_string()),
        message,
    }
}

fn lint_unused(rel: &HirRelation, lints: &mut Vec<Lint>) {
    let mut used: Vec<VarId> = Vec::new();
    for d in &rel.domains {
        for c in &d.constraints {
            match *c {
                Constraint::Obj { var, .. } => push_var(&mut used, var),
                Constraint::AttrEq { obj, rhs, .. } => {
                    push_var(&mut used, obj);
                    if let mmt_qvtr::Atom::Var(p) = rhs {
                        push_var(&mut used, p);
                    }
                }
                Constraint::RefContains { obj, dst, .. } => {
                    push_var(&mut used, obj);
                    push_var(&mut used, dst);
                }
            }
        }
    }
    for e in [&rel.when, &rel.where_].into_iter().flatten() {
        e.free_vars(&mut used);
    }
    for (i, v) in rel.vars.iter().enumerate() {
        if !used.contains(&VarId(i as u32)) {
            lints.push(Lint {
                code: LintCode::UnusedVariable,
                relation: Some(rel.name.to_string()),
                message: format!("variable `{}` is declared but never used", v.name),
            });
        }
    }
}

fn push_var(out: &mut Vec<VarId>, v: VarId) {
    if !out.contains(&v) {
        out.push(v);
    }
}

fn lint_uninstantiable(hir: &Hir, rel: &HirRelation, lints: &mut Vec<Lint>) {
    for d in &rel.domains {
        let mp = &hir.models[d.model.index()];
        for c in &d.constraints {
            if let Constraint::Obj { var, class, .. } = *c {
                if mp.meta.concrete_subtypes(class).is_empty() {
                    lints.push(Lint {
                        code: LintCode::UninstantiableDomain,
                        relation: Some(rel.name.to_string()),
                        message: format!(
                            "variable `{}` ranges over class `{}` of `{}`, which is \
                             abstract with no concrete subtype — its extent is \
                             necessarily empty",
                            rel.vars[var.index()].name,
                            mp.meta.class(class).name,
                            mp.name
                        ),
                    });
                }
            }
        }
    }
}

fn lint_unsat(rel: &HirRelation, lints: &mut Vec<Lint>) {
    let facts: Vec<&Constraint> = rel.domains.iter().flat_map(|d| &d.constraints).collect();
    let when_reason = rel
        .when
        .as_ref()
        .and_then(|w| unsat::contradiction(rel, &facts, &[w]));
    if let Some(reason) = &when_reason {
        lints.push(Lint {
            code: LintCode::UnsatisfiableWhen,
            relation: Some(rel.name.to_string()),
            message: format!(
                "`when` is statically unsatisfiable ({reason}); the relation never fires"
            ),
        });
    }
    // `where` is evaluated under `when` and the patterns; only report it
    // separately when `when` itself is satisfiable.
    if when_reason.is_none() {
        if let Some(wh) = &rel.where_ {
            let mut exprs: Vec<&mmt_qvtr::HirExpr> = Vec::new();
            if let Some(w) = &rel.when {
                exprs.push(w);
            }
            exprs.push(wh);
            if let Some(reason) = unsat::contradiction(rel, &facts, &exprs) {
                lints.push(Lint {
                    code: LintCode::UnsatisfiableWhere,
                    relation: Some(rel.name.to_string()),
                    message: format!(
                        "`where` is statically unsatisfiable ({reason}); no match can \
                         ever be witnessed"
                    ),
                });
            }
        }
    }
}

/// Call edges of `rel` (callees referenced from `when` or `where`).
fn callees(rel: &HirRelation) -> Vec<RelId> {
    let mut calls = Vec::new();
    for e in [&rel.when, &rel.where_].into_iter().flatten() {
        e.calls(&mut calls);
    }
    let mut out: Vec<RelId> = Vec::new();
    for (rid, _) in calls {
        if !out.contains(&rid) {
            out.push(rid);
        }
    }
    out
}

fn lint_reachability(hir: &Hir, lints: &mut Vec<Lint>) {
    let n = hir.relations.len();
    let mut reachable = vec![false; n];
    let mut stack: Vec<usize> = (0..n).filter(|&i| hir.relations[i].is_top).collect();
    for &i in &stack {
        reachable[i] = true;
    }
    while let Some(i) = stack.pop() {
        for rid in callees(&hir.relations[i]) {
            if !reachable[rid.index()] {
                reachable[rid.index()] = true;
                stack.push(rid.index());
            }
        }
    }
    for (i, rel) in hir.relations.iter().enumerate() {
        if !rel.is_top && !reachable[i] {
            lints.push(Lint {
                code: LintCode::UnreachableRelation,
                relation: Some(rel.name.to_string()),
                message: "non-top relation is never called from any top relation; \
                          it constrains nothing"
                    .into(),
            });
        }
    }
}

fn lint_cycles(hir: &Hir, lints: &mut Vec<Lint>) {
    let n = hir.relations.len();
    // Colors: 0 = unvisited, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    let mut path: Vec<usize> = Vec::new();
    let mut reported: Vec<Vec<usize>> = Vec::new();
    fn dfs(
        hir: &Hir,
        i: usize,
        color: &mut [u8],
        path: &mut Vec<usize>,
        reported: &mut Vec<Vec<usize>>,
        lints: &mut Vec<Lint>,
    ) {
        color[i] = 1;
        path.push(i);
        for rid in callees(&hir.relations[i]) {
            let j = rid.index();
            match color[j] {
                0 => dfs(hir, j, color, path, reported, lints),
                1 => {
                    let start = path.iter().position(|&p| p == j).unwrap();
                    let mut cycle: Vec<usize> = path[start..].to_vec();
                    let mut key = cycle.clone();
                    key.sort_unstable();
                    if !reported.contains(&key) {
                        reported.push(key);
                        cycle.push(j);
                        let names: Vec<String> = cycle
                            .iter()
                            .map(|&k| format!("`{}`", hir.relations[k].name))
                            .collect();
                        lints.push(Lint {
                            code: LintCode::CallCycle,
                            relation: None,
                            message: format!(
                                "relations call each other in a cycle: {} — evaluation \
                                 would hit the recursion limit",
                                names.join(" -> ")
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        path.pop();
        color[i] = 2;
    }
    for i in 0..n {
        if color[i] == 0 {
            dfs(hir, i, &mut color, &mut path, &mut reported, lints);
        }
    }
}

fn fmt_overlap(meta: &Metamodel, o: &Footprint) -> String {
    let mut parts: Vec<String> = Vec::new();
    for &c in &o.classes {
        parts.push(format!("class `{}`", meta.class(c).name));
    }
    for &a in &o.attrs {
        let at = meta.attr(a);
        parts.push(format!(
            "attribute `{}.{}`",
            meta.class(at.owner).name,
            at.name
        ));
    }
    for &r in &o.refs {
        let rf = meta.reference(r);
        parts.push(format!(
            "reference `{}.{}`",
            meta.class(rf.owner).name,
            rf.name
        ));
    }
    parts.join(", ")
}

fn lint_conflicts(hir: &Hir, fps: &[(RelId, Dep, CheckFootprints)], lints: &mut Vec<Lint>) {
    let mut seen: Vec<(RelId, RelId, DomIdx)> = Vec::new();
    for (a, dep_a, fa) in fps {
        let m = dep_a.target;
        let writes = &fa.wit[m.index()];
        if writes.is_empty() {
            continue;
        }
        let meta = &hir.models[m.index()].meta;
        for (b, _dep_b, fb) in fps {
            if a == b || seen.contains(&(*a, *b, m)) {
                continue;
            }
            let mut reads = fb.uni[m.index()].clone();
            let call = &fb.call[m.index()];
            for &c in &call.classes {
                reads.add_class(c);
            }
            for &at in &call.attrs {
                reads.add_attr(at);
            }
            for &r in &call.refs {
                reads.add_ref(r);
            }
            let o = writes.overlap(&reads, meta);
            if !o.is_empty() {
                seen.push((*a, *b, m));
                lints.push(Lint {
                    code: LintCode::RepairConflict,
                    relation: Some(hir.relations[a.index()].name.to_string()),
                    message: format!(
                        "repairing `{}` towards `{}` may write {} that `{}` reads \
                         universally — repairs of one relation can re-trigger the \
                         other (possible repair ping-pong)",
                        hir.relations[a.index()].name,
                        hir.models[m.index()].name,
                        fmt_overlap(meta, &o),
                        hir.relations[b.index()].name,
                    ),
                });
            }
        }
    }
}

fn lint_coupling(hir: &Hir, fps: &[(RelId, Dep, CheckFootprints)], lints: &mut Vec<Lint>) {
    let mut seen: Vec<RelId> = Vec::new();
    for (a, dep_a, fa) in fps {
        if seen.contains(a) {
            continue;
        }
        let m = dep_a.target;
        for (b, dep_b, fb) in fps {
            if a != b || dep_a == dep_b || !dep_b.sources.contains(m) {
                continue;
            }
            let meta = &hir.models[m.index()].meta;
            let o = fa.wit[m.index()].overlap(&fb.uni[m.index()], meta);
            if !o.is_empty() {
                seen.push(*a);
                lints.push(Lint {
                    code: LintCode::BidirectionalCoupling,
                    relation: Some(hir.relations[a.index()].name.to_string()),
                    message: format!(
                        "bidirectionally coupled on `{}` ({}): repairs in one \
                         direction re-enter the opposite check — convergence relies \
                         on least-change repair, not on the spec",
                        hir.models[m.index()].name,
                        fmt_overlap(meta, &o),
                    ),
                });
                break;
            }
        }
    }
}

fn lint_grounding(hir: &Hir, fps: &[(RelId, Dep, CheckFootprints)], lints: &mut Vec<Lint>) {
    let mut seen: Vec<RelId> = Vec::new();
    for (rid, dep, f) in fps {
        let k = f.uni_obj_vars + f.wit_obj_vars;
        if k >= GROUNDING_DEGREE_LIMIT && !seen.contains(rid) {
            seen.push(*rid);
            lints.push(Lint {
                code: LintCode::GroundingBlowup,
                relation: Some(hir.relations[rid.index()].name.to_string()),
                message: format!(
                    "checking towards `{}` enumerates {} universal and {} witness \
                     object variables: SAT grounding size grows as \
                     n^{} x (n+slack)^{} — exponential in template degree {k}; \
                     deep templates block scaling the seed tuple",
                    hir.models[dep.target.index()].name,
                    f.uni_obj_vars,
                    f.wit_obj_vars,
                    f.uni_obj_vars,
                    f.wit_obj_vars,
                ),
            });
        }
    }
}
