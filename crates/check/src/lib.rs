//! # mmt-check — QVT-R checkonly evaluation engine
//!
//! Evaluates the consistency of a model tuple against a resolved
//! transformation ([`mmt_qvtr::Hir`]), under the paper's *extended checking
//! semantics*: each top relation `R` contributes one directional check per
//! attached dependency `S → T` (§2.2), and consistency is their
//! conjunction. The standard semantics is the special case where every
//! relation carries the `{dom R ∖ Mᵢ → Mᵢ}` dependency set.
//!
//! ```
//! use mmt_model::text::{parse_metamodel, parse_model};
//! use mmt_qvtr::parse_and_resolve;
//! use mmt_check::Checker;
//!
//! let cf = parse_metamodel("metamodel CF { class Feature { attr name: Str; } }").unwrap();
//! let fm = parse_metamodel(
//!     "metamodel FM { class Feature { attr name: Str; attr mandatory: Bool; } }").unwrap();
//! let hir = parse_and_resolve(r#"
//! transformation F(cf1 : CF, cf2 : CF, fm : FM) {
//!   top relation MF {
//!     n : Str;
//!     domain cf1 s1 : Feature { name = n };
//!     domain cf2 s2 : Feature { name = n };
//!     domain fm  f  : Feature { name = n, mandatory = true };
//!     depend cf1 cf2 -> fm;
//!     depend fm -> cf1 cf2;
//!   }
//! }"#, &[cf.clone(), fm.clone()]).unwrap();
//! let m_cf1 = parse_model(r#"model cf1 : CF { f = Feature { name = "engine" } }"#, &cf).unwrap();
//! let m_cf2 = parse_model(r#"model cf2 : CF { f = Feature { name = "engine" } }"#, &cf).unwrap();
//! let m_fm = parse_model(
//!     r#"model fm : FM { f = Feature { name = "engine", mandatory = true } }"#, &fm).unwrap();
//! let models = [m_cf1, m_cf2, m_fm];
//! let report = Checker::new(&hir, &models).unwrap().check().unwrap();
//! assert!(report.consistent());
//! ```

pub mod delta;
pub mod eval;
pub mod footprint;
pub mod index;

pub use delta::{DeltaChecker, DeltaError, DeltaStats};
pub use eval::{Binding, EvalCtx, EvalError, EvalStats, Slot};
pub use footprint::{check_footprints, CheckFootprints, Footprint};
pub use index::ModelIndex;

use mmt_deps::Dep;
use mmt_model::{Model, Sym};
use mmt_qvtr::{Hir, RelId};
use std::fmt;

/// Options controlling a check run.
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// Ignored: relation calls are always memoized and witness probes
    /// never are. Kept only so existing struct literals still compile.
    pub memoize: bool,
    /// Maximum counterexample bindings recorded per directional check.
    pub max_violations: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            memoize: true,
            max_violations: 8,
        }
    }
}

/// Errors raised when binding models to a transformation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// Wrong number of models supplied.
    ModelCountMismatch {
        /// Expected (the transformation's arity).
        expected: usize,
        /// Supplied.
        got: usize,
    },
    /// A model conforms to a different metamodel than its parameter.
    MetamodelMismatch {
        /// Model-space position.
        position: usize,
        /// Expected metamodel name.
        expected: Sym,
        /// Supplied metamodel name.
        got: Sym,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::ModelCountMismatch { expected, got } => {
                write!(f, "expected {expected} models, got {got}")
            }
            CheckError::MetamodelMismatch {
                position,
                expected,
                got,
            } => write!(
                f,
                "model #{position} conforms to `{got}`, parameter expects `{expected}`"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// One universal binding lacking a witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationBinding {
    /// `(variable name, rendered value)` pairs for the bound variables.
    pub vars: Vec<(Sym, String)>,
}

impl fmt::Display for ViolationBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (name, val)) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = {val}")?;
        }
        write!(f, "]")
    }
}

/// The outcome of one directional check `R_{S→T}`.
#[derive(Clone, Debug)]
pub struct DirectionalOutcome {
    /// Relation id.
    pub relation: RelId,
    /// Relation name.
    pub relation_name: Sym,
    /// The dependency that induced this check.
    pub dep: Dep,
    /// Whether the check holds.
    pub holds: bool,
    /// Recorded counterexamples (capped by
    /// [`CheckOptions::max_violations`]).
    pub violations: Vec<ViolationBinding>,
}

/// The outcome of checking a whole model tuple.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Per-directional-check outcomes, in relation/dependency order.
    pub checks: Vec<DirectionalOutcome>,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl CheckReport {
    /// True iff every directional check of every top relation holds.
    pub fn consistent(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// The failing directional checks.
    pub fn failures(&self) -> impl Iterator<Item = &DirectionalOutcome> {
        self.checks.iter().filter(|c| !c.holds)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "{} {}: {}",
                c.relation_name,
                c.dep,
                if c.holds { "holds" } else { "VIOLATED" }
            )?;
            for v in &c.violations {
                writeln!(f, "  counterexample {v}")?;
            }
        }
        write!(
            f,
            "=> {}",
            if self.consistent() {
                "consistent"
            } else {
                "inconsistent"
            }
        )
    }
}

/// Binds a transformation to a model tuple and runs checkonly evaluation.
///
/// `Checker` is `Send + Sync` (no interior mutability anywhere in the
/// evaluation stack): one checker can serve concurrent [`Checker::check`]
/// calls from multiple threads, each running through its own
/// [`EvalCtx`].
#[derive(Debug)]
pub struct Checker<'a> {
    hir: &'a Hir,
    models: &'a [Model],
    indexes: Vec<ModelIndex>,
    opts: CheckOptions,
}

impl<'a> Checker<'a> {
    /// Binds `models` (in model-space order) to the transformation.
    pub fn new(hir: &'a Hir, models: &'a [Model]) -> Result<Checker<'a>, CheckError> {
        Checker::with_options(hir, models, CheckOptions::default())
    }

    /// As [`Checker::new`] with explicit options.
    pub fn with_options(
        hir: &'a Hir,
        models: &'a [Model],
        opts: CheckOptions,
    ) -> Result<Checker<'a>, CheckError> {
        if models.len() != hir.arity() {
            return Err(CheckError::ModelCountMismatch {
                expected: hir.arity(),
                got: models.len(),
            });
        }
        for (i, (m, p)) in models.iter().zip(&hir.models).enumerate() {
            if m.metamodel().name != p.meta.name {
                return Err(CheckError::MetamodelMismatch {
                    position: i,
                    expected: p.meta.name,
                    got: m.metamodel().name,
                });
            }
        }
        let indexes = models.iter().map(ModelIndex::build).collect();
        Ok(Checker {
            hir,
            models,
            indexes,
            opts,
        })
    }

    /// Runs every directional check of every top relation.
    pub fn check(&self) -> Result<CheckReport, EvalError> {
        let mut ctx = EvalCtx::new(self.hir, self.models, &self.indexes);
        let mut checks = Vec::new();
        for (rid, rel) in self.hir.top_relations() {
            for &dep in rel.deps.deps() {
                let mut violations = Vec::new();
                let max = self.opts.max_violations;
                let holds = ctx.check_dep(rid, dep, &mut |r, binding| {
                    if violations.len() < max {
                        let vars = binding
                            .iter()
                            .enumerate()
                            .filter_map(|(i, slot)| slot.map(|s| (r.vars[i].name, s.to_string())))
                            .collect();
                        violations.push(ViolationBinding { vars });
                    }
                    violations.len() < max
                })?;
                checks.push(DirectionalOutcome {
                    relation: rid,
                    relation_name: rel.name,
                    dep,
                    holds,
                    violations,
                });
            }
        }
        Ok(CheckReport {
            checks,
            stats: ctx.stats(),
        })
    }

    /// Convenience: true iff the tuple is consistent.
    pub fn consistent(&self) -> Result<bool, EvalError> {
        Ok(self.check()?.consistent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_model::text::{parse_metamodel, parse_model};
    use mmt_model::{Metamodel, Model};
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

    /// The paper's MF with the extended dependency set.
    const MF_EXT: &str = r#"
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

    /// The same relation with the standard semantics (no depend clauses).
    const MF_STD: &str = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  top relation MF {
    n : Str;
    domain cf1 s1 : Feature { name = n };
    domain cf2 s2 : Feature { name = n };
    domain fm  f  : Feature { name = n, mandatory = true };
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

    /// The whole checking stack is free of interior mutability: checkers
    /// (and the eval context itself) can cross and be shared between
    /// threads. Sync sessions, each owning a `DeltaChecker`, rely on
    /// this to be shared across a hub's threads.
    #[test]
    fn checkers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_static<T: 'static>() {}
        assert_send_sync::<Checker<'static>>();
        assert_send_sync::<crate::DeltaChecker>();
        assert_static::<crate::DeltaChecker>();
        assert_send_sync::<crate::EvalCtx<'static>>();
        assert_send_sync::<CheckReport>();
    }

    /// A shared `Checker` really is usable from concurrent threads.
    #[test]
    fn shared_checker_checks_concurrently() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let checker = Checker::new(&hir, &models).unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| checker.check().unwrap().consistent()))
                .collect();
            for h in handles {
                assert!(h.join().unwrap());
            }
        });
    }

    #[test]
    fn consistent_triple_accepted_by_both_semantics() {
        let (cf, fm) = metamodels();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true), ("radio", false)]),
        ];
        for src in [MF_EXT, MF_STD] {
            let hir = parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap();
            let report = Checker::new(&hir, &models).unwrap().check().unwrap();
            assert!(report.consistent(), "{src}\n{report}");
        }
    }

    /// §2.1's central claim: with empty configurations, the standard
    /// semantics *accepts* a triple where a mandatory feature is selected
    /// nowhere (the universal quantification has empty range), while the
    /// extended dependencies `{FM → CF₁, FM → CF₂}` reject it.
    #[test]
    fn empty_range_loophole() {
        let (cf, fm) = metamodels();
        let models = [
            cf_model(&cf, "cf1", &[]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let std_hir = parse_and_resolve(MF_STD, &[cf.clone(), fm.clone()]).unwrap();
        let std_report = Checker::new(&std_hir, &models).unwrap().check().unwrap();
        assert!(
            std_report.consistent(),
            "standard semantics is blind to the missing selection:\n{std_report}"
        );

        let ext_hir = parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap();
        let ext_report = Checker::new(&ext_hir, &models).unwrap().check().unwrap();
        assert!(!ext_report.consistent());
        // Both FM→CF directions fail, each with the `engine` binding.
        let failures: Vec<_> = ext_report.failures().collect();
        assert_eq!(failures.len(), 2);
        assert!(failures[0].violations[0]
            .vars
            .iter()
            .any(|(_, v)| v.contains("engine")));
    }

    /// A feature selected in both configurations but not mandatory in the
    /// feature model violates CF₁ CF₂ → FM under both semantics.
    #[test]
    fn common_selection_must_be_mandatory() {
        let (cf, fm) = metamodels();
        let models = [
            cf_model(&cf, "cf1", &["radio"]),
            cf_model(&cf, "cf2", &["radio"]),
            fm_model(&fm, &[("radio", false)]),
        ];
        for src in [MF_EXT, MF_STD] {
            let hir = parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap();
            let report = Checker::new(&hir, &models).unwrap().check().unwrap();
            assert!(!report.consistent(), "{src}");
        }
    }

    /// A feature selected in only one configuration is *not* constrained by
    /// MF (it need not be mandatory).
    #[test]
    fn one_sided_selection_unconstrained() {
        let (cf, fm) = metamodels();
        let models = [
            cf_model(&cf, "cf1", &["engine", "radio"]),
            cf_model(&cf, "cf2", &["engine"]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let hir = parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap();
        let report = Checker::new(&hir, &models).unwrap().check().unwrap();
        assert!(report.consistent(), "{report}");
    }

    /// The paper's OF relation: every selected feature must exist in FM —
    /// realized with `{CF₁ → FM, CF₂ → FM}` (source-union sugar).
    #[test]
    fn of_relation_union_sources() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  top relation OF {
    n : Str;
    domain cf1 s1 : Feature { name = n };
    domain cf2 s2 : Feature { name = n };
    domain fm  f  : Feature { name = n };
    depend cf1 | cf2 -> fm;
  }
}
"#;
        let hir = parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap();
        // radio selected in cf2 but absent from fm → inconsistent.
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["radio"]),
            fm_model(&fm, &[("engine", false)]),
        ];
        let report = Checker::new(&hir, &models).unwrap().check().unwrap();
        assert!(!report.consistent());
        // Adding radio to fm repairs it.
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &["radio"]),
            fm_model(&fm, &[("engine", false), ("radio", false)]),
        ];
        let report = Checker::new(&hir, &models).unwrap().check().unwrap();
        assert!(report.consistent(), "{report}");
    }

    #[test]
    fn when_filters_universal_bindings() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  top relation R {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n };
    when { not (n = "legacy") }
    depend cf1 -> fm;
  }
}
"#;
        let hir = parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap();
        // `legacy` is filtered out by when, so its absence from fm is fine.
        let models = [
            cf_model(&cf, "cf1", &["engine", "legacy"]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", false)]),
        ];
        let report = Checker::new(&hir, &models).unwrap().check().unwrap();
        assert!(report.consistent(), "{report}");
    }

    #[test]
    fn where_constrains_witness() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  top relation R {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n };
    where { f.mandatory = true }
    depend cf1 -> fm;
  }
}
"#;
        let hir = parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap();
        let ok = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", true)]),
        ];
        assert!(Checker::new(&hir, &ok).unwrap().consistent().unwrap());
        let bad = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", false)]),
        ];
        assert!(!Checker::new(&hir, &bad).unwrap().consistent().unwrap());
    }

    #[test]
    fn relation_call_in_where() {
        let (cf, fm) = metamodels();
        let src = r#"
transformation F(cf1 : CF, cf2 : CF, fm : FM) {
  relation SameName {
    m : Str;
    domain cf1 a : Feature { name = m };
    domain fm  b : Feature { name = m };
    depend cf1 -> fm;
  }
  top relation R {
    n : Str;
    domain cf1 s : Feature { name = n };
    domain fm  f : Feature { name = n };
    where { SameName(s, f) }
    depend cf1 -> fm;
  }
}
"#;
        let hir = parse_and_resolve(src, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &["engine"]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let report = Checker::new(&hir, &models).unwrap().check().unwrap();
        assert!(report.consistent(), "{report}");
    }

    #[test]
    fn model_binding_validated() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap();
        let short = [cf_model(&cf, "cf1", &[])];
        assert!(matches!(
            Checker::new(&hir, &short).unwrap_err(),
            CheckError::ModelCountMismatch {
                expected: 3,
                got: 1
            }
        ));
        let wrong = [
            cf_model(&cf, "cf1", &[]),
            fm_model(&fm, &[]),
            fm_model(&fm, &[]),
        ];
        assert!(matches!(
            Checker::new(&hir, &wrong).unwrap_err(),
            CheckError::MetamodelMismatch { position: 1, .. }
        ));
    }

    #[test]
    fn report_display_mentions_failures() {
        let (cf, fm) = metamodels();
        let hir = parse_and_resolve(MF_EXT, &[cf.clone(), fm.clone()]).unwrap();
        let models = [
            cf_model(&cf, "cf1", &[]),
            cf_model(&cf, "cf2", &[]),
            fm_model(&fm, &[("engine", true)]),
        ];
        let report = Checker::new(&hir, &models).unwrap().check().unwrap();
        let shown = report.to_string();
        assert!(shown.contains("VIOLATED"));
        assert!(shown.contains("inconsistent"));
    }

    /// Nested templates join across containment references.
    #[test]
    fn nested_template_join() {
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
        let hir = parse_and_resolve(src, &[uml.clone(), rdb.clone()]).unwrap();
        let m_uml = parse_model(
            r#"model u : UML {
                a1 = Attribute { name = "id" }
                c1 = Class { name = "Person", attrs = [a1] }
            }"#,
            &uml,
        )
        .unwrap();
        let m_rdb_ok = parse_model(
            r#"model r : RDB {
                col1 = Column { name = "id" }
                t1 = Table { name = "Person", cols = [col1] }
            }"#,
            &rdb,
        )
        .unwrap();
        let models = [m_uml.clone(), m_rdb_ok];
        assert!(Checker::new(&hir, &models).unwrap().consistent().unwrap());
        // Missing column → the uml→rdb direction fails.
        let m_rdb_bad =
            parse_model(r#"model r : RDB { t1 = Table { name = "Person" } }"#, &rdb).unwrap();
        let models = [m_uml, m_rdb_bad];
        assert!(!Checker::new(&hir, &models).unwrap().consistent().unwrap());
    }

    /// The call memo pays on a projection spec: the witness of every
    /// `(class, attribute)` binding calls `SameCols` on its class and
    /// table, so 3 classes × 4 attributes make 12 calls over 3 distinct
    /// root pairs, and the memo answers 9 of them. Both checkers agree
    /// on the verdicts, with and without a missing column.
    #[test]
    fn call_memo_answers_repeated_roots() {
        let uml = parse_metamodel(
            "metamodel UML { class Class { attr name: Str; ref attrs: Attribute [0..*] containment; } class Attribute { attr name: Str; } }",
        )
        .unwrap();
        let rdb = parse_metamodel(
            "metamodel RDB { class Table { attr name: Str; ref cols: Column [0..*] containment; } class Column { attr name: Str; } }",
        )
        .unwrap();
        let src = r#"
transformation P(uml : UML, rdb : RDB) {
  relation SameCols {
    n : Str;
    domain uml k : Class { attrs = x : Attribute { name = n } };
    domain rdb u : Table { cols = y : Column { name = n } };
    depend uml -> rdb;
  }
  top relation ClassToTable {
    cn, an : Str;
    domain uml c : Class { name = cn, attrs = a : Attribute { name = an } };
    domain rdb t : Table { name = cn };
    where { SameCols(c, t) }
    depend uml -> rdb;
  }
}
"#;
        let hir = Arc::new(parse_and_resolve(src, &[uml.clone(), rdb.clone()]).unwrap());
        // `cols_of(i)` columns in table `i`, 4 attributes in every class.
        let tuple = |cols_of: &dyn Fn(usize) -> usize| {
            let (mut u, mut r) = (String::new(), String::new());
            for i in 0..3 {
                let attrs: Vec<String> = (0..4).map(|j| format!("a{i}{j}")).collect();
                let cols: Vec<String> = (0..cols_of(i)).map(|j| format!("k{i}{j}")).collect();
                for j in 0..4 {
                    u.push_str(&format!("a{i}{j} = Attribute {{ name = \"x{j}\" }}\n"));
                }
                for j in 0..cols_of(i) {
                    r.push_str(&format!("k{i}{j} = Column {{ name = \"x{j}\" }}\n"));
                }
                u.push_str(&format!(
                    "c{i} = Class {{ name = \"C{i}\", attrs = [{}] }}\n",
                    attrs.join(", ")
                ));
                r.push_str(&format!(
                    "t{i} = Table {{ name = \"C{i}\", cols = [{}] }}\n",
                    cols.join(", ")
                ));
            }
            [
                parse_model(&format!("model u : UML {{ {u} }}"), &uml).unwrap(),
                parse_model(&format!("model r : RDB {{ {r} }}"), &rdb).unwrap(),
            ]
        };
        let full = tuple(&|_| 4);
        let missing = tuple(&|i| if i == 1 { 3 } else { 4 });
        for (models, consistent) in [(full, true), (missing, false)] {
            let scratch = Checker::new(&hir, &models).unwrap().check().unwrap();
            let inc = crate::DeltaChecker::new(&hir, &models).unwrap().report();
            assert_eq!(scratch.consistent(), consistent, "{scratch}");
            for (a, b) in scratch.checks.iter().zip(&inc.checks) {
                assert_eq!(a.holds, b.holds);
                let mut va: Vec<String> = a.violations.iter().map(|v| v.to_string()).collect();
                let mut vb: Vec<String> = b.violations.iter().map(|v| v.to_string()).collect();
                va.sort();
                vb.sort();
                assert_eq!(va, vb);
            }
            assert_eq!(scratch.stats.call_hits, 12 - 3, "{scratch}");
            assert_eq!(inc.stats.call_hits, 12 - 3, "{inc}");
        }
    }
}
