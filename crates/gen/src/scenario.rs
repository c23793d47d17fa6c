//! The scenario corpus: every workload family the differential suites
//! and benches sweep over, behind one [`Scenario`] abstraction.
//!
//! The paper's running example (feature models vs. `k` configurations)
//! is one point in a space of multidirectional synchronization
//! problems; the correctness claims (incremental ≡ from-scratch,
//! search ≡ SAT, warm ≡ cold, persisted ≡ uninterrupted) are only
//! trustworthy if they hold across that space. This module ports the
//! exemplar catalog:
//!
//! * [`Fm2Cfs`] — the paper's own FM↔CF² family, delegating to
//!   [`feature_workload`];
//! * [`CompanyHr`] — the Company HR sync (World↔Company): every
//!   `Person` maps to an `Employee` with the same name, and employees
//!   additionally carry a salary capped at [`SALARY_CAP`];
//! * [`Class2Rdbms`] — the classic class↔RDBMS round-trip
//!   (classes/attributes ↔ tables/columns), whose repairs need
//!   multi-class witnesses (a fresh `Table` *and* a fresh `Column`
//!   plus the containment link in one step).
//!
//! A scenario bundles a spec source, metamodel sources, a seeded
//! consistent model tuple, and a canonical repair-target set; random
//! drift comes from the metamodel-generic
//! [`random_edits`](crate::random_edits) /
//! [`SessionScriptGen`](crate::SessionScriptGen), which work unchanged
//! on every scenario.
//!
//! ```
//! use mmt_gen::scenario::all_scenarios;
//!
//! for sc in all_scenarios() {
//!     let w = sc.workload(7);
//!     assert_eq!(w.models.len(), w.hir.models.len());
//!     // Every scenario's seed tuple is consistent by construction.
//!     let report = mmt_check::Checker::new(&w.hir, &w.models)
//!         .unwrap()
//!         .check()
//!         .unwrap();
//!     assert!(report.consistent(), "{}", sc.name());
//! }
//! ```

use crate::{feature_workload, FeatureSpec, CF_METAMODEL, FM_METAMODEL};
use mmt_deps::{DomIdx, DomSet};
use mmt_model::text::parse_metamodel;
use mmt_model::{Metamodel, Model, Sym, Value};
use mmt_qvtr::{parse_and_resolve, Hir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A built scenario instance: resolved transformation, metamodels, and
/// a seeded consistent model tuple, ready for a checker, an engine, or
/// a session.
pub struct ScenarioWorkload {
    /// The resolved transformation, behind the shared handle the
    /// un-borrowed stack consumes.
    pub hir: Arc<Hir>,
    /// Parsed metamodels, in spec-parameter order (deduplicated: a
    /// spec with two parameters of the same metamodel lists it once).
    pub metamodels: Vec<Arc<Metamodel>>,
    /// The seeded consistent model tuple, in model-space order.
    pub models: Vec<Model>,
}

/// One workload family: a QVT-R spec, its metamodels, and a seeded
/// generator of consistent model tuples.
///
/// Random drift and session scripts are *not* part of the trait: the
/// generic [`random_edits`](crate::random_edits) and
/// [`SessionScriptGen`](crate::SessionScriptGen) read any metamodel,
/// so every scenario gets them for free. Adding a fourth scenario
/// means implementing the four required methods and listing it in
/// [`all_scenarios`]; every scenario-swept differential suite and
/// bench picks it up from there.
pub trait Scenario {
    /// Short stable name (`fm2cfs`, `company`, `class2rdbms`), used in
    /// test names and CI job logs.
    fn name(&self) -> &'static str;

    /// The QVT-R source of the scenario's transformation.
    fn spec_source(&self) -> String;

    /// Textual metamodels, in the order [`parse_and_resolve`] expects.
    fn metamodel_sources(&self) -> Vec<&'static str>;

    /// A consistent-by-construction model tuple for `seed`, built over
    /// the already-parsed `metamodels` (same order as
    /// [`Scenario::metamodel_sources`]).
    fn seed_models(&self, metamodels: &[Arc<Metamodel>], seed: u64) -> Vec<Model>;

    /// The canonical repair-target set session scripts use (which
    /// models a `repair` checkpoint may rewrite).
    fn repair_targets(&self) -> DomSet;

    /// Parses and resolves everything into a [`ScenarioWorkload`].
    fn workload(&self, seed: u64) -> ScenarioWorkload {
        let metamodels: Vec<Arc<Metamodel>> = self
            .metamodel_sources()
            .iter()
            .map(|src| parse_metamodel(src).expect("static scenario metamodel"))
            .collect();
        let hir = Arc::new(
            parse_and_resolve(&self.spec_source(), &metamodels)
                .expect("static scenario transformation"),
        );
        let models = self.seed_models(&metamodels, seed);
        ScenarioWorkload {
            hir,
            metamodels,
            models,
        }
    }
}

/// Every scenario in the corpus, in a stable order.
pub fn all_scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(Fm2Cfs::default()),
        Box::new(CompanyHr),
        Box::new(Class2Rdbms),
    ]
}

/// Looks a scenario up by its [`Scenario::name`].
pub fn scenario_named(name: &str) -> Option<Box<dyn Scenario>> {
    all_scenarios().into_iter().find(|s| s.name() == name)
}

// ---------------------------------------------------------------------
// FM ↔ CF²: the paper's running example.
// ---------------------------------------------------------------------

/// The paper's feature-model family behind the [`Scenario`] interface.
///
/// Delegates to [`feature_workload`] — the
/// hot path the benches time is untouched; this wrapper only threads
/// the spec's `seed` through.
pub struct Fm2Cfs {
    /// The workload parameters (the `seed` field is overridden per
    /// [`Scenario::seed_models`] call).
    pub spec: FeatureSpec,
}

impl Default for Fm2Cfs {
    fn default() -> Self {
        Fm2Cfs {
            spec: FeatureSpec {
                n_features: 5,
                k_configs: 2,
                mandatory_ratio: 0.4,
                select_prob: 0.4,
                seed: 0,
            },
        }
    }
}

impl Scenario for Fm2Cfs {
    fn name(&self) -> &'static str {
        "fm2cfs"
    }

    fn spec_source(&self) -> String {
        crate::transformation_source(self.spec.k_configs)
    }

    fn metamodel_sources(&self) -> Vec<&'static str> {
        vec![CF_METAMODEL, FM_METAMODEL]
    }

    fn seed_models(&self, _metamodels: &[Arc<Metamodel>], seed: u64) -> Vec<Model> {
        feature_workload(FeatureSpec {
            seed,
            ..self.spec.clone()
        })
        .models
    }

    fn repair_targets(&self) -> DomSet {
        // The configurations, mirroring the suites' historical choice:
        // the feature model is the read-mostly authority.
        DomSet::from_iter([DomIdx(0), DomIdx(1)])
    }
}

// ---------------------------------------------------------------------
// Company HR: World ↔ Company.
// ---------------------------------------------------------------------

/// The textual World metamodel (the HR source of truth).
pub const WORLD_METAMODEL: &str = "metamodel World { class Person { attr name: Str; } }";

/// The textual Company metamodel (employees carry a salary).
pub const COMPANY_METAMODEL: &str =
    "metamodel Company { class Employee { attr name: Str; attr salary: Int; } }";

/// Salaries above this bound violate the `SalaryCap` relation.
pub const SALARY_CAP: i64 = 9;

/// The QVT-R source of the Company HR sync: every `Person` maps to an
/// `Employee` with the same name (both directions), and every person's
/// employee record must carry a salary within [`SALARY_CAP`] (enforced
/// towards the company — the world knows nothing about pay, so an
/// over-cap salary has no world-side fix).
pub fn company_transformation_source() -> String {
    format!(
        r#"transformation W2C(world : World, company : Company) {{
  top relation PersonToEmployee {{
    n : Str;
    domain world p : Person {{ name = n }};
    domain company e : Employee {{ name = n }};
    depend world -> company;
    depend company -> world;
  }}
  top relation SalaryCap {{
    m : Str; s : Int;
    domain world q : Person {{ name = m }};
    domain company w : Employee {{ name = m, salary = s }};
    where {{ s <= {SALARY_CAP} }}
    depend world -> company;
  }}
}}"#
    )
}

/// The Company HR sync scenario (SNIPPETS exemplar 2).
pub struct CompanyHr;

impl Scenario for CompanyHr {
    fn name(&self) -> &'static str {
        "company"
    }

    fn spec_source(&self) -> String {
        company_transformation_source()
    }

    fn metamodel_sources(&self) -> Vec<&'static str> {
        vec![WORLD_METAMODEL, COMPANY_METAMODEL]
    }

    fn seed_models(&self, metamodels: &[Arc<Metamodel>], seed: u64) -> Vec<Model> {
        let mut rng = StdRng::seed_from_u64(seed);
        let world_mm = &metamodels[0];
        let company_mm = &metamodels[1];
        let person = world_mm.class_named("Person").expect("static class");
        let employee = company_mm.class_named("Employee").expect("static class");
        let mut world = Model::new("world", Arc::clone(world_mm));
        let mut company = Model::new("company", Arc::clone(company_mm));
        let n = 3 + (seed % 3) as usize;
        for i in 0..n {
            let name = Value::str(&format!("emp{i}"));
            let p = world.add(person).expect("concrete class");
            world
                .set_attr_named(p, "name", name)
                .expect("declared attr");
            let e = company.add(employee).expect("concrete class");
            company
                .set_attr_named(e, "name", name)
                .expect("declared attr");
            // Always within the cap, so the seed tuple is consistent.
            // (Repairs need no in-range salary here to lower one to:
            // the cap and the Int default are in every value domain.)
            let salary = rng.gen_range(0..(SALARY_CAP as usize + 1)) as i64;
            company
                .set_attr_named(e, "salary", Value::Int(salary))
                .expect("declared attr");
        }
        vec![world, company]
    }

    fn repair_targets(&self) -> DomSet {
        DomSet::full(2)
    }
}

// ---------------------------------------------------------------------
// Class ↔ RDBMS: the QVT-R literature's benchmark round-trip.
// ---------------------------------------------------------------------

/// The textual UML-side metamodel (classes contain attributes).
pub const UML_METAMODEL: &str = "metamodel UML { class Class { attr name: Str; ref attrs: Attribute [0..*] containment; } class Attribute { attr name: Str; } }";

/// The textual RDB-side metamodel (tables contain columns).
pub const RDB_METAMODEL: &str = "metamodel RDB { class Table { attr name: Str; ref cols: Column [0..*] containment; } class Column { attr name: Str; } }";

/// The QVT-R source of the class↔RDBMS round-trip: classes map to
/// same-named tables, and every attribute of a class maps to a
/// same-named column of the matching table. The nested reference
/// templates are what the FM family never exercises: repairing a
/// missing `AttrToCol` witness must create a `Table` *and* a `Column`
/// *and* the containment link between them.
pub fn class2rdbms_transformation_source() -> String {
    r#"transformation C2T(uml : UML, rdb : RDB) {
  top relation ClassToTable {
    cn : Str;
    domain uml c : Class { name = cn };
    domain rdb t : Table { name = cn };
    depend uml -> rdb;
    depend rdb -> uml;
  }
  top relation AttrToCol {
    kn, an : Str;
    domain uml k : Class { name = kn, attrs = a : Attribute { name = an } };
    domain rdb u : Table { name = kn, cols = col : Column { name = an } };
    depend uml -> rdb;
    depend rdb -> uml;
  }
}"#
    .to_string()
}

/// The class↔RDBMS scenario.
pub struct Class2Rdbms;

impl Scenario for Class2Rdbms {
    fn name(&self) -> &'static str {
        "class2rdbms"
    }

    fn spec_source(&self) -> String {
        class2rdbms_transformation_source()
    }

    fn metamodel_sources(&self) -> Vec<&'static str> {
        vec![UML_METAMODEL, RDB_METAMODEL]
    }

    fn seed_models(&self, metamodels: &[Arc<Metamodel>], seed: u64) -> Vec<Model> {
        let mut rng = StdRng::seed_from_u64(seed);
        let uml_mm = &metamodels[0];
        let rdb_mm = &metamodels[1];
        let class = uml_mm.class_named("Class").expect("static class");
        let attribute = uml_mm.class_named("Attribute").expect("static class");
        let table = rdb_mm.class_named("Table").expect("static class");
        let column = rdb_mm.class_named("Column").expect("static class");
        let attrs_ref = uml_mm
            .ref_of(class, Sym::new("attrs"))
            .expect("declared ref");
        let cols_ref = rdb_mm
            .ref_of(table, Sym::new("cols"))
            .expect("declared ref");
        let mut uml = Model::new("uml", Arc::clone(uml_mm));
        let mut rdb = Model::new("rdb", Arc::clone(rdb_mm));
        // Kept deliberately small: the SAT engine grounds fresh-object
        // slack per class, so tuple size is the grounding's exponent.
        let n_classes = 2;
        for c in 0..n_classes {
            let cname = Value::str(&format!("C{c}"));
            let cls = uml.add(class).expect("concrete class");
            uml.set_attr_named(cls, "name", cname)
                .expect("declared attr");
            let tbl = rdb.add(table).expect("concrete class");
            rdb.set_attr_named(tbl, "name", cname)
                .expect("declared attr");
            let n_attrs = 1 + rng.gen_range(0..2usize);
            for a in 0..n_attrs {
                let aname = Value::str(&format!("f{c}_{a}"));
                let at = uml.add(attribute).expect("concrete class");
                uml.set_attr_named(at, "name", aname)
                    .expect("declared attr");
                uml.add_link(cls, attrs_ref, at).expect("typed link");
                let col = rdb.add(column).expect("concrete class");
                rdb.set_attr_named(col, "name", aname)
                    .expect("declared attr");
                rdb.add_link(tbl, cols_ref, col).expect("typed link");
            }
        }
        vec![uml, rdb]
    }

    fn repair_targets(&self) -> DomSet {
        DomSet::full(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_check::Checker;

    #[test]
    fn every_scenario_seed_tuple_is_consistent() {
        for sc in all_scenarios() {
            for seed in [0u64, 1, 7, 23] {
                let w = sc.workload(seed);
                assert_eq!(w.models.len(), w.hir.models.len(), "{}", sc.name());
                let report = Checker::new(&w.hir, &w.models).unwrap().check().unwrap();
                assert!(report.consistent(), "{} seed={seed}\n{report}", sc.name());
            }
        }
    }

    #[test]
    fn scenarios_are_deterministic_and_named() {
        for sc in all_scenarios() {
            let a = sc.workload(5);
            let b = sc.workload(5);
            for (x, y) in a.models.iter().zip(&b.models) {
                // Workloads parse their own metamodel instances, so
                // compare the printed object graphs, not Arc identity.
                assert_eq!(
                    mmt_model::text::print_model(x),
                    mmt_model::text::print_model(y),
                    "{}",
                    sc.name()
                );
            }
            let by_name = scenario_named(sc.name()).expect("round-trips by name");
            assert_eq!(by_name.name(), sc.name());
        }
        assert!(scenario_named("nonesuch").is_none());
    }

    #[test]
    fn repair_targets_are_within_arity() {
        for sc in all_scenarios() {
            let w = sc.workload(0);
            let arity = w.hir.models.len();
            assert!(
                sc.repair_targets().subset_of(mmt_deps::DomSet::full(arity)),
                "{}",
                sc.name()
            );
        }
    }

    #[test]
    fn generic_drift_applies_to_every_scenario() {
        use mmt_dist::Delta;
        for sc in all_scenarios() {
            let w = sc.workload(3);
            for (i, m) in w.models.iter().enumerate() {
                let ops = crate::random_edits(m, 8, 11 + i as u64);
                assert_eq!(ops.len(), 8, "{} model {i}", sc.name());
                let mut d = Delta::new();
                for op in ops {
                    d.push(op);
                }
                let mut replay = m.clone();
                d.apply(&mut replay).unwrap();
            }
        }
    }
}
