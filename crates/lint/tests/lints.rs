//! Per-code lint fixtures: every lint code has at least one spec that
//! triggers it and one clean spec that does not.

use mmt_lint::{lint, LintCode, LintOptions, LintReport, Severity};
use mmt_model::text::parse_metamodel;
use mmt_model::Metamodel;
use mmt_qvtr::parse_and_resolve;
use std::sync::Arc;

fn mm(src: &str) -> Arc<Metamodel> {
    parse_metamodel(src).unwrap()
}

fn run(spec: &str, mms: &[Arc<Metamodel>]) -> LintReport {
    let hir = parse_and_resolve(spec, mms).unwrap();
    lint(&hir, &LintOptions::default())
}

fn codes(report: &LintReport) -> Vec<&'static str> {
    report.lints.iter().map(|l| l.code.code()).collect()
}

const M_STR: &str = "metamodel M { class A { attr x: Str; } class B { attr y: Str; } }";
const M_INT: &str = "metamodel M { class A { attr x: Int; } }";

/// A minimal spec no lint fires on: one relation, one direction, flat
/// templates.
#[test]
fn minimal_spec_is_clean() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(r.is_clean(), "unexpected lints:\n{}", r.render_text());
}

#[test]
fn mmt001_unused_variable_fires() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str; unused : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert_eq!(codes(&r), vec!["MMT001"]);
    assert!(r.lints[0].message.contains("`unused`"));
    assert_eq!(r.lints[0].severity(), Severity::Warn);
}

#[test]
fn mmt001_clean_when_var_used_in_when() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { n > 0 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    assert!(!codes(&r).contains(&"MMT001"));
}

#[test]
fn mmt002_unbound_prim_variable_fires() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int; k : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { k > 0 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    assert!(codes(&r).contains(&"MMT002"), "{}", r.render_text());
    assert!(r.has_errors());
    let l = r
        .lints
        .iter()
        .find(|l| l.code == LintCode::UnboundPrimVariable)
        .unwrap();
    assert!(l.message.contains("`k`"));
}

#[test]
fn mmt002_clean_when_var_pattern_bound() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { n > 0 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    assert!(!codes(&r).contains(&"MMT002"));
}

#[test]
fn mmt003_unsatisfiable_when_fires() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { n > 3 and n < 2 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    assert!(codes(&r).contains(&"MMT003"), "{}", r.render_text());
    assert!(r.has_errors());
}

#[test]
fn mmt003_detects_pattern_fact_conflict() {
    // The pattern pins a.x = "p"; `when` demands a.x = "q".
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = "p" };
            domain r b : A { x = n };
            when { a.x = "q" }
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(codes(&r).contains(&"MMT003"), "{}", r.render_text());
}

#[test]
fn mmt003_clean_on_satisfiable_when() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { n > 3 and n < 10 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    assert!(!codes(&r).contains(&"MMT003"));
}

#[test]
fn mmt004_unsatisfiable_where_fires() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            where { n = "one" and n = "two" }
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(codes(&r).contains(&"MMT004"), "{}", r.render_text());
    assert!(r.has_errors());
}

#[test]
fn mmt004_not_reported_when_when_already_unsat() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { n > 3 and n < 2 }
            where { n = 1 and n = 2 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    assert!(codes(&r).contains(&"MMT003"));
    assert!(!codes(&r).contains(&"MMT004"));
}

#[test]
fn mmt004_clean_on_satisfiable_where() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            where { n = "one" }
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(!codes(&r).contains(&"MMT004"));
}

#[test]
fn mmt005_unreachable_relation_fires() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            depend l -> r;
          }
          relation Orphan {
            m : Str;
            domain l c : A { x = m };
            domain r d : A { x = m };
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(codes(&r).contains(&"MMT005"), "{}", r.render_text());
    let l = r
        .lints
        .iter()
        .find(|l| l.code == LintCode::UnreachableRelation)
        .unwrap();
    assert_eq!(l.relation.as_deref(), Some("Orphan"));
}

#[test]
fn mmt005_clean_when_called_from_top() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            where { Helper(a, b) }
            depend l -> r;
          }
          relation Helper {
            m : Str;
            domain l c : A { x = m };
            domain r d : A { x = m };
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(!codes(&r).contains(&"MMT005"), "{}", r.render_text());
}

#[test]
fn mmt006_call_cycle_fires() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation P {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            where { Q(a, b) }
            depend l -> r;
          }
          relation Q {
            m : Str;
            domain l c : A { x = m };
            domain r d : A { x = m };
            where { P(c, d) }
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(codes(&r).contains(&"MMT006"), "{}", r.render_text());
    assert!(r.has_errors());
    let l = r
        .lints
        .iter()
        .find(|l| l.code == LintCode::CallCycle)
        .unwrap();
    assert!(l.message.contains("`P`") && l.message.contains("`Q`"));
}

#[test]
fn mmt006_clean_on_acyclic_calls() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation P {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            where { Q(a, b) }
            depend l -> r;
          }
          relation Q {
            m : Str;
            domain l c : A { x = m };
            domain r d : A { x = m };
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(!codes(&r).contains(&"MMT006"));
}

#[test]
fn mmt007_uninstantiable_domain_fires() {
    let abs = mm("metamodel M { abstract class A { attr x: Str; } class B { attr y: Str; } }");
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            depend l -> r;
          }
        }"#,
        &[abs],
    );
    assert!(codes(&r).contains(&"MMT007"), "{}", r.render_text());
    assert!(r.has_errors());
    let l = r
        .lints
        .iter()
        .find(|l| l.code == LintCode::UninstantiableDomain)
        .unwrap();
    assert!(l.message.contains("`A`"));
}

#[test]
fn mmt007_clean_when_abstract_class_has_concrete_subtype() {
    let abs =
        mm("metamodel M { abstract class A { attr x: Str; } class B extends A { attr y: Str; } }");
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            depend l -> r;
          }
        }"#,
        &[abs],
    );
    assert!(!codes(&r).contains(&"MMT007"), "{}", r.render_text());
}

#[test]
fn mmt010_repair_conflict_fires_on_overlapping_relations() {
    // R1's repairs towards `r` write A.x there; R2 reads A.x in `r`
    // universally (its r -> l direction).
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R1 {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
          }
          top relation R2 {
            m : Str;
            domain l c : A { x = m };
            domain r d : A { x = m };
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(codes(&r).contains(&"MMT010"), "{}", r.render_text());
    assert!(!r.has_errors());
    let l = r
        .lints
        .iter()
        .find(|l| l.code == LintCode::RepairConflict)
        .unwrap();
    assert!(l.message.contains("ping-pong"));
}

#[test]
fn mmt010_clean_on_disjoint_relations() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R1 {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            depend l -> r;
          }
          top relation R2 {
            m : Str;
            domain l c : B { y = m };
            domain r d : B { y = m };
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(!codes(&r).contains(&"MMT010"), "{}", r.render_text());
}

#[test]
fn mmt011_bidirectional_coupling_fires() {
    // Standard (all-directions) deps couple the relation with itself.
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(codes(&r).contains(&"MMT011"), "{}", r.render_text());
    assert_eq!(r.infos(), 1);
}

#[test]
fn mmt011_clean_on_single_direction() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
            depend l -> r;
          }
        }"#,
        &[mm(M_STR)],
    );
    assert!(!codes(&r).contains(&"MMT011"));
}

const UML: &str = "metamodel UML { class Class { attr name: Str; ref attrs: Attribute; } \
                   class Attribute { attr name: Str; } }";
const RDB: &str = "metamodel RDB { class Table { attr name: Str; ref cols: Column; } \
                   class Column { attr name: Str; } }";

#[test]
fn mmt020_grounding_blowup_fires_on_nested_templates() {
    // The class2rdbms AttrToCol shape: two object variables per side.
    let r = run(
        r#"transformation T(u : UML, r : RDB) {
          top relation AttrToCol {
            an : Str;
            domain u c : Class { attrs = a : Attribute { name = an } };
            domain r t : Table { cols = col : Column { name = an } };
            depend u -> r;
          }
        }"#,
        &[mm(UML), mm(RDB)],
    );
    assert!(codes(&r).contains(&"MMT020"), "{}", r.render_text());
    assert!(!r.has_errors());
    let l = r
        .lints
        .iter()
        .find(|l| l.code == LintCode::GroundingBlowup)
        .unwrap();
    assert!(l.message.contains("2 universal and 2 witness"));
}

#[test]
fn mmt020_clean_on_flat_templates() {
    let r = run(
        r#"transformation T(u : UML, r : RDB) {
          top relation ClassToTable {
            cn : Str;
            domain u c : Class { name = cn };
            domain r t : Table { name = cn };
            depend u -> r;
          }
        }"#,
        &[mm(UML), mm(RDB)],
    );
    assert!(!codes(&r).contains(&"MMT020"));
}

#[test]
fn allow_suppresses_codes() {
    let hir = parse_and_resolve(
        r#"transformation T(l : M, r : M) {
          top relation R1 {
            n : Str;
            domain l a : A { x = n };
            domain r b : A { x = n };
          }
          top relation R2 {
            m : Str;
            domain l c : A { x = m };
            domain r d : A { x = m };
          }
        }"#,
        &[mm(M_STR)],
    )
    .unwrap();
    let noisy = lint(&hir, &LintOptions::default());
    assert!(codes(&noisy).contains(&"MMT010"));
    let quiet = lint(
        &hir,
        &LintOptions {
            allow: vec![LintCode::RepairConflict, LintCode::BidirectionalCoupling],
        },
    );
    assert!(!codes(&quiet).contains(&"MMT010"));
    assert!(!codes(&quiet).contains(&"MMT011"));
    assert!(quiet.is_clean(), "{}", quiet.render_text());
}

/// The JSON rendering lives in the `mmt` CLI, which owns the wire
/// format, and is tested there (`lint_json_renders_every_field`).
#[test]
fn report_renders_text_and_json() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { n > 3 and n < 2 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    let text = r.render_text();
    assert!(text.contains("error[MMT003] relation `R`:"), "{text}");
    assert!(text.contains("1 error(s)"), "{text}");
}

#[test]
fn errors_sort_before_warnings() {
    let r = run(
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Int; unused : Int;
            domain l a : A { x = n };
            domain r b : A { x = n };
            when { n > 3 and n < 2 }
            depend l -> r;
          }
        }"#,
        &[mm(M_INT)],
    );
    assert!(r.errors() >= 1 && r.warnings() >= 1);
    let sevs: Vec<Severity> = r.lints.iter().map(|l| l.severity()).collect();
    let mut sorted = sevs.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(sevs, sorted);
}

#[test]
fn lint_code_parse_round_trips() {
    for c in LintCode::ALL {
        assert_eq!(LintCode::parse(c.code()), Some(c));
        assert_eq!(c.severity(), c.severity());
    }
    assert_eq!(LintCode::parse("MMT999"), None);
}
