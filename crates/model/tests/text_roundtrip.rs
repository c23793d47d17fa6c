//! Property-based round-trip tests for the textual model format over
//! randomly generated models.

use mmt_gen::{tricky_string, TRICKY_CHARS};
use mmt_model::text::{parse_metamodel, parse_model, print_metamodel, print_model};
use mmt_model::{conformance, AttrType, Metamodel, MetamodelBuilder, Model, Upper, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn rich_metamodel() -> Arc<Metamodel> {
    let mut b = MetamodelBuilder::new("Rich");
    let named = b.abstract_class("Named").unwrap();
    b.attr(named, "name", AttrType::Str).unwrap();
    let item = b.class_full("Item", &[named], false).unwrap();
    b.attr(item, "weight", AttrType::Int).unwrap();
    b.attr(item, "fragile", AttrType::Bool).unwrap();
    let bin = b.class_full("Bin", &[named], false).unwrap();
    b.reference(bin, "holds", item, 0, Upper::Many, true)
        .unwrap();
    b.reference(bin, "next", bin, 0, Upper::Bounded(1), false)
        .unwrap();
    b.build().unwrap()
}

/// Instruction stream → model, fully deterministic.
fn build_model(meta: &Arc<Metamodel>, script: &[(u8, u8, i64)]) -> Model {
    let item = meta.class_named("Item").unwrap();
    let bin = meta.class_named("Bin").unwrap();
    let holds = meta.ref_of(bin, mmt_model::Sym::new("holds")).unwrap();
    let next = meta.ref_of(bin, mmt_model::Sym::new("next")).unwrap();
    let mut m = Model::new("m", Arc::clone(meta));
    for &(op, sel, val) in script {
        let items: Vec<_> = m.objects_of(item).collect();
        let bins: Vec<_> = m.objects_of(bin).collect();
        match op % 6 {
            0 => {
                let id = m.add(item).unwrap();
                m.set_attr_named(id, "name", Value::str(&format!("i{}", val % 10)))
                    .unwrap();
                m.set_attr_named(id, "weight", Value::Int(val % 100))
                    .unwrap();
                m.set_attr_named(id, "fragile", Value::Bool(val % 2 == 0))
                    .unwrap();
            }
            1 => {
                let id = m.add(bin).unwrap();
                m.set_attr_named(id, "name", Value::str(&format!("b{}", val % 10)))
                    .unwrap();
            }
            2 => {
                if !bins.is_empty() && !items.is_empty() {
                    let b0 = bins[sel as usize % bins.len()];
                    let i0 = items[val.unsigned_abs() as usize % items.len()];
                    // Keep containment single-parent: only link if the
                    // item has no container yet.
                    let already = bins
                        .iter()
                        .any(|&b| m.targets(b, holds).unwrap().contains(&i0));
                    if !already {
                        m.add_link(b0, holds, i0).unwrap();
                    }
                }
            }
            3 => {
                if bins.len() >= 2 {
                    let b0 = bins[sel as usize % bins.len()];
                    let b1 = bins[val.unsigned_abs() as usize % bins.len()];
                    if m.targets(b0, next).unwrap().is_empty() {
                        m.add_link(b0, next, b1).unwrap();
                    }
                }
            }
            4 => {
                if !items.is_empty() {
                    let i0 = items[sel as usize % items.len()];
                    m.set_attr_named(i0, "weight", Value::Int(val)).unwrap();
                }
            }
            _ => {
                if !items.is_empty() && val % 3 == 0 {
                    let i0 = items[sel as usize % items.len()];
                    m.delete(i0).unwrap();
                }
            }
        }
    }
    m
}

/// Parses `src`, then prints and parses the result again: both parses
/// must give the same graph over the same id space.
fn round_trip(meta: &Arc<Metamodel>, src: &str) -> Model {
    let first = parse_model(src, meta).expect("source parses");
    let printed = print_model(&first);
    let second = parse_model(&printed, meta).expect("printer output parses");
    assert!(first.graph_eq(&second), "{src}\n--- printed ---\n{printed}");
    assert_eq!(first.id_bound(), second.id_bound());
    first
}

/// The `name` of every object, in id order.
fn names(m: &Model) -> Vec<String> {
    m.objects()
        .map(|(id, _)| m.attr_named(id, "name").unwrap().to_string())
        .collect()
}

#[test]
fn escapes_round_trip() {
    let meta = rich_metamodel();
    let m = round_trip(
        &meta,
        r#"model m : Rich {
  a = Item { name = "say \"hi\"", weight = -3 }
  b = Item { name = "back\\slash", fragile = true }
  c = Item { name = "two\nlines" }
  d = Bin { name = "plain", holds = [a, b, c] }
}"#,
    );
    assert_eq!(
        names(&m),
        [
            r#""say \"hi\"""#,
            r#""back\\slash""#,
            r#""two\nlines""#,
            r#""plain""#
        ]
    );
}

#[test]
fn raw_newlines_in_strings_round_trip() {
    let meta = rich_metamodel();
    let m = round_trip(
        &meta,
        "model m : Rich {\n  a = Item { name = \"first\nsecond\n\" }\n  b = Bin { name = \"\" }\n}\n",
    );
    assert_eq!(names(&m), [r#""first\nsecond\n""#, r#""""#]);
}

#[test]
fn non_ascii_labels_and_values_round_trip() {
    let meta = rich_metamodel();
    let m = round_trip(
        &meta,
        "model m : Rich {\n  größe = Item { name = \"Straße ✓\", weight = 7 }\n  \
         箱 = Bin { name = \"日本\", holds = [größe], next = [箱] }\n}\n",
    );
    assert_eq!(names(&m), [r#""Straße ✓""#, r#""日本""#]);
}

#[test]
fn comments_round_trip() {
    let meta = rich_metamodel();
    let m = round_trip(
        &meta,
        "// header\nmodel m : Rich { // opening\n  a = Item { name = \"x // not a comment\" } // after\n  \
         // between\n  b = Bin { holds = [a] }\n} // trailing",
    );
    assert_eq!(names(&m), [r#""x // not a comment""#, r#""""#]);
}

#[test]
fn crlf_line_ends_round_trip() {
    let meta = rich_metamodel();
    let src = "model m : Rich {\r\n  a = Item { name = \"x\",\r\n    weight = 2 }\r\n  \
               b = Bin { name = \"y\", holds = [a] }\r\n}\r\n";
    let m = round_trip(&meta, src);
    assert_eq!(names(&m), [r#""x""#, r#""y""#]);
    let lf = parse_model(&src.replace("\r\n", "\n"), &meta).unwrap();
    assert!(m.graph_eq(&lf));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A string value of any of those characters prints and reads back:
    /// the parsed model is graph-equal to the original, and prints the
    /// same bytes.
    #[test]
    fn tricky_string_values_round_trip(
        picks in proptest::collection::vec(0usize..TRICKY_CHARS.len(), 0..24),
    ) {
        let meta = rich_metamodel();
        let value = tricky_string(&picks);
        let mut m = Model::new("m", Arc::clone(&meta));
        let item = m.add(meta.class_named("Item").unwrap()).unwrap();
        m.set_attr_named(item, "name", Value::str(&value)).unwrap();
        let printed = print_model(&m);
        let reparsed = parse_model(&printed, &meta).expect("printer output parses");
        prop_assert!(m.graph_eq(&reparsed), "{value:?}\n{printed}");
        prop_assert_eq!(print_model(&reparsed), printed);
    }

    /// print → parse reproduces the exact object graph on the same ids,
    /// and the same id bound: scripts that delete leave interior gaps
    /// and trailing tombstones, which the text must carry.
    #[test]
    fn model_text_round_trip(script in proptest::collection::vec((0u8..6, 0u8..8, -50i64..50), 0..30)) {
        let meta = rich_metamodel();
        let m = build_model(&meta, &script);
        let printed = print_model(&m);
        let reparsed = parse_model(&printed, &meta).expect("printer output parses");
        prop_assert!(m.graph_eq(&reparsed), "{printed}");
        prop_assert_eq!(m.id_bound(), reparsed.id_bound(), "{}", printed);
        prop_assert_eq!(print_model(&reparsed), printed);
        prop_assert!(conformance::is_conformant(&reparsed));
    }

    /// The scripts above do reach deleted ids: some leave an interior
    /// gap, some a trailing tombstone.
    #[test]
    fn round_trip_scripts_leave_gaps_and_trailing_tombstones(_x in 0u8..1) {
        let meta = rich_metamodel();
        let item = (0u8, 0u8, 3i64);
        let delete_first = (5u8, 0u8, 3i64);
        let gap = build_model(&meta, &[item, item, delete_first]);
        prop_assert!(gap.len() < gap.id_bound());
        prop_assert!(!print_model(&gap).contains(" bound "));
        let delete_last = (5u8, 1u8, 3i64);
        let trailing = build_model(&meta, &[item, item, delete_last]);
        prop_assert!(print_model(&trailing).starts_with("model m : Rich bound 2 {"));
        for m in [gap, trailing] {
            let back = parse_model(&print_model(&m), &meta).unwrap();
            prop_assert!(m.graph_eq(&back));
            prop_assert_eq!(m.id_bound(), back.id_bound());
        }
    }

    /// Metamodel printing round-trips structurally.
    #[test]
    fn metamodel_text_round_trip(_x in 0u8..4) {
        let meta = rich_metamodel();
        let printed = print_metamodel(&meta);
        let reparsed = parse_metamodel(&printed).expect("printer output parses");
        prop_assert_eq!(meta.class_count(), reparsed.class_count());
        prop_assert_eq!(meta.attr_count(), reparsed.attr_count());
        prop_assert_eq!(meta.ref_count(), reparsed.ref_count());
    }
}
