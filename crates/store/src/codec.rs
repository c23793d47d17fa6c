//! Text codec for journal entries.
//!
//! WAL record payloads are the [`mmt_dist::EditOp`] `Display` lines a
//! session's journal prints (`+ @5 : class#1`, `@5.attr#0 = "x" (was
//! "")`, `+ @0 --ref#1--> @2`) under a one-line header naming the entry
//! kind:
//!
//! ```text
//! repair 0,1 3      (or: edit)
//! m0                (per-model blocks, empty models omitted)
//! + @4 : class#0
//! @4.attr#0 = "brakes" (was "")
//! m2
//! - @1 --ref#0--> @0
//! ```
//!
//! Attribute values are read by [`mmt_model::text::read_literal`], the
//! reader model files use too. Seeds are model text
//! ([`mmt_model::text::print_model`]), which keeps ids and the id bound.

use mmt_core::{JournalEntry, JournalKind, Shape};
use mmt_dist::{Delta, EditOp};
use mmt_model::text::read_literal;
use mmt_model::{AttrId, ClassId, Metamodel, ObjId, RefId, Value};
use std::sync::Arc;

/// Renders one journal entry as a WAL record payload.
pub fn render_entry(entry: &JournalEntry) -> String {
    let mut out = String::new();
    match &entry.kind {
        JournalKind::Edit => out.push_str("edit\n"),
        JournalKind::Repair { shape, cost } => {
            let idx: Vec<String> = shape
                .targets()
                .iter()
                .map(|d| d.index().to_string())
                .collect();
            out.push_str("repair ");
            out.push_str(&idx.join(","));
            out.push(' ');
            out.push_str(&cost.to_string());
            out.push('\n');
        }
    }
    for (i, delta) in entry.deltas.iter().enumerate() {
        if delta.is_empty() {
            continue;
        }
        out.push('m');
        out.push_str(&i.to_string());
        out.push('\n');
        for op in delta.ops() {
            out.push_str(&op.to_string());
            out.push('\n');
        }
    }
    out
}

/// Parses one WAL record payload back into a journal entry over a
/// tuple with parameter metamodels `metas`. Inverse of [`render_entry`].
/// Every class/attr/ref id is bounds-checked against its model's
/// metamodel, so garbage that happens to carry a valid checksum still
/// surfaces as a parse error rather than an index panic downstream.
pub fn parse_entry(src: &str, metas: &[Arc<Metamodel>]) -> Result<JournalEntry, String> {
    let arity = metas.len();
    let mut lines = src.lines();
    let header = lines.next().ok_or("empty record")?;
    let kind = if header == "edit" {
        JournalKind::Edit
    } else if let Some(rest) = header.strip_prefix("repair ") {
        let (targets, cost) = rest
            .rsplit_once(' ')
            .ok_or("repair header needs `repair <targets> <cost>`")?;
        let cost: u64 = cost.parse().map_err(|e| format!("bad repair cost: {e}"))?;
        let mut indices = Vec::new();
        for tok in targets.split(',') {
            let i: usize = tok.parse().map_err(|e| format!("bad repair target: {e}"))?;
            if i >= arity {
                return Err(format!("repair target {i} out of range (arity {arity})"));
            }
            indices.push(i);
        }
        JournalKind::Repair {
            shape: Shape::of(&indices),
            cost,
        }
    } else {
        return Err(format!("bad entry header {header:?}"));
    };
    let mut deltas = vec![Delta::new(); arity];
    let mut cur: Option<usize> = None;
    for line in lines {
        if let Some(idx) = model_header(line) {
            if idx >= arity {
                return Err(format!("model index {idx} out of range (arity {arity})"));
            }
            cur = Some(idx);
            continue;
        }
        let slot = cur.ok_or_else(|| format!("op line {line:?} before any model header"))?;
        let op = parse_op(line)?;
        check_op(&op, &metas[slot])?;
        deltas[slot].push(op);
    }
    Ok(JournalEntry { kind, deltas })
}

/// Bounds-checks the metamodel ids an op names (object ids are dynamic
/// and left to `apply`, which rejects bad ones with a typed error
/// instead of panicking).
fn check_op(op: &EditOp, meta: &Metamodel) -> Result<(), String> {
    let (class, attr, r) = match *op {
        EditOp::AddObj { class, .. } | EditOp::DelObj { class, .. } => (Some(class), None, None),
        EditOp::SetAttr { attr, .. } => (None, Some(attr), None),
        EditOp::AddLink { r, .. } | EditOp::DelLink { r, .. } => (None, None, Some(r)),
    };
    if let Some(c) = class {
        if c.index() >= meta.class_count() {
            return Err(format!("class#{} out of range for metamodel", c.0));
        }
    }
    if let Some(a) = attr {
        if a.index() >= meta.attr_count() {
            return Err(format!("attr#{} out of range for metamodel", a.0));
        }
    }
    if let Some(r) = r {
        if r.index() >= meta.ref_count() {
            return Err(format!("ref#{} out of range for metamodel", r.0));
        }
    }
    Ok(())
}

/// `m<digits>` — a per-model block header. Op lines always start with
/// `+`, `-`, or `@`, so the two line shapes cannot collide.
fn model_header(line: &str) -> Option<usize> {
    let digits = line.strip_prefix('m')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Parses one [`EditOp`] `Display` line.
pub(crate) fn parse_op(line: &str) -> Result<EditOp, String> {
    let mut c = Cursor { s: line };
    let bad = || format!("bad op line {line:?}");
    let op = if c.eat("@") {
        let id = ObjId(c.id()?);
        c.expect(".attr#")?;
        let attr = AttrId(c.id()?);
        c.expect(" = ")?;
        let value = c.value()?;
        c.expect(" (was ")?;
        let old = c.value()?;
        c.expect(")")?;
        EditOp::SetAttr {
            id,
            attr,
            value,
            old,
        }
    } else {
        // `+ @…` adds what `- @…` deletes: an object or a link.
        let add = c.eat("+ @");
        if !add && !c.eat("- @") {
            return Err(bad());
        }
        let src = ObjId(c.id()?);
        if c.eat(" : class#") {
            let class = ClassId(c.id()?);
            match add {
                true => EditOp::AddObj { id: src, class },
                false => EditOp::DelObj { id: src, class },
            }
        } else if c.eat(" --ref#") {
            let r = RefId(c.id()?);
            c.expect("--> @")?;
            let dst = ObjId(c.id()?);
            match add {
                true => EditOp::AddLink { src, r, dst },
                false => EditOp::DelLink { src, r, dst },
            }
        } else {
            return Err(bad());
        }
    };
    if !c.s.is_empty() {
        return Err(format!("trailing garbage {:?} in op line {line:?}", c.s));
    }
    Ok(op)
}

/// A tiny cursor over one op line.
struct Cursor<'a> {
    s: &'a str,
}

impl Cursor<'_> {
    /// Consumes `prefix` if present.
    fn eat(&mut self, prefix: &str) -> bool {
        match self.s.strip_prefix(prefix) {
            Some(rest) => {
                self.s = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes `prefix` or errors.
    fn expect(&mut self, prefix: &str) -> Result<(), String> {
        if self.eat(prefix) {
            Ok(())
        } else {
            Err(format!("expected {prefix:?} before {:?}", self.s))
        }
    }

    /// Consumes an object, class, attribute or reference id: decimal
    /// digits within `u32`.
    fn id(&mut self) -> Result<u32, String> {
        let end = self.s.bytes().take_while(u8::is_ascii_digit).count();
        let (tok, rest) = self.s.split_at(end);
        let id = tok.parse().map_err(|e| format!("bad id {tok:?}: {e}"))?;
        self.s = rest;
        Ok(id)
    }

    /// Consumes one attribute value, as [`read_literal`] reads it.
    fn value(&mut self) -> Result<Value, String> {
        let (lit, len) = read_literal(self.s)?;
        self.s = &self.s[len..];
        Ok(lit.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_model::{AttrType, MetamodelBuilder, Upper};

    fn mm() -> Arc<Metamodel> {
        let mut b = MetamodelBuilder::new("FM");
        let f = b.class("Feature").unwrap();
        b.attr(f, "name", AttrType::Str).unwrap();
        b.attr(f, "mandatory", AttrType::Bool).unwrap();
        b.attr(f, "rank", AttrType::Int).unwrap();
        let m = b.class("FeatureModel").unwrap();
        b.reference(m, "features", f, 0, Upper::Many, true).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn op_lines_round_trip() {
        let ops = [
            EditOp::AddObj {
                id: ObjId(5),
                class: ClassId(1),
            },
            EditOp::DelObj {
                id: ObjId(0),
                class: ClassId(0),
            },
            EditOp::AddLink {
                src: ObjId(0),
                r: RefId(1),
                dst: ObjId(2),
            },
            EditOp::DelLink {
                src: ObjId(7),
                r: RefId(0),
                dst: ObjId(7),
            },
            EditOp::SetAttr {
                id: ObjId(3),
                attr: AttrId(2),
                value: Value::Int(-41),
                old: Value::Int(0),
            },
            EditOp::SetAttr {
                id: ObjId(3),
                attr: AttrId(1),
                value: Value::Bool(true),
                old: Value::Bool(false),
            },
            EditOp::SetAttr {
                id: ObjId(3),
                attr: AttrId(0),
                value: Value::str("plain"),
                old: Value::str(""),
            },
        ];
        for op in ops {
            assert_eq!(parse_op(&op.to_string()).unwrap(), op, "{op}");
        }
    }

    #[test]
    fn adversarial_strings_round_trip() {
        // Values that stress the Rust-debug escaping: quotes,
        // backslashes, the `(was ` delimiter itself, newlines, tabs,
        // NUL, and non-ASCII.
        for s in [
            "a\"b",
            "back\\slash",
            "x (was y)",
            "\" (was \"",
            "line\nbreak\ttab\rcr",
            "\0nul",
            "päper ▷ ü",
            "",
        ] {
            let op = EditOp::SetAttr {
                id: ObjId(1),
                attr: AttrId(0),
                value: Value::str(s),
                old: Value::str("old \" (was \\ tricky)"),
            };
            assert_eq!(parse_op(&op.to_string()).unwrap(), op, "{s:?}");
        }
    }

    #[test]
    fn malformed_op_lines_are_rejected() {
        for bad in [
            "",
            "+ @x : class#1",
            "+ @1 :class#1",
            "+ @1 : class#1 extra",
            "? @1 : class#1",
            "@1.attr#0 = \"unterminated (was \"\")",
            "@1.attr#0 = \"a\" (was \"b\"",
            "@1.attr#0 = maybe (was true)",
            "m0",
            // Ids are `u32`s that never wrap.
            "+ @4294967296 : class#0",
            "+ @-1 : class#0",
            "- @0 --ref#4294967296--> @1",
            "@1.attr#0 = 9223372036854775808 (was 0)",
        ] {
            assert!(parse_op(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn entries_round_trip() {
        let mut d0 = Delta::new();
        d0.push(EditOp::AddObj {
            id: ObjId(4),
            class: ClassId(0),
        });
        d0.push(EditOp::SetAttr {
            id: ObjId(4),
            attr: AttrId(0),
            value: Value::str("brakes"),
            old: Value::str(""),
        });
        let mut d2 = Delta::new();
        d2.push(EditOp::DelLink {
            src: ObjId(1),
            r: RefId(0),
            dst: ObjId(0),
        });
        let entry = JournalEntry {
            kind: JournalKind::Repair {
                shape: Shape::of(&[0, 1]),
                cost: 3,
            },
            deltas: vec![d0, Delta::new(), d2],
        };
        let metas = vec![mm(), mm(), mm()];
        let text = render_entry(&entry);
        let back = parse_entry(&text, &metas).unwrap();
        assert!(matches!(
            back.kind,
            JournalKind::Repair { shape, cost: 3 } if shape.targets() == Shape::of(&[0, 1]).targets()
        ));
        assert_eq!(back.deltas.len(), 3);
        for (a, b) in back.deltas.iter().zip(&entry.deltas) {
            assert_eq!(a.ops(), b.ops());
        }
        // And the rendering is stable under a round trip.
        assert_eq!(render_entry(&back), text);
    }

    #[test]
    fn malformed_entries_are_rejected() {
        let metas = vec![mm(), mm()];
        assert!(parse_entry("", &metas).is_err());
        assert!(parse_entry("repair 0,1\nm0\n", &metas).is_err()); // no cost
        assert!(parse_entry("repair 5 1\n", &metas).is_err()); // target out of range
        assert!(parse_entry("edit\nm7\n+ @0 : class#0\n", &metas).is_err()); // model out of range
        assert!(parse_entry("edit\n+ @0 : class#0\n", &metas).is_err()); // op before header
        assert!(parse_entry("banana\n", &metas).is_err());
        // Metamodel ids that pass the grammar but index out of range.
        assert!(parse_entry("edit\nm0\n+ @0 : class#99\n", &metas).is_err());
        assert!(parse_entry("edit\nm0\n@0.attr#99 = 1 (was 0)\n", &metas).is_err());
        assert!(parse_entry("edit\nm0\n+ @0 --ref#99--> @1\n", &metas).is_err());
    }
}
