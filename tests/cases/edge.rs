//! The edge specs shared by the engine and checker suites: small specs
//! that exercise each way SAT's grounding splits a check, with their
//! tuples and the repair shapes the suites run.

use mmtf::prelude::*;

/// Two classes with two string attributes each, one per metamodel.
pub const PQ_METAMODELS: [&str; 2] = [
    "metamodel MA { class P { attr first: Str; attr last: Str; } }",
    "metamodel MB { class Q { attr first: Str; attr last: Str; } }",
];

/// As [`PQ_METAMODELS`], with an `Int` attribute for comparisons.
pub const PQ_AGE_METAMODELS: [&str; 2] = [
    "metamodel MA { class P { attr first: Str; attr last: Str; attr age: Int; } }",
    "metamodel MB { class Q { attr first: Str; attr last: Str; attr age: Int; } }",
];

/// A `where` that compares an attribute of a universal object with one
/// of the witness: `q` must copy `p.first` under a shared `last`.
pub const NAVIGATED_SPEC: &str = r#"
transformation N(a : MA, b : MB) {
  top relation R {
    n : Str;
    domain a p : P { last = n };
    domain b q : Q { last = n };
    where { p.first = q.first }
    depend a -> b;
  }
}
"#;

/// A small spec over the P/Q metamodels, its model texts in model-space
/// order, and the repair shapes to pin.
pub struct EdgeSpec {
    pub name: &'static str,
    pub metamodels: [&'static str; 2],
    pub spec: &'static str,
    pub models: &'static [&'static str],
    pub shapes: &'static [&'static [usize]],
}

/// Small specs that exercise each way a directional check splits into
/// what its witness side reads (D) and the rest (R).
pub const EDGE_SPECS: [EdgeSpec; 5] = [
    // The comparison must read `first`, the attribute it navigates, not
    // whichever attribute of `q` holds the value.
    EdgeSpec {
        name: "navigated-attribute",
        metamodels: PQ_METAMODELS,
        spec: NAVIGATED_SPEC,
        models: &[
            r#"model a : MA { p = P { first = "x", last = "k" } }"#,
            r#"model b : MB { q = Q { first = "y", last = "k" } }"#,
        ],
        shapes: &[&[1], &[0, 1]],
    },
    // `when` joins two universal variables that the witness does not
    // read, so they form one component of R.
    EdgeSpec {
        name: "when-joins-universals",
        metamodels: PQ_METAMODELS,
        spec: r#"
transformation J(a : MA, b : MB, c : MB) {
  top relation Pair {
    x, y : Str;
    domain a p : P { first = x };
    domain b q : Q { first = y };
    domain c r : Q { first = x, last = y };
    when { p.last = q.last }
    depend a b -> c;
  }
}
"#,
        models: &[
            r#"model a : MA { p1 = P { first = "p1", last = "k" } p2 = P { first = "p2", last = "m" } }"#,
            r#"model b : MB { q1 = Q { first = "q1", last = "k" } q2 = Q { first = "q2", last = "z" } }"#,
            r#"model c : MB { r = Q { first = "p1", last = "zz" } }"#,
        ],
        shapes: &[&[2], &[0, 1], &[0, 1, 2]],
    },
    // `where` reads a universal object variable (and compares integers),
    // so that object is in D.
    EdgeSpec {
        name: "where-reads-universal",
        metamodels: PQ_AGE_METAMODELS,
        spec: r#"
transformation W(a : MA, b : MB) {
  top relation Older {
    n : Str;
    domain a p : P { last = n };
    domain b q : Q { last = n };
    where { p.age <= q.age }
    depend a -> b;
    depend b -> a;
  }
}
"#,
        models: &[
            r#"model a : MA { p = P { last = "k", age = 3 } s = P { last = "j", age = 1 } }"#,
            r#"model b : MB { q = Q { last = "k", age = 2 } }"#,
        ],
        shapes: &[&[0], &[1], &[0, 1]],
    },
    // A relation call in `where`: the callee is grounded under the
    // caller's direction with its roots bound.
    EdgeSpec {
        name: "call-in-where",
        metamodels: PQ_METAMODELS,
        spec: r#"
transformation C(a : MA, b : MB) {
  relation Same {
    f : Str;
    domain a p : P { first = f };
    domain b q : Q { first = f };
    depend a -> b;
  }
  top relation Outer {
    n : Str;
    domain a p : P { last = n };
    domain b q : Q { last = n };
    where { Same(p, q) }
    depend a -> b;
  }
}
"#,
        models: &[
            r#"model a : MA { p = P { first = "x", last = "k" } }"#,
            r#"model b : MB { q = Q { first = "y", last = "k" } }"#,
        ],
        shapes: &[&[0], &[1], &[0, 1]],
    },
    // The witness side is a target: W is a formula, not a constant.
    EdgeSpec {
        name: "mutable-witness",
        metamodels: PQ_METAMODELS,
        spec: r#"
transformation M(a : MA, b : MB) {
  top relation Tag {
    n : Str;
    domain a p : P { first = n };
    domain b q : Q { first = n, last = "tagged" };
    depend a -> b;
  }
}
"#,
        models: &[
            r#"model a : MA { p1 = P { first = "x" } p2 = P { first = "y" } }"#,
            r#"model b : MB { q1 = Q { first = "x", last = "tagged" } q2 = Q { first = "y", last = "other" } }"#,
        ],
        shapes: &[&[0], &[1], &[0, 1]],
    },
];

/// Parses `spec` over an edge spec's metamodels into its transformation,
/// and the edge spec's models.
pub fn edge_tuple(e: &EdgeSpec, spec: &str) -> (Transformation, Vec<Model>) {
    let t = Transformation::from_sources(spec, &e.metamodels)
        .unwrap_or_else(|err| panic!("{}: {err}", e.name));
    let models = e
        .models
        .iter()
        .zip(t.metamodels())
        .map(|(src, mm)| parse_model(src, mm).unwrap())
        .collect();
    (t, models)
}
