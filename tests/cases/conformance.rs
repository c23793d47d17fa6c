//! Tuples whose cheapest repair would break a link constraint of the
//! target's metamodel, shared by the engine suites.

use mmtf::prelude::*;

/// A tuple that an edit breaking a link constraint of the target's
/// metamodel repairs at least as cheaply as any conformant repair.
pub struct ConformanceCase {
    pub name: &'static str,
    pub metamodels: [&'static str; 2],
    pub spec: &'static str,
    pub models: [&'static str; 2],
    pub target: usize,
    pub cost: CostModel,
    pub least: u64,
}

/// Uniform op prices.
pub const UNIFORM: CostModel = CostModel {
    add_obj: 1,
    del_obj: 1,
    set_attr: 1,
    add_link: 1,
    del_link: 1,
};

/// Op prices at which deleting a link is the cheapest edit.
pub const CHEAP_UNLINK: CostModel = CostModel {
    add_obj: 3,
    del_obj: 3,
    set_attr: 2,
    add_link: 1,
    del_link: 1,
};

/// Every `A` lists at least one `B`, and every listed `B`'s name must
/// name a `P`.
pub const LISTED_METAMODELS: [&str; 2] = [
    "metamodel MA { class A { ref items: B [1..*]; } class B { attr name: Str; } }",
    "metamodel MB { class P { attr name: Str; } }",
];
pub const LISTED_SPEC: &str = r#"
transformation L(a : MA, b : MB) {
  top relation Listed {
    n : Str;
    domain a x : A { items = y : B { name = n } };
    domain b p : P { name = n };
    depend a -> b;
  }
}
"#;

pub const CONFORMANCE_CASES: [ConformanceCase; 4] = [
    // Linking the existing column into table C1 would give it a second
    // container; a conformant repair creates, names and links a column.
    ConformanceCase {
        name: "second container",
        metamodels: [
            include_str!("../../examples/data/UML.mm"),
            include_str!("../../examples/data/RDB.mm"),
        ],
        spec: include_str!("../../examples/data/C2T.qvtr"),
        models: [
            r#"model uml : UML {
                x0 = Attribute { name = "x" }
                x1 = Attribute { name = "x" }
                c0 = Class { name = "C0", attrs = [x0] }
                c1 = Class { name = "C1", attrs = [x1] }
            }"#,
            r#"model rdb : RDB {
                col = Column { name = "x" }
                t0 = Table { name = "C0", cols = [col] }
                t1 = Table { name = "C1" }
            }"#,
        ],
        target: 1,
        cost: UNIFORM,
        least: 3,
    },
    // `x0` already holds the one item `[0..1]` admits; a conformant
    // repair creates a second holder for `y1`.
    ConformanceCase {
        name: "upper bound",
        metamodels: [
            "metamodel MA { class P { attr name: Str; } }",
            "metamodel MB { class A { ref item: B [0..1]; } class B { attr name: Str; } }",
        ],
        spec: r#"
transformation U(a : MA, b : MB) {
  top relation Held {
    n : Str;
    domain a p : P { name = n };
    domain b x : A { item = y : B { name = n } };
    depend a -> b;
  }
}
"#,
        models: [
            r#"model a : MA { p0 = P { name = "p" } p1 = P { name = "q" } }"#,
            r#"model b : MB {
                y0 = B { name = "p" }
                y1 = B { name = "q" }
                x0 = A { item = [y0] }
            }"#,
        ],
        target: 1,
        cost: UNIFORM,
        least: 2,
    },
    // Unlinking `y0` would leave `x0` below the lower bound of
    // `[1..*]`; a conformant repair renames `y0` to the name `b` holds.
    ConformanceCase {
        name: "lower bound",
        metamodels: LISTED_METAMODELS,
        spec: LISTED_SPEC,
        models: [
            r#"model a : MA { y0 = B { name = "q" } x0 = A { items = [y0] } }"#,
            r#"model b : MB { p0 = P { name = "p" } }"#,
        ],
        target: 0,
        cost: CHEAP_UNLINK,
        least: 2,
    },
    // Deleting `y0` would scrub the only item of `x0` and of `x1`; the
    // conformant repair of the same cost renames `y0`.
    ConformanceCase {
        name: "scrubbed link",
        metamodels: LISTED_METAMODELS,
        spec: LISTED_SPEC,
        models: [
            r#"model a : MA {
                y0 = B { name = "q" }
                x0 = A { items = [y0] }
                x1 = A { items = [y0] }
            }"#,
            r#"model b : MB { p0 = P { name = "p" } }"#,
        ],
        target: 0,
        cost: UNIFORM,
        least: 1,
    },
];
