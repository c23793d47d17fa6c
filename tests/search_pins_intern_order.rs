//! Search repairs depend on their request, not on the process: this
//! binary interns every string value of the pinned repair tuples in
//! the reverse of the order a fresh process interns them, then renders
//! the search pins, which must equal `tests/pins/search_repairs.txt`
//! (`engines_differential` renders the same pins in the natural order).
//!
//! The strings come from a child run of this binary: it builds the
//! tuples in a fresh process and lists their distinct string values in
//! intern order.

use std::process::Command;

use mmtf::model::{Sym, Value};

#[path = "cases/pinned.rs"]
mod pinned;
use pinned::{pinned_cases, render_pinned_search_repairs};

/// Set in the child run: the file it lists the strings in.
const LIST_VAR: &str = "MMT_PINNED_STRINGS_OUT";
const TEST: &str = "search_pins_hold_under_reversed_intern_order";

/// The distinct string values of every pinned tuple, in intern order,
/// each followed by a NUL.
fn pinned_strings() -> String {
    let mut syms: Vec<Sym> = Vec::new();
    for case in pinned_cases() {
        for m in &case.models {
            for (_, obj) in m.objects() {
                syms.extend(obj.attrs.iter().filter_map(|v| match *v {
                    Value::Str(s) => Some(s),
                    _ => None,
                }));
            }
        }
    }
    syms.sort_unstable_by_key(|s| s.index());
    syms.dedup();
    syms.iter().map(|s| s.resolve() + "\0").collect()
}

#[test]
fn search_pins_hold_under_reversed_intern_order() {
    if let Some(path) = std::env::var_os(LIST_VAR) {
        std::fs::write(path, pinned_strings()).unwrap();
        return;
    }
    let path = std::env::temp_dir().join(format!("mmt-pinned-strings-{}", std::process::id()));
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", TEST, "--test-threads=1"])
        .env(LIST_VAR, &path)
        .output()
        .unwrap();
    assert!(
        child.status.success(),
        "the child run listing the strings failed:\n{}",
        String::from_utf8_lossy(&child.stderr)
    );
    let list = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let strings: Vec<&str> = list.split_terminator('\0').collect();
    assert!(strings.len() > 20, "{strings:?}");
    let syms: Vec<Sym> = strings.iter().rev().map(|s| Sym::new(s)).collect();
    // Every string but the empty one (interned first in every process)
    // is fresh here, so the reversal took.
    let fresh: Vec<u32> = syms
        .iter()
        .filter(|&&s| s != Sym::EMPTY)
        .map(|s| s.index())
        .collect();
    assert!(fresh.windows(2).all(|w| w[0] < w[1]));
    let got = render_pinned_search_repairs();
    let want = include_str!("pins/search_repairs.txt");
    for (g, w) in got.split("== ").zip(want.split("== ")) {
        assert_eq!(g, w, "a search repair depends on the intern order");
    }
    assert_eq!(got, want, "pinned case list changed");
}
