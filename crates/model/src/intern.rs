//! Global string interner.
//!
//! Names (classes, attributes, references) and string attribute values are
//! interned to [`Sym`] handles so that equality tests during pattern
//! matching are integer comparisons and models never store duplicate
//! strings. Interning is global: QVT-R checking compares string values
//! *across* models (e.g. feature names between a feature model and its
//! configurations), so all models must share one symbol space.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::mmt_sync::RwLock;

/// An interned string handle. Cheap to copy, hash and compare.
///
/// Two `Sym`s are equal iff the strings they denote are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Interns `s`, returning its handle. Idempotent.
    pub fn new(s: &str) -> Sym {
        interner().write().expect("interner poisoned").intern(s)
    }

    /// Returns the string this symbol denotes (allocates a fresh `String`).
    ///
    /// Use [`Sym::with_str`] in hot paths to avoid the allocation.
    pub fn resolve(self) -> String {
        self.with_str(str::to_owned)
    }

    /// Calls `f` with the interned string without allocating.
    pub fn with_str<R>(self, f: impl FnOnce(&str) -> R) -> R {
        let g = interner().read().expect("interner poisoned");
        f(g.resolve(self))
    }

    /// Raw index of this symbol in the global table.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| write!(f, "Sym({s:?})"))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| f.write_str(s))
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::new(&s)
    }
}

#[derive(Default)]
struct Interner {
    map: HashMap<Box<str>, u32>,
    strings: Vec<Box<str>>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.map.get(s) {
            return Sym(id);
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, id);
        Sym(id)
    }

    fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("engine");
        let b = Sym::new("engine");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        let a = Sym::new("alpha-unique-x1");
        let b = Sym::new("alpha-unique-x2");
        assert_ne!(a, b);
    }

    #[test]
    fn resolve_round_trips() {
        let a = Sym::new("round/trip value");
        assert_eq!(a.resolve(), "round/trip value");
        a.with_str(|s| assert_eq!(s, "round/trip value"));
    }

    #[test]
    fn display_and_debug() {
        let a = Sym::new("shown");
        assert_eq!(a.to_string(), "shown");
        assert_eq!(format!("{a:?}"), "Sym(\"shown\")");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Sym::from("abc"), Sym::new("abc"));
        assert_eq!(Sym::from(String::from("abc")), Sym::new("abc"));
    }

    #[test]
    fn empty_string_is_internable() {
        let e = Sym::new("");
        assert_eq!(e.resolve(), "");
    }
}
