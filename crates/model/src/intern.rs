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
use std::sync::{Arc, OnceLock};

use crate::mmt_sync::RwLock;

/// An interned string handle. Cheap to copy, hash and compare.
///
/// Two `Sym`s are equal iff the strings they denote are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The empty string, the `Str` attribute default. It is interned when
    /// the interner is built, so naming it takes no lock.
    pub const EMPTY: Sym = Sym(0);

    /// Interns `s`, returning its handle. Idempotent.
    pub fn new(s: &str) -> Sym {
        interner().write().expect("interner poisoned").intern(s)
    }

    /// The handle of `s` if it is interned already. Takes the read lock
    /// and never inserts, so looking up a name that names nothing (an
    /// unknown class in a request, say) leaves the table as it was.
    pub fn lookup(s: &str) -> Option<Sym> {
        let g = interner().read().expect("interner poisoned");
        g.map.get(s).map(|&id| Sym(id))
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

    /// Raw index of this symbol in the global table. It reflects the
    /// order in which the process interned its strings, and so does
    /// `Sym`'s derived `Ord`: order output by [`Sym::cmp_text`] instead.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Compares the strings two symbols denote, under one read of the
    /// table: an order that does not depend on which string the process
    /// interned first. Equal symbols compare equal without a lock.
    pub fn cmp_text(self, other: Sym) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        let g = interner().read().expect("interner poisoned");
        g.resolve(self).cmp(g.resolve(other))
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

/// The table. The map and `strings` share each string's one
/// allocation.
#[derive(Default)]
struct Interner {
    map: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.map.get(s) {
            return Sym(id);
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.map.insert(shared, id);
        Sym(id)
    }

    fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let mut interner = Interner::default();
        // `Sym::EMPTY` is the first symbol.
        interner.intern("");
        RwLock::new(interner)
    })
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
    fn lookup_never_interns() {
        let fresh = "lookup-probe-never-interned";
        assert_eq!(Sym::lookup(fresh), None);
        assert_eq!(Sym::lookup(fresh), None, "a failed lookup inserts nothing");
        let s = Sym::new("lookup-probe-interned");
        assert_eq!(Sym::lookup("lookup-probe-interned"), Some(s));
        assert_eq!(Sym::lookup(""), Some(Sym::EMPTY));
    }

    #[test]
    fn cmp_text_orders_by_content_not_intern_order() {
        use std::cmp::Ordering;
        let late = Sym::new("cmp-text-zz");
        let early = Sym::new("cmp-text-aa");
        assert!(late.index() < early.index());
        assert_eq!(early.cmp_text(late), Ordering::Less);
        assert_eq!(late.cmp_text(early), Ordering::Greater);
        assert_eq!(late.cmp_text(late), Ordering::Equal);
        assert_eq!(Sym::EMPTY.cmp_text(early), Ordering::Less);
    }

    #[test]
    fn empty_string_is_internable() {
        let e = Sym::new("");
        assert_eq!(e.resolve(), "");
        assert_eq!(e, Sym::EMPTY);
    }
}
