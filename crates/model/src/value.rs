//! Attribute value types and runtime values.

use crate::intern::Sym;
use std::fmt;

/// The type of an attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttrType {
    /// Interned string.
    Str,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
}

impl AttrType {
    /// The default value a fresh object carries for this type.
    pub fn default_value(self) -> Value {
        match self {
            AttrType::Str => Value::Str(Sym::EMPTY),
            AttrType::Bool => Value::Bool(false),
            AttrType::Int => Value::Int(0),
        }
    }

    /// Human-readable type name as used in the textual syntax.
    pub fn name(self) -> &'static str {
        match self {
            AttrType::Str => "Str",
            AttrType::Bool => "Bool",
            AttrType::Int => "Int",
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime attribute value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// Interned string value.
    Str(Sym),
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
}

impl Value {
    /// The type this value inhabits.
    pub fn ty(self) -> AttrType {
        match self {
            Value::Str(_) => AttrType::Str,
            Value::Bool(_) => AttrType::Bool,
            Value::Int(_) => AttrType::Int,
        }
    }

    /// Convenience constructor interning `s`.
    pub fn str(s: &str) -> Value {
        Value::Str(Sym::new(s))
    }

    /// Returns the string symbol if this is a `Str` value.
    pub fn as_sym(self) -> Option<Sym> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool` value.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int` value.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => s.with_str(|s| write!(f, "{s:?}")),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Value {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types() {
        assert_eq!(Value::str("x").ty(), AttrType::Str);
        assert_eq!(Value::Bool(true).ty(), AttrType::Bool);
        assert_eq!(Value::Int(7).ty(), AttrType::Int);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::str("x").as_sym(), Some(Sym::new("x")));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(9).as_int(), Some(9));
        assert_eq!(Value::Int(9).as_bool(), None);
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Int(1).as_sym(), None);
    }

    #[test]
    fn defaults_inhabit_their_types() {
        for ty in [AttrType::Str, AttrType::Bool, AttrType::Int] {
            assert_eq!(ty.default_value().ty(), ty);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(AttrType::Str.to_string(), "Str");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("v"), Value::str("v"));
        assert_eq!(Value::from(Sym::new("v")), Value::str("v"));
    }
}
