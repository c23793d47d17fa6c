//! Textual serialization for metamodels and models.
//!
//! The format is line-oriented and human-editable; it is what the `mmt`
//! CLI reads and writes, and what a durable store keeps its seeds in.
//! Example:
//!
//! ```text
//! metamodel FM {
//!   class Feature {
//!     attr name: Str;
//!     attr mandatory: Bool;
//!   }
//!   class FeatureModel {
//!     ref features: Feature [0..*] containment;
//!   }
//! }
//! ```
//!
//! ```text
//! model fm : FM bound 4 {
//!   @0 = Feature { name = "engine", mandatory = true }
//!   @2 = FeatureModel { features = [@0] }
//! }
//! ```
//!
//! Model text keeps object ids. [`print_model`] labels every object
//! `@<id>`, the syntax edit lines, journals and reports use, and writes
//! `bound <n>` after the metamodel name only when the last ids are
//! tombstones (above, ids 1 and 3 are); a gap below the last live id
//! shows in the labels. [`parse_model`] puts an `@<id>` object at that
//! id and pads the id space to the bound, so print → parse keeps every
//! id and [`Model::id_bound`]. Neither an `@<id>` nor the bound may
//! reach past [`MAX_IDS`]. A hand-written file may label objects by
//! identifiers instead (`f1 = Feature { … }`, `features = [f1]`); they
//! get the next free id in declaration order.
//!
//! Attribute values are literals, and [`read_literal`] is the one
//! reader of their grammar, whatever the input: model files, `mmt sync`
//! edit lines, WAL records and QVT-R string literals. A string is
//! written as [`Value`]'s `Display` writes it (Rust's `{:?}`: the
//! escapes `\"`, `\\`, `\n`, `\t`, `\r`, `\0` and `\u{HEX}`), an
//! integer in decimal with an optional `-`, a boolean as `true` or
//! `false`.

use crate::intern::Sym;
use crate::meta::{ClassId, MetaError, Metamodel, MetamodelBuilder, PropId, RefId, Upper};
use crate::model::{Model, ModelError, ObjId, MAX_IDS};
use crate::value::{AttrType, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Error raised while parsing the textual formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// An error at byte offset `at` of `src`. Tokens carry only their
/// offset; the line and column (in characters) are counted here, on
/// the error path.
fn error_at(src: &str, at: usize, msg: impl Into<String>) -> ParseError {
    let before = &src[..at];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    ParseError {
        line: before.bytes().filter(|&b| b == b'\n').count() as u32 + 1,
        col: before[line_start..].chars().count() as u32 + 1,
        msg: msg.into(),
    }
}

/// A literal of the text format: what an attribute value is written
/// as in model files, edit lines, journals and WAL records alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal<'a> {
    /// A string, unescaped. It borrows the source unless it held an
    /// escape.
    Str(Cow<'a, str>),
    /// An integer.
    Int(i64),
    /// `true` or `false`.
    Bool(bool),
}

impl Literal<'_> {
    /// The type of the value the literal denotes.
    pub fn ty(&self) -> AttrType {
        match self {
            Literal::Str(_) => AttrType::Str,
            Literal::Int(_) => AttrType::Int,
            Literal::Bool(_) => AttrType::Bool,
        }
    }

    /// The value the literal denotes; a string is interned.
    pub fn value(&self) -> Value {
        match self {
            Literal::Str(s) => Value::str(s),
            Literal::Int(i) => Value::Int(*i),
            Literal::Bool(b) => Value::Bool(*b),
        }
    }
}

/// Reads the literal that `src` starts with, and returns it with its
/// length in bytes. This is the one reader of the grammar [`Value`]'s
/// `Display` writes:
///
/// - a string in double quotes, which may span lines, with exactly the
///   escapes a string's `{:?}` writes: `\"`, `\\`, `\n`, `\t`, `\r`,
///   `\0` and `\u{HEX}` (one to six hex digits naming a Unicode scalar
///   value);
/// - an integer: an optional `-` and decimal digits, within `i64`;
/// - `true` or `false`, not followed by a letter, digit or `_`.
///
/// An error explains what is wrong; it belongs at the literal's start.
pub fn read_literal(src: &str) -> Result<(Literal<'_>, usize), String> {
    let bytes = src.as_bytes();
    match bytes.first() {
        Some(b'"') => read_string(src),
        Some(b'0'..=b'9' | b'-') => {
            let digits = bytes[1..].iter().take_while(|b| b.is_ascii_digit());
            let len = 1 + digits.count();
            let text = &src[..len];
            text.parse()
                .map(|i| (Literal::Int(i), len))
                .map_err(|_| format!("bad integer literal `{text}`"))
        }
        _ => {
            let word_end = src
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(src.len());
            match &src[..word_end] {
                "true" => Ok((Literal::Bool(true), 4)),
                "false" => Ok((Literal::Bool(false), 5)),
                _ => Err("expected a string, integer or boolean literal".into()),
            }
        }
    }
}

/// [`read_literal`] of a string: `src` starts with its opening quote.
fn read_string(src: &str) -> Result<(Literal<'_>, usize), String> {
    let bytes = src.as_bytes();
    let mut owned: Option<String> = None;
    // `run..i` is the stretch since the last escape, not yet copied.
    let mut run = 1;
    let mut i = run;
    loop {
        match bytes.get(i) {
            None => return Err("unterminated string literal".into()),
            Some(b'"') => {
                let tail = &src[run..i];
                let s = match owned {
                    None => Cow::Borrowed(tail),
                    Some(mut s) => {
                        s.push_str(tail);
                        Cow::Owned(s)
                    }
                };
                return Ok((Literal::Str(s), i + 1));
            }
            Some(b'\\') => {
                let s = owned.get_or_insert_with(String::new);
                s.push_str(&src[run..i]);
                let escaped = match src[i + 1..].chars().next() {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some('0') => '\0',
                    Some('u') => {
                        // `\u{`, one to six hex digits, `}`.
                        let hex = src[i + 2..]
                            .strip_prefix('{')
                            .and_then(|r| r.split_once('}'))
                            .map_or("", |(hex, _)| hex);
                        let scalar = ((1..=6).contains(&hex.len())
                            && hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .then(|| u32::from_str_radix(hex, 16).ok())
                        .flatten()
                        .and_then(char::from_u32);
                        let Some(c) = scalar else {
                            return Err("bad escape `\\u`".into());
                        };
                        i += hex.len() + 2;
                        c
                    }
                    other => return Err(format!("bad escape `\\{other:?}`")),
                };
                s.push(escaped);
                i += 2;
                run = i;
            }
            Some(_) => i += 1,
        }
    }
}

/// A token. Identifiers borrow from the source, and so does a string
/// literal without escapes.
#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    /// A string or an integer; `true` and `false` lex as identifiers.
    Lit(Literal<'a>),
    /// `@<id>`: an object named by its id.
    Id(u32),
    Punct(char),
    DotDot,
    Eof,
}

/// A name and the byte offset it starts at.
type Spanned<'a> = (&'a str, usize);

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Skips whitespace and `//` comments.
    fn skip_trivia(&mut self) {
        loop {
            let rest = &self.src[self.pos..];
            if rest.starts_with("//") {
                self.pos += rest.find('\n').map_or(rest.len(), |i| i + 1);
            } else if let Some(c) = rest.chars().next().filter(|c| c.is_whitespace()) {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    /// Lexes the next token and returns it with its byte offset.
    fn next(&mut self) -> Result<(Tok<'a>, usize), ParseError> {
        self.skip_trivia();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let Some(&b) = bytes.get(start) else {
            return Ok((Tok::Eof, start));
        };
        let tok = match b {
            b'"' | b'0'..=b'9' | b'-' => {
                let (lit, len) = read_literal(&self.src[start..])
                    .map_err(|msg| error_at(self.src, start, msg))?;
                self.pos += len;
                Tok::Lit(lit)
            }
            b'@' => {
                let digits = bytes[start + 1..].iter().take_while(|b| b.is_ascii_digit());
                self.pos = start + 1 + digits.count();
                let text = &self.src[start..self.pos];
                text[1..]
                    .parse()
                    .map(Tok::Id)
                    .map_err(|_| error_at(self.src, start, format!("bad object id `{text}`")))?
            }
            b'.' if bytes.get(start + 1) == Some(&b'.') => {
                self.pos += 2;
                Tok::DotDot
            }
            _ => {
                let c = self.src[start..].chars().next().expect("a byte remains");
                if c.is_alphabetic() || c == '_' {
                    let len: usize = self.src[start..]
                        .chars()
                        .take_while(|&c| c.is_alphanumeric() || c == '_')
                        .map(char::len_utf8)
                        .sum();
                    self.pos += len;
                    Tok::Ident(&self.src[start..self.pos])
                } else {
                    self.pos += c.len_utf8();
                    Tok::Punct(c)
                }
            }
        };
        Ok((tok, start))
    }
}

struct Parser<'a> {
    lx: Lexer<'a>,
    /// The lookahead token and its byte offset.
    tok: Tok<'a>,
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let mut lx = Lexer { src, pos: 0 };
        let (tok, at) = lx.next()?;
        Ok(Parser { lx, tok, at })
    }

    /// An error at byte offset `at`.
    fn err_at(&self, at: usize, msg: impl Into<String>) -> ParseError {
        error_at(self.lx.src, at, msg)
    }

    /// An error at the lookahead token.
    fn err(&self, msg: impl Into<String>) -> ParseError {
        self.err_at(self.at, msg)
    }

    /// Consumes the lookahead token and returns it with its offset.
    fn advance(&mut self) -> Result<(Tok<'a>, usize), ParseError> {
        let (next, next_at) = self.lx.next()?;
        let at = std::mem::replace(&mut self.at, next_at);
        Ok((std::mem::replace(&mut self.tok, next), at))
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_punct(c)? {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`, found {:?}", self.tok)))
        }
    }

    fn eat_punct(&mut self, c: char) -> Result<bool, ParseError> {
        if matches!(self.tok, Tok::Punct(p) if p == c) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_ident(&mut self) -> Result<Spanned<'a>, ParseError> {
        let Tok::Ident(s) = self.tok else {
            return Err(self.err(format!("expected identifier, found {:?}", self.tok)));
        };
        let at = self.at;
        self.advance()?;
        Ok((s, at))
    }

    /// An object label: an identifier, or `@<id>`.
    fn expect_label(&mut self) -> Result<(Label<'a>, usize), ParseError> {
        let label = match self.tok {
            Tok::Ident(name) => Label::Name(name),
            Tok::Id(id) => Label::Id(ObjId(id)),
            _ => return Err(self.err(format!("expected object label, found {:?}", self.tok))),
        };
        let (_, at) = self.advance()?;
        Ok((label, at))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.expect_ident()? {
            (id, _) if id == kw => Ok(()),
            (id, at) => Err(self.err_at(at, format!("expected `{kw}`, found `{id}`"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.tok, Tok::Ident(s) if s == kw)
    }

    fn expect_eof(&self, what: &str) -> Result<(), ParseError> {
        match self.tok {
            Tok::Eof => Ok(()),
            _ => Err(self.err(format!("trailing input after {what}"))),
        }
    }
}

/// One class of a metamodel source.
struct ClassDecl<'a> {
    name: Spanned<'a>,
    supers: Vec<Spanned<'a>>,
    is_abstract: bool,
    members: Vec<MemberDecl<'a>>,
}

enum MemberDecl<'a> {
    Attr {
        name: Spanned<'a>,
        ty: AttrType,
    },
    Ref {
        name: Spanned<'a>,
        target: Spanned<'a>,
        lower: u32,
        upper: Upper,
        containment: bool,
    },
}

/// Parses a metamodel from its textual form.
pub fn parse_metamodel(src: &str) -> Result<Arc<Metamodel>, ParseError> {
    let mut p = Parser::new(src)?;
    p.expect_keyword("metamodel")?;
    let (name, _) = p.expect_ident()?;
    p.expect_punct('{')?;
    // Every class is declared before any member, so that a supertype or
    // a reference may name a class declared further down.
    let mut decls: Vec<ClassDecl<'_>> = Vec::new();
    while !p.eat_punct('}')? {
        let is_abstract = p.at_keyword("abstract");
        if is_abstract {
            p.advance()?;
        }
        p.expect_keyword("class")?;
        let cname = p.expect_ident()?;
        let mut supers = Vec::new();
        if p.at_keyword("extends") {
            p.advance()?;
            supers.push(p.expect_ident()?);
            while p.eat_punct(',')? {
                supers.push(p.expect_ident()?);
            }
        }
        p.expect_punct('{')?;
        let mut members = Vec::new();
        while !p.eat_punct('}')? {
            members.push(parse_member(&mut p)?);
        }
        decls.push(ClassDecl {
            name: cname,
            supers,
            is_abstract,
            members,
        });
    }
    p.expect_eof("metamodel")?;
    let mut b = MetamodelBuilder::new(name);
    let mut ids: HashMap<&str, ClassId> = HashMap::with_capacity(decls.len());
    for d in &decls {
        let (cname, at) = d.name;
        let id = b
            .class_full(cname, &[], d.is_abstract)
            .map_err(|e| p.err_at(at, e.to_string()))?;
        ids.insert(cname, id);
    }
    let class = |(name, at): Spanned<'_>, what: &str| {
        ids.get(name)
            .copied()
            .ok_or_else(|| p.err_at(at, format!("unknown {what} `{name}`")))
    };
    for d in &decls {
        let cid = ids[d.name.0];
        for &s in &d.supers {
            let sid = class(s, "supertype")?;
            b.add_super(cid, sid)
                .map_err(|e| p.err_at(s.1, e.to_string()))?;
        }
        for m in &d.members {
            match *m {
                MemberDecl::Attr { name, ty } => {
                    b.attr(cid, name.0, ty)
                        .map_err(|e| p.err_at(name.1, e.to_string()))?;
                }
                MemberDecl::Ref {
                    name,
                    target,
                    lower,
                    upper,
                    containment,
                } => {
                    let tid = class(target, "class")?;
                    b.reference(cid, name.0, tid, lower, upper, containment)
                        .map_err(|e| p.err_at(name.1, e.to_string()))?;
                }
            }
        }
    }
    b.build().map_err(|e| {
        // The class's name, or for a clash its own clashing member (two
        // inherited properties clash at no member of the class).
        let class_at = |name: &str| ids.get(name).map_or(0, |c| decls[c.index()].name.1);
        let at = match &e {
            MetaError::DuplicateProperty { class, decl, .. } => {
                // Ids count the attributes and the references in the
                // order the loop above declared them.
                let (attr, index) = match *decl {
                    PropId::Attr(a) => (true, a.index()),
                    PropId::Ref(r) => (false, r.index()),
                };
                let declared = decls
                    .iter()
                    .flat_map(|d| d.members.iter().map(move |m| (d, m)));
                let owned = declared
                    .filter(|(_, m)| matches!(m, MemberDecl::Attr { .. }) == attr)
                    .nth(index)
                    .filter(|(d, _)| d.name.0 == class);
                match owned {
                    Some((_, MemberDecl::Attr { name, .. } | MemberDecl::Ref { name, .. })) => {
                        name.1
                    }
                    None => class_at(class),
                }
            }
            MetaError::InheritanceCycle(class)
            | MetaError::DuplicateClass(class)
            | MetaError::UnknownClass(class) => class_at(class),
        };
        p.err_at(at, e.to_string())
    })
}

fn parse_member<'a>(p: &mut Parser<'a>) -> Result<MemberDecl<'a>, ParseError> {
    if p.at_keyword("attr") {
        p.advance()?;
        let name = p.expect_ident()?;
        p.expect_punct(':')?;
        let ty = match p.expect_ident()? {
            ("Str", _) => AttrType::Str,
            ("Bool", _) => AttrType::Bool,
            ("Int", _) => AttrType::Int,
            (other, at) => return Err(p.err_at(at, format!("unknown attribute type `{other}`"))),
        };
        p.expect_punct(';')?;
        Ok(MemberDecl::Attr { name, ty })
    } else if p.at_keyword("ref") {
        p.advance()?;
        let name = p.expect_ident()?;
        p.expect_punct(':')?;
        let target = p.expect_ident()?;
        let (mut lower, mut upper) = (0u32, Upper::Many);
        if p.eat_punct('[')? {
            lower = match p.advance()? {
                (Tok::Lit(Literal::Int(i)), _) if u32::try_from(i).is_ok() => i as u32,
                (other, at) => {
                    return Err(p.err_at(at, format!("expected lower bound, found {other:?}")))
                }
            };
            if p.tok == Tok::DotDot {
                p.advance()?;
                upper = match p.advance()? {
                    (Tok::Lit(Literal::Int(i)), _) if u32::try_from(i).is_ok() => {
                        Upper::Bounded(i as u32)
                    }
                    (Tok::Punct('*'), _) => Upper::Many,
                    (other, at) => {
                        return Err(p.err_at(at, format!("expected upper bound, found {other:?}")))
                    }
                };
            } else {
                upper = Upper::Bounded(lower);
            }
            p.expect_punct(']')?;
        }
        let containment = p.at_keyword("containment");
        if containment {
            p.advance()?;
        }
        p.expect_punct(';')?;
        Ok(MemberDecl::Ref {
            name,
            target,
            lower,
            upper,
            containment,
        })
    } else {
        Err(p.err(format!("expected `attr` or `ref`, found {:?}", p.tok)))
    }
}

/// The class and property names one model source uses, each resolved
/// on its first use through a read-only interner lookup. A name the
/// interner does not hold names nothing, and stays out of it.
#[derive(Default)]
struct Names<'a>(HashMap<&'a str, Option<Sym>>);

impl<'a> Names<'a> {
    fn sym(&mut self, name: &'a str) -> Option<Sym> {
        *self.0.entry(name).or_insert_with(|| Sym::lookup(name))
    }
}

/// A link of a model source, added once every object is known.
struct PendingLink<'a> {
    src: ObjId,
    r: RefId,
    dst: Label<'a>,
    at: usize,
}

/// How a model source names an object: by an identifier label, or as
/// `@<id>` by its id.
#[derive(Clone, Copy)]
enum Label<'a> {
    Name(&'a str),
    Id(ObjId),
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Name(name) => f.write_str(name),
            Label::Id(id) => write!(f, "{id}"),
        }
    }
}

/// Parses a model in textual form against a known metamodel.
///
/// One pass over the source adds each object as it is declared. An
/// object labelled `@<id>` gets that id; one labelled by an identifier
/// gets the model's next id, so a file of identifier labels numbers its
/// objects in declaration order. A `bound` in the header pads the id
/// space with tombstones up to it, so a printed model reads back with
/// its ids and its [`Model::id_bound`]; an id or a bound past
/// [`MAX_IDS`] is an error at its position. String values reach the
/// interner in file order, and the model's name after them.
pub fn parse_model(src: &str, meta: &Arc<Metamodel>) -> Result<Model, ParseError> {
    let mut p = Parser::new(src)?;
    p.expect_keyword("model")?;
    let (name, _) = p.expect_ident()?;
    p.expect_punct(':')?;
    let (mm_name, mm_at) = p.expect_ident()?;
    if Sym::lookup(mm_name) != Some(meta.name) {
        return Err(p.err_at(
            mm_at,
            format!(
                "model declares metamodel `{mm_name}` but `{}` was supplied",
                meta.name
            ),
        ));
    }
    let mut bound = None;
    if p.at_keyword("bound") {
        p.advance()?;
        bound = match p.advance()? {
            (Tok::Lit(Literal::Int(n)), at) if n > MAX_IDS as i64 => {
                let past = format!("id bound {n} is past the id space's {MAX_IDS} ids");
                return Err(p.err_at(at, past));
            }
            (Tok::Lit(Literal::Int(n)), at) if n >= 0 => Some((n as usize, at)),
            (other, at) => return Err(p.err_at(at, format!("expected id bound, found {other:?}"))),
        };
    }
    p.expect_punct('{')?;
    // The model and each object open one brace: the object count of a
    // printed model, and an upper bound unless braces sit in strings or
    // comments.
    let objects = src.bytes().filter(|&b| b == b'{').count().saturating_sub(1);
    let mut model = Model::with_capacity("", Arc::clone(meta), objects);
    let mut labels: HashMap<&str, ObjId> = HashMap::new();
    let mut names = Names::default();
    // A reference list may name an object declared after it.
    let mut links: Vec<PendingLink<'_>> = Vec::new();
    while !p.eat_punct('}')? {
        let (label, label_at) = p.expect_label()?;
        p.expect_punct('=')?;
        let (cname, class_at) = p.expect_ident()?;
        let class = names
            .sym(cname)
            .and_then(|s| meta.class_by_name(s))
            .ok_or_else(|| p.err_at(class_at, format!("unknown class `{cname}`")))?;
        let duplicate = || p.err_at(label_at, format!("duplicate object label `{label}`"));
        let id = match label {
            Label::Name(name) => {
                let id = model
                    .add(class)
                    .map_err(|e| p.err_at(class_at, e.to_string()))?;
                if labels.is_empty() {
                    labels.reserve(objects);
                }
                if labels.insert(name, id).is_some() {
                    return Err(duplicate());
                }
                id
            }
            Label::Id(id) => {
                if model.contains(id) {
                    return Err(duplicate());
                }
                model.add_at(id, class).map_err(|e| {
                    let at = match e {
                        ModelError::IdPastCeiling(_) => label_at,
                        _ => class_at,
                    };
                    p.err_at(at, e.to_string())
                })?;
                id
            }
        };
        p.expect_punct('{')?;
        while !p.eat_punct('}')? {
            let (pname, pname_at) = p.expect_ident()?;
            p.expect_punct('=')?;
            if p.eat_punct('[')? {
                let r = names
                    .sym(pname)
                    .and_then(|s| meta.ref_of(class, s))
                    .ok_or_else(|| {
                        p.err_at(
                            pname_at,
                            format!("class `{cname}` has no reference `{pname}`"),
                        )
                    })?;
                if !p.eat_punct(']')? {
                    loop {
                        let (dst, at) = p.expect_label()?;
                        links.push(PendingLink {
                            src: id,
                            r,
                            dst,
                            at,
                        });
                        if p.eat_punct(']')? {
                            break;
                        }
                        p.expect_punct(',')?;
                    }
                }
            } else {
                let (tok, at) = p.advance()?;
                let value = match tok {
                    Tok::Lit(lit) => lit.value(),
                    Tok::Ident("true") => Value::Bool(true),
                    Tok::Ident("false") => Value::Bool(false),
                    other => return Err(p.err_at(at, format!("bad property value {other:?}"))),
                };
                let attr = names
                    .sym(pname)
                    .and_then(|s| meta.attr_of(class, s))
                    .ok_or_else(|| {
                        p.err_at(
                            pname_at,
                            format!("class `{cname}` has no attribute `{pname}`"),
                        )
                    })?;
                model
                    .set_attr(id, attr, value)
                    .map_err(|e| p.err_at(at, e.to_string()))?;
            }
            p.eat_punct(',')?;
        }
    }
    p.expect_eof("model")?;
    for PendingLink { src, r, dst, at } in links {
        let target = match dst {
            Label::Name(name) => labels.get(name).copied(),
            Label::Id(id) => model.contains(id).then_some(id),
        };
        let target = target.ok_or_else(|| p.err_at(at, format!("unknown object label `{dst}`")))?;
        model
            .add_link(src, r, target)
            .map_err(|e| p.err_at(at, e.to_string()))?;
    }
    if let Some((bound, at)) = bound {
        if bound < model.id_bound() {
            return Err(p.err_at(
                at,
                format!("id bound {bound} is below object @{}", model.id_bound() - 1),
            ));
        }
        model.set_id_bound(bound);
    }
    model.name = Sym::new(name);
    Ok(model)
}

/// Renders a metamodel in the textual format accepted by
/// [`parse_metamodel`].
pub fn print_metamodel(meta: &Metamodel) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "metamodel {} {{", meta.name);
    for (_, class) in meta.classes() {
        let kw = if class.is_abstract {
            "abstract class"
        } else {
            "class"
        };
        let _ = write!(s, "  {kw} {}", class.name);
        if !class.supers.is_empty() {
            let names: Vec<String> = class
                .supers
                .iter()
                .map(|&c| meta.class(c).name.resolve())
                .collect();
            let _ = write!(s, " extends {}", names.join(", "));
        }
        let _ = writeln!(s, " {{");
        for &a in &class.own_attrs {
            let attr = meta.attr(a);
            let _ = writeln!(s, "    attr {}: {};", attr.name, attr.ty);
        }
        for &r in &class.own_refs {
            let rf = meta.reference(r);
            let cont = if rf.containment { " containment" } else { "" };
            let _ = writeln!(
                s,
                "    ref {}: {} [{}..{}]{cont};",
                rf.name,
                meta.class(rf.target).name,
                rf.lower,
                rf.upper
            );
        }
        let _ = writeln!(s, "  }}");
    }
    s.push_str("}\n");
    s
}

/// Renders a model in the textual format accepted by [`parse_model`]:
/// every object labelled `@<id>`, and the id bound in the header when
/// the last ids are tombstones, so the text reads back with the model's
/// ids and [`Model::id_bound`].
pub fn print_model(model: &Model) -> String {
    let meta = model.metamodel();
    let mut s = String::new();
    let _ = write!(s, "model {} : {}", model.name, meta.name);
    let end = model
        .objects()
        .next_back()
        .map_or(0, |(id, _)| id.index() + 1);
    if model.id_bound() > end {
        let _ = write!(s, " bound {}", model.id_bound());
    }
    s.push_str(" {\n");
    for (id, obj) in model.objects() {
        let class = meta.class(obj.class);
        let _ = write!(s, "  {id} = {} {{ ", class.name);
        let mut first = true;
        for (slot, &attr_id) in class.all_attrs.iter().enumerate() {
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "{} = {}", meta.attr(attr_id).name, obj.attrs[slot]);
        }
        for (slot, &ref_id) in class.all_refs.iter().enumerate() {
            if obj.refs[slot].is_empty() {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "{} = [", meta.reference(ref_id).name);
            for (i, target) in obj.refs[slot].iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{target}");
            }
            s.push(']');
        }
        s.push_str(" }\n");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const FM_SRC: &str = r#"
metamodel FM {
  class Feature {
    attr name: Str;
    attr mandatory: Bool;
  }
  class FeatureModel {
    ref features: Feature [0..*] containment;
  }
}
"#;

    #[test]
    fn parse_metamodel_basics() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        assert_eq!(mm.name.resolve(), "FM");
        let f = mm.class_named("Feature").unwrap();
        assert_eq!(mm.class(f).all_attrs.len(), 2);
        let root = mm.class_named("FeatureModel").unwrap();
        let r = mm.ref_of(root, Sym::new("features")).unwrap();
        assert!(mm.reference(r).containment);
        assert_eq!(mm.reference(r).upper, Upper::Many);
    }

    #[test]
    fn parse_model_and_roundtrip() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let src = r#"
model fm : FM {
  f1 = Feature { name = "engine", mandatory = true }
  f2 = Feature { name = "radio" }
  root = FeatureModel { features = [f1, f2] }
}
"#;
        let m = parse_model(src, &mm).unwrap();
        assert_eq!(m.len(), 3);
        let printed = print_model(&m);
        let m2 = parse_model(&printed, &mm).unwrap();
        assert!(m.graph_eq(&m2));
    }

    #[test]
    fn metamodel_roundtrip() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let printed = print_metamodel(&mm);
        let mm2 = parse_metamodel(&printed).unwrap();
        assert_eq!(mm.class_count(), mm2.class_count());
        assert_eq!(mm.attr_count(), mm2.attr_count());
        assert_eq!(mm.ref_count(), mm2.ref_count());
    }

    #[test]
    fn inheritance_syntax() {
        let src = r#"
metamodel X {
  abstract class Named { attr name: Str; }
  class Person extends Named { attr age: Int; }
}
"#;
        let mm = parse_metamodel(src).unwrap();
        let p = mm.class_named("Person").unwrap();
        let n = mm.class_named("Named").unwrap();
        assert!(mm.conforms(p, n));
        assert!(mm.class(n).is_abstract);
        // Round-trips through the printer too.
        let mm2 = parse_metamodel(&print_metamodel(&mm)).unwrap();
        assert!(mm2.conforms(
            mm2.class_named("Person").unwrap(),
            mm2.class_named("Named").unwrap()
        ));
    }

    #[test]
    fn forward_references_in_metamodel() {
        let src = r#"
metamodel X {
  class A { ref b: B; }
  class B { }
}
"#;
        let mm = parse_metamodel(src).unwrap();
        assert!(mm.class_named("B").is_some());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_metamodel("metamodel X {\n  klass Y {}\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        assert!(err.msg.contains("class"));
    }

    /// `line:col` of `err`, for comparing with the expected position.
    fn at(err: &ParseError) -> (u32, u32, &str) {
        (err.line, err.col, err.msg.as_str())
    }

    /// A property clash is reported at the member that clashes: the
    /// second of two declarations in one class, and for a name a class
    /// inherits, the subclass's own member.
    #[test]
    fn duplicate_property_points_at_the_clashing_member() {
        let own = "metamodel X {\n  class A {\n    attr n: Str;\n    attr n: Int;\n  }\n}";
        let err = parse_metamodel(own).unwrap_err();
        assert_eq!(
            at(&err),
            (4, 10, "duplicate property `n` on class `A`"),
            "{err}"
        );
        let inherited = "metamodel X {\n  class B extends A {\n    ref r: A;\n  }\n  \
                         class A {\n    ref r: B;\n  }\n}";
        let err = parse_metamodel(inherited).unwrap_err();
        assert_eq!(
            at(&err),
            (3, 9, "duplicate property `r` on class `B`"),
            "{err}"
        );
    }

    /// An inheritance cycle is reported at the name of the class the
    /// cycle closes on.
    #[test]
    fn inheritance_cycle_points_at_the_class_name() {
        let src = "metamodel X {\n  class A extends B { }\n  class B extends A { }\n}";
        let err = parse_metamodel(src).unwrap_err();
        assert_eq!(
            at(&err),
            (2, 9, "inheritance cycle through class `A`"),
            "{err}"
        );
    }

    /// Names are resolved as the parse reaches them, so an error names
    /// the token at fault, not the end of the input.
    #[test]
    fn model_errors_point_at_the_offending_token() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let cases: [(&str, (u32, u32, &str)); 7] = [
            (
                "model m : FM {\n  o1 = Klass { }\n  o2 = Feature { name = \"a\" }\n  \
                 o3 = Feature { name = \"b\" }\n}\n",
                (2, 8, "unknown class `Klass`"),
            ),
            (
                "model m : FM {\n  f = Feature { }\n  f = Feature { }\n}\n",
                (3, 3, "duplicate object label `f`"),
            ),
            (
                "model m : FM {\n  f1 = Feature { }\n  \
                 root = FeatureModel { features = [f1, ghost] }\n}\n",
                (3, 41, "unknown object label `ghost`"),
            ),
            (
                "model m : FM {\n  f = Feature { colour = \"red\" }\n}\n",
                (2, 17, "class `Feature` has no attribute `colour`"),
            ),
            (
                "model m : FM {\n  f = Feature { parts = [f] }\n}\n",
                (2, 17, "class `Feature` has no reference `parts`"),
            ),
            (
                "model m : FM {\n  f = Feature { mandatory = \"yes\" }\n}\n",
                (2, 29, "attribute `mandatory` expects Bool, got Str"),
            ),
            (
                "model m : FM {\n  r = FeatureModel { }\n  \
                 root = FeatureModel { features = [r] }\n}\n",
                (3, 37, "reference `features`: target @0 has wrong type"),
            ),
        ];
        for (src, want) in cases {
            let err = parse_model(src, &mm).unwrap_err();
            assert_eq!(at(&err), want, "{src}");
        }
    }

    #[test]
    fn metamodel_errors_point_at_the_offending_token() {
        let err = parse_metamodel("metamodel X {\n  class A extends Ghost { }\n}\n").unwrap_err();
        assert_eq!(at(&err), (2, 19, "unknown supertype `Ghost`"));
        let err = parse_metamodel("metamodel X {\n  class A { ref b: Ghost; }\n}\n").unwrap_err();
        assert_eq!(at(&err), (2, 20, "unknown class `Ghost`"));
        let err = parse_metamodel("metamodel X {\n  class A { }\n  class A { }\n}\n").unwrap_err();
        assert_eq!(at(&err), (3, 9, "duplicate class `A`"));
    }

    /// Columns count characters, not bytes, and lexer errors point at
    /// the start of their token.
    #[test]
    fn lexer_errors_point_at_their_token() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let err =
            parse_model("model m : FM {\n  é = Feature { name = \"a\\qb\" }\n}", &mm).unwrap_err();
        assert_eq!(at(&err), (2, 24, "bad escape `\\Some('q')`"));
        let err = parse_model("model m : FM {\n  f = Feature { name = \"open", &mm).unwrap_err();
        assert_eq!(at(&err), (2, 24, "unterminated string literal"));
    }

    /// The parser interns a model's new strings in file order, and its
    /// name after them. No output is ordered by intern index (the
    /// checker orders strings by their text), but indices stay
    /// observable through `Sym::index` and fingerprints, so they follow
    /// the text.
    #[test]
    fn values_intern_in_file_order_before_the_model_name() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let src = r#"model intern_order_guard_model : FM {
  a = Feature { name = "intern-order-guard-c" }
  b = Feature { name = "intern-order-guard-a" }
  c = Feature { name = "intern-order-guard-b" }
}"#;
        let m = parse_model(src, &mm).unwrap();
        let syms: Vec<u32> = m
            .objects()
            .map(|(id, _)| m.attr_named(id, "name").unwrap().as_sym().unwrap().index())
            .collect();
        assert!(syms.windows(2).all(|w| w[0] < w[1]), "{syms:?}");
        assert!(m.name.index() > syms[2]);
        assert_eq!(m.name.resolve(), "intern_order_guard_model");
    }

    #[test]
    fn unknown_names_are_not_interned() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let src = "model m : FM { f = UnknownClassProbe { } }";
        assert!(parse_model(src, &mm).is_err());
        assert_eq!(Sym::lookup("UnknownClassProbe"), None);
        let src = "model m : FM { f = Feature { unknownPropProbe = 1 } }";
        assert!(parse_model(src, &mm).is_err());
        assert_eq!(Sym::lookup("unknownPropProbe"), None);
        let src = "model m : UnknownMetamodelProbe { }";
        assert!(parse_model(src, &mm).is_err());
        assert_eq!(Sym::lookup("UnknownMetamodelProbe"), None);
    }

    #[test]
    fn unknown_label_rejected() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let src = r#"model m : FM { root = FeatureModel { features = [ghost] } }"#;
        let err = parse_model(src, &mm).unwrap_err();
        assert!(err.msg.contains("ghost"));
    }

    #[test]
    fn metamodel_name_mismatch_rejected() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let err = parse_model("model m : CF { }", &mm).unwrap_err();
        assert!(err.msg.contains("CF"));
    }

    /// A `\u` escape names one to six hex digits that make a Unicode
    /// scalar value, or the literal is rejected at its token (the
    /// escapes that print round-trips are a property test in
    /// `tests/text_roundtrip.rs`).
    #[test]
    fn malformed_unicode_escapes_are_rejected() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        for bad in [
            r"\u",
            r"\u{}",
            r"\u{+41}",
            r"\u{110000}",
            r"\u{d800}",
            r"\u{1234567}",
            r"\u{7",
        ] {
            let src = format!("model m : FM {{\n  f = Feature {{ name = \"{bad}\" }}\n}}");
            let err = parse_model(&src, &mm).unwrap_err();
            assert_eq!(at(&err), (2, 24, "bad escape `\\u`"), "{bad}");
        }
        let m = parse_model(
            r#"model m : FM { f = Feature { name = "\u{41}\u{10ffff}" } }"#,
            &mm,
        )
        .unwrap();
        let (id, _) = m.objects().next().unwrap();
        assert_eq!(m.attr_named(id, "name").unwrap(), Value::str("A\u{10ffff}"));
    }

    #[test]
    fn string_escapes() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let src = r#"model m : FM { f = Feature { name = "a\"b\\c" } }"#;
        let m = parse_model(src, &mm).unwrap();
        let (id, _) = m.objects().next().unwrap();
        assert_eq!(m.attr_named(id, "name").unwrap(), Value::str("a\"b\\c"));
        // And the printer escapes them back.
        let m2 = parse_model(&print_model(&m), &mm).unwrap();
        assert!(m.graph_eq(&m2));
    }

    /// Printed text keeps ids: interior gaps show in the labels, and
    /// trailing tombstones in the header's bound, so the parsed model is
    /// graph-equal on the same ids, agrees on `id_bound` (where the
    /// next fresh id comes from), and prints the same bytes.
    #[test]
    fn ids_and_trailing_tombstones_round_trip() {
        let meta = parse_metamodel(FM_SRC).unwrap();
        let feature = meta.class_named("Feature").unwrap();
        let fm = meta.class_named("FeatureModel").unwrap();
        let features = meta.ref_of(fm, Sym::new("features")).unwrap();
        let mut m = Model::new("fm", Arc::clone(&meta));
        let root = m.add(fm).unwrap();
        let a = m.add(feature).unwrap();
        let b = m.add(feature).unwrap();
        let c = m.add(feature).unwrap();
        m.set_attr_named(a, "name", Value::str("a\"b")).unwrap();
        m.set_attr_named(b, "mandatory", Value::Bool(true)).unwrap();
        m.add_link(root, features, a).unwrap();
        m.add_link(root, features, b).unwrap();
        // Interior gap at `b`, trailing tombstone at `c`.
        m.delete(b).unwrap();
        m.delete(c).unwrap();

        let text = print_model(&m);
        assert!(
            text.starts_with("model fm : FM bound 4 {\n  @0 = "),
            "{text}"
        );
        assert!(text.contains("\n  @1 = Feature {"), "{text}");
        assert!(text.contains("features = [@1]"), "{text}");
        let back = parse_model(&text, &meta).unwrap();
        assert!(back.graph_eq(&m));
        assert_eq!(back.id_bound(), 4);
        assert_eq!(back.name, m.name);
        assert_eq!(print_model(&back), text);
        assert!(!back.contains(ObjId(2)) && !back.contains(ObjId(3)));
        // Without trailing tombstones no bound is written.
        m.add_at(c, feature).unwrap();
        let text = print_model(&m);
        assert!(text.starts_with("model fm : FM {\n"), "{text}");
        assert_eq!(parse_model(&text, &meta).unwrap().id_bound(), 4);
    }

    /// Identifier labels get the next free id in declaration order, also
    /// after `@<id>` labels, and `@<id>` names any object by its id.
    #[test]
    fn identifier_and_id_labels_mix() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let src = "model m : FM {\n  @3 = Feature { name = \"x\" }\n  f = Feature { }\n  \
                   r = FeatureModel { features = [@3, f] }\n}\n";
        let m = parse_model(src, &mm).unwrap();
        assert_eq!(m.id_bound(), 6);
        assert_eq!(m.len(), 3);
        let fm = mm.class_named("FeatureModel").unwrap();
        let features = mm.ref_of(fm, Sym::new("features")).unwrap();
        assert_eq!(
            m.targets(ObjId(5), features).unwrap(),
            &[ObjId(3), ObjId(4)]
        );
    }

    /// Ids are `u32`s that never wrap, a repeated id is a duplicate
    /// label, a bound may not cut off a declared object, and neither
    /// spelling grows the id space past [`MAX_IDS`].
    #[test]
    fn malformed_ids_and_bounds_are_rejected() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let cases: [(&str, (u32, u32, &str)); 11] = [
            (
                "model m : FM {\n  @4294967296 = Feature { }\n}",
                (2, 3, "bad object id `@4294967296`"),
            ),
            (
                "model m : FM {\n  @ = Feature { }\n}",
                (2, 3, "bad object id `@`"),
            ),
            (
                "model m : FM {\n  @1 = Feature { }\n  @1 = Feature { }\n}",
                (3, 3, "duplicate object label `@1`"),
            ),
            (
                "model m : FM {\n  f = Feature { }\n  @0 = Feature { }\n}",
                (3, 3, "duplicate object label `@0`"),
            ),
            (
                "model m : FM {\n  @0 = FeatureModel { features = [@4294967296] }\n}",
                (2, 35, "bad object id `@4294967296`"),
            ),
            (
                "model m : FM {\n  @0 = FeatureModel { features = [@1] }\n}",
                (2, 35, "unknown object label `@1`"),
            ),
            (
                "model m : FM bound 2 {\n  @2 = Feature { }\n}",
                (1, 20, "id bound 2 is below object @2"),
            ),
            (
                "model m : FM bound -1 {\n}",
                (1, 20, "expected id bound, found Lit(Int(-1))"),
            ),
            (
                "model m : FM bound 4194305 {\n}",
                (1, 20, "id bound 4194305 is past the id space's 4194304 ids"),
            ),
            (
                "model m : FM bound 4294967295 {\n}",
                (
                    1,
                    20,
                    "id bound 4294967295 is past the id space's 4194304 ids",
                ),
            ),
            (
                "model m : FM {\n  @4194304 = Feature { }\n}",
                (
                    2,
                    3,
                    "object id @4194304 is past the id space's 4194304 ids",
                ),
            ),
        ];
        for (src, want) in cases {
            let err = parse_model(src, &mm).unwrap_err();
            assert_eq!(at(&err), want, "{src}");
        }
    }

    /// Both spellings reach the id-space ceiling, and a model there
    /// refuses to grow (the models are built one at a time: each pads
    /// 168 MB of tombstones).
    #[test]
    fn the_id_space_reaches_its_ceiling_and_stops() {
        let mm = parse_metamodel(FM_SRC).unwrap();
        let feature = mm.class_named("Feature").unwrap();
        let last = ObjId(MAX_IDS as u32 - 1);
        let m = parse_model("model m : FM bound 4194304 {\n}", &mm).unwrap();
        assert_eq!(m.id_bound(), MAX_IDS);
        drop(m);
        let mut m = parse_model("model m : FM {\n  @4194303 = Feature { }\n}", &mm).unwrap();
        assert_eq!(m.id_bound(), MAX_IDS);
        assert!(m.contains(last));
        let past = ObjId(MAX_IDS as u32);
        assert_eq!(m.add(feature), Err(ModelError::IdPastCeiling(past)));
        assert_eq!(
            m.add_at(past, feature),
            Err(ModelError::IdPastCeiling(past))
        );
        assert_eq!(m.id_bound(), MAX_IDS);
    }

    /// The literal reader reads each value form and says how many bytes
    /// it took; a boolean must end at a word boundary.
    #[test]
    fn read_literal_reads_every_value_form() {
        let read = |src| read_literal(src).map(|(lit, len)| (lit.value(), len));
        assert_eq!(read(r#""a\tb" (was"#), Ok((Value::str("a\tb"), 6)));
        assert_eq!(read("-41)"), Ok((Value::Int(-41), 3)));
        assert_eq!(read("true (was"), Ok((Value::Bool(true), 4)));
        assert_eq!(read("false"), Ok((Value::Bool(false), 5)));
        assert!(read("trueish").is_err());
        assert!(read("maybe").is_err());
        assert!(read("9223372036854775808").is_err());
        assert!(read("-").is_err());
        assert!(read(r#""open"#).is_err());
        assert!(read(r#""\'""#).is_err());
        // A string without escapes borrows the source.
        assert!(matches!(
            read_literal(r#""plain""#),
            Ok((Literal::Str(Cow::Borrowed("plain")), 7))
        ));
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// header\nmetamodel X { // c\n  class A { } // trailing\n}";
        assert!(parse_metamodel(src).is_ok());
    }

    #[test]
    fn bounded_multiplicity_syntax() {
        let src = "metamodel X { class A { ref one: A [1..1]; ref opt: A [0..1]; } }";
        let mm = parse_metamodel(src).unwrap();
        let a = mm.class_named("A").unwrap();
        let one = mm.ref_of(a, Sym::new("one")).unwrap();
        assert_eq!(mm.reference(one).lower, 1);
        assert_eq!(mm.reference(one).upper, Upper::Bounded(1));
    }
}
