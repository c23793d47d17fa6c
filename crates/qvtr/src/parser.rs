//! Recursive-descent parser for the QVT-R-like surface syntax.
//!
//! The grammar follows the QVT-R standard's relational syntax, extended
//! with the paper's `depend` clauses (§2.2; the standard leaves the
//! concrete syntax open, §4):
//!
//! ```text
//! transformation FeatureConfig(cf1 : CF, cf2 : CF, fm : FM) {
//!   top relation MF {
//!     n : Str;
//!     domain cf1 s1 : Feature { name = n };
//!     domain cf2 s2 : Feature { name = n };
//!     domain fm  f  : Feature { name = n, mandatory = true };
//!     depend cf1 cf2 -> fm;
//!     depend fm -> cf1 cf2;          // multi-target sugar
//!   }
//! }
//! ```
//!
//! `depend a | b -> c;` is the source-union sugar; both sugars expand to
//! plain dependencies per §2.3 before resolution.

use crate::ast::*;
use crate::lexer::{tokenize, Span, Token, TokenKind};
use std::fmt;

/// A parse error with position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyntaxError {
    /// Where.
    pub span: Span,
    /// Why.
    pub msg: String,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.msg)
    }
}

impl std::error::Error for SyntaxError {}

/// The deepest nesting a spec may have. A template nested in a
/// template is one level deeper, and so is an expression in
/// parentheses, after `not` or right of `implies`, and each further
/// operand of an `and` or `or` chain (it nests the chain so far one
/// level down). The parser and every pass over the tree after it
/// recurse once per level, so a deeper spec is refused here instead of
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete transformation source.
pub fn parse(src: &str) -> Result<AstTransformation, SyntaxError> {
    let tokens = tokenize(src).map_err(|e| SyntaxError {
        span: e.span,
        msg: e.msg,
    })?;
    let mut p = P {
        tokens,
        pos: 0,
        depth: 0,
    };
    let t = p.transformation()?;
    p.expect_eof()?;
    Ok(t)
}

struct P {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of nesting entered and not yet left ([`MAX_DEPTH`]).
    depth: usize,
}

impl P {
    /// Enters one level of nesting at the lookahead token, or fails
    /// there past [`MAX_DEPTH`]. The caller leaves it by lowering
    /// `depth` again.
    fn enter(&mut self) -> Result<(), SyntaxError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> SyntaxError {
        SyntaxError {
            span: self.peek().span,
            msg: msg.into(),
        }
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == word)
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if self.at_ident(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<Span, SyntaxError> {
        if self.at_ident(word) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{word}`, found {}", self.peek().kind)))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Span, SyntaxError> {
        if self.peek().kind == kind {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<(String, Span), SyntaxError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                let span = self.bump().span;
                Ok((s, span))
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), SyntaxError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err(format!("expected end of input, found {}", self.peek().kind)))
        }
    }

    fn transformation(&mut self) -> Result<AstTransformation, SyntaxError> {
        let span = self.expect_word("transformation")?;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut models = Vec::new();
        loop {
            let (mname, mspan) = self.ident()?;
            self.expect(TokenKind::Colon)?;
            let (mm, _) = self.ident()?;
            models.push(AstModelParam {
                name: mname,
                metamodel: mm,
                span: mspan,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let mut relations = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            relations.push(self.relation()?);
        }
        Ok(AstTransformation {
            name,
            models,
            relations,
            span,
        })
    }

    fn relation(&mut self) -> Result<AstRelation, SyntaxError> {
        let is_top = self.eat_ident("top");
        self.expect_word("relation")?;
        let (name, span) = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut rel = AstRelation {
            name,
            is_top,
            vars: Vec::new(),
            domains: Vec::new(),
            when: None,
            where_: None,
            depends: Vec::new(),
            span,
        };
        while !self.eat(&TokenKind::RBrace) {
            if self.at_ident("domain") || self.at_ident("checkonly") || self.at_ident("enforce") {
                rel.domains.push(self.domain()?);
            } else if self.at_ident("when") {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                let e = self.expr()?;
                self.expect(TokenKind::RBrace)?;
                if rel.when.replace(e).is_some() {
                    return Err(self.err("duplicate `when` clause"));
                }
            } else if self.at_ident("where") {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                let e = self.expr()?;
                self.expect(TokenKind::RBrace)?;
                if rel.where_.replace(e).is_some() {
                    return Err(self.err("duplicate `where` clause"));
                }
            } else if self.at_ident("depend") {
                rel.depends.push(self.depend()?);
            } else {
                // Variable declaration: `a, b : Ty ;`
                let mut names = vec![self.ident()?];
                while self.eat(&TokenKind::Comma) {
                    names.push(self.ident()?);
                }
                self.expect(TokenKind::Colon)?;
                let (ty, _) = self.ident()?;
                self.expect(TokenKind::Semi)?;
                for (n, s) in names {
                    rel.vars.push(AstVarDecl {
                        name: n,
                        ty: ty.clone(),
                        span: s,
                    });
                }
            }
        }
        Ok(rel)
    }

    fn domain(&mut self) -> Result<AstDomain, SyntaxError> {
        let qualifier = if self.at_ident("checkonly") || self.at_ident("enforce") {
            let (q, _) = self.ident()?;
            Some(q)
        } else {
            None
        };
        let span = self.expect_word("domain")?;
        let (model, _) = self.ident()?;
        let template = self.template()?;
        self.expect(TokenKind::Semi)?;
        Ok(AstDomain {
            model,
            template,
            qualifier,
            span,
        })
    }

    fn template(&mut self) -> Result<AstTemplate, SyntaxError> {
        let (var, span) = self.ident()?;
        self.expect(TokenKind::Colon)?;
        let (class, _) = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut items = Vec::new();
        if !self.eat(&TokenKind::RBrace) {
            loop {
                items.push(self.template_item()?);
                if self.eat(&TokenKind::RBrace) {
                    break;
                }
                self.expect(TokenKind::Comma)?;
            }
        }
        Ok(AstTemplate {
            var,
            class,
            items,
            span,
        })
    }

    fn template_item(&mut self) -> Result<AstTemplateItem, SyntaxError> {
        let (name, span) = self.ident()?;
        self.expect(TokenKind::Eq)?;
        // Nested template: IDENT ':' IDENT '{'
        if matches!(self.peek().kind, TokenKind::Ident(_)) && self.peek2().kind == TokenKind::Colon
        {
            self.enter()?;
            let template = self.template()?;
            self.depth -= 1;
            return Ok(AstTemplateItem::RefTemplate {
                name,
                template,
                span,
            });
        }
        let value = self.primary()?;
        Ok(AstTemplateItem::Attr { name, value, span })
    }

    fn depend(&mut self) -> Result<AstDepend, SyntaxError> {
        let span = self.expect_word("depend")?;
        let mut source_alts = Vec::new();
        let mut alt = Vec::new();
        while !matches!(self.peek().kind, TokenKind::Arrow | TokenKind::Pipe) {
            let (n, _) = self.ident()?;
            alt.push(n);
            if self.eat(&TokenKind::Pipe) {
                if alt.is_empty() {
                    return Err(self.err("empty dependency source alternative"));
                }
                source_alts.push(std::mem::take(&mut alt));
            }
        }
        if self.peek().kind == TokenKind::Pipe {
            return Err(self.err("trailing `|` in dependency sources"));
        }
        if alt.is_empty() {
            return Err(self.err("dependency needs at least one source model"));
        }
        source_alts.push(alt);
        self.expect(TokenKind::Arrow)?;
        let mut targets = Vec::new();
        while !matches!(self.peek().kind, TokenKind::Semi) {
            let (n, _) = self.ident()?;
            targets.push(n);
        }
        if targets.is_empty() {
            return Err(self.err("dependency needs at least one target model"));
        }
        self.expect(TokenKind::Semi)?;
        Ok(AstDepend {
            source_alts,
            targets,
            span,
        })
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<AstExpr, SyntaxError> {
        self.implies()
    }

    fn implies(&mut self) -> Result<AstExpr, SyntaxError> {
        let lhs = self.or()?;
        if self.eat_ident("implies") {
            self.enter()?;
            let rhs = self.implies()?; // right associative
            self.depth -= 1;
            Ok(AstExpr::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Result<AstExpr, SyntaxError> {
        let depth = self.depth;
        let mut lhs = self.and()?;
        while self.eat_ident("or") {
            self.enter()?;
            let rhs = self.and()?;
            lhs = AstExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn and(&mut self) -> Result<AstExpr, SyntaxError> {
        let depth = self.depth;
        let mut lhs = self.cmp()?;
        while self.eat_ident("and") {
            self.enter()?;
            let rhs = self.cmp()?;
            lhs = AstExpr::And(Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn cmp(&mut self) -> Result<AstExpr, SyntaxError> {
        let lhs = self.unary()?;
        let op = match self.peek().kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Neq => CmpOp::Neq,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        let span = self.bump().span;
        let rhs = self.unary()?;
        Ok(AstExpr::Cmp(op, Box::new(lhs), Box::new(rhs), span))
    }

    fn unary(&mut self) -> Result<AstExpr, SyntaxError> {
        if self.at_ident("not") {
            let span = self.bump().span;
            self.enter()?;
            let inner = self.unary()?;
            self.depth -= 1;
            return Ok(AstExpr::Not(Box::new(inner), span));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr, SyntaxError> {
        match self.peek().kind.clone() {
            TokenKind::Str(s) => {
                let span = self.bump().span;
                Ok(AstExpr::Str(s, span))
            }
            TokenKind::Int(i) => {
                let span = self.bump().span;
                Ok(AstExpr::Int(i, span))
            }
            TokenKind::LParen => {
                self.bump();
                self.enter()?;
                let e = self.expr()?;
                self.depth -= 1;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                match name.as_str() {
                    "true" => return Ok(AstExpr::Bool(true, span)),
                    "false" => return Ok(AstExpr::Bool(false, span)),
                    _ => {}
                }
                if self.eat(&TokenKind::Dot) {
                    let (attr, _) = self.ident()?;
                    return Ok(AstExpr::Nav(name, attr, span));
                }
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.ident()?);
                            if self.eat(&TokenKind::RParen) {
                                break;
                            }
                            self.expect(TokenKind::Comma)?;
                        }
                    }
                    return Ok(AstExpr::Call(name, args, span));
                }
                Ok(AstExpr::Var(name, span))
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MF_SRC: &str = r#"
transformation FeatureConfig(cf1 : CF, cf2 : CF, fm : FM) {
  top relation MF {
    n : Str;
    domain cf1 s1 : Feature { name = n };
    domain cf2 s2 : Feature { name = n };
    domain fm  f  : Feature { name = n, mandatory = true };
    depend cf1 cf2 -> fm;
    depend fm -> cf1 cf2;
  }
}
"#;

    #[test]
    fn parses_paper_mf() {
        let t = parse(MF_SRC).unwrap();
        assert_eq!(t.name, "FeatureConfig");
        assert_eq!(t.models.len(), 3);
        assert_eq!(t.relations.len(), 1);
        let r = &t.relations[0];
        assert!(r.is_top);
        assert_eq!(r.vars.len(), 1);
        assert_eq!(r.domains.len(), 3);
        assert_eq!(r.depends.len(), 2);
        assert_eq!(r.depends[0].source_alts, vec![vec!["cf1", "cf2"]]);
        assert_eq!(r.depends[0].targets, vec!["fm"]);
        assert_eq!(r.depends[1].targets, vec!["cf1", "cf2"]);
    }

    #[test]
    fn union_sugar() {
        let src = r#"
transformation T(a : A, b : B, c : C) {
  top relation R {
    domain a x : K { };
    domain b y : K { };
    domain c z : K { };
    depend a | b -> c;
  }
}
"#;
        let t = parse(src).unwrap();
        let d = &t.relations[0].depends[0];
        assert_eq!(d.source_alts.len(), 2);
        assert_eq!(d.source_alts[0], vec!["a"]);
        assert_eq!(d.source_alts[1], vec!["b"]);
    }

    #[test]
    fn when_where_and_calls() {
        let src = r#"
transformation T(a : A, b : B) {
  relation P {
    domain a x : K { };
    domain b y : K { };
  }
  top relation R {
    n : Str;
    domain a x : K { name = n };
    domain b y : K { name = n };
    when { x.kind = "persistent" and not (n = "") }
    where { P(x, y) implies y.kind = x.kind }
  }
}
"#;
        let t = parse(src).unwrap();
        let r = &t.relations[1];
        assert!(r.when.is_some());
        assert!(matches!(r.where_.as_ref().unwrap(), AstExpr::Implies(..)));
        assert!(!t.relations[0].is_top);
    }

    #[test]
    fn nested_templates() {
        let src = r#"
transformation T(a : A, b : B) {
  top relation R {
    cn : Str;
    domain a c : Class { name = cn, attrs = at : Attribute { name = cn } };
    domain b t : Table { name = cn };
  }
}
"#;
        let t = parse(src).unwrap();
        let dom = &t.relations[0].domains[0];
        assert_eq!(dom.template.items.len(), 2);
        assert!(matches!(
            dom.template.items[1],
            AstTemplateItem::RefTemplate { .. }
        ));
    }

    #[test]
    fn qualifiers_accepted() {
        let src = r#"
transformation T(a : A, b : B) {
  top relation R {
    checkonly domain a x : K { };
    enforce domain b y : K { };
  }
}
"#;
        let t = parse(src).unwrap();
        assert_eq!(
            t.relations[0].domains[0].qualifier.as_deref(),
            Some("checkonly")
        );
        assert_eq!(
            t.relations[0].domains[1].qualifier.as_deref(),
            Some("enforce")
        );
    }

    #[test]
    fn multi_var_decl() {
        let src = r#"
transformation T(a : A, b : B) {
  top relation R {
    n, m : Str;
    k : Int;
    domain a x : K { p = n, q = m, r = k };
    domain b y : K { p = n };
  }
}
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.relations[0].vars.len(), 3);
        assert_eq!(t.relations[0].vars[1].name, "m");
        assert_eq!(t.relations[0].vars[2].ty, "Int");
    }

    #[test]
    fn error_positions() {
        let err = parse("transformation T(a : A) {\n  junk\n}").unwrap_err();
        assert_eq!(err.span.line, 2); // `junk` where `relation` was expected
    }

    #[test]
    fn rejects_empty_depend_parts() {
        let src = r#"
transformation T(a : A, b : B) {
  top relation R {
    domain a x : K { };
    domain b y : K { };
    depend -> b;
  }
}
"#;
        assert!(parse(src).is_err());
        let src2 = src.replace("depend -> b;", "depend a -> ;");
        assert!(parse(&src2).is_err());
    }

    /// A spec with `n` levels of one shape of nesting.
    fn nested_spec(shape: &str, n: usize) -> String {
        let (template, when) = match shape {
            "templates" => {
                let open: String = (0..n).map(|i| format!("x{i} : K {{ r = ")).collect();
                (
                    format!("{open}z : K {{ }}{}", " }".repeat(n)),
                    "true".to_string(),
                )
            }
            "parens" => (
                "x : K { }".into(),
                format!("{}x.n = 1{}", "(".repeat(n), ")".repeat(n)),
            ),
            "nots" => ("x : K { }".into(), format!("{}x.n = 1", "not ".repeat(n))),
            "ands" => ("x : K { }".into(), vec!["x.n = 1"; n + 1].join(" and ")),
            "ors" => ("x : K { }".into(), vec!["x.n = 1"; n + 1].join(" or ")),
            "implies" => ("x : K { }".into(), vec!["x.n = 1"; n + 1].join(" implies ")),
            _ => unreachable!("a known shape"),
        };
        format!(
            "transformation T(a : M, b : M) {{\n  top relation R {{\n    domain a {template};\n    \
             domain b y : K {{ }};\n    when {{ {when} }}\n  }}\n}}\n"
        )
    }

    /// Nesting past [`MAX_DEPTH`] is a syntax error at the token that
    /// would open the level past it, not a stack overflow: 10⁵ levels of
    /// each shape are refused, and a spec at the limit parses.
    #[test]
    fn nesting_past_the_limit_is_a_syntax_error() {
        for shape in ["templates", "parens", "nots", "ands", "ors", "implies"] {
            let err = parse(&nested_spec(shape, 100_000)).unwrap_err();
            assert_eq!(
                err.msg,
                format!("nesting deeper than {MAX_DEPTH} levels"),
                "{shape}"
            );
            assert!(err.span.line >= 3, "{shape}: {}", err.span);
            assert!(parse(&nested_spec(shape, MAX_DEPTH)).is_ok(), "{shape}");
            assert!(
                parse(&nested_spec(shape, MAX_DEPTH + 1)).is_err(),
                "{shape}"
            );
        }
        // Sibling levels do not add up: the depth is left on the way out.
        let deep = format!("{}x.n{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        let src = nested_spec("parens", 0).replace("x.n = 1", &format!("{deep} = {deep}"));
        parse(&src).unwrap();
    }

    #[test]
    fn trailing_input_rejected() {
        let src = "transformation T(a : A) { } extra";
        assert!(parse(src).is_err());
    }
}
