//! Lexer for the QVT-R-like textual syntax.
//!
//! Tokens carry [`Span`]s (1-based line/column) so the parser and resolver
//! can produce precise diagnostics.

use mmt_model::text::{read_literal, Literal};
use std::fmt;

/// A source position range (start line/col inclusive).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds of the QVT-R surface syntax.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// String literal, unescaped as [`read_literal`] reads model text.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `->`
    Arrow,
    /// `|`
    Pipe,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Int(i) => write!(f, "integer {i}"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Dot => f.write_str("`.`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Neq => f.write_str("`!=`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Arrow => f.write_str("`->`"),
            TokenKind::Pipe => f.write_str("`|`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// Kind and payload.
    pub kind: TokenKind,
    /// Position of the first character.
    pub span: Span,
}

/// A lexical error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Where the error occurred.
    pub span: Span,
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, producing the full token stream (ending with `Eof`).
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let mut chars = src.char_indices().peekable();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    macro_rules! bump {
        () => {{
            let c = chars.next();
            if let Some((_, ch)) = c {
                if ch == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            c
        }};
    }
    loop {
        // Skip whitespace and `//` comments.
        loop {
            match chars.peek() {
                Some(&(_, c)) if c.is_whitespace() => {
                    bump!();
                }
                Some(&(i, '/')) if src[i..].starts_with("//") => {
                    while let Some((_, c)) = bump!() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
        let span = Span { line, col };
        let Some(&(start, c)) = chars.peek() else {
            out.push(Token {
                kind: TokenKind::Eof,
                span,
            });
            return Ok(out);
        };
        let kind = if c.is_alphabetic() || c == '_' {
            let mut end = start;
            while let Some(&(i, c)) = chars.peek() {
                if c.is_alphanumeric() || c == '_' {
                    end = i + c.len_utf8();
                    bump!();
                } else {
                    break;
                }
            }
            TokenKind::Ident(src[start..end].to_owned())
        } else if c == '"' || c.is_ascii_digit() {
            // String and integer literals read as model files read them.
            let (lit, len) = read_literal(&src[start..]).map_err(|msg| LexError { span, msg })?;
            while chars.peek().is_some_and(|&(i, _)| i < start + len) {
                bump!();
            }
            match lit {
                Literal::Str(s) => TokenKind::Str(s.into_owned()),
                Literal::Int(i) => TokenKind::Int(i),
                Literal::Bool(_) => unreachable!("a quote or a digit starts no boolean"),
            }
        } else {
            bump!();
            match c {
                '{' => TokenKind::LBrace,
                '}' => TokenKind::RBrace,
                '(' => TokenKind::LParen,
                ')' => TokenKind::RParen,
                ':' => TokenKind::Colon,
                ';' => TokenKind::Semi,
                ',' => TokenKind::Comma,
                '.' => TokenKind::Dot,
                '|' => TokenKind::Pipe,
                '=' => TokenKind::Eq,
                '!' => {
                    if matches!(chars.peek(), Some(&(_, '='))) {
                        bump!();
                        TokenKind::Neq
                    } else {
                        return Err(LexError {
                            span,
                            msg: "expected `=` after `!`".into(),
                        });
                    }
                }
                '<' => {
                    if matches!(chars.peek(), Some(&(_, '='))) {
                        bump!();
                        TokenKind::Le
                    } else {
                        TokenKind::Lt
                    }
                }
                '>' => {
                    if matches!(chars.peek(), Some(&(_, '='))) {
                        bump!();
                        TokenKind::Ge
                    } else {
                        TokenKind::Gt
                    }
                }
                '-' => {
                    if matches!(chars.peek(), Some(&(_, '>'))) {
                        bump!();
                        TokenKind::Arrow
                    } else {
                        return Err(LexError {
                            span,
                            msg: "expected `>` after `-`".into(),
                        });
                    }
                }
                other => {
                    return Err(LexError {
                        span,
                        msg: format!("unexpected character `{other}`"),
                    })
                }
            }
        };
        out.push(Token { kind, span });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("relation R { } -> | . ;"),
            vec![
                Ident("relation".into()),
                Ident("R".into()),
                LBrace,
                RBrace,
                Arrow,
                Pipe,
                Dot,
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        use TokenKind::*;
        assert_eq!(kinds("= != < <= > >="), vec![Eq, Neq, Lt, Le, Gt, Ge, Eof]);
    }

    #[test]
    fn literals() {
        use TokenKind::*;
        assert_eq!(
            kinds(r#""hi" 42 "a\"b""#),
            vec![Str("hi".into()), Int(42), Str("a\"b".into()), Eof]
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(kinds("a // comment\nb"), {
            use TokenKind::*;
            vec![Ident("a".into()), Ident("b".into()), Eof]
        });
    }

    #[test]
    fn errors() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("#").is_err());
        assert!(tokenize("- x").is_err());
        assert!(tokenize("! x").is_err());
    }

    #[test]
    fn newline_escape_in_string() {
        assert_eq!(kinds(r#""a\nb""#), {
            use TokenKind::*;
            vec![Str("a\nb".into()), Eof]
        });
    }

    /// String literals take every escape a model file takes, and a
    /// literal spanning lines keeps the spans after it right.
    #[test]
    fn strings_take_the_model_file_escapes() {
        use TokenKind::*;
        assert_eq!(
            kinds(r#""t\tr\r0\0u\u{e9}" 7"#),
            vec![Str("t\tr\r0\0u\u{e9}".into()), Int(7), Eof]
        );
        let toks = tokenize("\"a\nb\" x").unwrap();
        assert_eq!(toks[1].span, Span { line: 2, col: 4 });
        let err = tokenize("x \"a\\qb\"").unwrap_err();
        assert_eq!(
            (err.span, err.msg.as_str()),
            (Span { line: 1, col: 3 }, "bad escape `\\Some('q')`")
        );
        assert!(tokenize("99999999999999999999").is_err());
    }
}
