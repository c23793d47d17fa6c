//! The `mmt` wire format in one place: the JSON that `mmt sync --json`,
//! `mmt lint --json` and `mmt serve` print, and the reader for serve's
//! request lines.

use mmt_core::{LintReport, SyncSession};

/// The `--json` status dump: consistency, journal size, and every
/// violating binding.
pub(crate) fn status_json(session: &SyncSession) -> String {
    let status = session.status();
    let report = session.report();
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"consistent\":{},\"violations\":{},\"journal\":{},\"checks\":[",
        status.consistent,
        status.violations,
        session.journal().len(),
    ));
    let mut first_check = true;
    for check in &report.checks {
        if !first_check {
            out.push(',');
        }
        first_check = false;
        out.push_str(&format!(
            "{{\"relation\":{},\"dep\":{},\"holds\":{},\"violations\":[",
            json_str(&check.relation_name.to_string()),
            json_str(&check.dep.to_string()),
            check.holds,
        ));
        let mut first_v = true;
        for v in &check.violations {
            if !first_v {
                out.push(',');
            }
            first_v = false;
            out.push('{');
            let mut first_b = true;
            for (var, val) in &v.vars {
                if !first_b {
                    out.push(',');
                }
                first_b = false;
                out.push_str(&format!("{}:{}", json_str(&var.to_string()), json_str(val)));
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The `--json` journal dump (also the `serve` protocol's `journal`
/// result): entry count plus the flattened per-model replay script, in
/// model-space order.
pub(crate) fn journal_json(session: &SyncSession) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"entries\":{},\"script\":[",
        session.journal().len()
    ));
    for (i, delta) in session.journal_script().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(&delta.to_string()));
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The lint report as one JSON object, in a stable field order: the
/// output of `mmt lint --json` and the result of serve's `lint` verb.
pub(crate) fn lint_json(report: &LintReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"errors\":{},\"warnings\":{},\"infos\":{},\"lints\":[",
        report.errors(),
        report.warnings(),
        report.infos()
    ));
    for (i, l) in report.lints.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":{},\"severity\":{},\"relation\":{},\"message\":{}}}",
            json_str(l.code.code()),
            json_str(&l.severity().to_string()),
            match &l.relation {
                Some(r) => json_str(r),
                None => "null".into(),
            },
            json_str(&l.message)
        ));
    }
    out.push_str("]}");
    out
}

/// A parsed JSON value — the minimal self-contained reader the request
/// side of the protocol needs (the build environment vendors no serde).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders back to JSON text (used to echo request ids verbatim).
    pub(crate) fn render(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Int(i) => i.to_string(),
            Json::Str(s) => json_str(s),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_str(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Hard ceiling on container nesting. Real requests nest two levels;
/// without a cap a hostile line of `[[[[…` recurses once per bracket
/// and takes the whole serve loop down with a stack overflow.
const MAX_DEPTH: usize = 64;

/// Recursive-descent JSON reader over one request line.
struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonReader<'a> {
    fn new(src: &'a str) -> JsonReader<'a> {
        JsonReader {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == c => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                c as char,
                self.pos,
                got.map(|b| b as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth >= MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err("non-integer numbers are not part of the protocol".into());
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<i64>().ok())
            .map(Json::Int)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are outside the protocol's
                            // needs; reject rather than mis-decode.
                            out.push(
                                char::from_u32(hex).ok_or("surrogate \\u escapes unsupported")?,
                            );
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + ch_len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or("bad utf-8 in string")?;
                    out.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }
}

/// Parses one request line: a single JSON object, nothing after it.
pub(crate) fn parse_request(src: &str) -> Result<Vec<(String, Json)>, String> {
    let mut r = JsonReader::new(src);
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing garbage at byte {}", r.pos));
    }
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => Err("request must be a JSON object".into()),
    }
}

/// The value of `key` in a request object.
pub(crate) fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The string value of `key` in a request object.
pub(crate) fn str_field(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    match field(obj, key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field \"{key}\" must be a string")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_core::{Lint, LintCode, Transformation};

    #[test]
    fn lint_json_renders_every_field() {
        let t = Transformation::from_sources(
            r#"transformation T(l : M, r : M) {
              top relation R {
                n : Int;
                domain l a : A { x = n };
                domain r b : A { x = n };
                when { n > 3 and n < 2 }
                depend l -> r;
              }
            }"#,
            &["metamodel M { class A { attr x: Int; } }"],
        )
        .unwrap();
        let mut report = t.lint();
        report.lints.push(Lint {
            code: LintCode::BidirectionalCoupling,
            relation: None,
            message: "a \"quoted\"\nmessage".into(),
        });
        let json = lint_json(&report);
        assert!(json.starts_with("{\"errors\":1,"), "{json}");
        assert!(json.contains("\"code\":\"MMT003\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"relation\":\"R\""), "{json}");
        assert!(
            json.ends_with(
                r#"{"code":"MMT011","severity":"info","relation":null,"message":"a \"quoted\"\nmessage"}]}"#
            ),
            "{json}"
        );
    }
}
