//! The `mmt` wire format in one place: the JSON that `mmt sync --json`,
//! `mmt lint --json` and `mmt serve` print, and the reader for serve's
//! request lines.
//!
//! Every writer appends to a caller's `String`, and every string field
//! goes through [`push_str_of`], which escapes a value's display text
//! as the formatter hands it over: no field is rendered into a `String`
//! of its own first. The status dump reads the warm checker through
//! [`DeltaChecker::visit_report`], so a status costs no allocation on a
//! consistent tuple and one per failing check otherwise. `mmt serve`
//! writes a whole answer into one reused buffer this way and parses
//! each request's fields borrowed from its line ([`parse_request`]).
//!
//! Writing into a `String` cannot fail, so the writers return nothing
//! and drop the `fmt::Result` of each `write!`.

use mmt_check::DeltaChecker;
use mmt_core::{LintReport, SyncRepair, SyncSession};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Appends the `--json` status dump of `session` to `out`: consistency,
/// journal size, and every violating binding.
pub(crate) fn write_status(out: &mut String, session: &SyncSession) {
    write_checker_status(out, session.checker(), session.journal().len());
}

/// [`write_status`] of a session whose checker is `checker` and whose
/// journal holds `journal` entries.
fn write_checker_status(out: &mut String, checker: &DeltaChecker, journal: usize) {
    let _ = write!(
        out,
        "{{\"consistent\":{},\"violations\":{},\"journal\":{journal},\"checks\":[",
        checker.consistent(),
        checker.violation_count(),
    );
    let mut first_check = true;
    checker.visit_report(|check| {
        if !first_check {
            out.push(',');
        }
        first_check = false;
        out.push_str("{\"relation\":");
        push_str_of(out, check.relation_name);
        out.push_str(",\"dep\":");
        push_str_of(out, check.dep);
        let _ = write!(out, ",\"holds\":{},\"violations\":[", check.holds);
        for (i, vars) in check.violations().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (var, value)) in vars.enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_str_of(out, var);
                out.push(':');
                push_str_of(out, value);
            }
            out.push('}');
        }
        out.push_str("]}");
    });
    out.push_str("]}");
}

/// Appends the `--json` journal dump (also the `serve` protocol's
/// `journal` result) to `out`: entry count plus the flattened per-model
/// replay script, in model-space order, written op by op from the
/// journal.
pub(crate) fn write_journal(out: &mut String, session: &SyncSession) {
    let _ = write!(
        out,
        "{{\"entries\":{},\"script\":[",
        session.journal().len()
    );
    for (i, script) in session.replay_scripts().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_of(out, script);
    }
    out.push_str("]}");
}

/// Appends the `serve` protocol's `repair` result to `out`: whether a
/// repair was found and, when one was, its cost and per-model scripts.
pub(crate) fn write_repair(out: &mut String, repair: Option<&SyncRepair>) {
    let Some(repair) = repair else {
        out.push_str("{\"repaired\":false}");
        return;
    };
    let _ = write!(
        out,
        "{{\"repaired\":true,\"cost\":{},\"deltas\":[",
        repair.cost
    );
    for (i, delta) in repair.deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_of(out, delta);
    }
    out.push_str("]}");
}

/// Appends the lint report to `out` as one JSON object, in a stable
/// field order: the output of `mmt lint --json` and the result of
/// serve's `lint` verb.
pub(crate) fn write_lint(out: &mut String, report: &LintReport) {
    let _ = write!(
        out,
        "{{\"errors\":{},\"warnings\":{},\"infos\":{},\"lints\":[",
        report.errors(),
        report.warnings(),
        report.infos()
    );
    for (i, l) in report.lints.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"code\":");
        push_str_of(out, l.code.code());
        out.push_str(",\"severity\":");
        push_str_of(out, l.severity());
        out.push_str(",\"relation\":");
        match &l.relation {
            Some(r) => push_str_of(out, r),
            None => out.push_str("null"),
        }
        out.push_str(",\"message\":");
        push_str_of(out, &l.message);
        out.push('}');
    }
    out.push_str("]}");
}

/// Appends `value`'s display text to `out` as a JSON string.
pub(crate) fn push_str_of(out: &mut String, value: impl fmt::Display) {
    out.push('"');
    let _ = write!(Escaped(out), "{value}");
    out.push('"');
}

/// An `fmt::Write` that appends what is written through it to a
/// `String`, JSON-escaped: quotes, backslashes and control characters.
/// Escaping is per character, so it does not matter how a formatter
/// splits its output into `write_str` calls.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let out = &mut *self.0;
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Each byte escaped is ASCII, so `i` and `i + 1` are
            // character boundaries.
            out.push_str(&s[plain..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            plain = i + 1;
        }
        out.push_str(&s[plain..]);
        Ok(())
    }
}

/// A parsed JSON value — the minimal self-contained reader the request
/// side of the protocol needs (the build environment vendors no serde).
/// Strings and keys borrow from the request line unless they hold an
/// escape.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Str(Cow<'a, str>),
    Arr(Vec<Json<'a>>),
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Appends `value` to `out` as JSON text (how serve echoes request ids).
pub(crate) fn write_json(out: &mut String, value: &Json<'_>) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Str(s) => push_str_of(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_of(out, k);
                out.push(':');
                write_json(out, v);
            }
            out.push('}');
        }
    }
}

/// Hard ceiling on container nesting. Real requests nest two levels;
/// without a cap a hostile line of `[[[[…` recurses once per bracket
/// and takes the whole serve loop down with a stack overflow.
const MAX_DEPTH: usize = 64;

/// Recursive-descent JSON reader over one request line.
struct JsonReader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonReader<'a> {
    fn new(src: &'a str) -> JsonReader<'a> {
        JsonReader {
            src,
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

    fn value(&mut self) -> Result<Json<'a>, String> {
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

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
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
        self.src[start..self.pos]
            .parse::<i64>()
            .map(Json::Int)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    /// A string: borrowed from the line when it holds no escape,
    /// decoded into an owned one when it does.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        loop {
            // The run up to the next quote or backslash is copied as
            // is: both are ASCII, so the run is whole characters.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            self.pos += run;
            let plain = &self.src[start..self.pos];
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(plain),
                    Some(mut out) => {
                        out.push_str(plain);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(plain);
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
                        .src
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    self.pos += 4;
                    // Surrogate pairs are outside the protocol's needs;
                    // reject rather than mis-decode.
                    out.push(char::from_u32(hex).ok_or("surrogate \\u escapes unsupported")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json<'a>, String> {
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

    fn object(&mut self) -> Result<Json<'a>, String> {
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

/// A request: its fields, in line order.
pub(crate) type Request<'a> = Vec<(Cow<'a, str>, Json<'a>)>;

/// Parses one request line: a single JSON object, nothing after it.
pub(crate) fn parse_request(src: &str) -> Result<Request<'_>, String> {
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
pub(crate) fn field<'r, 'a>(
    obj: &'r [(Cow<'a, str>, Json<'a>)],
    key: &str,
) -> Option<&'r Json<'a>> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The string value of `key` in a request object.
pub(crate) fn str_field<'r>(
    obj: &'r [(Cow<'_, str>, Json<'_>)],
    key: &str,
) -> Result<&'r str, String> {
    match field(obj, key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(format!("field \"{key}\" must be a string")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_check::{CheckOptions, CheckReport};
    use mmt_core::{Lint, LintCode, Shape, Transformation};
    use mmt_deps::DomIdx;
    use mmt_dist::EditOp;
    use mmt_gen::scenario::{all_scenarios, scenario_named};
    use mmt_gen::{tricky_string, SessionScriptGen, SessionStep, TRICKY_CHARS};
    use mmt_model::text::parse_model;
    use mmt_model::{ObjId, Sym, Value};
    use std::sync::Arc;

    /// The status dump rendered the way it was before the writers
    /// streamed: from a [`CheckReport`] of owned strings, each escaped
    /// again and formatted field by field. [`write_status`] must match
    /// it byte for byte.
    fn status_json(
        report: &CheckReport,
        consistent: bool,
        violations: usize,
        journal: usize,
    ) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"consistent\":{consistent},\"violations\":{violations},\"journal\":{journal},\"checks\":["
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

    /// The escaping [`status_json`] renders with.
    fn json_str(s: &str) -> String {
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

    /// Asserts that `session`'s streamed status equals the oracle's.
    fn assert_status_matches_oracle(session: &SyncSession, ctx: &str) {
        let mut got = String::new();
        write_status(&mut got, session);
        let status = session.status();
        let want = status_json(
            &session.report(),
            status.consistent,
            status.violations,
            session.journal().len(),
        );
        assert_eq!(got, want, "{ctx}");
    }

    /// splitmix64, so a failing pick sequence reproduces from its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Every step of seeded session scripts (edits, with a repair every
    /// fourth step) over each scenario renders as the oracle does.
    #[test]
    fn status_renders_as_the_report_oracle_through_session_scripts() {
        for sc in all_scenarios() {
            for seed in [3u64, 17] {
                let w = sc.workload(seed);
                let t = Transformation::from_hir(Arc::clone(&w.hir));
                let mut session = SyncSession::new(t, &w.models).unwrap();
                let mut gen = SessionScriptGen::new(sc.repair_targets(), 4, seed);
                assert_status_matches_oracle(&session, &format!("{} {seed} open", sc.name()));
                for step in 0..24 {
                    match gen.next_step(session.models()) {
                        SessionStep::Edit { model, op } => {
                            session.apply(model, op).unwrap();
                        }
                        SessionStep::Repair { targets } => {
                            session.repair(Shape::from_targets(targets)).unwrap();
                        }
                    }
                    let ctx = format!("{} seed {seed} step {step}", sc.name());
                    assert_status_matches_oracle(&session, &ctx);
                }
            }
        }
    }

    /// Names drawn from the characters that need escaping — quotes,
    /// backslashes, control characters, non-ASCII — render as the
    /// oracle does once violations carry them.
    #[test]
    fn escaped_values_render_as_the_report_oracle() {
        let w = scenario_named("fm2cfs").unwrap().workload(5);
        let t = Transformation::from_hir(Arc::clone(&w.hir));
        let mut session = SyncSession::new(t, &w.models).unwrap();
        let mut rng = Rng(41);
        for round in 0..64 {
            let m = rng.below(session.models().len());
            let model = &session.models()[m];
            let ids: Vec<ObjId> = model.objects().map(|(id, _)| id).collect();
            let id = ids[rng.below(ids.len())];
            let class = model.class_of(id).unwrap();
            let attr = model.metamodel().attr_of(class, Sym::new("name")).unwrap();
            let picks: Vec<usize> = (0..rng.below(24))
                .map(|_| rng.below(TRICKY_CHARS.len()))
                .collect();
            let op = EditOp::SetAttr {
                id,
                attr,
                value: Value::str(&tricky_string(&picks)),
                old: model.attr(id, attr).unwrap(),
            };
            session.apply(DomIdx(m as u8), op).unwrap();
            assert_status_matches_oracle(&session, &format!("round {round}, picks {picks:?}"));
        }
        assert!(!session.status().consistent, "the names left violations");
    }

    /// A checker that records fewer violations than it holds renders the
    /// capped list as the oracle does: the class rename of a C2T tuple
    /// whose class has nine attributes leaves nine violations in each
    /// `AttrToCol` check, with escaped names among them.
    #[test]
    fn capped_status_renders_as_the_report_oracle() {
        let t = Transformation::from_sources(
            &mmt_gen::scenario::class2rdbms_transformation_source(),
            &[
                mmt_gen::scenario::UML_METAMODEL,
                mmt_gen::scenario::RDB_METAMODEL,
            ],
        )
        .unwrap();
        let side = |param: &str, meta: &str, owner: &str, members: &str, member: &str| {
            let mut src = format!("model {param} : {meta} {{\n");
            for a in 0..9 {
                src.push_str(&format!(
                    "  m{a} = {member} {{ name = \"a\\\"{a}\\\\é\" }}\n"
                ));
            }
            let all: Vec<String> = (0..9).map(|a| format!("m{a}")).collect();
            src.push_str(&format!(
                "  o = {owner} {{ name = \"K\", {members} = [{}] }}\n}}\n",
                all.join(", ")
            ));
            src
        };
        let models = [
            side("uml", "UML", "Class", "attrs", "Attribute"),
            side("rdb", "RDB", "Table", "cols", "Column"),
        ];
        let models: Vec<_> = models
            .iter()
            .zip(t.metamodels())
            .map(|(src, meta)| parse_model(src, meta).unwrap())
            .collect();
        let uml = &models[0];
        let class = ObjId(9);
        let name = uml
            .metamodel()
            .attr_of(uml.class_of(class).unwrap(), Sym::new("name"))
            .unwrap();
        let rename = EditOp::SetAttr {
            id: class,
            attr: name,
            value: Value::str("K\t2"),
            old: uml.attr(class, name).unwrap(),
        };
        for cap in [0, 1, 4, 9, 20] {
            let opts = CheckOptions {
                max_violations: cap,
                ..CheckOptions::default()
            };
            let mut checker = DeltaChecker::with_options(t.hir_arc(), &models, opts).unwrap();
            checker.apply(DomIdx(0), &rename).unwrap();
            assert_eq!(checker.violation_count(), 20);
            let report = checker.report();
            let listed: Vec<usize> = report.checks.iter().map(|c| c.violations.len()).collect();
            assert_eq!(listed, [1, 1, 9, 9].map(|n: usize| n.min(cap)), "cap {cap}");
            let mut got = String::new();
            write_checker_status(&mut got, &checker, 3);
            let want = status_json(&report, false, 20, 3);
            assert_eq!(got, want, "cap {cap}");
        }
    }

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
        let mut json = String::new();
        write_lint(&mut json, &report);
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
