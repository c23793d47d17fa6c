//! `mmt serve` — concurrent synchronization sessions over a
//! line-oriented JSON protocol on stdin/stdout.
//!
//! The serve loop is the thinnest possible shell around
//! [`mmt_core::SyncHub`]: the transformation is loaded once and
//! registered, every `open` request adds a named session over the seed
//! tuple, and each subsequent request locks exactly that session. One
//! request per line in, one response per line out:
//!
//! ```text
//! → {"id":1,"cmd":"open","session":"a"}
//! ← {"id":1,"ok":true,"result":{"consistent":true,...}}
//! → {"id":2,"cmd":"edit","session":"a","edit":"fm set @0.name = \"x\""}
//! ← {"id":2,"ok":true,"result":{"consistent":false,...}}
//! ```
//!
//! The verbs (`open`, `edit`, `status`, `repair`, `rollback`,
//! `journal`, `close`) mirror the `mmt sync` script commands, the
//! `edit` payload **is** a sync edit line (minus the `edit` keyword),
//! and `status`/`journal` results are byte-identical to `mmt sync
//! --json` output — the serve differential e2e test pins that down.
//! Errors answer `{"ok":false,"error":...}` and the loop keeps
//! serving; EOF exits 0.
//!
//! The answer path copies nothing it need not: each line is read into
//! one reused buffer, and the request's fields are parsed borrowed from
//! it; the whole answer, `{"id":…,"ok":true,"result":…}` and its
//! newline, is written into one reused buffer, the status straight
//! from the session's match state ([`crate::json`]), and leaves in one
//! `write_all`, one `write` call whatever its size. A line longer than
//! [`MAX_LINE`] bytes is answered as a bad request without being held.

use crate::json::{
    field, parse_request, push_str_of, str_field, write_journal, write_json, write_lint,
    write_repair, write_status, Json, Request,
};
use crate::{apply_session_edit, load, repair_options, shape_of_names, write_models_quiet, Parsed};
use mmt_core::{EngineKind, SessionHandle, SessionOptions, SyncHub, Transformation};
use mmt_model::Model;
use mmt_store::{write_hub_manifest, HubStore, PersistentSession};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The longest request line served, in bytes (its `\n` not counted).
/// A longer line is answered `{"id":null,"ok":false,…}` and skipped:
/// it is read to its end in the input buffer's chunks and never held
/// whole, so one line without a newline cannot grow the loop's memory
/// without bound. Real requests are a few hundred bytes.
const MAX_LINE: usize = 1 << 20;

/// The durable side of a serving hub: the store directory plus the open
/// per-session stores the loop commits to after every mutating request.
struct ServeStore {
    dir: PathBuf,
    sessions: HashMap<String, PersistentSession>,
}

impl ServeStore {
    /// Rewrites the hub manifest from the hub's current registry — the
    /// visibility point for `open`/`close` under `--store`.
    fn sync_manifest(&self, hub: &SyncHub) -> Result<(), String> {
        let entries: Vec<(String, String)> = hub
            .sessions()
            .iter()
            .map(|h| (h.name().to_string(), h.transformation_id().to_string()))
            .collect();
        write_hub_manifest(&self.dir, &entries).map_err(|e| format!("store: {e}"))
    }

    /// Commits the named session's journal to its WAL (the commit point
    /// of one mutating request).
    fn commit(&mut self, name: &str, handle: &SessionHandle) -> Result<(), String> {
        if let Some(ps) = self.sessions.get_mut(name) {
            handle
                .with(|s| ps.commit(s))
                .map_err(|e| format!("store: {e}"))?;
        }
        Ok(())
    }
}

/// Removes a session store directory, if there is one.
fn remove_store_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("store: {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// What one serving process holds between requests.
struct Server<'a> {
    hub: SyncHub,
    t: &'a Transformation,
    seed_models: &'a [Model],
    opts: SessionOptions,
    out_dir: Option<&'a str>,
    store: Option<ServeStore>,
}

/// The serve loop: reads one JSON request per stdin line, writes one
/// JSON response per stdout line. See [`crate::USAGE_SERVE`] and the
/// module docs for the protocol.
pub(crate) fn run_serve(p: &Parsed) -> Result<ExitCode, String> {
    let (t, models) = load(p, "serve")?;
    if models.len() != t.arity() {
        return Err(format!(
            "transformation expects {} models, got {}",
            t.arity(),
            models.len()
        ));
    }
    let opts = SessionOptions {
        engine: p.engine.unwrap_or(EngineKind::Search),
        repair: repair_options(&t, p)?,
    };
    let hub = SyncHub::new();
    // Registration lints the spec: error findings refuse to serve at
    // all; warnings go to stderr (stdout is the protocol stream) and
    // stay queryable through the `lint` verb.
    let t = hub.register("default", t).map_err(|e| e.to_string())?;
    if let Ok(report) = hub.lint_report("default") {
        if report.warnings() > 0 {
            eprintln!(
                "lint: {} warning(s) in the registered spec (send {{\"cmd\":\"lint\"}} or run `mmt lint` for details)",
                report.warnings()
            );
        }
    }
    // With --store, recover every session the previous process left
    // behind before serving the first request.
    let store = match &p.store {
        None => None,
        Some(dir) => {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut sessions = HashMap::new();
            if dir.join("hub").is_file() {
                for (handle, ps) in hub
                    .restore_from(&dir, &opts)
                    .map_err(|e| format!("store: {e}"))?
                {
                    sessions.insert(handle.name().to_string(), ps);
                }
            }
            Some(ServeStore { dir, sessions })
        }
    };
    let mut server = Server {
        hub,
        t: &t,
        seed_models: &models,
        opts,
        out_dir: p.out.as_deref(),
        store,
    };
    let mut input = io::stdin().lock();
    let mut stdout = io::stdout().lock();
    let mut line = Vec::new();
    let mut answer = String::new();
    loop {
        answer.clear();
        match read_line(&mut input, &mut line).map_err(|e| format!("stdin: {e}"))? {
            Line::End => return Ok(ExitCode::SUCCESS),
            Line::TooLong => {
                let _ = write!(
                    answer,
                    "{{\"id\":null,\"ok\":false,\"error\":\"bad request: line longer than {MAX_LINE} bytes\"}}"
                );
            }
            Line::Read => {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                // A line that is not UTF-8 is a bad request to answer,
                // not a reason to end the loop.
                match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => server.respond(text, &mut answer),
                    Err(_) => answer.push_str(
                        "{\"id\":null,\"ok\":false,\"error\":\"bad request: line is not UTF-8\"}",
                    ),
                }
            }
        }
        answer.push('\n');
        stdout
            .write_all(answer.as_bytes())
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("stdout: {e}"))?;
    }
}

/// What [`read_line`] read.
#[derive(Debug, PartialEq, Eq)]
enum Line {
    /// A line of at most [`MAX_LINE`] bytes, now in the buffer.
    Read,
    /// A longer line, read to its end and dropped.
    TooLong,
    /// End of input, with nothing read.
    End,
}

/// Reads the next line of `input` into `line`, without its `\n` (the
/// last line may lack one). A line longer than [`MAX_LINE`] bytes is
/// consumed to its end in `input`'s own chunks but not stored.
fn read_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Line> {
    line.clear();
    let mut read_any = false;
    let mut too_long = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let text = &chunk[..newline.unwrap_or(chunk.len())];
        if !too_long && line.len() + text.len() > MAX_LINE {
            too_long = true;
            line.clear();
        }
        if !too_long {
            line.extend_from_slice(text);
        }
        let (used, at_end) = match newline {
            Some(i) => (i + 1, true),
            None => (chunk.len(), chunk.is_empty()),
        };
        read_any |= used > 0;
        input.consume(used);
        if at_end {
            return Ok(match (read_any, too_long) {
                (false, _) => Line::End,
                (true, true) => Line::TooLong,
                (true, false) => Line::Read,
            });
        }
    }
}

impl Server<'_> {
    /// Appends the answer to one request line to `out`. Never errors
    /// the loop: every failure becomes an `{"ok":false}` answer carrying
    /// the request id (when one could be parsed at all).
    fn respond(&mut self, line: &str, out: &mut String) {
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => {
                out.push_str("{\"id\":null,\"ok\":false,\"error\":");
                push_str_of(out, format_args!("bad request: {e}"));
                out.push('}');
                return;
            }
        };
        out.push_str("{\"id\":");
        write_json(out, field(&request, "id").unwrap_or(&Json::Null));
        let fields = out.len();
        out.push_str(",\"ok\":true,\"result\":");
        match self.dispatch(&request, out) {
            Ok(()) => out.push('}'),
            Err(e) => {
                // Drop whatever the failed request wrote of a result.
                out.truncate(fields);
                out.push_str(",\"ok\":false,\"error\":");
                push_str_of(out, e);
                out.push('}');
            }
        }
    }

    /// Executes one parsed request against the hub, appending its
    /// `result` payload to `out`.
    fn dispatch(&mut self, obj: &Request<'_>, out: &mut String) -> Result<(), String> {
        let Server {
            hub,
            t,
            seed_models,
            opts,
            out_dir,
            store,
        } = self;
        let cmd = str_field(obj, "cmd")?;
        if cmd == "lint" {
            // The report recorded when the spec was registered; no session.
            let report = hub.lint_report("default").map_err(|e| e.to_string())?;
            write_lint(out, &report);
            return Ok(());
        }
        let name = str_field(obj, "session")?;
        match cmd {
            "open" => {
                // Session names become `--out` path components on close:
                // refuse anything that could escape the output directory.
                if name.is_empty()
                    || name == "."
                    || name == ".."
                    || name.contains(['/', '\\'])
                    || name.contains('\0')
                {
                    return Err(format!(
                        "invalid session name {}: must be non-empty and contain no path separators",
                        quoted(name)
                    ));
                }
                // Durable names additionally become store manifest tokens.
                if store.is_some() && name.chars().any(char::is_whitespace) {
                    return Err(format!(
                        "invalid session name {}: durable session names must carry no whitespace",
                        quoted(name)
                    ));
                }
                let handle = hub
                    .open_with(name, "default", seed_models, opts.clone())
                    .map_err(|e| e.to_string())?;
                if let Some(st) = store {
                    // Snapshot the fresh session; if the store cannot hold
                    // it, the open fails as a whole (close the hub slot so
                    // memory and disk never disagree about what exists).
                    // The hub manifest is the visibility point, and it does
                    // not name this session: a directory left under its name
                    // by an `open` or `close` cut short belongs to no one.
                    let dir = st.dir.join("sessions").join(name);
                    let created = remove_store_dir(&dir)
                        .and_then(|()| {
                            handle
                                .with(|s| PersistentSession::create(&dir, s))
                                .map_err(|e| format!("store: {e}"))
                        })
                        .and_then(|ps| {
                            st.sessions.insert(name.to_string(), ps);
                            st.sync_manifest(hub)
                        });
                    if let Err(e) = created {
                        let _ = hub.close(name);
                        st.sessions.remove(name);
                        return Err(e);
                    }
                }
                handle.with(|s| write_status(out, s));
                Ok(())
            }
            "status" => {
                let handle = hub.get(name).map_err(|e| e.to_string())?;
                handle.with(|s| write_status(out, s));
                Ok(())
            }
            "edit" => {
                let spec = str_field(obj, "edit")?;
                let handle = hub.get(name).map_err(|e| e.to_string())?;
                handle.with(|s| apply_session_edit(t, s, spec).map(|_| write_status(out, s)))?;
                if let Some(st) = store {
                    st.commit(name, &handle)?;
                }
                Ok(())
            }
            "repair" => {
                let shape = shape_of_names(t, str_field(obj, "targets")?)?;
                let handle = hub.get(name).map_err(|e| e.to_string())?;
                handle.with(|s| {
                    let repair = s.repair(shape).map_err(|e| e.to_string())?;
                    write_repair(out, repair.as_ref());
                    Ok::<(), String>(())
                })?;
                if let Some(st) = store {
                    st.commit(name, &handle)?;
                }
                Ok(())
            }
            "rollback" => {
                let n = match field(obj, "n") {
                    Some(Json::Int(n)) if *n >= 0 => *n as usize,
                    Some(Json::Str(s)) if s == "all" => usize::MAX,
                    Some(_) => {
                        return Err("field \"n\" must be a non-negative int or \"all\"".into())
                    }
                    None => return Err("missing field \"n\"".into()),
                };
                let handle = hub.get(name).map_err(|e| e.to_string())?;
                // `rollback` saturates at the journal length itself, so
                // the "all" sentinel needs no pre-clamping here.
                let undone = handle.with(|s| s.rollback(n).map_err(|e| e.to_string()))?;
                let _ = write!(out, "{{\"undone\":{undone}}}");
                if let Some(st) = store {
                    st.commit(name, &handle)?;
                }
                Ok(())
            }
            "journal" => {
                let handle = hub.get(name).map_err(|e| e.to_string())?;
                handle.with(|s| write_journal(out, s));
                Ok(())
            }
            "close" => {
                // Write the final tuple *before* unregistering: a failed
                // write leaves the session open so the client can retry,
                // instead of dropping the only copy of its state.
                let handle = hub.get(name).map_err(|e| e.to_string())?;
                if let Some(dir) = out_dir {
                    handle
                        .with(|s| write_models_quiet(&Path::new(dir).join(name), t, s.models()))?;
                }
                hub.close(name).map_err(|e| e.to_string())?;
                if let Some(st) = store {
                    // A closed session's story is over: drop it from the
                    // manifest first (the visibility point), then retire its
                    // store. A crash in between leaves a directory no manifest
                    // names, which the next `open` of the name removes.
                    st.sessions.remove(name);
                    st.sync_manifest(hub)?;
                    remove_store_dir(&st.dir.join("sessions").join(name))?;
                }
                out.push_str("{\"closed\":");
                push_str_of(out, name);
                out.push('}');
                Ok(())
            }
            other => Err(format!("unknown cmd `{other}`")),
        }
    }
}

/// `s` as a JSON string, for an error message.
fn quoted(s: &str) -> String {
    let mut out = String::new();
    push_str_of(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn json_reader_roundtrips_protocol_shapes() {
        let obj = parse_request(
            r#" {"id": 7, "cmd":"edit", "session":"a", "edit":"fm set @0.name = \"a#b\\\\c\"", "flag": true, "n": null, "list": [1, -2, "x"]} "#,
        )
        .unwrap();
        assert_eq!(field(&obj, "id"), Some(&Json::Int(7)));
        assert_eq!(str_field(&obj, "cmd").unwrap(), "edit");
        assert_eq!(
            str_field(&obj, "edit").unwrap(),
            r#"fm set @0.name = "a#b\\c""#
        );
        assert_eq!(field(&obj, "flag"), Some(&Json::Bool(true)));
        assert_eq!(field(&obj, "n"), Some(&Json::Null));
        assert_eq!(
            field(&obj, "list"),
            Some(&Json::Arr(vec![
                Json::Int(1),
                Json::Int(-2),
                Json::Str("x".into())
            ]))
        );
        // A string without escapes borrows from the line; one with
        // them is decoded.
        assert!(matches!(
            field(&obj, "cmd"),
            Some(Json::Str(Cow::Borrowed(_)))
        ));
        assert!(matches!(
            field(&obj, "edit"),
            Some(Json::Str(Cow::Owned(_)))
        ));
        // Ids echo verbatim through write_json().
        let echo = |id: Json| {
            let mut out = String::new();
            write_json(&mut out, &id);
            out
        };
        assert_eq!(echo(Json::Int(7)), "7");
        assert_eq!(echo(Json::Str("x\"y".into())), r#""x\"y""#);
        assert_eq!(echo(Json::Null), "null");
        assert_eq!(echo(field(&obj, "list").unwrap().clone()), r#"[1,-2,"x"]"#);
    }

    #[test]
    fn json_reader_rejects_malformed_input() {
        for bad in [
            "",
            "[1,2]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "{\"a\":1.5}",
            "{\"a\":\"unterminated}",
            "{'a':1}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    /// A line over [`MAX_LINE`] is consumed to its newline in the
    /// reader's chunks, never stored, and the next line reads whole;
    /// a last line without a newline still counts.
    #[test]
    fn read_line_drops_an_oversized_line_and_reads_on() {
        let mut input = vec![b'x'; MAX_LINE + 1];
        input.extend_from_slice(b"\nnext\n");
        input.extend(std::iter::repeat_n(b'y', MAX_LINE));
        input.extend_from_slice(b"\nlast");
        let mut reader = io::BufReader::with_capacity(4096, &input[..]);
        let mut line = Vec::new();
        let mut read = || {
            let got = read_line(&mut reader, &mut line).unwrap();
            (got, line.len(), line.first().copied())
        };
        assert_eq!(read(), (Line::TooLong, 0, None));
        assert_eq!(read(), (Line::Read, 4, Some(b'n')));
        assert_eq!(read(), (Line::Read, MAX_LINE, Some(b'y')));
        assert_eq!(read(), (Line::Read, 4, Some(b'l')));
        assert_eq!(read(), (Line::End, 0, None));
    }
}
