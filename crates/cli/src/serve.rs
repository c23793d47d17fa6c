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

use crate::json::{
    field, journal_json, json_str, lint_json, parse_request, status_json, str_field, Json,
};
use crate::{apply_session_edit, load, repair_options, shape_of_names, write_models_quiet, Parsed};
use mmt_core::{EngineKind, SessionHandle, SessionOptions, SyncHub, Transformation};
use mmt_model::Model;
use mmt_store::{write_hub_manifest, HubStore, PersistentSession};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
    let mut store = match &p.store {
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
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    // Read raw byte lines: a line that is not UTF-8 is a bad request to
    // answer, not a reason to kill the loop.
    for raw in stdin.lock().split(b'\n') {
        let mut raw = raw.map_err(|e| format!("stdin: {e}"))?;
        if raw.last() == Some(&b'\r') {
            raw.pop();
        }
        let response = match String::from_utf8(raw) {
            Ok(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                respond(
                    &hub,
                    &t,
                    &models,
                    &opts,
                    p.out.as_deref(),
                    &mut store,
                    &line,
                )
            }
            Err(_) => "{\"id\":null,\"ok\":false,\"error\":\"bad request: line is not UTF-8\"}"
                .to_string(),
        };
        writeln!(stdout, "{response}").map_err(|e| format!("stdout: {e}"))?;
        stdout.flush().map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// One request → one response line. Never errors the loop: every
/// failure becomes an `{"ok":false}` response carrying the request id
/// (when one could be parsed at all).
fn respond(
    hub: &SyncHub,
    t: &Transformation,
    seed_models: &[Model],
    opts: &SessionOptions,
    out_dir: Option<&str>,
    store: &mut Option<ServeStore>,
    line: &str,
) -> String {
    let (id, outcome) = match parse_request(line) {
        Err(e) => (Json::Null, Err(format!("bad request: {e}"))),
        Ok(obj) => {
            let id = field(&obj, "id").cloned().unwrap_or(Json::Null);
            (
                id,
                dispatch(hub, t, seed_models, opts, out_dir, store, &obj),
            )
        }
    };
    let id = id.render();
    match outcome {
        Ok(result) => format!("{{\"id\":{id},\"ok\":true,\"result\":{result}}}"),
        Err(e) => format!("{{\"id\":{id},\"ok\":false,\"error\":{}}}", json_str(&e)),
    }
}

/// Executes one parsed request against the hub; returns the `result`
/// payload as raw JSON text.
fn dispatch(
    hub: &SyncHub,
    t: &Transformation,
    seed_models: &[Model],
    opts: &SessionOptions,
    out_dir: Option<&str>,
    store: &mut Option<ServeStore>,
    obj: &[(String, Json)],
) -> Result<String, String> {
    let cmd = str_field(obj, "cmd")?;
    if cmd == "lint" {
        // The report recorded when the spec was registered; no session.
        let report = hub.lint_report("default").map_err(|e| e.to_string())?;
        return Ok(lint_json(&report));
    }
    let name = str_field(obj, "session")?;
    match cmd.as_str() {
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
                    json_str(&name)
                ));
            }
            // Durable names additionally become store manifest tokens.
            if store.is_some() && name.chars().any(char::is_whitespace) {
                return Err(format!(
                    "invalid session name {}: durable session names must carry no whitespace",
                    json_str(&name)
                ));
            }
            let handle = hub
                .open_with(&name, "default", seed_models, opts.clone())
                .map_err(|e| e.to_string())?;
            if let Some(st) = store {
                // Snapshot the fresh session; if the store cannot hold
                // it, the open fails as a whole (close the hub slot so
                // memory and disk never disagree about what exists).
                // The hub manifest is the visibility point, and it does
                // not name this session: a directory left under its name
                // by an `open` or `close` cut short belongs to no one.
                let dir = st.dir.join("sessions").join(&name);
                let created = remove_store_dir(&dir)
                    .and_then(|()| {
                        handle
                            .with(|s| PersistentSession::create(&dir, s))
                            .map_err(|e| format!("store: {e}"))
                    })
                    .and_then(|ps| {
                        st.sessions.insert(name.clone(), ps);
                        st.sync_manifest(hub)
                    });
                if let Err(e) = created {
                    let _ = hub.close(&name);
                    st.sessions.remove(&name);
                    return Err(e);
                }
            }
            Ok(handle.with(|s| status_json(s)))
        }
        "status" => {
            let handle = hub.get(&name).map_err(|e| e.to_string())?;
            Ok(handle.with(|s| status_json(s)))
        }
        "edit" => {
            let spec = str_field(obj, "edit")?;
            let handle = hub.get(&name).map_err(|e| e.to_string())?;
            let result =
                handle.with(|s| apply_session_edit(t, s, &spec).map(|_| status_json(s)))?;
            if let Some(st) = store {
                st.commit(&name, &handle)?;
            }
            Ok(result)
        }
        "repair" => {
            let shape = shape_of_names(t, &str_field(obj, "targets")?)?;
            let handle = hub.get(&name).map_err(|e| e.to_string())?;
            let result = handle.with(|s| match s.repair(shape).map_err(|e| e.to_string())? {
                None => Ok::<String, String>("{\"repaired\":false}".to_string()),
                Some(out) => {
                    let deltas: Vec<String> = out
                        .deltas
                        .iter()
                        .map(|d| json_str(&d.to_string()))
                        .collect();
                    Ok(format!(
                        "{{\"repaired\":true,\"cost\":{},\"deltas\":[{}]}}",
                        out.cost,
                        deltas.join(",")
                    ))
                }
            })?;
            if let Some(st) = store {
                st.commit(&name, &handle)?;
            }
            Ok(result)
        }
        "rollback" => {
            let n = match field(obj, "n") {
                Some(Json::Int(n)) if *n >= 0 => *n as usize,
                Some(Json::Str(s)) if s == "all" => usize::MAX,
                Some(_) => return Err("field \"n\" must be a non-negative int or \"all\"".into()),
                None => return Err("missing field \"n\"".into()),
            };
            let handle = hub.get(&name).map_err(|e| e.to_string())?;
            let result = handle.with(|s| {
                // `rollback` saturates at the journal length itself, so
                // the "all" sentinel needs no pre-clamping here.
                let undone = s.rollback(n).map_err(|e| e.to_string())?;
                Ok::<String, String>(format!("{{\"undone\":{undone}}}"))
            })?;
            if let Some(st) = store {
                st.commit(&name, &handle)?;
            }
            Ok(result)
        }
        "journal" => {
            let handle = hub.get(&name).map_err(|e| e.to_string())?;
            Ok(handle.with(|s| journal_json(s)))
        }
        "close" => {
            // Write the final tuple *before* unregistering: a failed
            // write leaves the session open so the client can retry,
            // instead of dropping the only copy of its state.
            let handle = hub.get(&name).map_err(|e| e.to_string())?;
            if let Some(dir) = out_dir {
                handle.with(|s| write_models_quiet(&Path::new(dir).join(&name), t, s.models()))?;
            }
            hub.close(&name).map_err(|e| e.to_string())?;
            if let Some(st) = store {
                // A closed session's story is over: drop it from the
                // manifest first (the visibility point), then retire its
                // store. A crash in between leaves a directory no manifest
                // names, which the next `open` of the name removes.
                st.sessions.remove(&name);
                st.sync_manifest(hub)?;
                remove_store_dir(&st.dir.join("sessions").join(&name))?;
            }
            Ok(format!("{{\"closed\":{}}}", json_str(&name)))
        }
        other => Err(format!("unknown cmd `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Ids echo verbatim through render().
        assert_eq!(Json::Int(7).render(), "7");
        assert_eq!(Json::Str("x\"y".into()).render(), r#""x\"y""#);
        assert_eq!(Json::Null.render(), "null");
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
}
