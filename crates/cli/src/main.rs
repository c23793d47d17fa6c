//! `mmt` — command-line front-end for the multidirectional model
//! transformation framework.
//!
//! ```text
//! mmt check   -t F.qvtr -M CF.mm FM.mm -m cf1.model cf2.model fm.model
//! mmt enforce -t F.qvtr -M CF.mm FM.mm -m ... --targets cf1,cf2 [--engine sat]
//! mmt repair  -t F.qvtr -M CF.mm FM.mm --batch reqs/ --targets cf1,cf2 --jobs 4
//! mmt sync    session.mmts -t F.qvtr -M CF.mm FM.mm -m ... [--json] [--store dir]
//! mmt serve   -t F.qvtr -M CF.mm FM.mm -m ... [--out dir] [--store dir]
//! mmt lint    -t F.qvtr -M CF.mm FM.mm [--json] [--allow MMT0xx,...]
//! mmt deps    -t F.qvtr -M CF.mm FM.mm
//! ```

mod json;
mod serve;

use json::{journal_json, lint_json, status_json};
use mmt_core::{
    EngineKind, LintCode, LintOptions, RepairRequest, SessionOptions, Shape, SyncSession,
    Transformation,
};
use mmt_dist::{EditOp, TupleCost};
use mmt_enforce::RepairOptions;
use mmt_model::text::{parse_metamodel, parse_model, print_model};
use mmt_model::{AttrType, Metamodel, Model, ObjId, Sym, Value};
use mmt_store::PersistentSession;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Prints one line of command output through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes command output to stdout, checked: `println!` would panic on a
/// write error. A closed pipe (`mmt sync … | head -1`) ends the process
/// quietly with status 0; any other write error exits 2 with
/// `error: stdout: …`, as `mmt serve`'s response loop does.
fn emit(args: std::fmt::Arguments) {
    let written = std::io::stdout().lock().write_fmt(args);
    if let Err(e) = written {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: stdout: {e}");
        std::process::exit(2);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = r#"mmt — multidirectional model transformations

USAGE:
  mmt <command> [options]
  mmt help [<command>]     per-command usage
  mmt --version            print the version

COMMANDS:
  check     run checkonly evaluation over a model tuple
  enforce   least-change repair of one tuple under a repair shape
  repair    enforce, or batch-enforce a directory of requests
  sync      drive a stateful session from an edit/repair script
  serve     serve concurrent sessions over a JSON line protocol on stdio
  lint      static analysis of a transformation spec (no models needed)
  deps      print the resolved transformation and its dependency sets

Models are bound to the transformation's parameters in order.
`--targets` takes comma-separated model parameter names (the repair shape).
"#;

const USAGE_CHECK: &str = r#"mmt check — checkonly evaluation

USAGE:
  mmt check -t <spec.qvtr> -M <mm>... -m <model>...

Prints the per-direction report; exits 0 when consistent, 1 otherwise.
"#;

const USAGE_ENFORCE: &str = r#"mmt enforce — least-change repair of one model tuple

USAGE:
  mmt enforce -t <spec.qvtr> -M <mm>... -m <model>... --targets <names>
              [--engine sat|search] [--max-cost <n>] [--weights <w,...>]
              [--out <dir>]

`--targets` takes comma-separated model parameter names (the repair
shape: which models the repair may rewrite). With `--out <dir>` the
repaired tuple is written as `<dir>/<param>.model` files. Exits 0 on
repair, 1 when no repair exists within the shape and cost bound.
"#;

const USAGE_REPAIR: &str = r#"mmt repair — enforce, or batch-enforce a directory of requests

USAGE:
  mmt repair -t <spec.qvtr> -M <mm>... --targets <names>
             (--batch <dir> | -m <model>...)
             [--engine sat|search] [--jobs <n>] [--max-cost <n>]
             [--weights <w,...>] [--out <dir>]

Without `--batch`, identical to `mmt enforce`. With `--batch <dir>`,
every subdirectory of <dir> is one independent request holding a
`<param>.model` file per transformation parameter; requests are
repaired concurrently across `--jobs` workers (results are identical
for every job count). With `--out <dir>`, the repaired tuple of
request `req` is written to `<dir>/<req>/`.
"#;

const USAGE_SYNC: &str = r#"mmt sync — drive a stateful session from an edit/repair script

USAGE:
  mmt sync <script> -t <spec.qvtr> -M <mm>... -m <model>...
           [--json] [--engine sat|search] [--max-cost <n>]
           [--weights <w,...>] [--out <dir>] [--store <dir>]

Opens one warm synchronization session over the model tuple (one cold
start, then O(|edit|) per command) and executes the script line by
line. `<script>` may be `-` to read the script from stdin, so sessions
can be piped. Script commands:

  edit <param> add <Class> [@id]        create an object
  edit <param> del @id                  delete an object
  edit <param> set @id.<attr> = <val>   overwrite an attribute
                                        (<val>: "str" | true|false | int)
  edit <param> link @src.<ref> @dst     insert a link
  edit <param> unlink @src.<ref> @dst   remove a link
  status                                print consistency status
  repair <names>                        least-change repair (auto-applied
                                        and journaled)
  rollback <n|all>                      undo the last n journal entries
  journal                               print the journal as one
                                        replayable per-model script
  # ...                                 comment

With `--json`, `status` dumps a JSON object instead of text. The repair
engine defaults to `search` (it reuses the warm state). With
`--out <dir>` the final tuple is written as `<dir>/<param>.model`.
Exits 0 when the final state is consistent, 1 otherwise.

With `--store <dir>`, the session is durable: every journal entry is
written to a write-ahead log (fsynced after each script line), and if
<dir> already holds a store, the session *resumes* from it — the seed
tuple and journal are recovered from disk (the `-m` models are ignored)
and the script continues where the previous run stopped. A crashed run
recovers to exactly its last committed script line.
"#;

const USAGE_SERVE: &str = r#"mmt serve — serve concurrent sessions over a JSON line protocol

USAGE:
  mmt serve -t <spec.qvtr> -M <mm>... -m <model>...
            [--engine sat|search] [--max-cost <n>] [--weights <w,...>]
            [--out <dir>] [--store <dir>]

Loads the transformation once, then reads one JSON request per line
from stdin and writes one JSON response per line to stdout, serving
any number of named concurrent sessions (each opened over the seed
tuple given with -m). Requests:

  {"id":1,"cmd":"open","session":"a"}
  {"id":2,"cmd":"edit","session":"a","edit":"fm set @0.name = "x""}
  {"id":3,"cmd":"status","session":"a"}
  {"id":4,"cmd":"repair","session":"a","targets":"cf1,cf2"}
  {"id":5,"cmd":"rollback","session":"a","n":2}        (or "n":"all")
  {"id":6,"cmd":"journal","session":"a"}
  {"id":7,"cmd":"close","session":"a"}
  {"id":8,"cmd":"lint"}

Responses echo the request id: {"id":1,"ok":true,"result":...} on
success, {"id":1,"ok":false,"error":"..."} on failure (the loop keeps
serving). The `edit` string is exactly a `mmt sync` edit line without
the leading `edit` keyword, and `status`/`journal` results are byte-
identical to `mmt sync --json` output for the same commands. The
`lint` request needs no session and returns the static-analysis report
recorded when the spec was registered (same JSON as `mmt lint --json`);
a spec with lint errors refuses to serve at all. With
`--out <dir>`, `close` writes the session's final tuple to
`<dir>/<session>/<param>.model`. EOF on stdin exits 0.

With `--store <dir>`, sessions are durable: `open` snapshots the seed
tuple, every `edit`/`repair`/`rollback` appends to (or rewinds) a
per-session write-ahead log before answering, and `close` retires the
session's store. A restarted `mmt serve --store <dir>` recovers every
session that was open when the previous process died, with identical
`status`/`journal` answers. Durable session names must carry no
whitespace.
"#;

const USAGE_LINT: &str = r#"mmt lint — static analysis of a transformation spec

USAGE:
  mmt lint -t <spec.qvtr> -M <mm>... [--json] [--allow <codes>]

Runs the static-analysis pass over the resolved spec (no models
needed): well-formedness (unused/unbindable variables, unsatisfiable
`when`/`where`, unreachable relations, call cycles, uninstantiable
domains), repair-conflict analysis (relation pairs whose repairs write
what another relation reads — possible repair ping-pong), and
grounding-cost estimation (templates whose SAT grounding is
exponential in degree). The same pass runs at hub registration:
specs with error findings are rejected by `mmt serve`.

Findings carry stable codes (MMT001...); `--allow <codes>` takes
comma-separated codes to suppress (pinning intentional findings).
With `--json` the report is one JSON object. Exits 0 when no errors
(warnings allowed), 1 on error findings.
"#;

const USAGE_DEPS: &str = r#"mmt deps — print the resolved transformation

USAGE:
  mmt deps -t <spec.qvtr> -M <mm>...

Prints the resolved relations and their checking-dependency sets,
flagging which are standard-equivalent (§2.2).
"#;

fn usage_for(cmd: &str) -> &'static str {
    match cmd {
        "check" => USAGE_CHECK,
        "enforce" => USAGE_ENFORCE,
        "repair" => USAGE_REPAIR,
        "sync" => USAGE_SYNC,
        "serve" => USAGE_SERVE,
        "lint" => USAGE_LINT,
        "deps" => USAGE_DEPS,
        _ => USAGE,
    }
}

struct Parsed {
    spec: Option<String>,
    metamodels: Vec<String>,
    models: Vec<String>,
    targets: Option<String>,
    engine: Option<EngineKind>,
    max_cost: u64,
    weights: Option<Vec<u64>>,
    out: Option<String>,
    store: Option<String>,
    jobs: usize,
    batch: Option<String>,
    script: Option<String>,
    allow: Vec<String>,
    json: bool,
    help: bool,
    version: bool,
}

fn parse_flags(args: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed {
        spec: None,
        metamodels: Vec::new(),
        models: Vec::new(),
        targets: None,
        engine: None,
        max_cost: 16,
        weights: None,
        out: None,
        store: None,
        jobs: 1,
        batch: None,
        script: None,
        allow: Vec::new(),
        json: false,
        help: false,
        version: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-t" | "--transformation" => {
                i += 1;
                p.spec = Some(args.get(i).ok_or("missing value for -t")?.clone());
            }
            "-M" | "--metamodels" => {
                i += 1;
                while i < args.len() && !args[i].starts_with('-') {
                    p.metamodels.push(args[i].clone());
                    i += 1;
                }
                continue;
            }
            "-m" | "--models" => {
                i += 1;
                while i < args.len() && !args[i].starts_with('-') {
                    p.models.push(args[i].clone());
                    i += 1;
                }
                continue;
            }
            "--targets" => {
                i += 1;
                p.targets = Some(args.get(i).ok_or("missing value for --targets")?.clone());
            }
            "--engine" => {
                i += 1;
                p.engine = match args.get(i).map(String::as_str) {
                    Some("sat") => Some(EngineKind::Sat),
                    Some("search") => Some(EngineKind::Search),
                    other => return Err(format!("unknown engine {other:?}")),
                };
            }
            "--max-cost" => {
                i += 1;
                p.max_cost = args
                    .get(i)
                    .ok_or("missing value for --max-cost")?
                    .parse()
                    .map_err(|e| format!("bad --max-cost: {e}"))?;
            }
            "--weights" => {
                i += 1;
                let raw = args.get(i).ok_or("missing value for --weights")?;
                let ws: Result<Vec<u64>, _> = raw.split(',').map(str::parse).collect();
                p.weights = Some(ws.map_err(|e| format!("bad --weights: {e}"))?);
            }
            "--out" | "-o" => {
                i += 1;
                p.out = Some(args.get(i).ok_or("missing value for --out")?.clone());
            }
            "--store" => {
                i += 1;
                p.store = Some(args.get(i).ok_or("missing value for --store")?.clone());
            }
            "--jobs" | "-j" => {
                i += 1;
                p.jobs = args
                    .get(i)
                    .ok_or("missing value for --jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if p.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--batch" => {
                i += 1;
                p.batch = Some(args.get(i).ok_or("missing value for --batch")?.clone());
            }
            "--script" => {
                i += 1;
                p.script = Some(args.get(i).ok_or("missing value for --script")?.clone());
            }
            "--allow" => {
                i += 1;
                let raw = args.get(i).ok_or("missing value for --allow")?;
                p.allow.extend(raw.split(',').map(|s| s.trim().to_string()));
            }
            "--json" => p.json = true,
            "--help" | "-h" => p.help = true,
            "--version" | "-V" => p.version = true,
            other if p.script.is_none() && (!other.starts_with('-') || other == "-") => {
                // Bare positional: the sync script path (`-` = stdin).
                p.script = Some(other.to_string());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    Ok(p)
}

fn print_version() {
    outln!("mmt {}", env!("CARGO_PKG_VERSION"));
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// A missing-required-argument error carrying the command's usage text.
fn missing(what: &str, cmd: &str) -> String {
    format!("missing {what}\n\n{}", usage_for(cmd))
}

fn load(p: &Parsed, cmd: &str) -> Result<(Transformation, Vec<Model>), String> {
    let spec_path = p
        .spec
        .as_ref()
        .ok_or_else(|| missing("-t <spec.qvtr>", cmd))?;
    let spec_src = read(spec_path)?;
    let mm_srcs: Vec<String> = p
        .metamodels
        .iter()
        .map(|m| read(m))
        .collect::<Result<_, _>>()?;
    let metamodels: Vec<Arc<Metamodel>> = mm_srcs
        .iter()
        .map(|s| parse_metamodel(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let hir = mmt_qvtr::parse_and_resolve(&spec_src, &metamodels).map_err(|e| e.to_string())?;
    let t = Transformation::from_hir(hir);
    let mut models = Vec::new();
    for (i, path) in p.models.iter().enumerate() {
        let src = read(path)?;
        let param = t
            .hir()
            .models
            .get(i)
            .ok_or_else(|| format!("too many models (transformation has {})", t.arity()))?;
        let m = parse_model(&src, &param.meta).map_err(|e| format!("{path}: {e}"))?;
        models.push(m);
    }
    Ok((t, models))
}

/// The repair shape named by `--targets`.
fn parse_shape(t: &Transformation, p: &Parsed, cmd: &str) -> Result<Shape, String> {
    let target_names = p
        .targets
        .as_ref()
        .ok_or_else(|| missing("--targets <names>", cmd))?;
    shape_of_names(t, target_names)
}

/// A repair shape from comma-separated model parameter names.
fn shape_of_names(t: &Transformation, names: &str) -> Result<Shape, String> {
    let mut indices = Vec::new();
    for name in names.split(',') {
        let idx = t
            .hir()
            .model_named(name.trim())
            .ok_or_else(|| format!("unknown model parameter `{name}`"))?;
        indices.push(idx.index());
    }
    Ok(Shape::of(&indices))
}

/// Engine options from the shared flags (`--max-cost`, `--weights`).
fn repair_options(t: &Transformation, p: &Parsed) -> Result<RepairOptions, String> {
    let mut opts = RepairOptions {
        max_cost: p.max_cost,
        ..RepairOptions::default()
    };
    if let Some(ws) = &p.weights {
        if ws.len() != t.arity() {
            return Err(format!(
                "--weights needs {} values, got {}",
                t.arity(),
                ws.len()
            ));
        }
        opts.tuple = TupleCost::weighted(ws.clone());
    }
    Ok(opts)
}

/// Writes one repaired tuple as `<dir>/<param>.model` files, logging
/// each path. The serve loop uses [`write_models_quiet`] instead —
/// its stdout is the protocol stream and must stay pure JSON.
fn write_models(dir: &Path, t: &Transformation, models: &[Model]) -> Result<(), String> {
    for path in write_models_quiet(dir, t, models)? {
        outln!("wrote {}", path.display());
    }
    Ok(())
}

/// As [`write_models`] without the stdout log; returns the paths.
fn write_models_quiet(
    dir: &Path,
    t: &Transformation,
    models: &[Model],
) -> Result<Vec<std::path::PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (param, model) in t.hir().models.iter().zip(models) {
        let path = dir.join(format!("{}.model", param.name));
        std::fs::write(&path, print_model(model)).map_err(|e| e.to_string())?;
        out.push(path);
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        outln!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    match cmd.as_str() {
        "--version" | "-V" | "version" => {
            print_version();
            return Ok(ExitCode::SUCCESS);
        }
        "help" | "--help" | "-h" => {
            outln!(
                "{}",
                usage_for(args.get(1).map(String::as_str).unwrap_or(""))
            );
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    let p = parse_flags(&args[1..])?;
    if p.version {
        print_version();
        return Ok(ExitCode::SUCCESS);
    }
    if p.help {
        outln!("{}", usage_for(cmd));
        return Ok(ExitCode::SUCCESS);
    }
    if cmd != "sync" {
        // Only `sync` takes a positional argument (the script path);
        // anywhere else a stray positional is a mistake, not input to
        // silently ignore.
        if let Some(stray) = &p.script {
            return Err(format!(
                "unexpected argument `{stray}`\n\n{}",
                usage_for(cmd)
            ));
        }
    }
    match cmd.as_str() {
        "check" => {
            let (t, models) = load(&p, cmd)?;
            if models.len() != t.arity() {
                return Err(format!(
                    "transformation expects {} models, got {}",
                    t.arity(),
                    models.len()
                ));
            }
            let report = t.check(&models).map_err(|e| e.to_string())?;
            outln!("{report}");
            Ok(if report.consistent() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "enforce" => {
            let (t, models) = load(&p, cmd)?;
            let shape = parse_shape(&t, &p, cmd)?;
            let opts = repair_options(&t, &p)?;
            let engine = p.engine.unwrap_or(EngineKind::Sat);
            match t
                .enforce_with(&models, shape, engine, opts)
                .map_err(|e| e.to_string())?
            {
                None => {
                    outln!("no repair within the given shape and cost bound");
                    Ok(ExitCode::from(1))
                }
                Some(out) => {
                    outln!("repaired at distance {}", out.cost);
                    for (param, delta) in t.hir().models.iter().zip(&out.deltas) {
                        if !delta.is_empty() {
                            outln!("--- {} ---\n{delta}", param.name);
                        }
                    }
                    if let Some(dir) = &p.out {
                        write_models(Path::new(dir), &t, &out.models)?;
                    }
                    Ok(ExitCode::SUCCESS)
                }
            }
        }
        "repair" => {
            let Some(batch_dir) = p.batch.clone() else {
                // Without --batch, `repair` is a single-request enforce.
                return run(&{
                    let mut forwarded = args.to_vec();
                    forwarded[0] = "enforce".into();
                    forwarded
                });
            };
            let (t, extra) = load(&p, cmd)?;
            if !extra.is_empty() {
                return Err("-m and --batch are mutually exclusive".into());
            }
            let shape = parse_shape(&t, &p, cmd)?;
            let opts = repair_options(&t, &p)?;
            // Every subdirectory of the batch dir is one request holding
            // a `<param>.model` file per transformation parameter.
            let mut names: Vec<String> = std::fs::read_dir(&batch_dir)
                .map_err(|e| format!("{batch_dir}: {e}"))?
                .filter_map(|entry| {
                    let entry = entry.ok()?;
                    entry
                        .file_type()
                        .ok()?
                        .is_dir()
                        .then(|| entry.file_name().to_string_lossy().into_owned())
                })
                .collect();
            names.sort();
            if names.is_empty() {
                return Err(format!("{batch_dir}: no request subdirectories"));
            }
            let mut requests = Vec::with_capacity(names.len());
            for name in &names {
                let mut models = Vec::with_capacity(t.arity());
                for param in &t.hir().models {
                    let path = Path::new(&batch_dir)
                        .join(name)
                        .join(format!("{}.model", param.name));
                    let src = read(&path.to_string_lossy())?;
                    let m = parse_model(&src, &param.meta)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    models.push(m);
                }
                requests.push(RepairRequest {
                    models,
                    targets: shape.targets(),
                });
            }
            let engine = p.engine.unwrap_or(EngineKind::Sat);
            outln!(
                "repairing {} requests with {} worker(s) [{} engine]",
                requests.len(),
                p.jobs,
                match engine {
                    EngineKind::Sat => "sat",
                    EngineKind::Search => "search",
                }
            );
            let outcomes = t.enforce_batch(&requests, engine, opts, p.jobs);
            let mut all_repaired = true;
            for (name, outcome) in names.iter().zip(&outcomes) {
                match outcome {
                    Err(e) => return Err(format!("{name}: {e}")),
                    Ok(None) => {
                        outln!("{name}: no repair within the given shape and cost bound");
                        all_repaired = false;
                    }
                    Ok(Some(out)) => {
                        outln!("{name}: repaired at distance {}", out.cost);
                        if let Some(dir) = &p.out {
                            write_models(&Path::new(dir).join(name), &t, &out.models)?;
                        }
                    }
                }
            }
            Ok(if all_repaired {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "sync" => run_sync(&p),
        "serve" => serve::run_serve(&p),
        "lint" => {
            let (t, _) = load(&p, cmd)?;
            let mut opts = LintOptions::default();
            for code in &p.allow {
                opts.allow.push(
                    LintCode::parse(code)
                        .ok_or_else(|| format!("unknown lint code `{code}` for --allow"))?,
                );
            }
            let report = t.lint_with(&opts);
            if p.json {
                outln!("{}", lint_json(&report));
            } else {
                emit(format_args!("{}", report.render_text()));
            }
            Ok(if report.has_errors() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        "deps" => {
            let (t, _) = load(&p, cmd)?;
            outln!("{}", mmt_qvtr::print_hir(t.hir()));
            for rel in &t.hir().relations {
                outln!(
                    "relation {}{}: deps {} ({})",
                    rel.name,
                    if rel.is_top { " (top)" } else { "" },
                    rel.deps,
                    if rel.deps.is_standard_equivalent() {
                        "standard-equivalent"
                    } else {
                        "extended"
                    }
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// Executes `mmt sync <script>`: one warm [`SyncSession`] over the
/// loaded tuple, driven line by line.
fn run_sync(p: &Parsed) -> Result<ExitCode, String> {
    let script_path = p
        .script
        .as_ref()
        .ok_or_else(|| missing("<script>", "sync"))?
        .clone();
    // `-` reads the script from stdin, so sessions can be piped.
    let (script_path, script_src) = if script_path == "-" {
        let mut src = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut src)
            .map_err(|e| format!("<stdin>: {e}"))?;
        ("<stdin>".to_string(), src)
    } else {
        let src = read(&script_path)?;
        (script_path, src)
    };
    let (t, models) = load(p, "sync")?;
    let t = Arc::new(t);
    let opts = SessionOptions {
        engine: p.engine.unwrap_or(EngineKind::Search),
        repair: repair_options(&t, p)?,
    };
    // With --store, a directory that already holds a session store wins
    // over -m: the session resumes from its persisted seed + journal.
    let store_dir = p.store.as_ref().map(Path::new);
    let (mut store, mut session) = match store_dir {
        Some(dir) if PersistentSession::exists(dir) => {
            let (ps, s) = PersistentSession::open(dir, &t, opts).map_err(|e| e.to_string())?;
            (Some(ps), s)
        }
        _ => {
            if models.len() != t.arity() {
                return Err(format!(
                    "transformation expects {} models, got {}",
                    t.arity(),
                    models.len()
                ));
            }
            let s = SyncSession::with_options(Arc::clone(&t), &models, opts)
                .map_err(|e| e.to_string())?;
            let ps = store_dir
                .map(|dir| PersistentSession::create(dir, &s))
                .transpose()
                .map_err(|e| e.to_string())?;
            (ps, s)
        }
    };
    for (lineno, raw) in script_src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        exec_sync_line(&t, &mut session, line, p.json)
            .map_err(|e| format!("{script_path}:{}: {e}", lineno + 1))?;
        // Commit point: each script line is durable before the next one
        // runs (a no-op when the line didn't touch the journal).
        if let Some(store) = &mut store {
            store
                .commit(&session)
                .map_err(|e| format!("{script_path}:{}: store: {e}", lineno + 1))?;
        }
    }
    let status = session.status();
    if !p.json {
        outln!(
            "final: {} ({} journal entr{})",
            if status.consistent {
                "consistent".to_string()
            } else {
                format!("INCONSISTENT ({} violations)", status.violations)
            },
            session.journal().len(),
            if session.journal().len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
    }
    if let Some(dir) = &p.out {
        write_models(Path::new(dir), &t, session.models())?;
    }
    Ok(if status.consistent {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Strips a `# comment` from a script line, ignoring `#` inside quoted
/// string values (backslash escapes respected).
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Executes one script line against the live session.
fn exec_sync_line(
    t: &Transformation,
    session: &mut SyncSession,
    line: &str,
    json: bool,
) -> Result<(), String> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("status") => {
            if json {
                outln!("{}", status_json(session));
            } else {
                let s = session.status();
                if s.consistent {
                    outln!("status: consistent");
                } else {
                    outln!("status: INCONSISTENT ({} violations)", s.violations);
                }
            }
            Ok(())
        }
        Some("repair") => {
            let names = words.next().ok_or("repair needs target names")?;
            let shape = shape_of_names(t, names)?;
            match session.repair(shape).map_err(|e| e.to_string())? {
                None => {
                    outln!("repair {names}: no repair within the given shape and cost bound");
                }
                Some(out) => {
                    outln!("repair {names}: repaired at distance {}", out.cost);
                    for (param, delta) in t.hir().models.iter().zip(&out.deltas) {
                        if !delta.is_empty() {
                            outln!("--- {} ---\n{delta}", param.name);
                        }
                    }
                }
            }
            Ok(())
        }
        Some("rollback") => {
            let arg = words.next().ok_or("rollback needs <n|all>")?;
            let n = if arg == "all" {
                session.journal().len()
            } else {
                arg.parse::<usize>()
                    .map_err(|e| format!("bad count: {e}"))?
            };
            let undone = session.rollback(n).map_err(|e| e.to_string())?;
            outln!(
                "rollback: undid {undone} entr{}",
                if undone == 1 { "y" } else { "ies" }
            );
            Ok(())
        }
        Some("journal") => {
            if json {
                outln!("{}", journal_json(session));
            } else {
                let entries = session.journal().len();
                outln!(
                    "journal: {entries} entr{}",
                    if entries == 1 { "y" } else { "ies" }
                );
                for (param, delta) in t.hir().models.iter().zip(&session.journal_script()) {
                    if !delta.is_empty() {
                        outln!("--- {} ---\n{delta}", param.name);
                    }
                }
            }
            Ok(())
        }
        Some("edit") => {
            let spec = line
                .trim_start()
                .strip_prefix("edit")
                .map(str::trim_start)
                .ok_or("malformed edit line")?;
            apply_session_edit(t, session, spec).map(|_| ())
        }
        Some(other) => Err(format!("unknown sync command `{other}`")),
        None => Ok(()),
    }
}

/// Applies one edit to a live session from its textual form
/// `<param> <action...>` — the `mmt sync` edit line without the leading
/// `edit` keyword, which is also exactly what a `serve` request's
/// `"edit"` field carries. Returns the post-edit status.
fn apply_session_edit(
    t: &Transformation,
    session: &mut SyncSession,
    spec: &str,
) -> Result<mmt_core::SyncStatus, String> {
    let mut words = spec.split_whitespace();
    let param = words.next().ok_or("edit needs a model parameter")?;
    let model = t
        .hir()
        .model_named(param)
        .ok_or_else(|| format!("unknown model parameter `{param}`"))?;
    let meta = Arc::clone(&t.hir().models[model.index()].meta);
    let live = &session.models()[model.index()];
    // The action tail after `<param>`, stripped positionally — a
    // parameter name that happens to end in a keyword (`asset`,
    // `reset`, …) must not confuse parsing.
    let tail = spec
        .trim_start()
        .strip_prefix(param)
        .map(str::trim_start)
        .ok_or("malformed edit line")?;
    let op = parse_edit_op(&meta, live, tail, &mut words)?;
    session.apply(model, op).map_err(|e| e.to_string())
}

/// Parses the action tail of an `edit <param> ...` line. `tail` is the
/// line text starting at the action keyword; `words` is the same text
/// pre-tokenized.
fn parse_edit_op<'a>(
    meta: &Arc<Metamodel>,
    live: &Model,
    tail: &str,
    words: &mut impl Iterator<Item = &'a str>,
) -> Result<EditOp, String> {
    match words.next() {
        Some("add") => {
            let class_name = words.next().ok_or("add needs a class name")?;
            let class = meta
                .class_named(class_name)
                .ok_or_else(|| format!("unknown class `{class_name}`"))?;
            let id = match words.next() {
                Some(tok) => parse_obj(tok)?,
                None => ObjId(live.id_bound() as u32),
            };
            Ok(EditOp::AddObj { id, class })
        }
        Some("del") => {
            let id = parse_obj(words.next().ok_or("del needs @id")?)?;
            let class = live
                .class_of(id)
                .map_err(|_| format!("no object {} in the model", id.index()))?;
            Ok(EditOp::DelObj { id, class })
        }
        Some("set") => {
            // set @id.<attr> = <value> — the value may contain spaces,
            // so split the raw tail at the first `=` (the lhs never
            // contains one) instead of consuming tokens.
            let (lhs, rhs) = tail
                .strip_prefix("set")
                .and_then(|rest| rest.split_once('='))
                .ok_or("set needs `@id.<attr> = <value>`")?;
            let (id_tok, attr_name) = lhs.trim().split_once('.').ok_or("set needs `@id.<attr>`")?;
            let id = parse_obj(id_tok)?;
            let class = live
                .class_of(id)
                .map_err(|_| format!("no object {} in the model", id.index()))?;
            let attr = meta
                .attr_of(class, Sym::new(attr_name.trim()))
                .ok_or_else(|| format!("unknown attribute `{}`", attr_name.trim()))?;
            let value = parse_value(rhs.trim(), meta.attr(attr).ty)?;
            let old = live.attr(id, attr).unwrap_or(value);
            Ok(EditOp::SetAttr {
                id,
                attr,
                value,
                old,
            })
        }
        Some(verb @ ("link" | "unlink")) => {
            let (src_tok, ref_name) = words
                .next()
                .ok_or("link needs `@src.<ref>`")?
                .split_once('.')
                .ok_or("link needs `@src.<ref>`")?;
            let src = parse_obj(src_tok)?;
            let dst = parse_obj(words.next().ok_or("link needs `@dst`")?)?;
            let class = live
                .class_of(src)
                .map_err(|_| format!("no object {} in the model", src.index()))?;
            let r = meta
                .ref_of(class, Sym::new(ref_name))
                .ok_or_else(|| format!("unknown reference `{ref_name}`"))?;
            Ok(if verb == "link" {
                EditOp::AddLink { src, r, dst }
            } else {
                EditOp::DelLink { src, r, dst }
            })
        }
        other => Err(format!("unknown edit action {other:?}")),
    }
}

/// Parses an `@id` object token.
fn parse_obj(tok: &str) -> Result<ObjId, String> {
    let digits = tok
        .strip_prefix('@')
        .ok_or_else(|| format!("expected `@id`, got `{tok}`"))?;
    digits
        .parse::<u32>()
        .map(ObjId)
        .map_err(|e| format!("bad object id `{tok}`: {e}"))
}

/// Parses a script value against the attribute's declared type.
fn parse_value(raw: &str, ty: AttrType) -> Result<Value, String> {
    match ty {
        AttrType::Str => {
            let inner = raw
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("string value must be quoted, got `{raw}`"))?;
            Ok(Value::str(
                &inner.replace("\\\"", "\"").replace("\\\\", "\\"),
            ))
        }
        AttrType::Bool => match raw {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(format!("bool value must be true|false, got `{raw}`")),
        },
        AttrType::Int => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("bad int `{raw}`: {e}")),
    }
}
