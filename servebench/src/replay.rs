//! The traced run: replays a round's request stream in-process, through
//! the public library calls the serve loop makes, with a span around
//! each call.
//!
//! Some calls are probes beside the serve path: `DeltaChecker` cold
//! start after `open`; `fork` and `SearchEngine::repair_warm` before each
//! search repair; `GroundProblem::build` and `solve_min_cost` before each
//! SAT repair; and, on workloads served
//! without `--store`, the `PersistentSession` commits the same stream
//! would make. Probes never mutate the session.

use crate::answer::{Expect, RepairView, StatusView};
use crate::trace::{Span, Tracer};
use crate::workload::{load, Action, Verb, Workload};
use mmt_check::{CheckOptions, DeltaChecker, DeltaStats};
use mmt_core::{EngineKind, SyncHub, SyncRepair};
use mmt_enforce::{RepairEngine, SearchEngine};
use mmt_ground::{GroundOptions, GroundProblem, Scope};
use mmt_store::PersistentSession;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Work counts of one pass, summed over the stream.
#[derive(Default)]
pub struct Counts {
    pub edits: u64,
    pub delta: [u64; 3],
    pub searches: u64,
    pub search_cost: u64,
    pub search_ops: u64,
    pub grounds: u64,
    pub ground_vars: u64,
    pub ground_clauses: u64,
    pub ground_insts: u64,
    /// WAL growth over the commits that appended entries, and the
    /// entries they appended.
    pub wal_appended: u64,
    pub entries_appended: u64,
}

/// One replay pass.
pub struct Pass {
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Journal length at each store commit, parallel to the
    /// `store.commit` spans.
    pub commit_journal: Vec<u64>,
    pub mismatches: Vec<String>,
}

/// What one replayed request returned, before it is checked.
enum Done {
    Status,
    Repair(Option<SyncRepair>),
    Rollback(usize),
}

fn span_name(v: Verb) -> &'static str {
    match v {
        Verb::Edit => "req.edit",
        Verb::Status => "req.status",
        Verb::Repair => "req.repair",
        Verb::Rollback => "req.rollback",
    }
}

fn add_delta(c: &mut Counts, before: DeltaStats, after: DeltaStats) {
    c.delta[0] += after.partial_updates - before.partial_updates;
    c.delta[1] += after.checks_skipped - before.checks_skipped;
    c.delta[2] += after.full_reevals - before.full_reevals;
}

/// Replays `w`'s stream once over a fresh hub; spans and allocation
/// counting are recorded only when `on`.
pub fn pass(w: &Workload, on: bool, store_dir: &Path) -> Result<Pass, String> {
    if store_dir.exists() {
        std::fs::remove_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    }
    let mut tr = Tracer::new(on);
    let mut counts = Counts::default();
    let mut commit_journal = Vec::new();
    let mut mismatches = Vec::new();
    let wall = Instant::now();

    let (t, models) = load(&w.inputs, &mut tr)?;
    let hub = SyncHub::new();
    let span = tr.begin("lint.register");
    let t = hub.register("default", t).map_err(|e| e.to_string())?;
    tr.end(span);
    let opts = w.session_options();
    let span = tr.begin("core.open");
    let handle = hub
        .open_with("s", "default", &models, opts.clone())
        .map_err(|e| e.to_string())?;
    tr.end(span);
    handle.with(|s| {
        let span = tr.begin("check.report");
        black_box((s.status(), s.report()));
        tr.end(span);
    });
    let span = tr.begin("check.open");
    let cold = DeltaChecker::with_options(
        t.hir_arc(),
        &models,
        CheckOptions {
            memoize: true,
            max_violations: usize::MAX,
        },
    )
    .map_err(|e| format!("{e:?}"))?;
    tr.end(span);
    drop(cold);
    let span = tr.begin("store.create");
    let mut store = handle
        .with(|s| PersistentSession::create(store_dir, s))
        .map_err(|e| e.to_string())?;
    tr.end(span);

    let wal = store_dir.join("wal");
    let wal_len = || {
        std::fs::metadata(&wal)
            .map(|m| m.len())
            .map_err(|e| e.to_string())
    };
    let mut last = (0u64, wal_len()?);
    let mut commit = |tr: &mut Tracer, store: &mut PersistentSession, counts: &mut Counts| {
        let journal = handle.with(|s| {
            let span = tr.begin("store.commit");
            let r = store.commit(s);
            tr.end(span);
            r.map(|()| s.journal().len() as u64)
                .map_err(|e| e.to_string())
        })?;
        commit_journal.push(journal);
        let bytes = wal_len()?;
        if journal > last.0 {
            counts.entries_appended += journal - last.0;
            counts.wal_appended += bytes.saturating_sub(last.1);
        }
        last = (journal, bytes);
        Ok::<(), String>(())
    };

    for (i, r) in w.reqs.iter().enumerate() {
        tr.req = i as u32 + 1;
        if let Action::Repair(shape) = r.action {
            handle.with(|s| {
                if s.status().consistent {
                    return Ok::<(), String>(());
                }
                let targets = shape.targets();
                if opts.engine == EngineKind::Search {
                    let span = tr.begin("check.fork");
                    let root = s.checker().fork();
                    tr.end(span);
                    drop(root);
                    let span = tr.begin("enforce.search");
                    let found = SearchEngine::new(opts.repair.clone())
                        .repair_warm(s.checker(), targets)
                        .map_err(|e| e.to_string())?;
                    tr.end(span);
                    if let Some(out) = found {
                        counts.searches += 1;
                        counts.search_cost += out.cost;
                        counts.search_ops +=
                            out.deltas.iter().map(|d| d.ops().len() as u64).sum::<u64>();
                    }
                } else {
                    let ro = &opts.repair;
                    let gopts = GroundOptions {
                        scope: Scope {
                            slack_objs: ro.slack_objs,
                            fresh_strings: ro.fresh_strings,
                        },
                        cost: ro.cost,
                        tuple: ro
                            .tuple
                            .resolved(s.models().len())
                            .map_err(|e| e.to_string())?,
                        max_cost: ro.max_cost,
                        ..GroundOptions::default()
                    };
                    let span = tr.begin("ground.build");
                    let mut problem =
                        GroundProblem::build(s.checker().hir(), s.models(), targets, gopts)
                            .map_err(|e| e.to_string())?;
                    tr.end(span);
                    let stats = problem.stats();
                    counts.grounds += 1;
                    counts.ground_vars += stats.vars as u64;
                    counts.ground_clauses += stats.clauses;
                    counts.ground_insts += stats.universal_instantiations;
                    let span = tr.begin("sat.solve");
                    black_box(problem.solve_min_cost());
                    tr.end(span);
                }
                Ok(())
            })?;
        }
        let req_span = tr.begin(span_name(r.verb));
        let done = handle.with(|s| -> Result<Done, String> {
            Ok(match r.action {
                Action::Edit(m, op) => {
                    let before = s.checker().delta_stats();
                    let span = tr.begin("core.apply");
                    let applied = s.apply(m, op);
                    tr.end(span);
                    applied.map_err(|e| e.to_string())?;
                    add_delta(&mut counts, before, s.checker().delta_stats());
                    counts.edits += 1;
                    let span = tr.begin("check.report");
                    black_box((s.status(), s.report()));
                    tr.end(span);
                    Done::Status
                }
                Action::Status => {
                    let span = tr.begin("core.status");
                    let inner = tr.begin("check.report");
                    black_box((s.status(), s.report()));
                    tr.end(inner);
                    tr.end(span);
                    Done::Status
                }
                Action::Repair(shape) => {
                    let span = tr.begin("core.repair");
                    let out = s.repair(shape);
                    tr.end(span);
                    Done::Repair(out.map_err(|e| e.to_string())?)
                }
                Action::Rollback(n) => {
                    let span = tr.begin("core.rollback");
                    let undone = s.rollback(n);
                    tr.end(span);
                    Done::Rollback(undone.map_err(|e| e.to_string())?)
                }
            })
        })?;
        let mutating = r.verb != Verb::Status;
        // The serve loop commits before answering; elsewhere the store
        // is a probe beside the request.
        if w.durable && mutating {
            commit(&mut tr, &mut store, &mut counts)?;
        }
        tr.end(req_span);
        if !w.durable && mutating {
            commit(&mut tr, &mut store, &mut counts)?;
        }
        // Checked outside every span: the check is the benchmark's work.
        let got = match done {
            Done::Status => Expect::Status(handle.with(|s| StatusView::of_session(s))),
            Done::Repair(out) => Expect::Repair(RepairView::of_outcome(&out)),
            Done::Rollback(undone) => Expect::Rollback {
                undone: undone as u64,
            },
        };
        if got != r.expect {
            mismatches.push(format!("request {} replays differently", i + 1));
        }
    }
    tr.req = 0;
    drop(store);
    let span = tr.begin("store.open");
    let (_, recovered) = PersistentSession::open(store_dir, &t, opts).map_err(|e| e.to_string())?;
    tr.end(span);
    let live = handle.with(|s| StatusView::of_session(s));
    if StatusView::of_session(&recovered) != live {
        mismatches.push("store recovery differs from the live session".into());
    }
    let wall_s = wall.elapsed().as_secs_f64();
    Ok(Pass {
        wall_s,
        spans: tr.finish(),
        counts,
        commit_journal,
        mismatches,
    })
}
