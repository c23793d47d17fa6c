//! servebench — drives the real `mmt serve` binary over stdio and prints
//! its end-to-end metrics; with `--trace 1` it also replays the same
//! request stream in-process and prints per-layer metrics.
//!
//! ```text
//! servebench --mmt <path> --work <dir> --workload <name> --seed <n>
//!            --seconds <s> --trace <0|1>
//! servebench --mmt <path> --work <dir> --spread <runs> [--seconds <s>]
//!            [--seed <first>]
//! servebench --mmt <path> --work <dir> --smoke
//! servebench --echo
//! ```
//!
//! The last stdout line of a measuring run is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The spread mode runs
//! the workloads `runs` times each, alternating them, one seed per
//! repetition, and flags any end-to-end metric whose quartile spread
//! exceeds a tenth of its median. The smoke mode runs every workload at
//! tiny sizes, traced, in a few seconds. `--echo` copies stdin lines to
//! stdout: the client's host-speed probe (see `client`).

mod answer;
mod client;
mod json;
mod replay;
mod trace;
mod workload;

use json::Json;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Scale, Verb, Workload, NAMES};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The end-to-end metrics every workload reports in its result line
/// with `--trace 0`. Times other than `setup_s` are in echo round trips
/// (`rtt`) timed beside the server in the same round, which hold still
/// while the host's speed drifts. A cycle is one user edit and the
/// requests that follow it up to the next one. Printed beside them:
/// every figure in µs and ms, throughput, and the figures whose slowdown
/// on a slow host outgrows the round trip's (`edit_p90`, `status_p50`,
/// `rollback_p90`); the repair quantiles (not on `edit_c2t_1e5`, which
/// sends no repairs), `failed_frac` and `recover_s`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cycle_p50_rtt", "rtt"),
    ("edit_p50_rtt", "rtt"),
    ("rollback_p50_rtt", "rtt"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
/// Layer metrics that only some workloads exercise (repair, search,
/// grounding, solving, `fork`) are printed where they exist but are not
/// listed.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("model.parse_ms", "ms"),
    ("model.parse_allocs", "count"),
    ("qvtr.resolve_ms", "ms"),
    ("lint.register_ms", "ms"),
    ("check.open_ms", "ms"),
    ("check.report_us_p50", "us"),
    ("check.partial_updates_per_edit", "count"),
    ("check.checks_skipped_per_edit", "count"),
    ("check.full_reevals_per_edit", "count"),
    ("core.open_ms", "ms"),
    ("core.apply_us_p50", "us"),
    ("core.apply_us_p90", "us"),
    ("core.status_us_p50", "us"),
    ("core.rollback_us_p50", "us"),
    ("core.rollback_us_p90", "us"),
    ("core.allocs_per_edit", "count"),
    ("core.allocs_per_status", "count"),
    ("store.create_ms", "ms"),
    ("store.commit_us_p50", "us"),
    ("store.commit_us_p90", "us"),
    ("store.commit_ns_per_entry", "ns"),
    ("store.wal_bytes_per_entry", "bytes"),
    ("store.open_ms", "ms"),
    ("store.allocs_per_commit", "count"),
    ("cli.edit_overhead_us", "us"),
    ("cli.status_overhead_us", "us"),
    ("cli.resp_bytes_mean", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// A measured value with its unit and sample count.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    n: usize,
}

fn metric(name: &str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        n,
    }
}

struct Args {
    mmt: Option<PathBuf>,
    work: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        mmt: None,
        work: PathBuf::from(".bench_work"),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        spread: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--mmt" => a.mmt = Some(PathBuf::from(value()?)),
            "--work" => a.work = PathBuf::from(value()?),
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--spread" => a.spread = Some(value()?.parse().map_err(|e| format!("--spread: {e}"))?),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--echo") {
        return echo();
    }
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Copies each stdin line to stdout until stdin closes.
fn echo() -> ExitCode {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().split(b'\n') {
        let copied = line.and_then(|mut l| {
            l.push(b'\n');
            out.write_all(&l)?;
            out.flush()
        });
        if copied.is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let mmt = args
        .mmt
        .clone()
        .ok_or("--mmt <path to the mmt binary> is required")?;
    if !mmt.is_file() {
        return Err(format!("{}: no mmt binary there", mmt.display()));
    }
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    if let Some(runs) = args.spread {
        return spread(&args, runs);
    }
    if args.smoke {
        let mut all_ok = true;
        for name in NAMES {
            let out = measure(&args, &mmt, name, 1, 0.3, true, Scale { smoke: true })?;
            all_ok &= out.correct;
        }
        return Ok(if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let name = args
        .workload
        .clone()
        .ok_or("--workload <name> is required")?;
    let out = measure(
        &args,
        &mmt,
        &name,
        args.seed,
        args.seconds,
        args.trace,
        Scale { smoke: false },
    )?;
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (want, unit) in listed {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == *want)
            .ok_or(format!("{want} was not measured on {name}"))?;
        debug_assert_eq!(m.unit, *unit);
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(want),
            m.value,
            json::quote(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Generates the workload, runs server rounds for `seconds` (at least
/// a few, so `setup_s` is a median), checks every answer, and with
/// `trace` replays the stream in-process.
fn measure(
    args: &Args,
    mmt: &Path,
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    let w = workload::generate(name, seed, &args.work, scale)?;
    let sizes: Vec<String> = w.sizes.iter().map(|(m, n)| format!("{m}={n}")).collect();
    let mix: Vec<String> = w.kinds.iter().map(|(k, s)| format!("{k}:{s}")).collect();
    println!(
        "# {name} seed={seed} objects: {} | edit mix (shares): {} | {} requests per round",
        sizes.join(" "),
        mix.join(" "),
        w.reqs.len() + 1
    );
    let min_rounds = if scale.smoke { 2 } else { 5 };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut echo = client::Server::spawn(&exe, &["--echo".to_string()])?;
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let store = w.dir.join(format!("store-{}", rounds.len()));
        let round = client::round(&w, mmt, &mut echo, w.durable.then_some(store.as_path()))?;
        if store.exists() {
            std::fs::remove_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        }
        rounds.push(round);
    }
    echo.finish()?;
    let attempted: usize = rounds.iter().map(|r| r.sent).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();
    for e in rounds.iter().flat_map(|r| &r.errors).take(5) {
        eprintln!("{name}: {e}");
    }
    let mut metrics = end_to_end(&w, &rounds);
    metrics.push(metric(
        "failed_frac",
        "ratio",
        failed as f64 / attempted as f64,
        attempted,
    ));
    print_bands(&w, &rounds);
    let mut correct = failed == 0;
    if trace {
        let (layer, replay_ok) = traced(&w, &rounds, &metrics)?;
        correct &= replay_ok;
        metrics.extend(layer);
    }
    for m in &metrics {
        println!(
            "{name:<19} {:<32} {:<22} {:<5} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Latencies of every answered request of `verb`, with its kind.
fn latencies(w: &Workload, rounds: &[client::Round], verb: Verb) -> Vec<(usize, f64)> {
    rounds
        .iter()
        .flat_map(|r| r.latency_s.iter().zip(&w.reqs))
        .filter(|(_, q)| q.verb == verb)
        .map(|(&s, q)| (q.kind, s))
        .collect()
}

/// Each figure is a statistic of one round, and the metric is its
/// median over the rounds: a burst of host noise that slows a round or
/// two moves no metric. An `_rtt` figure divides the round's figure by
/// the median echo round trip of the same round. Sample counts are
/// totals over the rounds. A verb the workload never sends has no
/// quantiles.
fn end_to_end(w: &Workload, rounds: &[client::Round]) -> Vec<Metric> {
    let n = rounds.len();
    let over_rounds =
        |f: &dyn Fn(&client::Round) -> f64| quantile(&sorted(rounds.iter().map(f).collect()), 0.5);
    let rtt = |r: &client::Round| quantile(&sorted(r.echo_s.clone()), 0.5);
    let mut out = vec![metric("setup_s", "s", over_rounds(&|r| r.setup_s), n)];
    let answered: usize = rounds.iter().map(|r| r.latency_s.len()).sum();
    let rps = |r: &client::Round| r.latency_s.len() as f64 / r.timed_s;
    out.push(metric("throughput_rps", "1/s", over_rounds(&rps), answered));
    // Each cycle's requests are contiguous and cycles count from 0.
    let cycle_p50 = |r: &client::Round| {
        let mut total = Vec::new();
        for (s, q) in r.latency_s.iter().zip(&w.reqs) {
            if total.len() <= q.cycle {
                total.resize(q.cycle + 1, 0.0);
            }
            total[q.cycle] += s;
        }
        quantile(&sorted(total), 0.5)
    };
    let cycles = rounds.len() * w.reqs.last().map_or(0, |q| q.cycle + 1);
    out.push(metric(
        "cycle_p50_us",
        "us",
        over_rounds(&cycle_p50) * 1e6,
        cycles,
    ));
    out.push(metric(
        "cycle_p50_rtt",
        "rtt",
        over_rounds(&|r| cycle_p50(r) / rtt(r)),
        cycles,
    ));
    let echoes = rounds.iter().map(|r| r.echo_s.len()).sum();
    out.push(metric(
        "echo_rtt_us",
        "us",
        over_rounds(&|r| rtt(r) * 1e6),
        echoes,
    ));
    for (verb, qs, unit, scale) in [
        (Verb::Edit, &[50, 90][..], "us", 1e6),
        (Verb::Status, &[50][..], "us", 1e6),
        (Verb::Rollback, &[50, 90][..], "us", 1e6),
        (Verb::Repair, &[50, 95][..], "ms", 1e3),
    ] {
        let total = latencies(w, rounds, verb).len();
        if total == 0 {
            continue;
        }
        for &q in qs {
            let per_round = |r: &client::Round| {
                let lat = latencies(w, std::slice::from_ref(r), verb);
                quantile(
                    &sorted(lat.into_iter().map(|(_, s)| s).collect()),
                    q as f64 / 100.0,
                )
            };
            let name = format!("{}_p{q}", verb.name());
            out.push(metric(
                &format!("{name}_{unit}"),
                unit,
                over_rounds(&per_round) * scale,
                total,
            ));
            out.push(metric(
                &format!("{name}_rtt"),
                "rtt",
                over_rounds(&|r| per_round(r) / rtt(r)),
                total,
            ));
        }
    }
    out.push(metric(
        "peak_rss_mb",
        "MB",
        over_rounds(&|r| r.peak_rss_kb as f64 / 1024.0),
        n,
    ));
    let recover: Vec<f64> = rounds.iter().filter_map(|r| r.recover_s).collect();
    if !recover.is_empty() {
        out.push(metric(
            "recover_s",
            "s",
            quantile(&sorted(recover.clone()), 0.5),
            recover.len(),
        ));
    }
    out
}

/// Prints each edit kind's latency band per verb: the quantiles above
/// are chosen to fall inside one band, not between two.
fn print_bands(w: &Workload, rounds: &[client::Round]) {
    for verb in Verb::ALL {
        let lat = latencies(w, rounds, verb);
        for (k, (kind, share)) in w.kinds.iter().enumerate() {
            let band = sorted(
                lat.iter()
                    .filter(|(x, _)| *x == k)
                    .map(|(_, s)| s * 1e6)
                    .collect(),
            );
            if band.is_empty() {
                continue;
            }
            println!(
                "# band {:<8} {kind:<20} share={share} n={:<6} p10={:.1}us p50={:.1}us p90={:.1}us",
                verb.name(),
                band.len(),
                quantile(&band, 0.1),
                quantile(&band, 0.5),
                quantile(&band, 0.9)
            );
        }
    }
}

/// Least-squares slope of `y` against `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
    let (num, den) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Count-valued per-layer metrics of one pass; two passes over the same
/// stream must agree on every one of them exactly.
fn counts_of(pass: &replay::Pass) -> Vec<(&'static str, &'static str, f64, usize)> {
    let c = &pass.counts;
    let spans = |name: &'static str| pass.spans.iter().filter(move |s| s.name == name);
    let allocs = |name: &'static str| {
        let (sum, n) = spans(name).fold((0u64, 0usize), |(a, n), s| (a + s.allocs, n + 1));
        (if n == 0 { 0.0 } else { sum as f64 / n as f64 }, n)
    };
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let parse_allocs: u64 = spans("model.parse").map(|s| s.allocs).sum();
    let mut out = vec![("model.parse_allocs", "count", parse_allocs as f64, 1)];
    for (name, num) in [
        ("check.partial_updates_per_edit", c.delta[0]),
        ("check.checks_skipped_per_edit", c.delta[1]),
        ("check.full_reevals_per_edit", c.delta[2]),
    ] {
        out.push((name, "count", per(num, c.edits), c.edits as usize));
    }
    for (name, span) in [
        ("core.allocs_per_edit", "core.apply"),
        ("core.allocs_per_status", "core.status"),
        ("store.allocs_per_commit", "store.commit"),
    ] {
        let (a, n) = allocs(span);
        out.push((name, "count", a, n));
    }
    let appended = c.entries_appended;
    let wal_per_entry = per(c.wal_appended, appended);
    out.push((
        "store.wal_bytes_per_entry",
        "bytes",
        wal_per_entry,
        appended as usize,
    ));
    if c.searches > 0 {
        let (a, n) = allocs("enforce.search");
        out.push(("enforce.allocs_per_repair", "count", a, n));
        for (name, num) in [
            ("enforce.repair_cost_mean", c.search_cost),
            ("enforce.repair_ops_mean", c.search_ops),
        ] {
            out.push((name, "count", per(num, c.searches), c.searches as usize));
        }
    }
    if c.grounds > 0 {
        for (name, num) in [
            ("ground.vars_mean", c.ground_vars),
            ("ground.clauses_mean", c.ground_clauses),
            ("ground.instantiations_mean", c.ground_insts),
        ] {
            out.push((name, "count", per(num, c.grounds), c.grounds as usize));
        }
    }
    out
}

/// The traced run: four replay passes (off, on, off, on). Timings come
/// from the two traced passes, counts must agree between them, and the
/// wall-time difference between traced and untraced passes is the
/// tracing overhead.
fn traced(
    w: &Workload,
    rounds: &[client::Round],
    e2e: &[Metric],
) -> Result<(Vec<Metric>, bool), String> {
    let mut off = Vec::new();
    let mut on = Vec::new();
    for i in 0..4 {
        let store = w.dir.join(format!("trace-store-{i}"));
        let pass = replay::pass(w, i % 2 == 1, &store)?;
        std::fs::remove_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        if i % 2 == 1 {
            on.push(pass);
        } else {
            off.push(pass);
        }
    }
    let mut ok = true;
    for p in off.iter().chain(&on) {
        for m in p.mismatches.iter().take(3) {
            ok = false;
            eprintln!("{}: replay: {m}", w.name);
        }
    }
    trace::write_spans(&w.dir.join("spans.tsv"), &on[0].spans)?;

    let spans = || on.iter().flat_map(|p| p.spans.iter());
    let durs = |name: &str, scale: f64| -> Vec<f64> {
        sorted(
            spans()
                .filter(|s| s.name == name)
                .map(|s| s.ns() as f64 / scale)
                .collect(),
        )
    };
    let per_pass_ms = |name: &str| {
        on.iter()
            .map(|p| {
                p.spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.ns())
                    .sum::<u64>() as f64
            })
            .sum::<f64>()
            / on.len() as f64
            / 1e6
    };
    let mut out = Vec::new();
    for name in [
        "model.parse",
        "qvtr.resolve",
        "lint.register",
        "check.open",
        "core.open",
        "store.create",
        "store.open",
    ] {
        let unit_name = format!("{name}_ms");
        out.push(metric(&unit_name, "ms", per_pass_ms(name), on.len()));
    }
    let mut q = |name: &str, metric_name: &str, unit: &'static str, qs: &[u32]| {
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        let d = durs(name, scale);
        if d.is_empty() {
            return;
        }
        for &p in qs {
            let full = format!("{metric_name}{p}");
            out.push(metric(&full, unit, quantile(&d, p as f64 / 100.0), d.len()));
        }
    };
    q("check.report", "check.report_us_p", "us", &[50]);
    q("check.fork", "check.fork_us_p", "us", &[50]);
    q("core.apply", "core.apply_us_p", "us", &[50, 90]);
    q("core.rollback", "core.rollback_us_p", "us", &[50, 90]);
    q("core.repair", "core.repair_ms_p", "ms", &[50, 95]);
    q("enforce.search", "enforce.search_ms_p", "ms", &[50, 95]);
    q("ground.build", "ground.build_ms_p", "ms", &[50]);
    q("sat.solve", "sat.solve_ms_p", "ms", &[50]);
    q("store.commit", "store.commit_us_p", "us", &[50, 90]);
    q("core.status", "core.status_us_p", "us", &[50]);

    let commits: Vec<(f64, f64)> = on
        .iter()
        .flat_map(|p| {
            p.commit_journal
                .iter()
                .zip(p.spans.iter().filter(|s| s.name == "store.commit"))
                .map(|(&j, s)| (j as f64, s.ns() as f64))
        })
        .collect();
    out.push(metric(
        "store.commit_ns_per_entry",
        "ns",
        slope(&commits),
        commits.len(),
    ));

    let counts_a = counts_of(&on[0]);
    let counts_b = counts_of(&on[1]);
    for (a, b) in counts_a.iter().zip(&counts_b) {
        if a.2 != b.2 {
            let why = if a.0.contains("allocs") {
                "capacity that an earlier pass grew (interner, hash tables) was reused"
            } else {
                "the replay took another path through the same stream"
            };
            println!(
                "# count {} does not repeat between two traced passes: {} vs {} ({why})",
                a.0, a.2, b.2
            );
        }
    }
    out.extend(counts_a.into_iter().map(|(n, u, v, k)| metric(n, u, v, k)));

    let e2e_value = |name: &str| {
        e2e.iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let p50_us = |name: &str| quantile(&durs(name, 1e3), 0.5);
    out.push(metric(
        "cli.edit_overhead_us",
        "us",
        e2e_value("edit_p50_us") - p50_us("req.edit"),
        durs("req.edit", 1.0).len(),
    ));
    out.push(metric(
        "cli.status_overhead_us",
        "us",
        e2e_value("status_p50_us") - p50_us("req.status"),
        durs("req.status", 1.0).len(),
    ));
    let answered: usize = rounds.iter().map(|r| r.latency_s.len()).sum();
    let bytes: u64 = rounds.iter().map(|r| r.answer_bytes).sum();
    out.push(metric(
        "cli.resp_bytes_mean",
        "bytes",
        bytes as f64 / answered as f64,
        answered,
    ));
    if rounds
        .iter()
        .any(|r| r.answer_bytes != rounds[0].answer_bytes)
    {
        println!(
            "# count cli.resp_bytes_mean does not repeat between server rounds \
             (some answer rendered differently)"
        );
    }
    let off_s: f64 = off.iter().map(|p| p.wall_s).sum();
    let on_s: f64 = on.iter().map(|p| p.wall_s).sum();
    out.push(metric(
        "trace.overhead_pct",
        "%",
        (on_s - off_s) / off_s * 100.0,
        on.len(),
    ));

    let all: Vec<trace::Span> = spans().cloned().collect();
    for (name, (ns, n)) in trace::self_times(&all) {
        println!(
            "# self {name:<16} n={n:<7} total={:.3}ms mean={:.2}us",
            ns as f64 / 1e6,
            ns as f64 / n as f64 / 1e3
        );
    }
    Ok((out, ok))
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let d = sorted(values.to_vec());
    let ld = d.len();
    if ld < 2 {
        let v = d.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    let median = if ld % 2 == 1 {
        d[ld / 2]
    } else {
        (d[ld / 2 - 1] + d[ld / 2]) / 2.0
    };
    (at(1), median, at(3))
}

/// One printed metric of one workload, across the runs of a spread.
struct Series {
    workload: &'static str,
    metric: String,
    unit: String,
    values: Vec<f64>,
}

/// Runs every workload `runs` times, alternating them, and prints the
/// median and quartiles of every end-to-end metric a run prints. Metrics
/// the result line carries are marked `*`.
fn spread(args: &Args, runs: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mmt = args.mmt.as_ref().expect("checked by run");
    let mut series: Vec<Series> = Vec::new();
    for i in 0..runs {
        for name in NAMES {
            let seed = args.seed + i as u64;
            let out = Command::new(&exe)
                .args(["--mmt", &mmt.to_string_lossy(), "--work"])
                .arg(&args.work)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result =
                Json::parse(last).map_err(|e| format!("{name} seed {seed}: {e}: {last}"))?;
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            if !correct || !out.status.success() {
                return Err(format!("{name} seed {seed} failed: {last}"));
            }
            let mut shown = Vec::new();
            for line in stdout.lines().filter(|l| l.starts_with(name)) {
                let t: Vec<&str> = line.split_whitespace().collect();
                let (Some(metric), Some(Ok(value)), Some(unit)) =
                    (t.get(1), t.get(2).map(|v| v.parse::<f64>()), t.get(3))
                else {
                    continue;
                };
                shown.push(format!("{metric}={value}"));
                match series
                    .iter_mut()
                    .find(|s| s.workload == name && s.metric == *metric)
                {
                    Some(s) => s.values.push(value),
                    None => series.push(Series {
                        workload: name,
                        metric: metric.to_string(),
                        unit: unit.to_string(),
                        values: vec![value],
                    }),
                }
            }
            println!("# run {} {name} seed={seed} {}", i + 1, shown.join(" "));
        }
    }
    let (mut flagged, mut flagged_listed) = (0, 0);
    for Series {
        workload: name,
        metric,
        unit,
        values,
    } in &series
    {
        let (q1, med, q3) = quartiles(values);
        let spread = (q3 - q1) / med;
        let listed = END_TO_END.iter().any(|(m, _)| m == metric);
        let flag = if spread > 0.1 {
            flagged += 1;
            flagged_listed += usize::from(listed);
            "  SPREAD > 0.1"
        } else {
            ""
        };
        let mark = if listed { '*' } else { ' ' };
        println!(
            "{name:<19}{mark}{metric:<20} median={med:<12.6} q1={q1:<12.6} q3={q3:<12.6} {unit:<5} spread={spread:.3}{flag}"
        );
    }
    println!(
        "{flagged} metric(s) spread by more than a tenth of their median, {flagged_listed} of them in the result line"
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_quantiles_and_slope() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(slope(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]), 2.0);
    }
}
