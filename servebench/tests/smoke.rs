//! Runs the benchmark's smoke mode against a freshly built `mmt` and
//! checks what it prints: every metric with its unit, and no failures.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every end-to-end and per-layer metric the benchmark defines, with
/// its unit. `recover_s` exists on `durable_hr` only; the repair
/// quantiles where repairs are sent; the search probes on the search
/// engine and the grounding and solving probes on the SAT engine.
const METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("cycle_p50_us", "us"),
    ("cycle_p50_rtt", "rtt"),
    ("echo_rtt_us", "us"),
    ("edit_p50_us", "us"),
    ("edit_p50_rtt", "rtt"),
    ("edit_p90_us", "us"),
    ("edit_p90_rtt", "rtt"),
    ("status_p50_us", "us"),
    ("status_p50_rtt", "rtt"),
    ("rollback_p50_us", "us"),
    ("rollback_p50_rtt", "rtt"),
    ("rollback_p90_us", "us"),
    ("rollback_p90_rtt", "rtt"),
    ("repair_p50_ms", "ms"),
    ("repair_p50_rtt", "rtt"),
    ("repair_p95_ms", "ms"),
    ("repair_p95_rtt", "rtt"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
    ("recover_s", "s"),
    ("model.parse_ms", "ms"),
    ("model.parse_allocs", "count"),
    ("qvtr.resolve_ms", "ms"),
    ("lint.register_ms", "ms"),
    ("check.open_ms", "ms"),
    ("check.report_us_p50", "us"),
    ("check.fork_us_p50", "us"),
    ("check.partial_updates_per_edit", "count"),
    ("check.checks_skipped_per_edit", "count"),
    ("check.full_reevals_per_edit", "count"),
    ("core.open_ms", "ms"),
    ("core.apply_us_p50", "us"),
    ("core.apply_us_p90", "us"),
    ("core.status_us_p50", "us"),
    ("core.rollback_us_p50", "us"),
    ("core.rollback_us_p90", "us"),
    ("core.repair_ms_p50", "ms"),
    ("core.repair_ms_p95", "ms"),
    ("core.allocs_per_edit", "count"),
    ("core.allocs_per_status", "count"),
    ("enforce.search_ms_p50", "ms"),
    ("enforce.search_ms_p95", "ms"),
    ("enforce.allocs_per_repair", "count"),
    ("enforce.repair_cost_mean", "count"),
    ("enforce.repair_ops_mean", "count"),
    ("ground.build_ms_p50", "ms"),
    ("ground.vars_mean", "count"),
    ("ground.clauses_mean", "count"),
    ("ground.instantiations_mean", "count"),
    ("sat.solve_ms_p50", "ms"),
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

const WORKLOADS: [&str; 4] = [
    "edit_c2t_1e5",
    "repair_search_fm30",
    "repair_sat_fm10",
    "durable_hr",
];

/// `(workload, metric, value, unit)` of each metric line.
fn metric_lines(stdout: &str) -> Vec<(String, String, f64, String)> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            let value = t.get(2)?.parse().ok()?;
            Some((t[0].into(), t[1].into(), value, t.get(3)?.to_string()))
        })
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists.
fn listed_metrics(benchmark_json: &str) -> Vec<(String, String)> {
    let field = |chunk: &str, key: &str| {
        let rest = &chunk[chunk.find(&format!("\"{key}\""))? + key.len() + 2..];
        let start = rest.find('"')? + 1;
        let len = rest[start..].find('"')?;
        Some(rest[start..start + len].to_string())
    };
    benchmark_json
        .split('{')
        .filter(|c| c.contains("\"unit\""))
        .filter_map(|c| Some((field(c, "name")?, field(c, "unit")?)))
        .collect()
}

#[test]
fn smoke_prints_every_metric_with_its_unit_and_fails_nothing() {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_servebench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository");
    let built = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "mmt-cli", "--bin", "mmt", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo runs");
    assert!(built.success(), "building mmt failed");
    let out = Command::new(&bench)
        .arg("--mmt")
        .arg(target.join("release").join("mmt"))
        .arg("--work")
        .arg(target.join("servebench-smoke"))
        .arg("--smoke")
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke mode failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = metric_lines(&stdout);
    for (name, unit) in METRICS {
        assert!(
            lines.iter().any(|(_, n, _, u)| n == name && u == unit),
            "{name} ({unit}) not printed:\n{stdout}"
        );
    }
    for w in WORKLOADS {
        let failed: Vec<f64> = lines
            .iter()
            .filter(|(wl, n, _, _)| wl == w && n == "failed_frac")
            .map(|l| l.2)
            .collect();
        assert_eq!(failed, [0.0], "{w}: failed_frac");
        let recovers = lines
            .iter()
            .any(|(wl, n, _, _)| wl == w && n == "recover_s");
        assert_eq!(recovers, w == "durable_hr", "{w}: recover_s");
        // `edit_c2t_1e5` sends no repairs, so it has no repair quantiles.
        let repairs = lines
            .iter()
            .any(|(wl, n, _, _)| wl == w && n.starts_with("repair_p"));
        assert_eq!(repairs, w != "edit_c2t_1e5", "{w}: repair quantiles");
    }
    // Every metric BENCHMARK.json lists is printed on every workload.
    let listed = listed_metrics(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"),
    );
    assert!(listed.len() > 10, "{listed:?}");
    for (name, unit) in &listed {
        for w in WORKLOADS {
            assert!(
                lines
                    .iter()
                    .any(|(wl, n, _, u)| wl == w && n == name && u == unit),
                "{w}: listed metric {name} ({unit}) not printed"
            );
        }
    }
}
