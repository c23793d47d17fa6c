//! End-to-end tests driving the `mmt` binary.

use std::path::PathBuf;
use std::process::Command;

fn repo_file(rel: &str) -> String {
    // examples/data lives at the workspace root, two levels up from the
    // cli crate.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(rel);
    p.to_string_lossy().into_owned()
}

fn mmt(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmt"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn data_args() -> Vec<String> {
    vec![
        "-t".into(),
        repo_file("examples/data/F.qvtr"),
        "-M".into(),
        repo_file("examples/data/CF.mm"),
        repo_file("examples/data/FM.mm"),
        "-m".into(),
        repo_file("examples/data/cf1.model"),
        repo_file("examples/data/cf2.model"),
        repo_file("examples/data/fm.model"),
    ]
}

#[test]
fn check_reports_violation_with_exit_code_one() {
    let mut args = vec!["check".to_string()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, _, code) = mmt(&argrefs);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("VIOLATED"));
    assert!(stdout.contains("brakes"));
}

#[test]
fn enforce_repairs_and_writes_models() {
    let outdir = std::env::temp_dir().join(format!("mmt-cli-test-{}", std::process::id()));
    let mut args = vec!["enforce".to_string()];
    args.extend(data_args());
    args.push("--targets".into());
    args.push("cf1,cf2".into());
    args.push("--out".into());
    args.push(outdir.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("repaired at distance 4"), "{stdout}");
    let written = std::fs::read_to_string(outdir.join("cf2.model")).unwrap();
    assert!(written.contains("brakes"));
    std::fs::remove_dir_all(&outdir).ok();
}

#[test]
fn enforce_with_impossible_shape_exits_one() {
    let mut args = vec!["enforce".to_string()];
    args.extend(data_args());
    args.push("--targets".into());
    args.push("cf1".into());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, _, code) = mmt(&argrefs);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("no repair"));
}

/// A `--max-cost` past what any repair can cost answers as the default
/// does, on both engines: SAT's cost counter is no wider than its cost
/// items can sum to, so `u64::MAX` neither overflows nor allocates an
/// output per unit of the bound.
#[test]
fn enforce_with_the_largest_max_cost_answers_as_the_default() {
    for engine in ["sat", "search"] {
        let enforce = |extra: &[&str]| {
            let mut args = vec!["enforce".to_string()];
            args.extend(data_args());
            for a in ["--targets", "cf1,cf2", "--engine", engine]
                .iter()
                .chain(extra)
            {
                args.push(a.to_string());
            }
            let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
            mmt(&argrefs)
        };
        let default = enforce(&[]);
        assert_eq!(default.2, Some(0), "{engine}: {default:?}");
        assert!(
            default.0.contains("repaired at distance 4"),
            "{engine}: {}",
            default.0
        );
        let largest = enforce(&["--max-cost", "18446744073709551615"]);
        assert_eq!(largest, default, "{engine}");
    }
}

/// Heavy weights under the largest `--max-cost` would make SAT's cost
/// counter 2⁶⁴ outputs wide: the counter's cells count against the
/// grounding budget, so the command answers a grounding error (exit 2)
/// instead of aborting.
#[test]
fn enforce_refuses_a_cost_counter_past_the_grounding_budget() {
    let mut args = vec!["enforce".to_string()];
    args.extend(data_args());
    for a in [
        "--targets",
        "cf1,cf2",
        "--engine",
        "sat",
        "--max-cost",
        "18446744073709551615",
        "--weights",
        "18446744073709551615,1,1",
    ] {
        args.push(a.to_string());
    }
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(2), "{stdout}\n{stderr}");
    assert!(
        stderr.contains("grounding error: cost counter 18446744073709551616 outputs wide"),
        "{stderr}"
    );
}

/// A SAT repair of a configuration whose id space is full: no slack
/// object fits below the ceiling, so `cf1` cannot gain the missing
/// feature. `enforce` answers "no repair" (exit 1), and `serve` answers
/// `{"repaired":false}` and then the next request. Slack objects used to
/// take ids past the ceiling, and decoding a repair that revived one
/// panicked: `enforce` exited 101 and `serve` died. Each process holds
/// one model padded with 168 MB of tombstones.
#[test]
fn sat_repairs_at_the_id_ceiling_answer_no_repair() {
    let dir = std::env::temp_dir().join(format!("mmt-cli-id-ceiling-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cf1 = dir.join("cf1.model");
    std::fs::write(
        &cf1,
        "model cf1 : CF bound 4194304 {\n  @0 = Feature { name = \"engine\" }\n}\n",
    )
    .unwrap();
    let models: Vec<String> = data_args()
        .into_iter()
        .map(|a| {
            if a.ends_with("cf1.model") {
                cf1.to_string_lossy().into_owned()
            } else {
                a
            }
        })
        .collect();
    let command = |verb: &str| {
        let mut args = vec![verb.to_string()];
        args.extend(models.iter().cloned());
        args.extend(["--engine".to_string(), "sat".to_string()]);
        args
    };

    let mut args = command("enforce");
    args.extend(["--targets".to_string(), "cf1,cf2".to_string()]);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(1), "{stdout}\n{stderr}");
    assert!(stdout.contains("no repair"), "{stdout}");

    let requests = r#"{"id":1,"cmd":"open","session":"s"}
{"id":2,"cmd":"repair","session":"s","targets":"cf1,cf2"}
{"id":3,"cmd":"status","session":"s"}
"#;
    let args = command("serve");
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert_eq!(serve_result(&stdout, 2), "{\"repaired\":false}");
    assert!(
        serve_result(&stdout, 3).starts_with("{\"consistent\":false,"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `mmt repair --batch <dir> --jobs N`: every subdirectory is one
/// request; results are per-request and written under `--out/<request>/`.
#[test]
fn repair_batch_fans_requests_across_workers() {
    let base = std::env::temp_dir().join(format!("mmt-cli-batch-{}", std::process::id()));
    let batch = base.join("requests");
    let outdir = base.join("out");
    for req in ["r1", "r2", "r3"] {
        let dir = batch.join(req);
        std::fs::create_dir_all(&dir).unwrap();
        for model in ["cf1.model", "cf2.model", "fm.model"] {
            std::fs::copy(
                repo_file(&format!("examples/data/{model}")),
                dir.join(model),
            )
            .unwrap();
        }
    }
    let args = vec![
        "repair".to_string(),
        "-t".into(),
        repo_file("examples/data/F.qvtr"),
        "-M".into(),
        repo_file("examples/data/CF.mm"),
        repo_file("examples/data/FM.mm"),
        "--batch".into(),
        batch.to_string_lossy().into_owned(),
        "--targets".into(),
        "cf1,cf2".into(),
        "--jobs".into(),
        "2".into(),
        "--out".into(),
        outdir.to_string_lossy().into_owned(),
    ];
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("repairing 3 requests with 2 worker(s)"),
        "{stdout}"
    );
    for req in ["r1", "r2", "r3"] {
        assert!(
            stdout.contains(&format!("{req}: repaired at distance 4")),
            "{stdout}"
        );
        let written = std::fs::read_to_string(outdir.join(req).join("cf2.model")).unwrap();
        assert!(written.contains("brakes"));
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Without `--batch`, `mmt repair` is a single-request enforce; it
/// accepts `--jobs`, which only batch mode reads.
#[test]
fn repair_without_batch_is_single_request_enforce() {
    let mut args = vec!["repair".to_string()];
    args.extend(data_args());
    args.push("--targets".into());
    args.push("cf1,cf2".into());
    args.push("--engine".into());
    args.push("search".into());
    args.push("--jobs".into());
    args.push("2".into());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("repaired at distance 4"), "{stdout}");
}

/// An unrepairable request in a batch yields exit code 1 but still
/// reports every request.
#[test]
fn repair_batch_reports_unrepairable_requests() {
    let base = std::env::temp_dir().join(format!("mmt-cli-batch-un-{}", std::process::id()));
    let batch = base.join("requests");
    let dir = batch.join("only");
    std::fs::create_dir_all(&dir).unwrap();
    for model in ["cf1.model", "cf2.model", "fm.model"] {
        std::fs::copy(
            repo_file(&format!("examples/data/{model}")),
            dir.join(model),
        )
        .unwrap();
    }
    let args = vec![
        "repair".to_string(),
        "-t".into(),
        repo_file("examples/data/F.qvtr"),
        "-M".into(),
        repo_file("examples/data/CF.mm"),
        repo_file("examples/data/FM.mm"),
        "--batch".into(),
        batch.to_string_lossy().into_owned(),
        "--targets".into(),
        "cf1".into(),
    ];
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, _, code) = mmt(&argrefs);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("only: no repair"), "{stdout}");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn deps_prints_dependency_sets() {
    let args = [
        "deps".to_string(),
        "-t".into(),
        repo_file("examples/data/F.qvtr"),
        "-M".into(),
        repo_file("examples/data/CF.mm"),
        repo_file("examples/data/FM.mm"),
    ];
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, _, code) = mmt(&argrefs);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("relation MF (top)"));
    assert!(stdout.contains("extended"));
}

#[test]
fn unknown_flags_and_commands_error() {
    let (_, stderr, code) = mmt(&["check", "--bogus"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown flag"));
    let (_, stderr, code) = mmt(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));
}

#[test]
fn no_args_prints_usage() {
    let (stdout, _, code) = mmt(&[]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("USAGE"));
}

#[test]
fn weights_validation() {
    let mut args = vec!["enforce".to_string()];
    args.extend(data_args());
    args.push("--targets".into());
    args.push("cf1,cf2".into());
    args.push("--weights".into());
    args.push("1,2".into()); // needs 3
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--weights needs 3"));
}

// --- Scenario corpus fixtures (ISSUE 7): every corpus scenario is
// CLI-drivable from checked-in examples/data files. ---

fn fixture_args(spec: &str, mms: &[&str], models: &[&str]) -> Vec<String> {
    let mut args = vec![
        "-t".to_string(),
        repo_file(&format!("examples/data/{spec}")),
    ];
    args.push("-M".into());
    args.extend(mms.iter().map(|m| repo_file(&format!("examples/data/{m}"))));
    args.push("-m".into());
    args.extend(
        models
            .iter()
            .map(|m| repo_file(&format!("examples/data/{m}"))),
    );
    args
}

fn company_args() -> Vec<String> {
    fixture_args(
        "W2C.qvtr",
        &["World.mm", "Company.mm"],
        &["world.model", "company.model"],
    )
}

fn class2rdbms_args() -> Vec<String> {
    fixture_args(
        "C2T.qvtr",
        &["UML.mm", "RDB.mm"],
        &["uml.model", "rdb.model"],
    )
}

fn run(mut args: Vec<String>, extra: &[&str]) -> (String, String, Option<i32>) {
    args.extend(extra.iter().map(|s| s.to_string()));
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    mmt(&argrefs)
}

/// The Company HR fixture tuple: bob exists in the world but not in the
/// company, so both relations flag him; the repair materializes him in
/// one direction and retracts him in the other.
#[test]
fn company_fixtures_check_and_enforce_both_directions() {
    let mut args = vec!["check".to_string()];
    args.extend(company_args());
    let (stdout, _, code) = run(args, &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("PersonToEmployee M0 → M1: VIOLATED"),
        "{stdout}"
    );
    assert!(stdout.contains("SalaryCap M0 → M1: VIOLATED"), "{stdout}");
    assert!(stdout.contains(r#"[n = "bob""#), "{stdout}");

    let mut args = vec!["enforce".to_string()];
    args.extend(company_args());
    let (stdout, _, code) = run(args, &["--targets", "company"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("repaired at distance 2"), "{stdout}");
    assert!(stdout.contains(r#"@1.attr#0 = "bob""#), "{stdout}");

    let mut args = vec!["enforce".to_string()];
    args.extend(company_args());
    let (stdout, _, code) = run(args, &["--targets", "world"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("repaired at distance 1"), "{stdout}");
    assert!(stdout.contains("- @1 : class#0"), "{stdout}");
}

/// The class↔RDBMS fixture: the `age` attribute has no column. The
/// forward repair grows a linked Column (distance 3: object + name +
/// link); the backward repair just unhooks the attribute (distance 1).
/// Both engines agree through the CLI.
#[test]
fn class2rdbms_fixtures_round_trip() {
    let mut args = vec!["check".to_string()];
    args.extend(class2rdbms_args());
    let (stdout, _, code) = run(args, &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("AttrToCol M0 → M1: VIOLATED"), "{stdout}");
    assert!(stdout.contains(r#"an = "age""#), "{stdout}");
    assert!(stdout.contains("ClassToTable M0 → M1: holds"), "{stdout}");

    for engine in ["search", "sat"] {
        let mut args = vec!["enforce".to_string()];
        args.extend(class2rdbms_args());
        let (stdout, _, code) = run(args, &["--targets", "rdb", "--engine", engine]);
        assert_eq!(code, Some(0), "{engine}: {stdout}");
        assert!(
            stdout.contains("repaired at distance 3"),
            "{engine}: {stdout}"
        );
        assert!(stdout.contains(r#"= "age""#), "{engine}: {stdout}");

        let mut args = vec!["enforce".to_string()];
        args.extend(class2rdbms_args());
        let (stdout, _, code) = run(args, &["--targets", "uml", "--engine", engine]);
        // Two cost-1 repairs exist (drop the link, drop the whole
        // attribute); the tie-break is engine-internal, so only the
        // distance is pinned.
        assert_eq!(code, Some(0), "{engine}: {stdout}");
        assert!(
            stdout.contains("repaired at distance 1"),
            "{engine}: {stdout}"
        );
        assert!(stdout.contains("--- uml ---"), "{engine}: {stdout}");
    }
}

/// Regression: the search repaired this class↔RDBMS tuple towards `rdb`
/// at distance 1 by linking table `C1` to table `C0`'s column `x`, which
/// gave the column a second container. Both engines now repair it at
/// distance 3: a new column, its name and the link.
#[test]
fn class2rdbms_repairs_keep_one_container_per_column() {
    let dir = std::env::temp_dir().join(format!("mmt-cli-c2t-container-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let uml = dir.join("uml.model");
    let rdb = dir.join("rdb.model");
    std::fs::write(
        &uml,
        r#"model uml : UML {
  x0 = Attribute { name = "x" }
  x1 = Attribute { name = "x" }
  c0 = Class { name = "C0", attrs = [x0] }
  c1 = Class { name = "C1", attrs = [x1] }
}"#,
    )
    .unwrap();
    std::fs::write(
        &rdb,
        r#"model rdb : RDB {
  col = Column { name = "x" }
  t0 = Table { name = "C0", cols = [col] }
  t1 = Table { name = "C1" }
}"#,
    )
    .unwrap();
    for engine in ["search", "sat"] {
        let mut args = vec!["enforce".to_string()];
        args.extend(fixture_args("C2T.qvtr", &["UML.mm", "RDB.mm"], &[]));
        args.extend([&uml, &rdb].map(|p| p.to_string_lossy().into_owned()));
        let (stdout, _, code) = run(args, &["--targets", "rdb", "--engine", engine]);
        assert_eq!(code, Some(0), "{engine}: {stdout}");
        assert!(
            stdout.contains("repaired at distance 3"),
            "{engine}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: both engines repaired this tuple at distance 1 by linking
/// `n1` to contain `leaf`, its own container, which closed a containment
/// cycle. The least conformant repair costs 2 (two renames, or a move).
#[test]
fn repairs_close_no_containment_cycle() {
    let dir = std::env::temp_dir().join(format!("mmt-cli-cycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let files = [
        ("Cyc.qvtr", cycle_tuple::SPEC),
        ("S.mm", cycle_tuple::SOURCE_MM),
        ("T.mm", cycle_tuple::TARGET_MM),
        ("a.model", cycle_tuple::MODEL_A),
        ("b.model", cycle_tuple::MODEL_B),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    for engine in ["search", "sat"] {
        let args = vec![
            "enforce".to_string(),
            "-t".into(),
            path("Cyc.qvtr"),
            "-M".into(),
            path("S.mm"),
            path("T.mm"),
            "-m".into(),
            path("a.model"),
            path("b.model"),
        ];
        let (stdout, _, code) = run(args, &["--targets", "b", "--engine", engine]);
        assert_eq!(code, Some(0), "{engine}: {stdout}");
        assert!(
            stdout.contains("repaired at distance 2"),
            "{engine}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The containment-cycle tuple of [`repairs_close_no_containment_cycle`]:
/// every `P` named n needs a `Node` named n with a kid named "leaf", and
/// `b` holds a root `leaf` that contains `n1`.
mod cycle_tuple {
    pub const SOURCE_MM: &str = "metamodel S { class P { attr name: Str; } }";
    pub const TARGET_MM: &str =
        "metamodel T { class Node { attr name: Str; ref kids: Node [0..*] containment; } }";
    pub const SPEC: &str = r#"transformation Cyc(a : S, b : T) {
  top relation Kid {
    n : Str;
    domain a p : P { name = n };
    domain b x : Node { name = n, kids = k : Node { name = "leaf" } };
    depend a -> b;
  }
}"#;
    pub const MODEL_A: &str = r#"model a : S { p = P { name = "n1" } }"#;
    pub const MODEL_B: &str = r#"model b : T {
  n1 = Node { name = "n1" }
  leaf = Node { name = "leaf", kids = [n1] }
}"#;
}

/// The snippet-2 HR history as one warm `mmt sync` session: repair the
/// missing hire, push the salary beyond the cap, watch the least-change
/// clamp bring it back.
#[test]
fn sync_company_salary_clamp_loop() {
    let script = write_script(
        "company",
        "status\nrepair company\nedit company set @1.salary = 12\nstatus\nrepair company\nstatus\n",
    );
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(company_args());
    let (stdout, _, code) = run(args, &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("status: INCONSISTENT (2 violations)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("repair company: repaired at distance 2"),
        "{stdout}"
    );
    assert!(
        stdout.contains("status: INCONSISTENT (1 violations)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("repair company: repaired at distance 1"),
        "{stdout}"
    );
    assert!(stdout.contains("@1.attr#1 = 3 (was 12)"), "{stdout}");
    assert!(stdout.contains("final: consistent"), "{stdout}");
    std::fs::remove_file(&script).ok();
}

// --- ISSUE 4: `mmt sync`, --version, per-subcommand usage ---

fn write_script(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mmt-cli-{name}-{}.mmts", std::process::id()));
    std::fs::write(&path, body).unwrap();
    path
}

/// One warm session drives edit/status/repair/rollback from a script;
/// the repair distance matches the stateless `mmt enforce` on the same
/// tuple (4, as `enforce_repairs_and_writes_models` asserts).
#[test]
fn sync_script_drives_a_session() {
    let script = write_script(
        "session",
        r#"# fixture tuple is inconsistent: brakes is mandatory, selected nowhere
status
repair cf1,cf2
status
edit cf1 set @0.name = "motor"   # drift again
status
rollback 1
status
"#,
    );
    let outdir = std::env::temp_dir().join(format!("mmt-cli-sync-{}", std::process::id()));
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(data_args());
    args.push("--out".into());
    args.push(outdir.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("status: INCONSISTENT (2 violations)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("repair cf1,cf2: repaired at distance 4"),
        "{stdout}"
    );
    assert!(stdout.contains("rollback: undid 1 entry"), "{stdout}");
    assert!(stdout.contains("final: consistent"), "{stdout}");
    // The final tuple (repaired, drift rolled back) was written out.
    let written = std::fs::read_to_string(outdir.join("cf1.model")).unwrap();
    assert!(written.contains("brakes"), "{written}");
    assert!(!written.contains("motor"), "{written}");
    std::fs::remove_dir_all(&outdir).ok();
    std::fs::remove_file(&script).ok();
}

/// `--json` turns `status` into a machine-readable dump.
#[test]
fn sync_json_status_dump() {
    let script = write_script("json", "status\n");
    let mut args = vec![
        "sync".to_string(),
        script.to_string_lossy().into_owned(),
        "--json".into(),
    ];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    let line = stdout.lines().next().unwrap();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"consistent\":false"), "{line}");
    assert!(line.contains("\"violations\":2"), "{line}");
    assert!(!line.contains("fingerprint"), "{line}");
    assert!(line.contains("\\\"brakes\\\""), "{line}");
    std::fs::remove_file(&script).ok();
}

/// A rollback after `repair` undoes the auto-applied repair: the final
/// state is inconsistent again and the exit code says so.
#[test]
fn sync_rollback_of_repair_exits_one() {
    let script = write_script("rollrepair", "repair cf1,cf2\nrollback all\n");
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, _, code) = mmt(&argrefs);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("final: INCONSISTENT"), "{stdout}");
    std::fs::remove_file(&script).ok();
}

/// A script error reports file and line and exits 2.
#[test]
fn sync_bad_script_line_reports_position() {
    let script = write_script("bad", "status\nfrobnicate everything\n");
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains(":2: unknown sync command `frobnicate`"),
        "{stderr}"
    );
    std::fs::remove_file(&script).ok();
}

#[test]
fn version_flag_prints_version() {
    for flag in ["--version", "-V", "version"] {
        let (stdout, _, code) = mmt(&[flag]);
        assert_eq!(code, Some(0), "{flag}");
        assert_eq!(
            stdout.trim(),
            format!("mmt {}", env!("CARGO_PKG_VERSION")),
            "{flag}"
        );
    }
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let (_, stderr, code) = mmt(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command `frobnicate`"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

/// Missing required arguments exit non-zero and print the *owning
/// subcommand's* usage.
#[test]
fn missing_arguments_print_subcommand_usage() {
    // No -t at all.
    let (_, stderr, code) = mmt(&["enforce"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing -t <spec.qvtr>"), "{stderr}");
    assert!(stderr.contains("mmt enforce"), "{stderr}");
    // Tuple given but no --targets.
    let mut args = vec!["enforce".to_string()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing --targets <names>"), "{stderr}");
    assert!(stderr.contains("mmt enforce"), "{stderr}");
    // sync without a script.
    let (_, stderr, code) = mmt(&["sync", "-t", "x.qvtr"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing <script>"), "{stderr}");
    assert!(stderr.contains("mmt sync"), "{stderr}");
    // deps without -t.
    let (_, stderr, code) = mmt(&["deps"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing -t <spec.qvtr>"), "{stderr}");
}

#[test]
fn per_subcommand_help_text() {
    for (cmd, needle) in [
        ("check", "mmt check"),
        ("enforce", "mmt enforce"),
        ("repair", "mmt repair"),
        ("sync", "mmt sync"),
        ("deps", "mmt deps"),
    ] {
        let (stdout, _, code) = mmt(&["help", cmd]);
        assert_eq!(code, Some(0), "help {cmd}");
        assert!(stdout.contains(needle), "help {cmd}: {stdout}");
        assert!(stdout.contains("USAGE"), "help {cmd}: {stdout}");
        // `--help` on the subcommand prints the same text.
        let (stdout2, _, code2) = mmt(&[cmd, "--help"]);
        assert_eq!(code2, Some(0), "{cmd} --help");
        assert_eq!(stdout, stdout2, "{cmd} --help");
    }
}

/// Comment stripping is quote-aware: a `#` inside a quoted value is
/// data, not a comment; `=` inside the value survives too.
#[test]
fn sync_value_may_contain_hash_and_equals() {
    let script = write_script(
        "hash",
        "edit fm set @0.name = \"a#b=c\"  # real comment\nrollback all\n",
    );
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    // The edit applied (then rolled back): no parse error, exit 1 only
    // because the fixture tuple is inconsistent to begin with.
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    assert!(stdout.contains("rollback: undid 1 entry"), "{stdout}");
}

/// Non-sync commands reject stray positional arguments instead of
/// silently ignoring them.
#[test]
fn stray_positional_argument_is_rejected() {
    let mut args = vec!["enforce".to_string()];
    args.extend(data_args());
    args.push("--targets".into());
    args.push("cf1,cf2".into());
    args.push("stray.model".into());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unexpected argument `stray.model`"),
        "{stderr}"
    );
}

// --- ISSUE 5: `mmt serve`, `mmt sync -`, and the serve↔sync differential ---

fn mmt_with_stdin(args: &[&str], input: &str) -> (String, String, Option<i32>) {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmt"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .unwrap();
    drop(child.stdin.take()); // EOF ends the serve loop / stdin script
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// Extracts the `result` payload of the serve response carrying `id`.
fn serve_result(stdout: &str, id: u64) -> String {
    let prefix = format!("{{\"id\":{id},\"ok\":true,\"result\":");
    for line in stdout.lines() {
        if let Some(body) = line.strip_prefix(&prefix) {
            return body
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated response: {line}"))
                .to_string();
        }
    }
    panic!("no ok response with id {id} in:\n{stdout}");
}

/// The ISSUE 5 acceptance differential: one session driven through the
/// `mmt serve` line protocol is **byte-identical** — status JSON at
/// every checkpoint, journal dump, and the final written model tuple —
/// to the same command sequence run through `mmt sync`, under the
/// default engine and under SAT.
#[test]
fn serve_session_is_byte_identical_to_sync() {
    serve_matches_sync(&[], "default");
    serve_matches_sync(&["--engine", "sat"], "sat");
}

/// [`serve_session_is_byte_identical_to_sync`] with `engine_args` passed
/// to both commands; `tag` keeps the runs' files apart.
fn serve_matches_sync(engine_args: &[&str], tag: &str) {
    let base =
        std::env::temp_dir().join(format!("mmt-cli-serve-diff-{tag}-{}", std::process::id()));
    let sync_out = base.join("sync");
    let serve_out = base.join("serve");

    // The shared command sequence: drift, repair, drift again, rollback.
    let script = write_script(
        &format!("serve-diff-{tag}"),
        r#"status
repair cf1,cf2
status
edit cf1 set @0.name = "motor"
status
rollback 1
status
journal
"#,
    );
    let mut sync_args = vec![
        "sync".to_string(),
        script.to_string_lossy().into_owned(),
        "--json".into(),
    ];
    sync_args.extend(data_args());
    sync_args.extend(engine_args.iter().map(|a| a.to_string()));
    sync_args.push("--out".into());
    sync_args.push(sync_out.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = sync_args.iter().map(String::as_str).collect();
    let (sync_stdout, sync_stderr, sync_code) = mmt(&argrefs);
    assert_eq!(
        sync_code,
        Some(0),
        "{tag} sync: {sync_stdout}\n{sync_stderr}"
    );
    // The 5 JSON lines: four status dumps and one journal dump.
    let sync_json: Vec<&str> = sync_stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(sync_json.len(), 5, "{sync_stdout}");

    // The same sequence over the serve protocol, one session "s".
    let requests = r#"{"id":1,"cmd":"open","session":"s"}
{"id":2,"cmd":"status","session":"s"}
{"id":3,"cmd":"repair","session":"s","targets":"cf1,cf2"}
{"id":4,"cmd":"status","session":"s"}
{"id":5,"cmd":"edit","session":"s","edit":"cf1 set @0.name = \"motor\""}
{"id":6,"cmd":"status","session":"s"}
{"id":7,"cmd":"rollback","session":"s","n":1}
{"id":8,"cmd":"status","session":"s"}
{"id":9,"cmd":"journal","session":"s"}
{"id":10,"cmd":"close","session":"s"}
"#;
    let mut serve_args = vec!["serve".to_string()];
    serve_args.extend(data_args());
    serve_args.extend(engine_args.iter().map(|a| a.to_string()));
    serve_args.push("--out".into());
    serve_args.push(serve_out.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = serve_args.iter().map(String::as_str).collect();
    let (serve_stdout, serve_stderr, serve_code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(
        serve_code,
        Some(0),
        "{tag} serve: {serve_stdout}\n{serve_stderr}"
    );

    // Status JSON byte-identity at every checkpoint, and the journal.
    for (sync_line, id) in sync_json.iter().zip([2u64, 4, 6, 8, 9]) {
        assert_eq!(
            serve_result(&serve_stdout, id),
            **sync_line,
            "{tag}: serve response {id} diverged from the sync --json line"
        );
    }
    // The repair reported the same least-change distance.
    assert!(
        serve_result(&serve_stdout, 3).contains("\"repaired\":true,\"cost\":4"),
        "{serve_stdout}"
    );
    assert!(serve_result(&serve_stdout, 7).contains("\"undone\":1"));
    // And the written tuples agree byte for byte.
    for param in ["cf1", "cf2", "fm"] {
        let from_sync = std::fs::read_to_string(sync_out.join(format!("{param}.model"))).unwrap();
        let from_serve =
            std::fs::read_to_string(serve_out.join("s").join(format!("{param}.model"))).unwrap();
        assert_eq!(from_sync, from_serve, "{tag}: {param}.model diverged");
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_file(&script).ok();
}

/// serve ≡ sync for an answer longer than stdout's 1 KiB line buffer:
/// renaming a class of nine attributes in the class↔RDBMS fixture
/// breaks both `ClassToTable` and every `AttrToCol` match of the
/// class, and the status that lists them must reach the client whole
/// and byte-identical to `mmt sync --json`'s.
#[test]
fn serve_answers_a_long_status_as_sync_prints_it() {
    let base = std::env::temp_dir().join(format!("mmt-cli-long-status-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let side = |param: &str, meta: &str, owner: &str, members: &str, member: &str| {
        let mut src = format!("model {param} : {meta} {{\n");
        for a in 0..9 {
            src.push_str(&format!(
                "  m{a} = {member} {{ name = \"attribute_{a}\" }}\n"
            ));
        }
        let all: Vec<String> = (0..9).map(|a| format!("m{a}")).collect();
        src.push_str(&format!(
            "  o = {owner} {{ name = \"Person\", {members} = [{}] }}\n}}\n",
            all.join(", ")
        ));
        let path = base.join(format!("{param}.model"));
        std::fs::write(&path, src).unwrap();
        path.to_string_lossy().into_owned()
    };
    let models = [
        side("uml", "UML", "Class", "attrs", "Attribute"),
        side("rdb", "RDB", "Table", "cols", "Column"),
    ];
    let data: Vec<String> = [
        "-t".to_string(),
        repo_file("examples/data/C2T.qvtr"),
        "-M".into(),
        repo_file("examples/data/UML.mm"),
        repo_file("examples/data/RDB.mm"),
        "-m".into(),
    ]
    .into_iter()
    .chain(models)
    .collect();
    let script = write_script(
        "long-status",
        "edit uml set @9.name = \"Customer\"\nstatus\n",
    );
    let mut sync_args = vec![
        "sync".to_string(),
        script.to_string_lossy().into_owned(),
        "--json".into(),
    ];
    sync_args.extend(data.iter().cloned());
    let argrefs: Vec<&str> = sync_args.iter().map(String::as_str).collect();
    let (sync_stdout, sync_stderr, _) = mmt(&argrefs);
    let sync_status = sync_stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no status line: {sync_stdout}\n{sync_stderr}"));
    assert!(sync_status.len() > 1024, "{} bytes", sync_status.len());
    assert!(sync_status.contains("\"violations\":20,"), "{sync_status}");

    let requests = r#"{"id":1,"cmd":"open","session":"s"}
{"id":2,"cmd":"edit","session":"s","edit":"uml set @9.name = \"Customer\""}
{"id":3,"cmd":"status","session":"s"}
"#;
    let mut serve_args = vec!["serve".to_string()];
    serve_args.extend(data);
    let argrefs: Vec<&str> = serve_args.iter().map(String::as_str).collect();
    let (serve_stdout, serve_stderr, serve_code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(serve_code, Some(0), "{serve_stdout}\n{serve_stderr}");
    assert_eq!(serve_stdout.lines().count(), 3, "{serve_stdout}");
    for id in [2, 3] {
        assert_eq!(serve_result(&serve_stdout, id), sync_status, "answer {id}");
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_file(&script).ok();
}

/// A repair depends on its request, not on the process. `mmt sync`
/// repairs `cf1,cf2`, names two new `cf1` features `axle` then
/// `wheels`, and repairs `fm`, which adds both names to `fm` at two
/// fresh ids. `mmt serve` runs the same requests in session `b` after
/// session `a` named a feature `wheels`, so that process interns
/// `wheels` first. The least-change repairs tie, and `b`'s journal and
/// written tuple must equal sync's byte for byte.
#[test]
fn serve_repairs_as_sync_whatever_another_session_interned() {
    let base = std::env::temp_dir().join(format!("mmt-cli-intern-order-{}", std::process::id()));
    let (sync_out, serve_out) = (base.join("sync"), base.join("serve"));
    let script = write_script(
        "intern-order",
        r#"repair cf1,cf2
edit cf1 add Feature
edit cf1 set @2.name = "axle"
edit cf1 add Feature
edit cf1 set @3.name = "wheels"
repair fm
journal
"#,
    );
    let mut sync_args = vec![
        "sync".to_string(),
        script.to_string_lossy().into_owned(),
        "--json".into(),
    ];
    sync_args.extend(data_args());
    sync_args.push("--out".into());
    sync_args.push(sync_out.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = sync_args.iter().map(String::as_str).collect();
    let (sync_stdout, sync_stderr, sync_code) = mmt(&argrefs);
    assert_eq!(sync_code, Some(0), "{sync_stdout}\n{sync_stderr}");
    let journal = sync_stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("sync --json prints the journal");

    let requests = r#"{"id":1,"cmd":"open","session":"a"}
{"id":2,"cmd":"edit","session":"a","edit":"cf1 set @0.name = \"wheels\""}
{"id":3,"cmd":"open","session":"b"}
{"id":4,"cmd":"repair","session":"b","targets":"cf1,cf2"}
{"id":5,"cmd":"edit","session":"b","edit":"cf1 add Feature"}
{"id":6,"cmd":"edit","session":"b","edit":"cf1 set @2.name = \"axle\""}
{"id":7,"cmd":"edit","session":"b","edit":"cf1 add Feature"}
{"id":8,"cmd":"edit","session":"b","edit":"cf1 set @3.name = \"wheels\""}
{"id":9,"cmd":"repair","session":"b","targets":"fm"}
{"id":10,"cmd":"journal","session":"b"}
{"id":11,"cmd":"close","session":"b"}
"#;
    let mut serve_args = vec!["serve".to_string()];
    serve_args.extend(data_args());
    serve_args.push("--out".into());
    serve_args.push(serve_out.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = serve_args.iter().map(String::as_str).collect();
    let (serve_stdout, serve_stderr, serve_code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(serve_code, Some(0), "{serve_stdout}\n{serve_stderr}");
    assert!(
        serve_result(&serve_stdout, 9).contains("\"repaired\":true"),
        "{serve_stdout}"
    );
    assert!(journal.contains(r#"\"axle\""#), "{journal}");
    assert_eq!(serve_result(&serve_stdout, 10), journal);
    for param in ["cf1", "cf2", "fm"] {
        let from_sync = std::fs::read_to_string(sync_out.join(format!("{param}.model"))).unwrap();
        let from_serve =
            std::fs::read_to_string(serve_out.join("b").join(format!("{param}.model"))).unwrap();
        assert_eq!(from_sync, from_serve, "{param}.model diverged");
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_file(&script).ok();
}

/// Multiple named sessions stay independent inside one serve process,
/// and protocol errors answer `ok:false` without killing the loop.
#[test]
fn serve_runs_concurrent_sessions_and_survives_errors() {
    let requests = r#"{"id":1,"cmd":"open","session":"a"}
{"id":2,"cmd":"open","session":"b"}
{"id":3,"cmd":"open","session":"a"}
{"id":30,"cmd":"open","session":"../evil"}
{"id":31,"cmd":"open","session":"/abs"}
{"id":32,"cmd":"open","session":""}
not json at all
{"id":4,"cmd":"frobnicate","session":"a"}
{"id":5,"cmd":"status","session":"ghost"}
{"id":6,"cmd":"edit","session":"a","edit":"cf1 set @0.name = \"motor\""}
{"id":7,"cmd":"status","session":"b"}
{"id":8,"cmd":"repair","session":"b","targets":"cf1,cf2"}
{"id":9,"cmd":"status","session":"b"}
{"id":10,"cmd":"status","session":"a"}
{"id":11,"cmd":"close","session":"a"}
{"id":12,"cmd":"close","session":"b"}
"#;
    let mut args = vec!["serve".to_string()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    // Errors are typed responses, not crashes.
    assert!(
        stdout.contains("{\"id\":3,\"ok\":false,\"error\":\"a session is already open as `a`\""),
        "{stdout}"
    );
    // Session names become --out path components: traversal attempts,
    // absolute paths, and empty names are rejected at open.
    for id in [30, 31, 32] {
        assert!(
            stdout.contains(&format!(
                "{{\"id\":{id},\"ok\":false,\"error\":\"invalid session name"
            )),
            "id {id}: {stdout}"
        );
    }
    assert!(
        stdout.contains("{\"id\":null,\"ok\":false,\"error\":\"bad request:"),
        "{stdout}"
    );
    assert!(
        stdout.contains("{\"id\":4,\"ok\":false,\"error\":\"unknown cmd `frobnicate`\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("{\"id\":5,\"ok\":false,\"error\":\"no session open as `ghost`\""),
        "{stdout}"
    );
    // Session b repaired to consistency; session a's independent drift
    // left it inconsistent (its own edit, b's repair not shared).
    assert!(serve_result(&stdout, 9).contains("\"consistent\":true"));
    assert!(serve_result(&stdout, 10).contains("\"consistent\":false"));
    assert!(serve_result(&stdout, 8).contains("\"repaired\":true,\"cost\":4"));
    // Both closes succeeded.
    assert_eq!(serve_result(&stdout, 11), "{\"closed\":\"a\"}");
    assert_eq!(serve_result(&stdout, 12), "{\"closed\":\"b\"}");
}

/// `mmt sync -` reads the script from stdin and behaves exactly like
/// the same script from a file.
#[test]
fn sync_reads_script_from_stdin() {
    let body = "status\nrepair cf1,cf2\nstatus\njournal\n";
    let script = write_script("stdin-ref", body);
    let mut file_args = vec![
        "sync".to_string(),
        script.to_string_lossy().into_owned(),
        "--json".into(),
    ];
    file_args.extend(data_args());
    let argrefs: Vec<&str> = file_args.iter().map(String::as_str).collect();
    let (from_file, _, file_code) = mmt(&argrefs);

    let mut stdin_args = vec!["sync".to_string(), "-".into(), "--json".into()];
    stdin_args.extend(data_args());
    let argrefs: Vec<&str> = stdin_args.iter().map(String::as_str).collect();
    let (from_stdin, stderr, stdin_code) = mmt_with_stdin(&argrefs, body);
    assert_eq!(stdin_code, Some(0), "{from_stdin}\n{stderr}");
    assert_eq!(stdin_code, file_code);
    assert_eq!(from_stdin, from_file, "stdin and file scripts diverged");

    // Script errors still carry a position, now under the <stdin> name.
    let (_, stderr, code) = mmt_with_stdin(&argrefs, "status\nfrobnicate\n");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("<stdin>:2: unknown sync command"),
        "{stderr}"
    );
}

// --- ISSUE 6: `--store` durability across invocations ---

/// `mmt sync --store` persists the session; a second invocation picks
/// it up where the first left off (the `-m` tuple is ignored on
/// resume) and sees the identical status JSON. The first finds only a
/// `manifest.tmp`, as a `create` cut before its rename leaves it: that
/// is no store, so it creates one.
#[test]
fn sync_store_resumes_across_invocations() {
    let store = std::env::temp_dir().join(format!("mmt-cli-sync-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).unwrap();
    std::fs::write(store.join("manifest.tmp"), "mmt-store 2\nspec").unwrap();

    // First life: drift the session, dump status, crash (exit).
    let script1 = write_script("store-life1", "edit cf1 set @0.name = \"motor\"\nstatus\n");
    let mut args1 = vec![
        "sync".to_string(),
        script1.to_string_lossy().into_owned(),
        "--json".into(),
    ];
    args1.extend(data_args());
    args1.push("--store".into());
    args1.push(store.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args1.iter().map(String::as_str).collect();
    let (out1, err1, code1) = mmt(&argrefs);
    // Exit 1: the drifted tuple is (deliberately) left inconsistent.
    assert_eq!(code1, Some(1), "{out1}\n{err1}");
    assert!(!store.join("manifest.tmp").exists());
    let last_status = out1
        .lines()
        .rfind(|l| l.starts_with('{'))
        .unwrap()
        .to_string();

    // Second life: `status` alone must reproduce the first life's
    // final status byte for byte, then keep editing and roll back —
    // proof the journal (not just the tuple) survived.
    let script2 = write_script(
        "store-life2",
        "status\nedit fm add Feature @2\nrollback 2\nstatus\n",
    );
    let mut args2 = vec![
        "sync".to_string(),
        script2.to_string_lossy().into_owned(),
        "--json".into(),
    ];
    args2.extend(data_args());
    args2.push("--store".into());
    args2.push(store.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args2.iter().map(String::as_str).collect();
    let (out2, err2, code2) = mmt(&argrefs);
    // Exit 1 again: the rollback lands on the (inconsistent) seed.
    assert_eq!(code2, Some(1), "{out2}\n{err2}");
    let mut lines = out2.lines().filter(|l| l.starts_with('{'));
    assert_eq!(lines.next().unwrap(), last_status, "resume diverged");
    // rollback 2 unwound both the new edit and the first life's edit.
    let final_status = lines.next().unwrap();
    assert!(final_status.contains("\"journal\":0"), "{final_status}");

    let _ = std::fs::remove_dir_all(&store);
}

/// The crash half of the durability story: `mmt serve --store` is
/// SIGKILLed mid-session after an edit was acknowledged; a second
/// invocation recovers the session and answers `status` with the
/// identical payload.
#[test]
fn serve_store_recovers_after_kill() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::Stdio;

    let store = std::env::temp_dir().join(format!("mmt-cli-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut args = vec!["serve".to_string()];
    args.extend(data_args());
    args.push("--store".into());
    args.push(store.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();

    // First life: open + edit + status, then SIGKILL — no close, no
    // clean shutdown, no EOF.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mmt"))
        .args(&argrefs)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    stdin
        .write_all(
            b"{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n\
              {\"id\":2,\"cmd\":\"edit\",\"session\":\"s\",\"edit\":\"cf1 set @0.name = \\\"motor\\\"\"}\n\
              {\"id\":3,\"cmd\":\"status\",\"session\":\"s\"}\n",
        )
        .unwrap();
    stdin.flush().unwrap();
    let mut first_life = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        first_life.push(line.trim_end().to_string());
    }
    // The edit was acknowledged — and therefore committed — before
    // the kill.
    child.kill().unwrap();
    child.wait().unwrap();

    // Second life: no open — recovery must have done it.
    let (out2, err2, code2) = mmt_with_stdin(
        &argrefs,
        "{\"id\":3,\"cmd\":\"status\",\"session\":\"s\"}\n{\"id\":4,\"cmd\":\"journal\",\"session\":\"s\"}\n",
    );
    assert_eq!(code2, Some(0), "{out2}\n{err2}");
    assert_eq!(
        serve_result(&out2, 3),
        serve_result(&first_life.join("\n"), 3),
        "recovered status diverged from the killed session's"
    );
    // The journal carries the acknowledged edit.
    assert!(serve_result(&out2, 4).contains("motor"), "{out2}");

    let _ = std::fs::remove_dir_all(&store);
}

/// `mmt serve` arguments over the checked-in data with `--store dir`.
fn serve_store_args(dir: &std::path::Path) -> Vec<String> {
    let mut args = vec!["serve".to_string()];
    args.extend(data_args());
    args.push("--store".into());
    args.push(dir.to_string_lossy().into_owned());
    args
}

/// A SIGKILL after a rollback and a new edit: the second life recovers
/// the rewritten tail, not the rolled-back entry.
#[test]
fn serve_store_recovers_a_rewritten_tail_after_kill() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::Stdio;

    let store = std::env::temp_dir().join(format!("mmt-cli-serve-rewrite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let args = serve_store_args(&store);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mmt"))
        .args(&argrefs)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let set = |id: u32, to: &str| {
        format!(
            "{{\"id\":{id},\"cmd\":\"edit\",\"session\":\"s\",\"edit\":\"cf1 set @0.name = \\\"{to}\\\"\"}}\n"
        )
    };
    let script = [
        "{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n".to_string(),
        set(2, "motor"),
        set(3, "gearbox"),
        "{\"id\":4,\"cmd\":\"rollback\",\"session\":\"s\",\"n\":1}\n".to_string(),
        set(5, "clutch"),
        "{\"id\":6,\"cmd\":\"status\",\"session\":\"s\"}\n".to_string(),
        "{\"id\":7,\"cmd\":\"journal\",\"session\":\"s\"}\n".to_string(),
    ];
    stdin.write_all(script.concat().as_bytes()).unwrap();
    stdin.flush().unwrap();
    let mut first_life = Vec::new();
    for _ in 0..script.len() {
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        first_life.push(line.trim_end().to_string());
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let first_life = first_life.join("\n");
    for id in 1..=7 {
        serve_result(&first_life, id);
    }

    let (out2, err2, code2) = mmt_with_stdin(
        &argrefs,
        "{\"id\":6,\"cmd\":\"status\",\"session\":\"s\"}\n{\"id\":7,\"cmd\":\"journal\",\"session\":\"s\"}\n",
    );
    assert_eq!(code2, Some(0), "{out2}\n{err2}");
    assert_eq!(
        serve_result(&out2, 6),
        serve_result(&first_life, 6),
        "recovered status diverged from the killed session's"
    );
    // Equal journals over an equal seed pin the recovered tuple exactly.
    let journal = serve_result(&out2, 7);
    assert_eq!(
        journal,
        serve_result(&first_life, 7),
        "recovered journal diverged from the killed session's"
    );
    assert!(journal.contains("motor"), "{journal}");
    assert!(journal.contains("clutch"), "{journal}");
    assert!(!journal.contains("gearbox"), "{journal}");

    let _ = std::fs::remove_dir_all(&store);
}

/// Each session's manifest is the one visibility point of `serve
/// --store`: a session directory without one, left by an `open` or a
/// `close` that was cut short, neither stops a restart nor blocks a
/// later `open` of that name.
#[test]
fn serve_store_reclaims_a_directory_the_manifest_does_not_name() {
    let store = std::env::temp_dir().join(format!("mmt-cli-serve-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let args = serve_store_args(&store);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (out, err, code) = mmt_with_stdin(
        &argrefs,
        "{\"id\":1,\"cmd\":\"open\",\"session\":\"a\"}\n{\"id\":2,\"cmd\":\"open\",\"session\":\"b\"}\n",
    );
    assert_eq!(code, Some(0), "{out}\n{err}");
    serve_result(&out, 1);
    serve_result(&out, 2);

    // Leave `a` as a `close` cut short would: its manifest unlinked,
    // the rest of its directory half removed.
    let a = store.join("sessions").join("a");
    std::fs::remove_file(a.join("manifest")).unwrap();
    std::fs::remove_file(a.join("wal")).unwrap();

    let (out, err, code) = mmt_with_stdin(
        &argrefs,
        "{\"id\":3,\"cmd\":\"status\",\"session\":\"b\"}\n{\"id\":4,\"cmd\":\"open\",\"session\":\"a\"}\n{\"id\":5,\"cmd\":\"edit\",\"session\":\"a\",\"edit\":\"cf1 set @0.name = \\\"motor\\\"\"}\n",
    );
    assert_eq!(code, Some(0), "{out}\n{err}");
    serve_result(&out, 3);
    serve_result(&out, 4);
    serve_result(&out, 5);

    // The reopened `a` is a whole store again: both sessions recover.
    let (out, err, code) = mmt_with_stdin(
        &argrefs,
        "{\"id\":6,\"cmd\":\"status\",\"session\":\"a\"}\n{\"id\":7,\"cmd\":\"status\",\"session\":\"b\"}\n",
    );
    assert_eq!(code, Some(0), "{out}\n{err}");
    assert!(serve_result(&out, 6).contains("\"journal\":1"), "{out}");
    assert!(serve_result(&out, 7).contains("\"journal\":0"), "{out}");

    let _ = std::fs::remove_dir_all(&store);
}

/// One session-name rule with and without a store: a name with a space
/// opens durably and recovers after a restart, and a name that would
/// escape its directory is refused either way.
#[test]
fn serve_store_rejects_unsafe_names() {
    let store = std::env::temp_dir().join(format!("mmt-cli-serve-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let durable = serve_store_args(&store);
    let mut plain = vec!["serve".to_string()];
    plain.extend(data_args());
    for args in [&durable, &plain] {
        let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
        let (stdout, stderr, code) = mmt_with_stdin(
            &argrefs,
            "{\"id\":1,\"cmd\":\"open\",\"session\":\"../x\"}\n{\"id\":2,\"cmd\":\"open\",\"session\":\"a b\"}\n{\"id\":3,\"cmd\":\"edit\",\"session\":\"a b\",\"edit\":\"cf1 set @0.name = \\\"motor\\\"\"}\n",
        );
        assert_eq!(code, Some(0), "{stdout}\n{stderr}");
        assert!(
            stdout.contains("{\"id\":1,\"ok\":false,\"error\":\"invalid session name"),
            "{stdout}"
        );
        serve_result(&stdout, 2);
        serve_result(&stdout, 3);
    }
    assert!(!store.join("x").exists());
    let argrefs: Vec<&str> = durable.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt_with_stdin(
        &argrefs,
        "{\"id\":4,\"cmd\":\"journal\",\"session\":\"a b\"}\n",
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(serve_result(&stdout, 4).contains("motor"), "{stdout}");
    let _ = std::fs::remove_dir_all(&store);
}

/// Closing a durable session retires it: the next life answers for it
/// as for a name never opened, its store directory is gone, only the
/// session still open keeps one, and that one recovers with its
/// journal.
#[test]
fn serve_store_close_retires_the_session() {
    let store = std::env::temp_dir().join(format!("mmt-cli-serve-close-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let args = serve_store_args(&store);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let edit = |id: u64, session: &str, to: &str| {
        format!(
            "{{\"id\":{id},\"cmd\":\"edit\",\"session\":\"{session}\",\"edit\":\"cf1 set @0.name = \\\"{to}\\\"\"}}\n"
        )
    };
    let first = [
        "{\"id\":1,\"cmd\":\"open\",\"session\":\"a\"}\n".to_string(),
        "{\"id\":2,\"cmd\":\"open\",\"session\":\"b\"}\n".to_string(),
        edit(3, "a", "motor"),
        edit(4, "b", "wheel"),
        "{\"id\":5,\"cmd\":\"journal\",\"session\":\"b\"}\n".to_string(),
        "{\"id\":6,\"cmd\":\"close\",\"session\":\"a\"}\n".to_string(),
    ]
    .concat();
    let (out, err, code) = mmt_with_stdin(&argrefs, &first);
    assert_eq!(code, Some(0), "{out}\n{err}");
    for id in 1..=4 {
        serve_result(&out, id);
    }
    let journal = serve_result(&out, 5);
    assert!(journal.contains("wheel"), "{journal}");
    assert_eq!(serve_result(&out, 6), "{\"closed\":\"a\"}");

    let (out, err, code) = mmt_with_stdin(
        &argrefs,
        "{\"id\":7,\"cmd\":\"status\",\"session\":\"a\"}\n{\"id\":8,\"cmd\":\"journal\",\"session\":\"b\"}\n",
    );
    assert_eq!(code, Some(0), "{out}\n{err}");
    assert!(
        out.contains("{\"id\":7,\"ok\":false,\"error\":\"no session open as `a`\"}"),
        "{out}"
    );
    assert_eq!(serve_result(&out, 8), journal);
    let left: Vec<_> = std::fs::read_dir(store.join("sessions"))
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["b"]);
    assert!(!store.join("hub").exists());
    let _ = std::fs::remove_dir_all(&store);
}

/// A model error names the line and column of the token at fault, not
/// the end of the file.
#[test]
fn check_model_error_points_at_the_offending_token() {
    let bad = write_fixture(
        "bad-class",
        "model",
        "model cf1 : CF {\n  o1 = Klass { }\n  o2 = Feature { name = \"a\" }\n  \
         o3 = Feature { name = \"b\" }\n}\n",
    );
    let mut args = vec!["check".to_string()];
    args.extend(data_args());
    let cf1 = args.iter().position(|a| a.ends_with("cf1.model")).unwrap();
    args[cf1] = bad.to_string_lossy().into_owned();
    let (_, stderr, code) = run(args, &[]);
    let _ = std::fs::remove_file(&bad);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("2:8: unknown class `Klass`"), "{stderr}");
}

/// A model header whose `bound` is past the id-space ceiling is a
/// positioned parse error, not a 160 GB allocation that aborts.
#[test]
fn check_refuses_an_id_bound_past_the_ceiling() {
    let fm = std::fs::read_to_string(repo_file("examples/data/fm.model")).unwrap();
    let huge = write_fixture(
        "huge-bound",
        "model",
        &fm.replacen("model fm : FM {", "model fm : FM bound 4294967295 {", 1),
    );
    let mut args = vec!["check".to_string()];
    args.extend(data_args());
    let at = args.iter().position(|a| a.ends_with("fm.model")).unwrap();
    args[at] = huge.to_string_lossy().into_owned();
    let (_, stderr, code) = run(args, &[]);
    let _ = std::fs::remove_file(&huge);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("1:21: id bound 4294967295 is past the id space's 4194304 ids"),
        "{stderr}"
    );
}

// --- ISSUE 8: `mmt lint` and the serve `lint` verb ---

/// Writes a throwaway spec/metamodel fixture and returns its path.
fn write_fixture(name: &str, ext: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mmt-cli-{name}-{}.{ext}", std::process::id()));
    std::fs::write(&path, body).unwrap();
    path
}

/// Linting the shipped car/feature spec needs no models, reports the
/// repair-conflict and coupling findings, and exits 0 (warnings only).
#[test]
fn lint_shipped_spec_warns_and_exits_zero() {
    let args = [
        "lint",
        "-t",
        &repo_file("examples/data/F.qvtr"),
        "-M",
        &repo_file("examples/data/CF.mm"),
        &repo_file("examples/data/FM.mm"),
    ];
    let (stdout, stderr, code) = mmt(&args
        .map(|s| s.to_string())
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>());
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("MMT010"), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

/// `--json` emits the machine-readable report; `--allow` suppresses the
/// listed codes down to a clean report.
#[test]
fn lint_json_and_allow() {
    let spec = repo_file("examples/data/F.qvtr");
    let cf = repo_file("examples/data/CF.mm");
    let fm = repo_file("examples/data/FM.mm");
    let (stdout, _, code) = mmt(&["lint", "-t", &spec, "-M", &cf, &fm, "--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.starts_with("{\"errors\":0,"), "{stdout}");
    assert!(stdout.contains("\"code\":\"MMT010\""), "{stdout}");
    assert!(stdout.contains("\"severity\":\"warning\""), "{stdout}");

    let (stdout, _, code) = mmt(&[
        "lint",
        "-t",
        &spec,
        "-M",
        &cf,
        &fm,
        "--json",
        "--allow",
        "MMT010,MMT011",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("{\"errors\":0,\"warnings\":0,\"infos\":0"),
        "{stdout}"
    );
}

/// A statically broken spec (unsatisfiable `when`) exits 1 and names
/// the offending relation.
#[test]
fn lint_broken_spec_exits_one() {
    let mmf = write_fixture("lint-mm", "mm", "metamodel M { class A { attr x: Str; } }");
    let spec = write_fixture(
        "lint-bad",
        "qvtr",
        r#"transformation T(l : M, r : M) {
          top relation R {
            n : Str;
            domain l a : A { x = "p" };
            domain r b : A { x = n };
            when { a.x = "q" }
            depend l -> r;
          }
        }"#,
    );
    let (stdout, stderr, code) = mmt(&[
        "lint",
        "-t",
        &spec.to_string_lossy(),
        "-M",
        &mmf.to_string_lossy(),
    ]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("error[MMT003]"), "{stdout}");
    assert!(stdout.contains("relation `R`"), "{stdout}");
    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&mmf).ok();
}

/// Unknown `--allow` codes are usage errors (exit 2), and `mmt help
/// lint` documents the flag.
#[test]
fn lint_rejects_unknown_allow_code_and_has_help() {
    let spec = repo_file("examples/data/F.qvtr");
    let cf = repo_file("examples/data/CF.mm");
    let fm = repo_file("examples/data/FM.mm");
    let (_, stderr, code) = mmt(&["lint", "-t", &spec, "-M", &cf, &fm, "--allow", "MMT999"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown lint code `MMT999`"), "{stderr}");

    let (stdout, _, code) = mmt(&["help", "lint"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("--allow"), "{stdout}");
    assert!(stdout.contains("Exits 0"), "{stdout}");
}

/// The serve protocol answers a session-less `lint` request with the
/// registration-time report, and announces warnings on stderr without
/// polluting the JSON stream on stdout.
#[test]
fn serve_answers_lint_requests() {
    let requests = "{\"id\":1,\"cmd\":\"lint\"}\n{\"id\":2,\"cmd\":\"open\",\"session\":\"s\"}\n{\"id\":3,\"cmd\":\"close\",\"session\":\"s\"}\n";
    let mut args = vec!["serve".to_string()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    let report = serve_result(&stdout, 1);
    assert!(report.starts_with("{\"errors\":0,"), "{report}");
    assert!(report.contains("\"code\":\"MMT010\""), "{report}");
    assert!(
        stderr.contains("warning(s) in the registered spec"),
        "{stderr}"
    );
    // Every stdout line is still a protocol response.
    for line in stdout.lines() {
        assert!(line.starts_with("{\"id\":"), "non-protocol stdout: {line}");
    }
}

/// Command output goes through one checked writer. A reader that closes
/// the pipe early (`mmt sync … | head -1`) ends the run quietly with
/// status 0 instead of a panic.
#[test]
fn closed_stdout_pipe_ends_quietly() {
    // About 180 KB of status lines: more than a pipe buffer holds, so a
    // write fails once the read end is gone.
    let script = write_script("closed-pipe", &"status\n".repeat(5_000));
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(data_args());
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmt"))
        .args(&args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    std::fs::remove_file(&script).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Any other stdout write error is reported: a full device exits 2 with
/// `error: stdout: …`.
#[cfg(target_os = "linux")]
#[test]
fn full_stdout_exits_two_with_an_error() {
    let mut args = vec!["check".to_string()];
    args.extend(data_args());
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let out = Command::new(env!("CARGO_BIN_EXE_mmt"))
        .args(&args)
        .stdout(full)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: stdout:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

// --- Model text keeps ids, and one literal grammar reads every value ---

/// `sync` over `data_args()` with `extra` arguments, `script` as its
/// script; returns stdout, stderr and the exit code.
fn sync_data(tag: &str, script: &str, extra: &[&str]) -> (String, String, Option<i32>) {
    let script = write_script(tag, script);
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(data_args());
    args.extend(extra.iter().map(|a| a.to_string()));
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = mmt(&argrefs);
    std::fs::remove_file(&script).ok();
    out
}

/// The `--out` files of a session that deleted `@0` reload to the ids
/// their labels show: editing `@1` after the reload changes the object
/// the file labels `@1`, and the id bound survives with the ids.
#[test]
fn out_files_reload_to_the_ids_their_labels_show() {
    let base = std::env::temp_dir().join(format!("mmt-cli-ids-{}", std::process::id()));
    let (first, second) = (base.join("first"), base.join("second"));
    let (stdout, stderr, code) = sync_data(
        "ids-first",
        "edit fm add Feature\nedit fm set @2.name = \"third\"\nedit fm del @0\n",
        &["--out", first.to_str().unwrap()],
    );
    assert_eq!(code, Some(1), "{stdout}\n{stderr}");
    let written = std::fs::read_to_string(first.join("fm.model")).unwrap();
    assert!(
        written.contains("\n  @1 = Feature { name = \"brakes\""),
        "{written}"
    );
    assert!(
        written.contains("\n  @2 = Feature { name = \"third\""),
        "{written}"
    );

    let script = write_script(
        "ids-second",
        "edit fm set @1.name = \"renamed\"\nedit fm add Feature\n",
    );
    let mut args = vec!["sync".to_string(), script.to_string_lossy().into_owned()];
    args.extend(data_args().into_iter().take(6));
    for param in ["cf1", "cf2", "fm"] {
        args.push(
            first
                .join(format!("{param}.model"))
                .to_string_lossy()
                .into_owned(),
        );
    }
    args.push("--out".into());
    args.push(second.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt(&argrefs);
    assert_eq!(code, Some(1), "{stdout}\n{stderr}");
    let reloaded = std::fs::read_to_string(second.join("fm.model")).unwrap();
    assert!(
        reloaded.contains("\n  @1 = Feature { name = \"renamed\""),
        "{reloaded}"
    );
    assert!(
        reloaded.contains("\n  @2 = Feature { name = \"third\""),
        "{reloaded}"
    );
    // The fresh object takes the next id after the reloaded ones.
    assert!(
        reloaded.contains("\n  @3 = Feature { name = \"\""),
        "{reloaded}"
    );
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_file(&script).ok();
}

/// A `set` value is read as a model file reads it: `\t` is a tab in
/// `mmt sync` and `mmt serve` alike, and the journal and the written
/// model print it back as `\t`.
#[test]
fn edit_values_take_the_model_file_escapes() {
    let base = std::env::temp_dir().join(format!("mmt-cli-escapes-{}", std::process::id()));
    let (stdout, stderr, code) = sync_data(
        "escapes",
        "edit fm set @1.name = \"tab\\there\"\njournal\n",
        &["--json", "--out", base.join("sync").to_str().unwrap()],
    );
    assert_eq!(code, Some(1), "{stdout}\n{stderr}");
    let journal = stdout
        .lines()
        .find(|l| l.starts_with("{\"entries\""))
        .unwrap();
    assert!(
        journal.contains(r#"@1.attr#0 = \"tab\\there\" (was \"brakes\")"#),
        "{journal}"
    );
    let written = std::fs::read_to_string(base.join("sync").join("fm.model")).unwrap();
    assert!(written.contains(r#"name = "tab\there""#), "{written}");
    let meta = std::fs::read_to_string(repo_file("examples/data/FM.mm")).unwrap();
    let meta = mmt_model::text::parse_metamodel(&meta).unwrap();
    let fm = mmt_model::text::parse_model(&written, &meta).unwrap();
    assert_eq!(
        fm.attr_named(mmt_model::ObjId(1), "name").unwrap(),
        mmt_model::Value::str("tab\there")
    );

    let requests = r#"{"id":1,"cmd":"open","session":"s"}
{"id":2,"cmd":"edit","session":"s","edit":"fm set @1.name = \"tab\\there\""}
{"id":3,"cmd":"journal","session":"s"}
{"id":4,"cmd":"close","session":"s"}
"#;
    let mut args = vec!["serve".to_string()];
    args.extend(data_args());
    args.push("--out".into());
    args.push(base.join("serve").to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert_eq!(serve_result(&stdout, 3), journal);
    let served = std::fs::read_to_string(base.join("serve").join("s").join("fm.model")).unwrap();
    assert_eq!(served, written);
    std::fs::remove_dir_all(&base).ok();
}

/// Every string of `TRICKY_CHARS`, each character alone and all of them
/// in one string, set through script lines that `render_step` writes,
/// reads back equal through `mmt sync` and through recovery from its
/// store's write-ahead log.
#[test]
fn rendered_tricky_strings_read_back_through_sync_and_its_store() {
    use mmt_gen::{render_step, tricky_string, SessionStep, TRICKY_CHARS};
    let read = |p: &str| std::fs::read_to_string(repo_file(p)).unwrap();
    let t = mmt_core::Transformation::from_sources(
        &read("examples/data/F.qvtr"),
        &[&read("examples/data/CF.mm"), &read("examples/data/FM.mm")],
    )
    .unwrap();
    let fm = &t.metamodels()[2];
    let feature = fm.class_named("Feature").unwrap();
    let name = fm.attr_of(feature, mmt_model::Sym::new("name")).unwrap();
    let mut strings: Vec<String> = (0..TRICKY_CHARS.len())
        .map(|i| tricky_string(&[i]))
        .collect();
    let all: Vec<usize> = (0..TRICKY_CHARS.len()).collect();
    strings.push(tricky_string(&all));
    strings.push(tricky_string(
        &all.iter().rev().copied().collect::<Vec<_>>(),
    ));
    // Objects @2 onwards are fresh; each gets one of the strings.
    let mut script = String::new();
    for (i, s) in strings.iter().enumerate() {
        let id = mmt_model::ObjId(2 + i as u32);
        for op in [
            mmt_dist::EditOp::AddObj { id, class: feature },
            mmt_dist::EditOp::SetAttr {
                id,
                attr: name,
                value: mmt_model::Value::str(s),
                old: mmt_model::Value::str(""),
            },
        ] {
            let step = SessionStep::Edit {
                model: mmt_deps::DomIdx(2),
                op,
            };
            script.push_str(&render_step(t.hir(), &step));
            script.push('\n');
        }
    }
    let base = std::env::temp_dir().join(format!("mmt-cli-tricky-{}", std::process::id()));
    let store = base.join("store");
    let check = |out: &std::path::Path, how: &str| {
        let text = std::fs::read_to_string(out.join("fm.model")).unwrap();
        let model = mmt_model::text::parse_model(&text, fm).unwrap();
        for (i, s) in strings.iter().enumerate() {
            let id = mmt_model::ObjId(2 + i as u32);
            assert_eq!(
                model.attr(id, name).unwrap(),
                mmt_model::Value::str(s),
                "{how}: {s:?}"
            );
        }
        text
    };
    let (stdout, stderr, code) = sync_data(
        "tricky",
        &script,
        &[
            "--store",
            store.to_str().unwrap(),
            "--out",
            base.join("live").to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(1), "{stdout}\n{stderr}");
    let live = check(&base.join("live"), "sync");
    // A second run resumes from the store: seed plus replayed WAL.
    let (stdout, stderr, code) = sync_data(
        "tricky-resume",
        "status\n",
        &[
            "--store",
            store.to_str().unwrap(),
            "--out",
            base.join("recovered").to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(1), "{stdout}\n{stderr}");
    assert_eq!(check(&base.join("recovered"), "recovery"), live);
    std::fs::remove_dir_all(&base).ok();
}

/// An `add` may name the next id or a free id below it, not one past
/// the bound, whose padding would grow the id space to it: `mmt sync`
/// stops with an error, `mmt serve` answers `ok:false` and serves on.
#[test]
fn add_ids_past_the_bound_are_refused_in_sync_and_serve() {
    let (stdout, stderr, code) = sync_data(
        "add-bound",
        "edit fm add Feature @2\nedit fm del @0\nedit fm add Feature @0\nedit fm add Feature @10000000\n",
        &[],
    );
    assert_eq!(code, Some(2), "{stdout}\n{stderr}");
    assert!(stderr.contains(":4: cannot add @10000000"), "{stderr}");

    let requests = r#"{"id":1,"cmd":"open","session":"s"}
{"id":2,"cmd":"edit","session":"s","edit":"fm add Feature @3"}
{"id":3,"cmd":"edit","session":"s","edit":"fm add Feature @4294967295"}
{"id":4,"cmd":"edit","session":"s","edit":"fm add Feature @2"}
{"id":5,"cmd":"status","session":"s"}
"#;
    let mut args = vec!["serve".to_string()];
    args.extend(data_args());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    for id in [2, 3] {
        assert!(
            stdout.contains(&format!(
                "{{\"id\":{id},\"ok\":false,\"error\":\"cannot add @"
            )),
            "id {id}: {stdout}"
        );
    }
    assert!(
        serve_result(&stdout, 5).contains("\"journal\":1"),
        "{stdout}"
    );
}

/// A spec nested past the parser's limit is a syntax error, exit 2,
/// not a stack overflow: 10⁵ nested templates, parentheses and `not`s.
#[test]
fn lint_refuses_specs_nested_past_the_limit() {
    let n = 100_000;
    let open: String = (0..n).map(|i| format!("x{i} : K {{ r = ")).collect();
    let shapes = [
        (
            "templates",
            format!("{open}z : K {{ }}{}", " }".repeat(n)),
            "true".to_string(),
        ),
        (
            "parens",
            "x : K { }".to_string(),
            format!("{}x.n = 1{}", "(".repeat(n), ")".repeat(n)),
        ),
        (
            "nots",
            "x : K { }".to_string(),
            format!("{}x.n = 1", "not ".repeat(n)),
        ),
    ];
    let mm = write_fixture(
        "deep",
        "mm",
        "metamodel M { class K { attr n: Int; ref r: K; } }\n",
    );
    for (shape, template, when) in shapes {
        let spec = write_fixture(
            &format!("deep-{shape}"),
            "qvtr",
            &format!(
                "transformation T(a : M, b : M) {{\n  top relation R {{\n    domain a {template};\n    \
                 domain b y : K {{ }};\n    when {{ {when} }}\n  }}\n}}\n"
            ),
        );
        let (stdout, stderr, code) = mmt(&[
            "lint",
            "-t",
            spec.to_str().unwrap(),
            "-M",
            mm.to_str().unwrap(),
            mm.to_str().unwrap(),
        ]);
        assert_eq!(code, Some(2), "{shape}: {stdout}\n{stderr}");
        assert!(stderr.contains("nesting deeper than"), "{shape}: {stderr}");
        std::fs::remove_file(&spec).ok();
    }
    std::fs::remove_file(&mm).ok();
}
