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
/// to the same command sequence run through `mmt sync`.
#[test]
fn serve_session_is_byte_identical_to_sync() {
    let base = std::env::temp_dir().join(format!("mmt-cli-serve-diff-{}", std::process::id()));
    let sync_out = base.join("sync");
    let serve_out = base.join("serve");

    // The shared command sequence: drift, repair, drift again, rollback.
    let script = write_script(
        "serve-diff",
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
    sync_args.push("--out".into());
    sync_args.push(sync_out.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = sync_args.iter().map(String::as_str).collect();
    let (sync_stdout, sync_stderr, sync_code) = mmt(&argrefs);
    assert_eq!(sync_code, Some(0), "sync: {sync_stdout}\n{sync_stderr}");
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
    serve_args.push("--out".into());
    serve_args.push(serve_out.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = serve_args.iter().map(String::as_str).collect();
    let (serve_stdout, serve_stderr, serve_code) = mmt_with_stdin(&argrefs, requests);
    assert_eq!(serve_code, Some(0), "serve: {serve_stdout}\n{serve_stderr}");

    // Status JSON byte-identity at every checkpoint, and the journal.
    for (sync_line, id) in sync_json.iter().zip([2u64, 4, 6, 8, 9]) {
        assert_eq!(
            serve_result(&serve_stdout, id),
            **sync_line,
            "serve response {id} diverged from the sync --json line"
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
/// resume) and sees the identical status JSON.
#[test]
fn sync_store_resumes_across_invocations() {
    let store = std::env::temp_dir().join(format!("mmt-cli-sync-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

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

/// The hub manifest is the one visibility point of `serve --store`: a
/// session directory it does not name, left by an `open` or a `close`
/// that was cut short, neither stops a restart nor blocks a later
/// `open` of that name.
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

    // Leave `a` as a `close` cut short would: gone from the manifest,
    // its directory half removed.
    let hub = store.join("hub");
    let manifest = std::fs::read_to_string(&hub).unwrap();
    let kept: String = manifest
        .lines()
        .filter(|l| !l.starts_with("session a "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(kept, manifest);
    std::fs::write(&hub, kept).unwrap();
    std::fs::remove_file(store.join("sessions").join("a").join("wal")).unwrap();

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

/// Durable session names must be filesystem- and manifest-safe:
/// whitespace is rejected up front (only when a store is attached).
#[test]
fn serve_store_rejects_unsafe_names() {
    let store = std::env::temp_dir().join(format!("mmt-cli-serve-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut args = vec!["serve".to_string()];
    args.extend(data_args());
    args.push("--store".into());
    args.push(store.to_string_lossy().into_owned());
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, code) = mmt_with_stdin(
        &argrefs,
        "{\"id\":1,\"cmd\":\"open\",\"session\":\"a b\"}\n{\"id\":2,\"cmd\":\"open\",\"session\":\"ok\"}\n",
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(
        stdout.contains("{\"id\":1,\"ok\":false,\"error\":\"invalid session name"),
        "{stdout}"
    );
    assert!(stdout.contains("{\"id\":2,\"ok\":true"), "{stdout}");
    let _ = std::fs::remove_dir_all(&store);
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
