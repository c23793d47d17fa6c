//! Fuzz-style negative testing of the `mmt serve` request reader
//! (ISSUE 6): seeded destructive mutations of valid request lines —
//! truncations, flipped bytes, prepended garbage, pathological
//! nesting, invalid UTF-8 — must each be answered with `ok:false`
//! without killing the loop or poisoning the *next* request: a valid
//! `status` sent right after every mutant must return the exact same
//! payload as an undisturbed session.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn repo_file(rel: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(rel);
    p.to_string_lossy().into_owned()
}

/// The scenario corpus as served fixture tuples: `(spec, metamodels,
/// models)`, all under `examples/data`. The fuzz driver picks one per
/// seeded round so every scenario's session state goes through the
/// mutation gauntlet, not just the feature-model one.
const SCENARIOS: &[(&str, &[&str], &[&str])] = &[
    (
        "F.qvtr",
        &["CF.mm", "FM.mm"],
        &["cf1.model", "cf2.model", "fm.model"],
    ),
    (
        "W2C.qvtr",
        &["World.mm", "Company.mm"],
        &["world.model", "company.model"],
    ),
    (
        "C2T.qvtr",
        &["UML.mm", "RDB.mm"],
        &["uml.model", "rdb.model"],
    ),
];

fn serve_args(scenario: usize) -> Vec<String> {
    let (spec, mms, models) = SCENARIOS[scenario];
    let mut args = vec![
        "serve".to_string(),
        "-t".into(),
        repo_file(&format!("examples/data/{spec}")),
        "-M".into(),
    ];
    args.extend(mms.iter().map(|m| repo_file(&format!("examples/data/{m}"))));
    args.push("-m".into());
    args.extend(
        models
            .iter()
            .map(|m| repo_file(&format!("examples/data/{m}"))),
    );
    args
}

/// Runs `mmt serve` over raw stdin bytes (the mutants are not all
/// UTF-8) and returns stdout.
fn serve_bytes_on(scenario: usize, input: &[u8]) -> String {
    let args = serve_args(scenario);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmt"))
        .args(&argrefs)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input)
        .unwrap();
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("binary exits");
    assert!(
        out.status.success(),
        "serve loop died: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Extracts the `result` payload of the response carrying `id`.
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

/// splitmix64 — a tiny deterministic PRNG, so the mutation schedule
/// is reproducible from the printed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One destructive mutation of `line`. Every branch is guaranteed to
/// produce an *invalid* request: proper prefixes of a one-line JSON
/// object never close it, a high bit on an ASCII byte is never valid
/// UTF-8, and the rest break the grammar outright.
fn mutate(line: &str, rng: &mut Rng) -> Vec<u8> {
    let bytes = line.as_bytes();
    match rng.below(6) {
        // Truncation at every possible severity, torn-write style.
        0 => bytes[..1 + rng.below(bytes.len() - 1)].to_vec(),
        // A high bit flipped somewhere: a lone 0x80..0xFF byte inside
        // ASCII is invalid UTF-8.
        1 => {
            let mut m = bytes.to_vec();
            let i = rng.below(m.len());
            m[i] |= 0x80;
            m
        }
        // The opening brace replaced: not a JSON value at all.
        2 => {
            let mut m = bytes.to_vec();
            m[0] = b'?';
            m
        }
        // Garbage prepended before an otherwise valid object.
        3 => {
            let mut m = b"garbage ".to_vec();
            m.extend_from_slice(bytes);
            m
        }
        // Pathological nesting: thousands of unclosed brackets. This
        // must hit the reader's depth cap, not the process stack.
        4 => {
            let mut m = b"{\"id\":0,\"cmd\":".to_vec();
            m.extend(std::iter::repeat_n(b'[', 4000 + rng.below(4000)));
            m
        }
        // Valid JSON, wrong shapes: the dispatcher's problem.
        _ => {
            const SHAPES: &[&str] = &[
                "{\"id\":[],\"cmd\":42}",
                "[1,2,3]",
                "\"status\"",
                "{\"cmd\":\"edit\",\"session\":\"s\",\"edit\":7}",
                "{\"id\":0,\"cmd\":\"nonsense\",\"session\":\"s\"}",
                "null",
            ];
            SHAPES[rng.below(SHAPES.len())].as_bytes().to_vec()
        }
    }
}

#[test]
fn mutated_requests_never_poison_the_next_one() {
    const SEED: u64 = 0x6d6d_7466_2d36; // printed in failures via step index
    const ROUNDS: usize = 16; // per scenario

    for (scenario, &(name, _, _)) in SCENARIOS.iter().enumerate() {
        // Baseline: what `status` answers in an undisturbed session of
        // this scenario.
        let baseline = serve_bytes_on(
            scenario,
            b"{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n{\"id\":2,\"cmd\":\"status\",\"session\":\"s\"}\n",
        );
        let want = serve_result(&baseline, 2);

        // One long-lived serve process per scenario: open once, then
        // alternate mutants with probe requests. The schedule is seeded
        // per scenario so the corpus does not share one mutation path.
        let status_line = "{\"id\":9,\"cmd\":\"status\",\"session\":\"s\"}";
        let mut rng = Rng(SEED.wrapping_add(scenario as u64));
        let mut input: Vec<u8> = b"{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n".to_vec();
        let mut probes = Vec::new();
        for round in 0..ROUNDS {
            input.extend(mutate(status_line, &mut rng));
            input.push(b'\n');
            let probe_id = 100 + round as u64;
            input.extend(
                format!("{{\"id\":{probe_id},\"cmd\":\"status\",\"session\":\"s\"}}\n").as_bytes(),
            );
            probes.push(probe_id);
        }
        let stdout = serve_bytes_on(scenario, &input);

        // Every mutant was answered with ok:false — none were dropped,
        // none crashed the loop, and none were mistaken for a command.
        let rejected = stdout
            .lines()
            .filter(|l| l.contains("\"ok\":false"))
            .count();
        assert_eq!(
            rejected, ROUNDS,
            "{name}: expected {ROUNDS} rejections, got {rejected}:\n{stdout}"
        );
        // And every probe right after a mutant sees the untouched session.
        for (round, id) in probes.iter().enumerate() {
            assert_eq!(
                serve_result(&stdout, *id),
                want,
                "{name}: probe after mutant #{round} saw a poisoned session"
            );
        }
    }
}

/// The depth cap itself: a single line with tens of thousands of
/// brackets must come back as a plain `ok:false`, not a stack
/// overflow (which would kill the child and fail `serve_bytes_on`).
/// Served over the Company scenario — the cap is tuple-independent.
#[test]
fn pathological_nesting_is_rejected_flat() {
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"{\"id\":0,\"cmd\":");
    input.extend(std::iter::repeat_n(b'[', 100_000));
    input.push(b'\n');
    input.extend_from_slice(b"{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n");
    let stdout = serve_bytes_on(1, &input);
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("\"ok\":false") && l.contains("nesting")),
        "no depth-cap rejection in:\n{stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("{\"id\":1,\"ok\":true")),
        "loop did not survive the nesting bomb:\n{stdout}"
    );
}

/// Raw invalid UTF-8 on stdin is answered (id `null`) and the loop
/// keeps serving. Served over the class↔RDBMS scenario.
#[test]
fn invalid_utf8_lines_are_answered_not_fatal() {
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"\xff\xfe\x80 not text\n");
    input.extend_from_slice(b"{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n");
    input.extend_from_slice(b"{\"id\":2,\"cmd\":\"status\",\"session\":\"s\"}\n");
    let stdout = serve_bytes_on(2, &input);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("{\"id\":null,\"ok\":false") && l.contains("UTF-8")),
        "no UTF-8 rejection in:\n{stdout}"
    );
    let baseline = serve_bytes_on(
        2,
        b"{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n{\"id\":2,\"cmd\":\"status\",\"session\":\"s\"}\n",
    );
    assert_eq!(serve_result(&stdout, 2), serve_result(&baseline, 2));
}

/// A request line of several MiB, past the server's 1 MiB cap, is
/// answered `ok:false` with id `null` and dropped without being held,
/// and the `status` right after it gets the answer an undisturbed
/// session gives. Served over the feature-model scenario.
#[test]
fn oversized_lines_are_answered_and_skipped() {
    let open = b"{\"id\":1,\"cmd\":\"open\",\"session\":\"s\"}\n";
    let status = b"{\"id\":2,\"cmd\":\"status\",\"session\":\"s\"}\n";
    let mut input = open.to_vec();
    // A well-formed edit, were it not for its length.
    input.extend_from_slice(
        b"{\"id\":9,\"cmd\":\"edit\",\"session\":\"s\",\"edit\":\"cf1 set @0.name = ",
    );
    input.extend(std::iter::repeat_n(b'x', 3 << 20));
    input.extend_from_slice(b"\"}\n");
    input.extend_from_slice(status);
    let stdout = serve_bytes_on(0, &input);
    let rejected: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"id\":null,\"ok\":false") && l.contains("line longer than"))
        .collect();
    assert_eq!(
        rejected.len(),
        1,
        "one oversized-line rejection in:\n{stdout}"
    );
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
    let baseline = serve_bytes_on(0, &[&open[..], &status[..]].concat());
    assert_eq!(serve_result(&stdout, 2), serve_result(&baseline, 2));
}
