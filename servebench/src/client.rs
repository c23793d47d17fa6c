//! The closed-loop client: one process, one outstanding request, against
//! a fresh `mmt serve` per round.
//!
//! While timing, the client only writes pre-rendered lines and keeps the
//! answers; it checks them after the round, so checking does not compete
//! with the server for the CPUs.
//!
//! Every [`ECHO_EVERY`] requests it also times [`ECHO_SAMPLES`] round
//! trips through an echo child, the benchmark binary run with `--echo`.
//! That round trip is the host's speed at the moment: pipe, wake-up and
//! context switch, with no program code in it. Dividing a round's
//! latencies by it cancels most of the host's slow periods, which move
//! the program's answers and the round trip together.

use crate::answer::{self, Expect, StatusView};
use crate::workload::Workload;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Requests between two echo probes.
const ECHO_EVERY: usize = 64;
/// Round trips per echo probe.
const ECHO_SAMPLES: usize = 9;
/// A line as long as a typical request.
const ECHO_LINE: &str =
    "{\"id\":1000,\"cmd\":\"status\",\"session\":\"s\",\"pad\":\"0123456789\"}\n";

/// One round's measurements.
pub struct Round {
    /// Spawn until the answer to `open` is read.
    pub setup_s: f64,
    /// Latency of request `i` of the stream, for each answered request.
    pub latency_s: Vec<f64>,
    /// Echo round trips timed during the stream.
    pub echo_s: Vec<f64>,
    /// Wall time of the stream, echo probes excluded.
    pub timed_s: f64,
    /// The server's `VmHWM` after the last answer.
    pub peak_rss_kb: u64,
    /// Respawn after SIGKILL until the recovered `status` answer.
    pub recover_s: Option<f64>,
    pub sent: usize,
    pub failed: usize,
    pub answer_bytes: u64,
    pub errors: Vec<String>,
}

/// A child process that answers each stdin line with one stdout line:
/// `mmt serve`, or the echo peer.
pub struct Server {
    program: String,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    pub fn spawn(program: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            program: program.display().to_string(),
            child,
            stdin,
            stdout,
        })
    }

    /// Writes one request line and reads its answer line.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        stdin
            .write_all(line.as_bytes())
            .map_err(|e| format!("write request: {e}"))?;
        let mut answer = String::new();
        match self.stdout.read_line(&mut answer) {
            Ok(0) => Err("server closed its output".into()),
            Ok(_) => {
                answer.pop();
                Ok(answer)
            }
            Err(e) => Err(format!("read answer: {e}")),
        }
    }

    fn peak_rss_kb(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// Times `n` echo round trips into `out`.
    fn probe(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), String> {
        for _ in 0..n {
            let t = Instant::now();
            self.ask(ECHO_LINE)?;
            out.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Closes stdin and waits for a clean exit.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("{} exited with {status}", self.program))
        }
    }

    /// SIGKILL, then reap.
    fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("kill: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached with the child still running on an error path.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn verb_line(id: u64, cmd: &str) -> String {
    format!("{{\"id\":{id},\"cmd\":\"{cmd}\",\"session\":\"s\"}}\n")
}

/// Runs one round: spawn, `open`, the stream with echo probes, then
/// (durable workloads) SIGKILL and recovery on the same store.
pub fn round(
    w: &Workload,
    mmt: &Path,
    echo: &mut Server,
    store: Option<&Path>,
) -> Result<Round, String> {
    let mut args = w.serve_args();
    if let Some(dir) = store {
        args.push("--store".into());
        args.push(dir.to_string_lossy().into_owned());
    }
    let t0 = Instant::now();
    let mut srv = Server::spawn(mmt, &args)?;
    let open = srv.ask(&verb_line(0, "open"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut latency_s = Vec::with_capacity(w.reqs.len());
    let mut answers = Vec::with_capacity(w.reqs.len());
    let mut echo_s = Vec::new();
    let start = Instant::now();
    for (i, r) in w.reqs.iter().enumerate() {
        if i % ECHO_EVERY == 0 {
            echo.probe(ECHO_SAMPLES, &mut echo_s)?;
        }
        let t = Instant::now();
        match srv.ask(&r.line) {
            Ok(a) => {
                latency_s.push(t.elapsed().as_secs_f64());
                answers.push(a);
            }
            Err(_) => break,
        }
    }
    let timed_s = start.elapsed().as_secs_f64() - echo_s.iter().sum::<f64>();
    let peak_rss_kb = srv.peak_rss_kb();

    let mut errors = Vec::new();
    let answer_bytes = answers.iter().map(|a| a.len() as u64 + 1).sum();
    let open_expect = Expect::Status(w.open.clone());
    let mut expects: Vec<&Expect> = vec![&open_expect];
    expects.extend(w.reqs.iter().map(|r| &r.expect));
    answers.insert(0, open);
    let mut failed = answer::count_failures(&answers, &expects, 0, |e| errors.push(e));
    let mut sent = expects.len();
    let mut recover_s = None;
    if w.durable {
        // Recovery must reproduce the last answers before the kill.
        let n = w.reqs.len() as u64;
        let last_status = srv.ask(&verb_line(n + 1, "status"))?;
        let last_journal = srv.ask(&verb_line(n + 2, "journal"))?;
        sent += 4;
        let final_expect = Expect::Status(w.final_status.clone());
        if let Err(e) = answer::check(&last_status, n + 1, &final_expect) {
            failed += 1;
            errors.push(e);
        }
        srv.kill()?;
        let t1 = Instant::now();
        let mut back = Server::spawn(mmt, &args)?;
        let status = back.ask(&verb_line(1, "status"))?;
        recover_s = Some(t1.elapsed().as_secs_f64());
        let journal = back.ask(&verb_line(2, "journal"))?;
        let view =
            |line: &str, id| answer::result_of(line, id).and_then(|r| StatusView::of_result(&r));
        if !matches!((view(&status, 1), view(&last_status, n + 1)), (Ok(a), Ok(b)) if a == b) {
            failed += 1;
            errors.push(format!("recovered status differs: {status}"));
        }
        let same_journal = matches!(
            (answer::result_of(&journal, 2), answer::result_of(&last_journal, n + 2)),
            (Ok(a), Ok(b)) if a == b
        );
        if !same_journal {
            failed += 1;
            errors.push(format!("recovered journal differs: {journal}"));
        }
        back.finish()?;
    } else {
        srv.finish()?;
    }
    Ok(Round {
        setup_s,
        latency_s,
        echo_s,
        timed_s,
        peak_rss_kb,
        recover_s,
        sent,
        failed,
        answer_bytes,
        errors,
    })
}
