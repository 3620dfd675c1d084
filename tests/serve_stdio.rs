//! The daemon end to end over stdio: `citroen-serve` spawned with piped
//! stdin and stdout, one long job cancelled while it runs, one short job
//! whose result must match a standalone run, then a `shutdown` that drains
//! to exactly one `bye` and a clean exit.

use citroen_core::{run_citroen, trace_digest};
use citroen_rt::json::Value;
use citroen_serve::protocol::{parse_request, Request};
use citroen_serve::{job_citroen_config, job_task};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long the whole exchange may take before the daemon counts as hung.
const DEADLINE: Duration = Duration::from_secs(180);

const VICTIM: &str =
    r#"{"type":"submit","job":{"id":"victim","bench":"telecom_gsm","budget":200,"seed":7}}"#;
const A: &str = r#"{"type":"submit","job":{"id":"a","bench":"telecom_gsm","budget":8,"seed":5}}"#;

/// Kills the daemon subprocess even when an assertion panics mid-test.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn send(stdin: &mut ChildStdin, line: &str) {
    stdin.write_all(line.as_bytes()).expect("daemon stdin");
    stdin.write_all(b"\n").expect("daemon stdin");
    stdin.flush().expect("daemon stdin");
}

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("no u64 '{key}' in {v:?}"))
}

#[test]
fn stdio_daemon_cancels_a_running_job_and_drains_to_one_bye() {
    let mut daemon = DaemonGuard(
        Command::new(env!("CARGO_BIN_EXE_citroen-serve"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn citroen-serve"),
    );
    let mut stdin = daemon.0.stdin.take().expect("piped stdin");
    let stdout = daemon.0.stdout.take().expect("piped stdout");

    // Replies arrive on a reader thread, so a hung daemon fails the test at
    // the deadline instead of blocking it forever.
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    send(&mut stdin, VICTIM);
    send(&mut stdin, A);

    let deadline = Instant::now() + DEADLINE;
    let mut replies: Vec<Value> = Vec::new();
    let (mut cancelled, mut shut_down) = (false, false);
    loop {
        let line = match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => line,
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => panic!("daemon hung; replies so far: {replies:?}"),
        };
        let v = Value::parse(&line).unwrap_or_else(|e| panic!("bad reply '{line}': {e}"));
        assert_ne!(str_field(&v, "type"), "error", "daemon error reply: {line}");
        match (str_field(&v, "type"), str_field(&v, "id"), str_field(&v, "state")) {
            ("job", "victim", "running") if !cancelled => {
                cancelled = true;
                send(&mut stdin, r#"{"type":"cancel","id":"victim"}"#);
            }
            ("result", "a", _) if !shut_down => {
                shut_down = true;
                send(&mut stdin, r#"{"type":"shutdown"}"#);
            }
            _ => {}
        }
        replies.push(v);
    }
    // stdin stays open until stdout closes: `shutdown` alone must drain.
    drop(stdin);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("daemon status") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon closed stdout but never exited");
        std::thread::sleep(Duration::from_millis(20));
    };

    assert!(cancelled, "victim never reported running");
    assert!(status.success(), "daemon exited with {status}");
    let byes = replies.iter().filter(|r| str_field(r, "type") == "bye").count();
    assert_eq!(byes, 1, "expected exactly one bye: {replies:?}");
    let result = |id: &str| {
        replies
            .iter()
            .find(|r| str_field(r, "type") == "result" && str_field(r, "id") == id)
            .unwrap_or_else(|| panic!("no result for {id}: {replies:?}"))
    };

    let victim = result("victim");
    assert_eq!(str_field(victim, "exit"), "cancelled", "victim: {victim:?}");
    let measured = u64_field(victim, "measurements");
    assert!(measured < 200, "victim ran its whole budget ({measured}) despite the cancel");

    // The daemon's job builders are the standalone equivalents of a session,
    // so the served job's digest must match a plain `run_citroen`.
    let Ok(Request::Submit(spec)) = parse_request(A) else { panic!("bad submit line") };
    let mut task = job_task(&spec).expect("known bench");
    let (trace, _) = run_citroen(&mut task, spec.budget, &job_citroen_config(&spec));
    let a = result("a");
    assert_eq!(str_field(a, "exit"), "completed", "a: {a:?}");
    assert_eq!(u64_field(a, "digest"), trace_digest(&trace), "a diverged from its standalone run");
}
