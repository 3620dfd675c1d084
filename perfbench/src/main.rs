//! `perfbench --workload <tune-long|sweep-short|serve-mix> --seed <n>
//! --seconds <s> --trace <0|1> [--size <full|min>]`
//!
//! Prints a provenance line, per-program rows, one `metric` line per metric
//! (with its sample count), and, last, one JSON result line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits 1 when any session or job failed, 2 on a usage error.

use perfbench::json::{self, Json};
use perfbench::report::{metric_line, result_line};
use perfbench::{RunCfg, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <tune-long|sweep-short|serve-mix> --seed <n> \
                     --seconds <s> --trace <0|1> [--size <full|min>]";

fn parse_args() -> Result<(Workload, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 0,
        seconds: 10.0,
        trace: false,
        min: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                cfg.min = match value.as_str() {
                    "full" => false,
                    "min" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// FNV-1a over the workspace sources (`crates/**` and `Cargo.lock`), so a
/// result can be tied to the code it measured where no git metadata exists.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The checked-out commit, when the repository root holds git metadata
/// (`GIT_DIR` keeps git from searching directories above the root).
fn git_commit(root: &Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", root.join(".git"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The workload's `why` from `BENCHMARK.json`, when the file is present.
fn why(root: &Path, w: Workload) -> String {
    std::fs::read_to_string(root.join("BENCHMARK.json"))
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|doc| {
            doc.get("workloads")?
                .as_arr()?
                .iter()
                .find(|x| x.get("name").and_then(Json::as_str) == Some(w.name()))?
                .get("why")?
                .as_str()
                .map(str::to_string)
        })
        .unwrap_or_default()
}

fn provenance(w: Workload, cfg: &RunCfg) -> String {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("CITROEN_THREADS").unwrap_or_else(|_| "unset".to_string());
    let commit = git_commit(&root).unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":{},\"nproc\":{nproc},\"citroen_threads\":{},\"profile\":{},\"commit\":{},\"source_digest\":\"{:#018x}\",\"why\":{}}}}}",
        json::string(w.name()),
        cfg.seed,
        json::num(cfg.seconds),
        u8::from(cfg.trace),
        json::string(if cfg.min { "min" } else { "full" }),
        json::string(&threads),
        json::string(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json::string(&commit),
        source_digest(&root),
        json::string(&why(&root, w)),
    )
}

fn main() -> ExitCode {
    let (w, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(w, &cfg));
    let out = perfbench::run(w, &cfg);
    for row in &out.rows {
        println!("{row}");
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!("{}", metric_line(m));
    }
    for f in &out.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let reported = if cfg.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let finite = reported.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: FAILED: a metric is not a finite number");
    }
    let correct = out.failed == 0 && finite && out.attempted > 0;
    if finite {
        println!(
            "{}",
            result_line(correct, out.attempted, out.failed, reported)
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
