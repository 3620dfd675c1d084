//! `citroen-serve`: CITROEN-as-a-service — a multi-tenant tuning daemon.
//!
//! Accepts tuning jobs as newline-delimited JSON on stdio (or a Unix socket
//! with `--socket`), runs up to `--max-concurrent` sessions concurrently,
//! and shares the compile cache, the once-loaded interaction graph, and the
//! transfer corpus across tenants. EOF or a `shutdown` request drains
//! gracefully.
//!
//! Protocol and shared-state invariants: DESIGN.md §11. The daemon's
//! end-to-end checks live in `tests/serve_stdio.rs` and `tests/slo_gate.rs`.

use citroen_serve::{ServeConfig, Server};
use std::io::BufReader;

const USAGE: &str = "\
citroen-serve — multi-tenant CITROEN tuning daemon

USAGE:
    citroen-serve [serve] [--socket PATH] [--max-concurrent N] [--max-budget N]
                  [--cache-cap N] [--trace-dir DIR] [--graph FILE]
                  [--no-metrics] [--metrics-window-ms N] [--slo-queue-ms X]
                  [--slo-run-ms X] [--slo-compile-us X] [--slo-hit-ratio X]

Reads newline-delimited JSON requests on stdin and writes replies on
stdout. With --socket, listens on a Unix socket and serves connections
sequentially instead.

OPTIONS:
    --socket PATH        listen on a Unix socket instead of stdio
    --max-concurrent N   concurrent tuning sessions        [default: 2]
    --max-budget N       per-job measurement budget cap    [default: 200]
    --cache-cap N        shared compile-cache entries      [default: 4096]
    --trace-dir DIR      per-job JSONL telemetry streams (live-tailable
                         with `citroen-trace tail DIR/<job>.jsonl`)
    --graph FILE         persisted `citroen-analyze oracle --json` graph,
                         loaded once and shared with every session

OBSERVABILITY OPTIONS:
    --no-metrics          disable the metrics/profiling/SLO plane
                          (the `metrics` verb then returns an error)
    --metrics-window-ms N metrics window width, ms        [default: 10000]
    --slo-queue-ms X      queue-wait EWMA ceiling, ms     [default: 60000]
    --slo-run-ms X        run-wall EWMA ceiling, ms      [default: 300000]
    --slo-compile-us X    compile-span EWMA ceiling, us [default: 5000000]
    --slo-hit-ratio X     cache hit-ratio EWMA floor in [0, 1] (0 disables)
                                                               [default: 0]
";

fn die(msg: &str) -> ! {
    eprintln!("citroen-serve: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn parse_num(args: &mut std::iter::Peekable<std::env::Args>, flag: &str) -> u64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    v.parse().unwrap_or_else(|_| die(&format!("{flag}: bad number '{v}'")))
}

/// An SLO threshold in `[0, max]`. NaN is rejected too: a sentinel compares
/// its EWMA against the threshold, and every comparison with NaN is false,
/// so a NaN ceiling would silently switch the sentinel off.
fn parse_slo(args: &mut std::iter::Peekable<std::env::Args>, flag: &str, max: f64) -> f64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    match v.parse::<f64>() {
        Ok(x) if (0.0..=max).contains(&x) => x,
        _ => die(&format!("{flag}: '{v}' is not a number in [0, {max}]")),
    }
}

fn main() {
    let mut args = std::env::args().peekable();
    args.next(); // argv[0]

    let mut cfg = ServeConfig::default();
    let mut socket: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "serve" => {}
            "--socket" => {
                socket = Some(args.next().unwrap_or_else(|| die("--socket needs a path")))
            }
            "--max-concurrent" => {
                cfg.max_concurrent = parse_num(&mut args, "--max-concurrent").max(1) as usize
            }
            "--max-budget" => cfg.max_budget = parse_num(&mut args, "--max-budget") as usize,
            "--cache-cap" => cfg.cache_cap = parse_num(&mut args, "--cache-cap") as usize,
            "--trace-dir" => {
                cfg.trace_dir = Some(args.next().unwrap_or_else(|| die("--trace-dir needs a dir")))
            }
            "--graph" => {
                cfg.graph_path = Some(args.next().unwrap_or_else(|| die("--graph needs a file")))
            }
            "--no-metrics" => cfg.metrics = false,
            "--metrics-window-ms" => {
                cfg.metrics_window_ms = parse_num(&mut args, "--metrics-window-ms").max(1)
            }
            "--slo-queue-ms" => cfg.slo_queue_ms = parse_slo(&mut args, &a, f64::INFINITY),
            "--slo-run-ms" => cfg.slo_run_ms = parse_slo(&mut args, &a, f64::INFINITY),
            "--slo-compile-us" => cfg.slo_compile_us = parse_slo(&mut args, &a, f64::INFINITY),
            "--slo-hit-ratio" => cfg.slo_hit_ratio = parse_slo(&mut args, &a, 1.0),
            other => die(&format!("unknown argument '{other}'")),
        }
    }

    let server = Server::new(cfg);
    match socket {
        None => {
            let stdin = std::io::stdin();
            let summary = server.serve(stdin.lock(), std::io::stdout());
            eprintln!(
                "citroen-serve: drained — {} done, {} failed, {} cancelled, {} rejected",
                summary.done, summary.failed, summary.cancelled, summary.rejected
            );
        }
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .unwrap_or_else(|e| die(&format!("cannot bind '{path}': {e}")));
            eprintln!("citroen-serve: listening on {path} (connections served sequentially)");
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("citroen-serve: accept failed: {e}");
                        continue;
                    }
                };
                let reader = match stream.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(e) => {
                        eprintln!("citroen-serve: clone failed: {e}");
                        continue;
                    }
                };
                let summary = server.serve(reader, stream);
                eprintln!(
                    "citroen-serve: connection drained — {} done, {} failed, {} cancelled",
                    summary.done, summary.failed, summary.cancelled
                );
            }
        }
    }
}
