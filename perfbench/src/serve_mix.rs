//! The `serve-mix` workload: an in-process daemon (`Server::new` with the
//! default configuration, two session threads) served over a pair of pipes,
//! driven by four closed-loop clients. Each client submits its next job when
//! the `result` of its previous one arrives.
//!
//! The job list is drawn from the workload seed: budget 12, q=1, a random
//! suite program and session seed. Every 4th job replays the whole spec of
//! an earlier job, so its compiles can come from the shared cross-tenant
//! cache and its digest must equal the original's. Another 1 in 4 sets
//! `oracle_prune` and `subsume`, which runs the sequence canonicaliser.

use crate::report::{median, quantile, Metric};
use crate::sessions::{spec, verify_best};
use crate::{core_metrics, layers, overhead_metric, run_rounds, CoreCounts, Outcome, RunCfg};
use citroen_passes::PassId;
use citroen_rt::json::Value;
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_serve::{job_citroen_config, job_task, JobSpec, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Lines, PipeReader, PipeWriter, Write};
use std::time::Instant;

/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 4;
/// Jobs per round at full size: 78 fresh jobs (each of the 13 suite programs
/// six times) and 26 replays.
const JOBS: usize = 104;
/// Jobs per round at minimum size (two of each kind).
const MIN_JOBS: usize = 8;
/// Measurement budget of every job.
const BUDGET: usize = 12;

/// One generated job.
#[derive(Debug, Clone)]
pub struct Job {
    /// What is submitted (the tenant is filled in by the submitting client).
    pub spec: JobSpec,
    /// The job this one replays, if any.
    pub replay_of: Option<usize>,
}

/// The job list of one round, drawn from the workload seed. The fresh
/// (non-replay) jobs cover every suite program equally often, in a seeded
/// order, so the program mix is the same for every seed.
pub fn plan(seed: u64, min: bool) -> Vec<Job> {
    let n = if min { MIN_JOBS } else { JOBS };
    let fresh = (0..n).filter(|k| k % 4 != 3).count();
    let suite = citroen_suite::all_benchmarks();
    let mut programs: Vec<&'static str> =
        suite.iter().map(|b| b.name).cycle().take(fresh).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    rng.shuffle(&mut programs);
    let mut programs = programs.into_iter();
    let mut jobs: Vec<Job> = Vec::with_capacity(n);
    for k in 0..n {
        let id = format!("j{k}");
        let job = if k % 4 == 3 {
            let j = rng.gen_range(0..k);
            let original = jobs[j].replay_of.unwrap_or(j);
            Job {
                spec: JobSpec {
                    id,
                    ..jobs[original].spec.clone()
                },
                replay_of: Some(original),
            }
        } else {
            let bench = programs.next().expect("one program per fresh job");
            let mut s = spec(id, bench, BUDGET, 1, rng.gen_range(0..1_000_000u64));
            if k % 4 == 1 {
                s.oracle_prune = true;
                s.subsume = true;
            }
            Job {
                spec: s,
                replay_of: None,
            }
        };
        jobs.push(job);
    }
    jobs
}

fn submit_line(s: &JobSpec, tenant: &str) -> String {
    format!(
        "{{\"type\":\"submit\",\"job\":{{\"id\":\"{}\",\"bench\":\"{}\",\"tenant\":\"{}\",\"budget\":{},\"seed\":{},\"seq_len\":{},\"batch\":{},\"oracle_prune\":{},\"subsume\":{}}}}}\n",
        s.id,
        s.bench,
        tenant,
        s.budget,
        s.seed,
        s.seq_len,
        s.batch,
        u8::from(s.oracle_prune),
        u8::from(s.subsume)
    )
}

/// A job's `result` reply, as the client saw it.
#[derive(Debug, Clone, Default)]
struct JobResult {
    state: String,
    exit: String,
    digest: u64,
    measurements: u64,
    compiles: u64,
    best_seq: Vec<u16>,
    latency_s: f64,
}

/// One round: every job of the plan through one fresh daemon.
#[derive(Default)]
struct Round {
    results: Vec<Option<JobResult>>,
    wall_s: f64,
    stats: Option<Value>,
    metrics: Option<Value>,
    errors: Vec<String>,
}

fn str_field(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
}

fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Read replies until one of type `ty` arrives.
fn read_until(lines: &mut Lines<BufReader<PipeReader>>, ty: &str) -> Result<Value, String> {
    for line in lines.by_ref() {
        let line = line.map_err(|e| format!("daemon output: {e}"))?;
        let v = Value::parse(&line).map_err(|e| format!("unparseable reply '{line}': {e}"))?;
        if v.get("type").and_then(Value::as_str) == Some(ty) {
            return Ok(v);
        }
    }
    Err(format!("daemon closed its output before a '{ty}' reply"))
}

/// The four clients: submit, wait for results, resubmit; then read the
/// daemon's `stats` and `metrics` and shut it down.
fn drive(jobs: &[Job], mut req: PipeWriter, resp: BufReader<PipeReader>) -> Round {
    let n = jobs.len();
    let mut round = Round {
        results: vec![None; n],
        ..Round::default()
    };
    let mut lines = resp.lines();
    // Per job: when it was submitted and by which client.
    let mut submitted: Vec<(Instant, usize)> = Vec::with_capacity(n);
    let t0 = Instant::now();
    let submit = |req: &mut PipeWriter, submitted: &mut Vec<(Instant, usize)>, client: usize| {
        let spec = &jobs[submitted.len()].spec;
        submitted.push((Instant::now(), client));
        req.write_all(submit_line(spec, &format!("tenant-{client}")).as_bytes())
            .map_err(|e| format!("daemon input: {e}"))
    };
    let mut outcome: Result<(), String> = Ok(());
    for client in 0..CLIENTS.min(n) {
        outcome = outcome.and_then(|()| submit(&mut req, &mut submitted, client));
    }
    let mut pending = if outcome.is_ok() { n } else { 0 };
    while pending > 0 {
        let Some(line) = lines.next() else {
            outcome = Err("daemon closed its output".to_string());
            break;
        };
        let v = match line
            .map_err(|e| e.to_string())
            .and_then(|l| Value::parse(&l).map_err(|e| format!("unparseable reply '{l}': {e}")))
        {
            Ok(v) => v,
            Err(e) => {
                outcome = Err(e);
                break;
            }
        };
        let ty = str_field(&v, "type");
        if ty != "result" && ty != "error" {
            continue;
        }
        let Some(k) = str_field(&v, "id")
            .strip_prefix('j')
            .and_then(|s| s.parse::<usize>().ok())
        else {
            round
                .errors
                .push(format!("reply for no job: {}", v.emit_compact()));
            continue;
        };
        let (Some(&(sent, client)), Some(None)) = (submitted.get(k), round.results.get(k)) else {
            round
                .errors
                .push(format!("unexpected reply: {}", v.emit_compact()));
            continue;
        };
        let latency_s = sent.elapsed().as_secs_f64();
        round.results[k] = Some(if ty == "result" {
            JobResult {
                state: str_field(&v, "state"),
                exit: str_field(&v, "exit"),
                digest: u64_field(&v, "digest"),
                measurements: u64_field(&v, "measurements"),
                compiles: u64_field(&v, "compiles"),
                best_seq: v
                    .get("best_seq")
                    .and_then(Value::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_u64)
                            .map(|p| p as u16)
                            .collect()
                    })
                    .unwrap_or_default(),
                latency_s,
            }
        } else {
            JobResult {
                state: format!("rejected: {}", str_field(&v, "code")),
                latency_s,
                ..JobResult::default()
            }
        });
        pending -= 1;
        if submitted.len() < n {
            if let Err(e) = submit(&mut req, &mut submitted, client) {
                outcome = Err(e);
                break;
            }
        }
    }
    round.wall_s = t0.elapsed().as_secs_f64();

    let mut tail = || -> Result<(), String> {
        let mut ask = |line: &str, ty: &str| -> Result<Value, String> {
            req.write_all(line.as_bytes())
                .map_err(|e| format!("daemon input: {e}"))?;
            read_until(&mut lines, ty)
        };
        round.stats = Some(ask("{\"type\":\"stats\"}\n", "stats")?);
        round.metrics = Some(ask("{\"type\":\"metrics\"}\n", "metrics")?);
        ask("{\"type\":\"shutdown\"}\n", "bye").map(drop)
    };
    if let Err(e) = outcome.and_then(|()| tail()) {
        round.errors.push(e);
    }
    drop(req);
    // Drain whatever is left so the daemon never blocks on a full pipe.
    for _ in lines {}
    round
}

/// Build a daemon and the round's inputs: the `setup_s` interval. The
/// daemon installs its metrics sink process-wide unless one is installed.
fn setup(cfg: &RunCfg) -> ((Server, Vec<Job>), f64) {
    let t0 = Instant::now();
    let server = Server::new(ServeConfig {
        max_concurrent: 2,
        ..ServeConfig::default()
    });
    let jobs = plan(cfg.seed, cfg.min);
    ((server, jobs), t0.elapsed().as_secs_f64())
}

/// Serve one round on `server` over a pair of pipes.
fn run_round(server: &Server, jobs: &[Job]) -> Round {
    let (pipes_in, pipes_out) = match (std::io::pipe(), std::io::pipe()) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return Round {
                results: vec![None; jobs.len()],
                errors: vec![format!("cannot create pipes: {e}")],
                ..Round::default()
            }
        }
    };
    let ((req_r, req_w), (resp_r, resp_w)) = (pipes_in, pipes_out);
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.serve(BufReader::new(req_r), resp_w));
        let mut round = drive(jobs, req_w, BufReader::new(resp_r));
        match daemon.join() {
            Ok(summary) if summary.failed > 0 || summary.rejected > 0 => {
                round.errors.push(format!("daemon summary: {summary:?}"))
            }
            Ok(_) => {}
            Err(_) => round.errors.push("daemon serve loop panicked".to_string()),
        }
        round
    })
}

/// `serve.*` metrics for workloads that run no daemon.
pub fn idle_serve_metrics() -> Vec<Metric> {
    serve_metrics(None, None)
}

fn serve_metrics(stats: Option<&Value>, metrics: Option<&Value>) -> Vec<Metric> {
    let cache = |k: &str| stats.and_then(|s| s.get("cache")).and_then(|c| c.get(k));
    let cache_n = |k: &str| cache(k).and_then(Value::as_u64).unwrap_or(0);
    let hist = |h: &str| {
        metrics
            .and_then(|m| m.get("global"))
            .and_then(|g| g.get("hists"))
            .and_then(|hs| hs.get(h))
    };
    let hist_q = |h: &str, q: &str| {
        let hv = hist(h);
        let n = hv
            .and_then(|x| x.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0) as usize;
        (
            hv.and_then(|x| x.get(q))
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64,
            n,
        )
    };
    let hit_ratio = cache("hit_ratio_bits")
        .and_then(Value::as_u64)
        .map_or(0.0, f64::from_bits);
    let lookups = (cache_n("hits") + cache_n("misses")) as usize;
    let mut m = Vec::new();
    for (h, q) in [
        ("queue_wait_ms", "p50"),
        ("queue_wait_ms", "p90"),
        ("run_wall_ms", "p50"),
        ("run_wall_ms", "p90"),
    ] {
        let (v, n) = hist_q(h, q);
        m.push(Metric::new(format!("serve.{h}.{q}"), "ms", v, n));
    }
    m.extend([
        Metric::new("serve.shared_cache_hit_ratio", "ratio", hit_ratio, lookups),
        Metric::new(
            "serve.cross_hits",
            "count",
            cache_n("cross_hits") as f64,
            lookups,
        ),
        Metric::new(
            "serve.evictions",
            "count",
            cache_n("evictions") as f64,
            lookups,
        ),
    ]);
    m
}

/// Run the `serve-mix` workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let rounds = run_rounds(
        cfg,
        || setup(cfg),
        // The daemon is dropped with the round, after its serve loop ended.
        |(server, jobs)| run_round(&server, &jobs),
        |r| r.wall_s,
    );
    // Read before the output checks below allocate anything.
    let peak_rss_mb = crate::report::peak_rss_mb();
    // The job list every round ran (set-up regenerates it from the seed).
    let jobs = plan(cfg.seed, cfg.min);

    let first = &rounds.untraced[0];
    for (ri, round) in rounds.all().enumerate() {
        for e in &round.errors {
            out.fail(format!("round {ri}: {e}"));
        }
        for (k, r) in round.results.iter().enumerate() {
            out.attempted += 1;
            let id = &jobs[k].spec.id;
            match r {
                None => out.fail(format!("round {ri}: job {id} got no result")),
                Some(r) if r.state != "done" || r.exit != "completed" => out.fail(format!(
                    "round {ri}: job {id} ended {} / {}",
                    r.state, r.exit
                )),
                Some(r) => {
                    let want = match jobs[k].replay_of {
                        Some(o) => round.results[o].as_ref().map(|x| x.digest),
                        None => first.results[k].as_ref().map(|x| x.digest),
                    };
                    let repeat = first.results[k].as_ref().map(|x| x.measurements);
                    if want != Some(r.digest) || repeat != Some(r.measurements) {
                        out.fail(format!(
                            "round {ri}: job {id} digest {:#x} / {} measurements did not repeat",
                            r.digest, r.measurements
                        ));
                    }
                }
            }
        }
    }

    // Output check of the first round's best binaries, one task per program
    // (compiling and running are pure in the task; its seed only drives
    // measurement noise).
    let mut tasks: HashMap<String, citroen_core::Task> = HashMap::new();
    let mut speedups = Vec::new();
    for (job, r) in jobs.iter().zip(&first.results) {
        let Some(r) = r.as_ref().filter(|r| r.state == "done") else {
            continue;
        };
        let task = tasks
            .entry(job.spec.bench.clone())
            .or_insert_with(|| job_task(&job.spec).expect("plan names only suite programs"));
        let seq: Vec<PassId> = r.best_seq.iter().map(|&p| PassId(p)).collect();
        let checked = if seq.is_empty() {
            Err("no measurement".to_string())
        } else {
            verify_best(task, &seq)
        };
        match checked {
            Ok(x) => speedups.push(x),
            Err(e) => out.fail(format!(
                "job {}: best binary failed the output check: {e}",
                job.spec.id
            )),
        }
    }

    let done = |r: &Round| {
        r.results
            .iter()
            .flatten()
            .filter(|x| x.state == "done")
            .count()
    };
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
        rounds.untraced.iter().map(|r| f(r) / r.wall_s).collect()
    };
    let walls: Vec<f64> = rounds.untraced.iter().map(|r| r.wall_s).collect();
    out.rows.push(crate::report::rounds_row(&walls));
    let meas = per_round(&|r| {
        r.results
            .iter()
            .flatten()
            .map(|x| x.measurements as f64)
            .sum()
    });
    let jobs_s = per_round(&|r| done(r) as f64);
    let latencies: Vec<f64> = rounds
        .untraced
        .iter()
        .flat_map(|r| r.results.iter().flatten().map(|x| x.latency_s))
        .collect();
    out.rows.push(format!(
        "{{\"row\":\"serve-mix\",\"jobs\":{},\"replays\":{},\"canonicalised\":{},\"clients\":{CLIENTS},\"rounds\":{},\"done\":{}}}",
        jobs.len(),
        jobs.iter().filter(|j| j.replay_of.is_some()).count(),
        jobs.iter().filter(|j| j.spec.subsume).count(),
        rounds.untraced.len(),
        done(first)
    ));
    out.end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&rounds.setup_s),
            rounds.setup_s.len(),
        ),
        Metric::new("measurements_per_s", "1/s", median(&meas), meas.len()),
        Metric::new("jobs_per_s", "1/s", median(&jobs_s), jobs_s.len()),
        Metric::new(
            "job_latency_s.p50",
            "s",
            quantile(&latencies, 0.5),
            latencies.len(),
        ),
        Metric::new(
            "job_latency_s.p90",
            "s",
            quantile(&latencies, 0.9),
            latencies.len(),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1),
    ];

    if let Some((round, trace)) = &rounds.traced {
        let phases = layers::phase_times(trace);
        let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
        let results = || first.results.iter().flatten();
        // Compiles the sessions needed, wherever they were served: the
        // daemon's `compiles` exclude shared-cache hits, whose split with
        // local compiles depends on session timing.
        let shared_hits = first
            .stats
            .as_ref()
            .and_then(|s| s.get("cache"))
            .and_then(|c| c.get("hits"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let candidates = jobs
            .first()
            .map_or(0, |j| job_citroen_config(&j.spec).candidates) as u64;
        let core = CoreCounts {
            compile_s: phases.compile_s,
            measure_s: phases.measure_s,
            model_s: phases.model_s,
            compilations: results().map(|x| x.compiles).sum::<u64>() + shared_hits,
            measurements: results().map(|x| x.measurements).sum(),
            cache_hits: counter("task.cache_hits"),
            coverage_dropped: counter("citroen.coverage_dropped"),
            candidates_generated: counter("citroen.iterations") * candidates,
            sessions: results().count(),
        };
        out.per_layer = core_metrics(&core, &speedups, &out);
        out.per_layer
            .extend(layers::trace_metrics(trace, &crate::pass_names()));
        out.per_layer.push(overhead_metric(round.wall_s, &walls));
        out.per_layer
            .extend(serve_metrics(first.stats.as_ref(), first.metrics.as_ref()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_mixes_replays_and_canonicalised_jobs() {
        let a = plan(7, false);
        assert_eq!(a.len(), JOBS);
        let b = plan(7, false);
        assert!(a.iter().zip(&b).all(|(x, y)| x.spec == y.spec));
        for (k, j) in a.iter().enumerate() {
            match j.replay_of {
                Some(o) => {
                    assert_eq!(k % 4, 3);
                    assert!(o < k && a[o].replay_of.is_none());
                    assert_eq!(
                        JobSpec {
                            id: a[o].spec.id.clone(),
                            ..j.spec.clone()
                        },
                        a[o].spec
                    );
                }
                None => assert_eq!(j.spec.subsume, k % 4 == 1),
            }
        }
        assert_ne!(plan(8, false)[0].spec, a[0].spec);
        let mut fresh: HashMap<&str, usize> = HashMap::new();
        for j in a.iter().filter(|j| j.replay_of.is_none()) {
            *fresh.entry(j.spec.bench.as_str()).or_default() += 1;
        }
        assert_eq!(fresh.len(), citroen_suite::all_benchmarks().len());
        assert!(fresh.values().all(|&c| c == 6), "{fresh:?}");
    }
}
