//! The standalone workloads, `tune-long` and `sweep-short`: tuning sessions
//! run directly through `citroen_core::run_citroen` with the daemon's job
//! configuration, so a session here is the same computation as a daemon job.

use crate::report::{median, quantile, Metric};
use crate::{
    core_metrics, layers, overhead_metric, run_rounds, CoreCounts, Outcome, RunCfg, Workload,
};
use citroen_core::{run_citroen, trace_digest, Task};
use citroen_passes::PassId;
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_serve::{job_citroen_config, job_task, JobSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A job spec with the daemon's defaults (sequence length 16, no warm
/// start, no timeout).
pub fn spec(id: String, bench: &str, budget: usize, batch: usize, seed: u64) -> JobSpec {
    JobSpec {
        id,
        bench: bench.to_string(),
        tenant: bench.to_string(),
        budget,
        seed,
        seq_len: 16,
        batch,
        oracle_prune: false,
        subsume: false,
        warm: 0,
        timeout_ms: 0,
    }
}

/// Sessions per program in `sweep-short`, each with its own seed: a
/// program's compile work varies with the seed (`spec_compress` exhausts its
/// search after 2,200 to 4,100 compiles), and five draws keep that variation
/// from dominating the spread between runs.
const SWEEP_SEEDS: usize = 5;

/// The sessions of a standalone workload. Session seeds are drawn from the
/// workload seed.
pub fn plan(w: Workload, seed: u64, min: bool) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = || rng.gen_range(0..1_000_000u64);
    match w {
        Workload::TuneLong => {
            let budget = if min { 20 } else { 150 };
            vec![spec("telecom_gsm".into(), "telecom_gsm", budget, 1, draw())]
        }
        Workload::SweepShort => {
            let benches = citroen_suite::all_benchmarks();
            let (n, seeds, budget) = if min {
                (3, 1, 10)
            } else {
                (benches.len(), SWEEP_SEEDS, 30)
            };
            (0..seeds)
                .flat_map(|_| benches.iter().take(n))
                .map(|b| spec(b.name.to_string(), b.name, budget, 4, draw()))
                .collect()
        }
        Workload::ServeMix => unreachable!("serve-mix is not a standalone workload"),
    }
}

/// One finished session.
struct Session {
    digest: u64,
    wall_s: f64,
    counts: CoreCounts,
    /// Noise-free speedup of the best binary over -O3, from the output
    /// check, or why the check failed.
    speedup: Result<f64, String>,
}

impl Session {
    /// The numbers that must repeat exactly for a fixed seed.
    fn fingerprint(&self) -> (u64, u64, u64, u64, u64, Option<u64>) {
        let c = &self.counts;
        (
            self.digest,
            c.measurements,
            c.compilations,
            c.cache_hits,
            c.coverage_dropped,
            self.speedup.as_ref().ok().map(|x| x.to_bits()),
        )
    }
}

/// One pass over every session of the plan.
struct Round {
    sessions: Vec<Result<Session, String>>,
    wall_s: f64,
}

fn build(specs: &[JobSpec]) -> (Vec<Task>, f64) {
    let t0 = Instant::now();
    let tasks = specs
        .iter()
        .map(|s| job_task(s).expect("plan names only suite programs"))
        .collect();
    (tasks, t0.elapsed().as_secs_f64())
}

/// Run every session, then check each best binary outside the timed region.
fn run_round(specs: &[JobSpec], tasks: Vec<Task>) -> Round {
    let t0 = Instant::now();
    let ran: Vec<_> = specs
        .iter()
        .zip(tasks)
        .map(|(spec, mut task)| {
            let cfg = job_citroen_config(spec);
            let ts = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                run_citroen(&mut task, spec.budget, &cfg)
            }));
            (ran, ts.elapsed().as_secs_f64(), task)
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let sessions = specs
        .iter()
        .zip(ran)
        .map(|(spec, (ran, wall_s, task))| {
            let (trace, _) = ran.map_err(|_| format!("{}: session panicked", spec.id))?;
            Ok(Session {
                digest: trace_digest(&trace),
                wall_s,
                counts: CoreCounts {
                    compile_s: task.times.compile.as_secs_f64(),
                    measure_s: task.times.measure.as_secs_f64(),
                    model_s: task.times.model.as_secs_f64(),
                    compilations: task.compilations as u64,
                    measurements: task.measurements as u64,
                    cache_hits: task.cache_hits as u64,
                    coverage_dropped: trace.coverage_dropped as u64,
                    candidates_generated: trace.candidates_generated as u64,
                    sessions: 1,
                },
                speedup: match trace.best_seqs.first() {
                    None => Err("no measurement".to_string()),
                    Some(seq) => verify_best(&task, seq),
                },
            })
        })
        .collect();
    Round { sessions, wall_s }
}

/// Compile, link and run `seq` on the task's hot module again; the binary
/// must pass the differential test. Returns the noise-free speedup over -O3.
pub fn verify_best(task: &Task, seq: &[PassId]) -> Result<f64, String> {
    let hot = task.hot();
    let (_, _, module) = task.compile_hot_pure(hot, seq);
    let (linked, _) = task.assemble(&[(hot, &module)]);
    match task.execute_linked_pure(&linked) {
        Ok((seconds, _)) => Ok(task.o3_seconds / seconds),
        Err((e, _)) => Err(format!("{e:?}")),
    }
}

/// Run a standalone workload.
pub fn run(w: Workload, cfg: &RunCfg) -> Outcome {
    let specs = plan(w, cfg.seed, cfg.min);
    let mut out = Outcome::default();
    let rounds = run_rounds(
        cfg,
        || build(&specs),
        |tasks| run_round(&specs, tasks),
        |r| r.wall_s,
    );
    let peak_rss_mb = crate::report::peak_rss_mb();

    // Every round must repeat the first one exactly, traced or not.
    let first = &rounds.untraced[0];
    for (ri, round) in rounds.all().enumerate() {
        for (i, s) in round.sessions.iter().enumerate() {
            out.attempted += 1;
            match (s, &first.sessions[i]) {
                (Err(e), _) => out.fail(format!("round {ri}: {e}")),
                (Ok(s), Ok(f)) if s.fingerprint() != f.fingerprint() => out.fail(format!(
                    "round {ri}: {} did not repeat round 0: {:?} vs {:?}",
                    specs[i].id,
                    s.fingerprint(),
                    f.fingerprint()
                )),
                _ => {}
            }
        }
    }

    // Rows and layer counts from the first round.
    let mut speedups = Vec::new();
    let mut core = CoreCounts::default();
    for (i, s) in first.sessions.iter().enumerate() {
        let Ok(s) = s else { continue };
        core.add(&s.counts);
        let spec = &specs[i];
        let speedup = match &s.speedup {
            Ok(x) => *x,
            Err(e) => {
                out.fail(format!(
                    "{}: best binary failed the output check: {e}",
                    spec.id
                ));
                continue;
            }
        };
        speedups.push(speedup);
        let walls: Vec<f64> = rounds
            .untraced
            .iter()
            .filter_map(|r| r.sessions[i].as_ref().ok().map(|s| s.wall_s))
            .collect();
        out.rows.push(format!(
            "{{\"row\":{},\"seed\":{},\"batch\":{},\"measurements\":{},\"budget\":{},\"compiles\":{},\"wall_s\":{},\"speedup\":{},\"digest\":\"{:#018x}\"}}",
            crate::json::string(&spec.id),
            spec.seed,
            spec.batch,
            s.counts.measurements,
            spec.budget,
            s.counts.compilations,
            crate::json::num(median(&walls)),
            crate::json::num(speedup),
            s.digest
        ));
    }

    let walls: Vec<f64> = rounds.untraced.iter().map(|r| r.wall_s).collect();
    out.rows.push(crate::report::rounds_row(&walls));
    let per_round =
        |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.untraced.iter().map(f).collect() };
    let measurements = |r: &Round| -> f64 {
        r.sessions
            .iter()
            .flatten()
            .map(|s| s.counts.measurements as f64)
            .sum()
    };
    let latencies: Vec<f64> = rounds
        .untraced
        .iter()
        .flat_map(|r| r.sessions.iter().flatten().map(|s| s.wall_s))
        .collect();
    let n = walls.len();
    out.end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&rounds.setup_s),
            rounds.setup_s.len(),
        ),
        Metric::new(
            "measurements_per_s",
            "1/s",
            median(&per_round(&|r: &Round| measurements(r) / r.wall_s)),
            n,
        ),
        Metric::new(
            "jobs_per_s",
            "1/s",
            median(&per_round(&|r: &Round| r.sessions.len() as f64 / r.wall_s)),
            n,
        ),
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
        out.per_layer = core_metrics(&core, &speedups, &out);
        out.per_layer
            .extend(layers::trace_metrics(trace, &crate::pass_names()));
        out.per_layer.push(overhead_metric(round.wall_s, &walls));
        out.per_layer.extend(crate::serve_mix::idle_serve_metrics());
    }
    out
}
