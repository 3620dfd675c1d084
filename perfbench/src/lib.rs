//! # perfbench
//!
//! The CITROEN workspace's benchmark. Three seeded workloads drive the
//! public APIs of `citroen-core`, `citroen-serve` and `citroen-telemetry`:
//!
//! - `tune-long`: one q=1 session on `telecom_gsm` at budget 150 (the
//!   paper's budget regime; the GP surrogate dominates);
//! - `sweep-short`: five q=4 sessions at budget 30 on each suite program
//!   (the compile sweep on the `rt::par` pool dominates);
//! - `serve-mix`: an in-process daemon fed by four closed-loop clients
//!   (scheduler queue, shared compile cache, telemetry dispatch).
//!
//! End-to-end metrics come from untraced rounds. With `--trace 1` a
//! separate traced round adds the per-layer numbers, read from outside the
//! program: an in-memory telemetry sink installed here aggregates the spans
//! and counters the program already emits, and the benchmark times its own
//! calls into public functions. Every session's best pass sequence is
//! compiled, linked and run again outside the timed region and must pass the
//! differential test against the -O0 reference.

pub mod json;
pub mod layers;
pub mod report;
pub mod serve_mix;
pub mod sessions;

use report::Metric;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One q=1 session on `telecom_gsm` at budget 150.
    TuneLong,
    /// Five q=4 sessions at budget 30 on each of the 13 suite programs.
    SweepShort,
    /// A four-client closed loop against an in-process daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::TuneLong, Workload::SweepShort, Workload::ServeMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneLong => "tune-long",
            Workload::SweepShort => "sweep-short",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measured seconds: untraced rounds repeat while another one is
    /// expected to fit (at least one round). A traced run spends half of it
    /// on untraced rounds and then runs one traced round.
    pub seconds: f64,
    /// Add the traced round and report per-layer metrics.
    pub trace: bool,
    /// Minimum input sizes (the self-test's setting).
    pub min: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Sessions or jobs attempted.
    pub attempted: u64,
    /// Attempts that failed (error, panic, failed output check, job not
    /// done, replay or repeat mismatch).
    pub failed: u64,
    /// Why each failure was counted.
    pub failures: Vec<String>,
    /// Rows printed before the metrics (per-program results, provenance).
    pub rows: Vec<String>,
    /// End-to-end metrics (untraced rounds).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Count one failure.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Tuning-session counts and times behind the `core.*` metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreCounts {
    /// Seconds compiling candidates.
    pub compile_s: f64,
    /// Seconds executing measured binaries.
    pub measure_s: f64,
    /// Seconds in the surrogate model and acquisition.
    pub model_s: f64,
    /// Compilations.
    pub compilations: u64,
    /// Budget-consuming runtime measurements.
    pub measurements: u64,
    /// Measurements answered from the binary-fingerprint cache.
    pub cache_hits: u64,
    /// Candidates dropped by coverage filtering.
    pub coverage_dropped: u64,
    /// Candidates generated.
    pub candidates_generated: u64,
    /// Sessions summed.
    pub sessions: usize,
}

impl CoreCounts {
    /// Add another session's counts and times.
    pub fn add(&mut self, o: &CoreCounts) {
        self.compile_s += o.compile_s;
        self.measure_s += o.measure_s;
        self.model_s += o.model_s;
        self.compilations += o.compilations;
        self.measurements += o.measurements;
        self.cache_hits += o.cache_hits;
        self.coverage_dropped += o.coverage_dropped;
        self.candidates_generated += o.candidates_generated;
        self.sessions += o.sessions;
    }
}

/// The `core.*` layer metrics of `c` and the verified `speedups`, plus
/// `failed_frac`.
pub fn core_metrics(c: &CoreCounts, speedups: &[f64], out: &Outcome) -> Vec<Metric> {
    use report::ratio;
    let n = c.sessions;
    vec![
        Metric::new(
            "core.speedup_geomean",
            "ratio",
            report::geomean(speedups),
            speedups.len(),
        ),
        Metric::new("core.compile_s", "s", c.compile_s, n),
        Metric::new("core.measure_s", "s", c.measure_s, n),
        Metric::new("core.model_s", "s", c.model_s, n),
        Metric::new("core.compilations", "count", c.compilations as f64, n),
        Metric::new("core.measurements", "count", c.measurements as f64, n),
        Metric::new("core.cache_hits", "count", c.cache_hits as f64, n),
        Metric::new(
            "core.compiles_per_measurement",
            "ratio",
            ratio(c.compilations as f64, c.measurements as f64),
            n,
        ),
        Metric::new(
            "core.coverage_drop_ratio",
            "ratio",
            ratio(c.coverage_dropped as f64, c.candidates_generated as f64),
            n,
        ),
        Metric::new(
            "failed_frac",
            "ratio",
            ratio(out.failed as f64, out.attempted as f64),
            out.attempted as usize,
        ),
    ]
}

/// `telemetry.overhead_frac`: traced minus untraced wall time of the same
/// work, over the untraced wall time.
pub fn overhead_metric(traced_wall: f64, untraced_walls: &[f64]) -> Metric {
    let base = report::median(untraced_walls);
    Metric::new(
        "telemetry.overhead_frac",
        "ratio",
        report::ratio(traced_wall - base, base),
        untraced_walls.len() + 1,
    )
}

/// Set-up repetitions before each round: at least this many...
const SETUP_ROUND_MIN: usize = 2;
/// ...and more until they sum to this many seconds...
const SETUP_ROUND_S: f64 = 0.1;
/// ...but no more than this many. Sampling before every round spreads the
/// `setup_s` samples over the whole run, like the rounds themselves.
const SETUP_ROUND_MAX: usize = 10;

/// The rounds of one run.
pub struct Rounds<R> {
    /// Every timed set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// The untraced rounds (at least one).
    pub untraced: Vec<R>,
    /// The traced round and its trace, when the run is traced.
    pub traced: Option<(R, citroen_telemetry::Trace)>,
}

impl<R> Rounds<R> {
    /// The untraced rounds followed by the traced one.
    pub fn all(&self) -> impl Iterator<Item = &R> {
        self.untraced
            .iter()
            .chain(self.traced.iter().map(|(r, _)| r))
    }
}

/// Run the rounds of one workload run. `build` makes one round's input and
/// returns it with its set-up time; `round` consumes the input and runs it;
/// `wall` is a round's timed wall time. Untraced rounds repeat while another
/// one is expected to fit in the untraced share of `cfg.seconds`; a traced
/// run then adds one round under an in-memory telemetry sink.
pub fn run_rounds<T, R>(
    cfg: &RunCfg,
    mut build: impl FnMut() -> (T, f64),
    mut round: impl FnMut(T) -> R,
    wall: impl Fn(&R) -> f64,
) -> Rounds<R> {
    let mut setup_s = Vec::new();
    let mut next_input = |setup_s: &mut Vec<f64>| {
        let (mut n, mut spent) = (0, 0.0);
        loop {
            let (input, s) = build();
            setup_s.push(s);
            (n, spent) = (n + 1, spent + s);
            if (n >= SETUP_ROUND_MIN && spent >= SETUP_ROUND_S) || n >= SETUP_ROUND_MAX {
                return input;
            }
            // A set-up may install a process-wide telemetry sink (the
            // daemon's metrics plane); clear it with the unused input.
            drop(input);
            drop(citroen_telemetry::disable());
        }
    };
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (mut untraced, mut spent) = (Vec::new(), 0.0);
    while untraced.is_empty() || spent + spent / untraced.len() as f64 <= untraced_s {
        let input = next_input(&mut setup_s);
        let r = round(input);
        drop(citroen_telemetry::disable());
        spent += wall(&r);
        untraced.push(r);
    }
    let traced = cfg.trace.then(|| {
        let input = next_input(&mut setup_s);
        citroen_telemetry::enable();
        let r = round(input);
        let trace = citroen_telemetry::take_trace().unwrap_or_default();
        drop(citroen_telemetry::disable());
        (r, trace)
    });
    Rounds {
        setup_s,
        untraced,
        traced,
    }
}

/// The pass names of the full registry, in registry order.
pub fn pass_names() -> Vec<&'static str> {
    citroen_passes::Registry::full().names()
}

/// Run `w` under `cfg`.
pub fn run(w: Workload, cfg: &RunCfg) -> Outcome {
    match w {
        Workload::TuneLong | Workload::SweepShort => sessions::run(w, cfg),
        Workload::ServeMix => serve_mix::run(cfg),
    }
}
