//! CITROEN (paper §5.3): Bayesian-optimisation phase ordering guided by
//! pass-related compilation statistics.
//!
//! Per iteration: a DES-based generator proposes candidate pass sequences
//! (§5.3.5); every candidate is *compiled* (cheap, parallelisable) to collect
//! its compilation statistics; candidates whose statistics/binaries duplicate
//! already-observed points are filtered (the coverage issue, §5.3.4 /
//! Table 5.2); a GP cost model over statistics features (§5.3.3) scores the
//! rest with a UCB acquisition; the winners are *measured* (expensive,
//! budgeted). One [`Session`] runs these phases in a single loop for every
//! batch size q; q=1 is a batch of one.

use crate::cache::BoundedCache;
use crate::service::{SessionEnv, SessionExit, SessionResult};
use crate::task::{Task, TuneError, TuneTrace};
use citroen_bo::heuristics::DiscreteOneLambda;
use citroen_bo::{draw_mc_eps, greedy_batch, Acquisition, SeqCanonicalizer};
use citroen_gp::{Gp, GpConfig, GpHypers, Mat};
use citroen_ir::module::Module;
use citroen_passes::{oracle, PassId, Stats};
use citroen_rt::par::WorkerPool;
use citroen_rt::rng::StdRng;
use citroen_rt::rng::{Rng, SeedableRng};
use citroen_telemetry as telemetry;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which features the cost model is fitted on (Fig. 5.8/5.9 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Pass-related compilation statistics (CITROEN).
    CompilationStats,
    /// Autophase-style static IR features of the optimised module.
    Autophase,
    /// The raw pass sequence itself (standard-BO features).
    RawSequence,
}

/// Candidate generator (Fig. 5.8 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// Discrete 1+λ ES seeded with the search history (§5.3.5) plus a random
    /// stream for exploration — the AIBO-style ensemble.
    Des,
    /// Pure random sequences.
    Random,
}

/// CITROEN configuration.
#[derive(Debug, Clone)]
pub struct CitroenConfig {
    /// UCB exploration weight.
    pub beta: f64,
    /// Candidates generated per iteration (the paper compiles these in
    /// parallel; so do batched sessions, on the `rt::par` worker pool).
    pub candidates: usize,
    /// Initial random sequences measured before the model starts.
    pub init_random: usize,
    /// Feature source.
    pub features: FeatureKind,
    /// Candidate generator.
    pub generator: GeneratorKind,
    /// Filter candidates with already-seen statistics vectors / binaries.
    pub coverage_filter: bool,
    /// Refit GP hyperparameters every this many iterations.
    pub fit_every: usize,
    /// GP settings.
    pub gp: GpConfig,
    /// DES per-position mutation rate override (`None` = 2/len default).
    pub mutation_rate: Option<f64>,
    /// Warm-start the DES incumbent with a known-good sequence (e.g. the
    /// best sequence found on another program — the thesis' §6.3.2
    /// "program-independent pass correlations" future-work direction).
    pub warm_start: Option<Vec<PassId>>,
    /// Extra genomes injected into the initial design, after the DES
    /// incumbent and before the random fill (which shrinks to keep the total
    /// at `init_random`). The service layer seeds these with statistics-space
    /// nearest-neighbour transfer genomes from completed tenants. Each genome
    /// is resized to the task's sequence length; out-of-range pass ids clamp
    /// to 0. Empty by default (identical RNG stream to previous releases).
    pub init_seeds: Vec<Vec<u16>>,
    /// Canonicalise candidate sequences with the precondition oracle before
    /// compiling: passes proven `CannotFire` on the source module (and not
    /// woken by an earlier kept pass, per the interaction graph) are dropped,
    /// so genomes differing only in statically-dead passes collapse onto one
    /// compile-cache entry. Off by default (paper-faithful search).
    pub oracle_prune: bool,
    /// When `oracle_prune` is on, additionally collapse immediate duplicate
    /// runs of idempotent passes ([`citroen_passes::Pass::is_idempotent`])
    /// during canonicalisation, so `p,p` genomes share `p`'s compile-cache
    /// entry. No effect when `oracle_prune` is off.
    pub idem_collapse: bool,
    /// Canonicalise candidate sequences with the fuzz-verified work-class
    /// subsumption matrix ([`citroen_passes::Pass::fires_on`]): a pass whose
    /// fire classes are provably cleared by the kept prefix is dropped, so
    /// `p,p` *and* `p,q,p` no-op patterns share one compile-cache entry.
    /// Module-independent (every drop is a theorem on any input), and usable
    /// with or without `oracle_prune`. Off by default (paper-faithful).
    pub subsume_collapse: bool,
    /// Measurements selected and profiled per model-guided iteration (q).
    /// `1` measures the analytic UCB argmax of a model refitted on every
    /// observation, all in the calling thread, bit-identical to previous
    /// releases; `q > 1` selects a greedy qUCB batch, compiles and measures
    /// it on a persistent `rt::par` worker pool, and overlaps the GP fit
    /// with the in-flight measurements (one-batch-stale model).
    /// Deterministic for a fixed seed at any q.
    pub batch: usize,
    /// Canonical-genome compile-cache capacity (entries; `0` = unbounded).
    /// Evictions are FIFO and counted on `citroen.compile_cache_evictions`.
    pub compile_cache_cap: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CitroenConfig {
    fn default() -> CitroenConfig {
        CitroenConfig {
            beta: 1.96,
            candidates: 40,
            init_random: 8,
            features: FeatureKind::CompilationStats,
            generator: GeneratorKind::Des,
            coverage_filter: true,
            fit_every: 4,
            gp: GpConfig { fit_iters: 25, ..Default::default() },
            mutation_rate: None,
            warm_start: None,
            init_seeds: Vec::new(),
            oracle_prune: false,
            idem_collapse: true,
            subsume_collapse: false,
            batch: 1,
            compile_cache_cap: 1024,
            seed: 0,
        }
    }
}

/// Monte-Carlo samples per acquisition evaluation during greedy batch
/// construction. The first pick is analytic, so q=1 never reads them.
const MC_SAMPLES: usize = 32;

/// A point of the search space as the cost model sees it: the genome, its
/// compilation statistics, and its Autophase features (empty unless the
/// model reads them).
struct Point {
    genome: Vec<u16>,
    stats: Stats,
    autophase: Vec<f64>,
}

/// One observed point and its measured runtime.
struct Observation {
    point: Point,
    runtime: f64,
}

/// One compile's hot-module statistics, fingerprint, and optimised module.
type Compiled = (Stats, u64, Module);

/// A compiled candidate: its point, the canonical genome that was actually
/// compiled, and the hot module's fingerprint and optimised module.
struct Candidate {
    point: Point,
    eff: Vec<u16>,
    fp: u64,
    module: Module,
}

impl Candidate {
    fn new(genome: Vec<u16>, eff: Vec<u16>, compiled: Compiled, kind: FeatureKind) -> Self {
        let (stats, fp, module) = compiled;
        let autophase = match kind {
            FeatureKind::Autophase => citroen_passes::autophase::autophase_features(&module),
            _ => Vec::new(),
        };
        Candidate { point: Point { genome, stats, autophase }, eff, fp, module }
    }
}

/// GP training input over the admitted observations, plus the feature scale
/// the fitted model must be paired with.
struct FitJob {
    x: Mat,
    y: Vec<f64>,
    gp: GpConfig,
    scale: Vec<f64>,
}

/// A unit of the measure phase: a pick to execute, or the GP fit that a
/// pipelined session overlaps with the measurements.
enum Work {
    Measure(Box<Candidate>),
    Fit(FitJob),
}

enum Done {
    Measure(Box<Candidate>, u64, Option<Result<(f64, Duration), (TuneError, Duration)>>),
    Fit(Box<Gp>, Vec<f64>),
}

/// Introspection output: the fitted cost model's most impactful statistics
/// (shortest ARD length-scales) — Table 5.5.
#[derive(Debug, Clone)]
pub struct ImpactReport {
    /// `(feature name, fitted length-scale)`, most impactful first.
    pub ranked: Vec<(String, f64)>,
}

/// Run CITROEN on `task` for `budget` runtime measurements.
///
/// Thin wrapper over [`run_citroen_session`] with a default (standalone)
/// [`SessionEnv`]: no shared cache, no preloaded graph, a private worker
/// pool, and no cancellation — byte-for-byte the historical behaviour.
pub fn run_citroen(task: &mut Task, budget: usize, cfg: &CitroenConfig) -> (TuneTrace, ImpactReport) {
    let r = run_citroen_session(task, budget, cfg, &SessionEnv::default());
    (r.trace, r.report)
}

/// Run one CITROEN session under an explicit service environment.
///
/// The environment attaches the multi-tenant daemon's shared state — a
/// cross-tenant compile cache, a once-loaded interaction graph, a shared
/// worker pool — and a [`crate::SessionCtl`] carrying the tenant id, a
/// cancellation flag, and an optional deadline. Every attachment preserves
/// the per-session trajectory bit-for-bit: compilation is a pure function of
/// (source module, canonical pass sequence), so a shared-cache hit returns
/// exactly what a local compile would have produced, and only the compile
/// counters/telemetry differ from a standalone run at the same seed.
pub fn run_citroen_session(
    task: &mut Task,
    budget: usize,
    cfg: &CitroenConfig,
    env: &SessionEnv,
) -> SessionResult {
    let _run_span = telemetry::span("citroen.run");
    // Run-level metadata event: lets trace consumers compute speedups
    // (`o3_ns / best_ns`) and budget fractions without the CSV row.
    telemetry::event(
        "run.meta",
        &[
            ("o3_ns", (task.o3_seconds * 1e9) as u64),
            ("budget", budget as u64),
            ("seq_len", task.seq_len() as u64),
            ("passes", task.registry.len() as u64),
        ],
    );
    Session::new(task, budget, cfg, env).run()
}

/// One tuning session. [`Session::run`] drives the phases — init design →
/// generate → compile sweep → coverage filter → fit → acquire →
/// measure/admit → end of iteration — in one loop for every batch size q,
/// which changes behaviour only through `pipelined` (q > 1):
///
/// - **pipelined:** unique compile misses compile on the worker pool; the
///   picks are measured from the modules their sweep compiled, on the pool,
///   while the next GP fit runs alongside them — the selection model is one
///   batch stale (the standard asynchronous-BO trade).
/// - **sequential (q = 1):** everything runs in the session's own thread and
///   `env.pool` is never touched (the daemon's shared pool serialises its
///   callers one batch at a time); the model is refitted on every admitted
///   observation before acquiring; the pick is resolved through the compile
///   path again, so compile accounting is the per-candidate loop's.
struct Session<'a> {
    task: &'a mut Task,
    cfg: &'a CitroenConfig,
    env: &'a SessionEnv,
    budget: usize,
    /// Batch size q (at least 1).
    q: usize,
    pipelined: bool,
    /// The pipelined policy's worker pool; `None` at q = 1.
    pool: Option<Arc<WorkerPool>>,
    rng: StdRng,
    /// MC noise for greedy batch construction: a dedicated stream, so the
    /// candidate-generation RNG does not depend on q.
    batch_rng: StdRng,
    des: DiscreteOneLambda,
    canon: Option<SeqCanonicalizer>,
    /// Canonical genome → compile result; only consulted when
    /// canonicalisation is on, so the paper-faithful default path is
    /// untouched. Bounded: entries hold a full `Module` clone, so long-budget
    /// runs (and the daemon) must not grow it without limit.
    compile_cache: BoundedCache<Vec<u16>, Compiled>,
    compile_cache_hits: u64,
    /// Namespaces this task's genomes in the cross-tenant cache; unused (0)
    /// when no shared cache is attached, skipping the module print.
    src_fp: u64,
    trace: TuneTrace,
    obs: Vec<Observation>,
    seen_fps: HashSet<u64>,
    seen_stats: HashSet<String>,
    key_union: Vec<String>,
    hypers: Option<GpHypers>,
    /// Selection model: (gp, feature scale).
    model: Option<(Gp, Vec<f64>)>,
    iter: usize,
    /// Measurement count at the last iteration that consumed budget, and
    /// the iterations since then.
    last_meas: usize,
    stagnant: usize,
    exit: SessionExit,
}

impl<'a> Session<'a> {
    fn new(
        task: &'a mut Task,
        budget: usize,
        cfg: &'a CitroenConfig,
        env: &'a SessionEnv,
    ) -> Self {
        let q = cfg.batch.max(1);
        let pipelined = q > 1;
        // Persistent pool, sized for the wider of the two per-iteration
        // fan-outs (candidate compile sweep; q measurements + 1 fit).
        // Spawning per iteration would dominate at small q. The daemon
        // attaches one shared pool so N tenants don't spawn N×threads.
        let pool = pipelined.then(|| {
            env.pool.clone().unwrap_or_else(|| {
                let workers = citroen_rt::par::thread_count(cfg.candidates.max(q + 1));
                Arc::new(WorkerPool::new(workers))
            })
        });
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (len, npasses) = (task.seq_len(), task.registry.len());
        let mut des = DiscreteOneLambda::new(len, npasses, &mut rng);
        if let Some(mr) = cfg.mutation_rate {
            des.mutation_rate = mr;
        }
        if let Some(ws) = &cfg.warm_start {
            des.incumbent = resized(ws.iter().map(|p| p.0), len);
        }
        let canon = canonicalizer(task, cfg, env);
        let src_fp = env.shared_cache.as_ref().map_or(0, |_| task.source_fingerprint(task.hot()));
        Session {
            task,
            cfg,
            env,
            budget,
            q,
            pipelined,
            pool,
            rng,
            batch_rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
            des,
            canon,
            compile_cache: BoundedCache::new(cfg.compile_cache_cap),
            compile_cache_hits: 0,
            src_fp,
            trace: TuneTrace::default(),
            obs: Vec::new(),
            seen_fps: HashSet::new(),
            seen_stats: HashSet::new(),
            key_union: Vec::new(),
            hypers: None,
            model: None,
            iter: 0,
            last_meas: 0,
            stagnant: 0,
            exit: SessionExit::Completed,
        }
    }

    fn run(mut self) -> SessionResult {
        self.init_design();
        self.last_meas = self.task.measurements;
        while self.exit == SessionExit::Completed && self.task.measurements < self.budget {
            if let Some(e) = self.env.ctl.interrupted() {
                self.exit = e;
                break;
            }
            let _iter_span = telemetry::span("iteration");
            self.iteration();
            if self.end_iteration() {
                break;
            }
        }
        self.finish()
    }

    /// Initial design: the DES incumbent, any injected transfer seeds, then
    /// a random fill up to `init_random` total. With no seeds the random
    /// stream is identical to previous releases.
    fn init_design(&mut self) {
        let mut first: Vec<Vec<u16>> = vec![self.des.incumbent.clone()];
        let (len, npasses) = (self.task.seq_len(), self.task.registry.len());
        for s in &self.cfg.init_seeds {
            first.push(resized(s.iter().map(|&v| if (v as usize) < npasses { v } else { 0 }), len));
        }
        while first.len() < self.cfg.init_random.max(1) {
            first.push(self.random_genome());
        }
        let _init_span = telemetry::span("init");
        for g in first {
            if let Some(e) = self.env.ctl.interrupted() {
                self.exit = e;
                break;
            }
            if self.task.measurements >= self.budget {
                break;
            }
            self.observe(g);
            self.progress();
        }
    }

    /// One model-guided iteration, up to its end-of-iteration bookkeeping.
    fn iteration(&mut self) {
        telemetry::counter("citroen.iterations", 1);
        let cands = self.generate();
        self.trace.candidates_generated += cands.len();
        let mut compiled = if self.pipelined {
            self.compile_pooled(cands)
        } else {
            // The pick is compiled again before it is measured, so the
            // sequential sweep keeps no modules.
            let strip = |c: Candidate| Candidate { module: Module::default(), ..c };
            cands.into_iter().map(|g| strip(self.compile(g))).collect()
        };
        if self.cfg.coverage_filter {
            self.coverage_filter(&mut compiled);
        }
        if compiled.is_empty() {
            // Whole batch redundant: take a random probe to escape (tiny hot
            // modules can exhaust their distinct-binary space entirely).
            let g = self.random_genome();
            self.observe(g);
            return;
        }

        let t_model = Instant::now();
        for c in &compiled {
            grow_keys(&mut self.key_union, &c.point.stats);
        }
        if !self.pipelined || self.model.is_none() {
            self.fit();
        }
        let picks = self.acquire(&compiled);
        let overlapped_fit = self.pipelined.then(|| self.fit_job());
        self.task.add_model_time(t_model.elapsed());

        let mut slots: Vec<Option<Candidate>> = compiled.into_iter().map(Some).collect();
        let mut picked: Vec<Candidate> =
            picks.iter().map(|&i| slots[i].take().expect("picks are distinct")).collect();
        if !self.pipelined {
            picked = picked.into_iter().map(|c| self.compile(c.point.genome)).collect();
        }
        self.measure(picked, overlapped_fit);
    }

    /// Generate phase: DES mutants of the search history topped up with
    /// random exploration (3:1), or pure random sequences.
    fn generate(&mut self) -> Vec<Vec<u16>> {
        let mut cands = match self.cfg.generator {
            GeneratorKind::Des => self.des.ask(&mut self.rng, (self.cfg.candidates * 3) / 4),
            GeneratorKind::Random => Vec::new(),
        };
        while cands.len() < self.cfg.candidates {
            cands.push(self.random_genome());
        }
        cands
    }

    fn random_genome(&mut self) -> Vec<u16> {
        let npasses = self.task.registry.len();
        (0..self.task.seq_len()).map(|_| self.rng.gen_range(0..npasses) as u16).collect()
    }

    fn canon_genome(&self, g: &[u16]) -> Vec<u16> {
        match &self.canon {
            Some(c) => {
                let idx: Vec<usize> = g.iter().map(|&v| v as usize).collect();
                c.canonicalize(&idx).into_iter().map(|v| v as u16).collect()
            }
            None => g.to_vec(),
        }
    }

    /// Look a canonical genome up in the local cache (canonicalising sessions
    /// only), then in the cross-tenant cache when one is attached.
    fn lookup(&mut self, eff: &Vec<u16>) -> Option<Compiled> {
        let local = if self.canon.is_some() { self.compile_cache.get(eff).cloned() } else { None };
        if let Some(hit) = local {
            self.compile_cache_hits += 1;
            telemetry::counter("citroen.compile_cache_hits", 1);
            return Some(hit);
        }
        // Adopting another tenant's result is trajectory-neutral: compilation
        // is a pure function of (source module, canonical sequence), so only
        // the compile counters differ from a standalone run.
        let hit = self.env.shared_cache.as_ref()?.get(self.src_fp, eff, self.env.ctl.tenant)?;
        telemetry::counter("citroen.shared_cache_hits", 1);
        Some(hit)
    }

    /// Remember `c` in the local canonical-genome cache (canonicalising
    /// sessions only) and, for a fresh compile, publish it to the
    /// cross-tenant cache (first writer wins; losing a race costs nothing).
    fn remember(&mut self, c: &Candidate, fresh: bool) {
        let entry = || (c.point.stats.clone(), c.fp, c.module.clone());
        if self.canon.is_some()
            && self.compile_cache.peek(&c.eff).is_none()
            && self.compile_cache.insert(c.eff.clone(), entry())
        {
            telemetry::counter("citroen.compile_cache_evictions", 1);
        }
        if let Some(shared) = self.env.shared_cache.as_ref().filter(|_| fresh) {
            let (stats, fp, module) = entry();
            shared.insert(self.src_fp, c.eff.clone(), self.env.ctl.tenant, stats, fp, module);
        }
    }

    /// Compile one genome in the session's thread: through the caches, else
    /// a fresh compile that feeds them.
    fn compile(&mut self, genome: Vec<u16>) -> Candidate {
        let eff = self.canon_genome(&genome);
        if let Some(hit) = self.lookup(&eff) {
            return Candidate::new(genome, eff, hit, self.cfg.features);
        }
        let fresh = self.task.compile_hot(self.task.hot(), &genome_to_seq(&eff));
        let c = Candidate::new(genome, eff, fresh, self.cfg.features);
        self.remember(&c, true);
        c
    }

    /// Pipelined compile sweep. The caches are resolved in candidate order
    /// first (hit accounting stays deterministic), then the unique misses
    /// compile on the pool; per-candidate `compile` spans nest under this
    /// `batch` span via the worker hooks.
    fn compile_pooled(&mut self, cands: Vec<Vec<u16>>) -> Vec<Candidate> {
        let sweep_t0 = Instant::now();
        let sweep_span = telemetry::span("batch");
        let mut jobs: Vec<Vec<u16>> = Vec::new();
        // Per candidate: its canonical genome and a cached result or the
        // index of the job that compiles it.
        let mut slots: Vec<(Vec<u16>, Result<Compiled, usize>)> = Vec::new();
        for g in &cands {
            let eff = self.canon_genome(g);
            let slot = if let Some(hit) = self.lookup(&eff) {
                Ok(hit)
            } else if let Some(j) = jobs.iter().position(|e| *e == eff) {
                // Within-sweep repeat: shares the first occurrence's compile
                // (a cache hit in the sequential accounting when
                // canonicalisation is on).
                if self.canon.is_some() {
                    self.compile_cache_hits += 1;
                    telemetry::counter("citroen.compile_cache_hits", 1);
                }
                Err(j)
            } else {
                jobs.push(eff.clone());
                Err(jobs.len() - 1)
            };
            slots.push((eff, slot));
        }
        let n_jobs = jobs.len();
        let pass_work: usize = jobs.iter().map(Vec::len).sum();
        let (task, hot) = (&*self.task, self.task.hot());
        let pool = self.pool.as_deref().expect("pipelined sessions own a pool");
        let results: Vec<Compiled> = pool.map(jobs, |eff| {
            let _c = telemetry::span("compile");
            task.compile_hot_pure(hot, &genome_to_seq(&eff))
        });
        drop(sweep_span);
        // Wall-clock of the whole sweep (the honest figure for the
        // fig5_12-style proportions), not the sum of per-core times.
        self.task.note_compilations(n_jobs, sweep_t0.elapsed());
        self.task.passes_executed += pass_work;

        // Jobs are numbered in first-occurrence order. Each result moves into
        // its first slot; only within-sweep repeats clone it.
        let mut results = results.into_iter();
        let mut first: Vec<usize> = Vec::with_capacity(n_jobs);
        let mut out: Vec<Candidate> = Vec::with_capacity(cands.len());
        for (g, (eff, slot)) in cands.into_iter().zip(slots) {
            let fresh = matches!(slot, Err(j) if j == first.len());
            let compiled = match slot {
                Ok(hit) => hit,
                Err(_) if fresh => {
                    first.push(out.len());
                    results.next().expect("one result per job")
                }
                Err(j) => {
                    let f = &out[first[j]];
                    (f.point.stats.clone(), f.fp, f.module.clone())
                }
            };
            let c = Candidate::new(g, eff, compiled, self.cfg.features);
            self.remember(&c, fresh);
            out.push(c);
        }
        out
    }

    /// Coverage filter (§5.3.4): duplicated binaries or statistics vectors
    /// carry no new information — skip their profiling.
    fn coverage_filter(&mut self, compiled: &mut Vec<Candidate>) {
        let before = compiled.len();
        compiled.retain(|c| {
            !self.seen_fps.contains(&c.fp) && !self.seen_stats.contains(&stats_sig(&c.point.stats))
        });
        // Also dedup within the sweep, on each component independently.
        retain_batch_unique(compiled, |c| (stats_sig(&c.point.stats), c.fp));
        let dropped = before - compiled.len();
        telemetry::counter("citroen.coverage_dropped", dropped as u64);
        self.trace.coverage_dropped += dropped;
    }

    /// Fit phase. Sequential sessions refit on every admitted observation;
    /// pipelined sessions fit here only once, after which each model comes
    /// from the fit overlapped with the previous batch's measurements.
    fn fit(&mut self) {
        let _fit_span = telemetry::span("fit");
        let job = self.fit_job();
        let gp = Gp::fit(job.x, &job.y, job.gp);
        self.hypers = Some(gp.hypers());
        self.model = Some((gp, job.scale));
    }

    /// The GP fit over the admitted observations. Hyperparameters warm-start
    /// from the previous fit and are re-optimised every `fit_every`
    /// iterations (refactorised only in between).
    fn fit_job(&self) -> FitJob {
        let (x, scale) = feature_matrix(&self.obs, &self.key_union, self.cfg.features);
        let y: Vec<f64> = self.obs.iter().map(|o| o.runtime).collect();
        let mut gp = self.cfg.gp.clone();
        gp.init = self.hypers.clone();
        if self.iter % self.cfg.fit_every != 0 && self.hypers.is_some() {
            gp.fit_iters = 0;
        }
        FitJob { x, y, gp, scale }
    }

    /// Acquire phase: greedy qUCB selection. Its first pick is the exact
    /// analytic UCB argmax (ties to the lowest index), so a batch of one is
    /// the paper's sequential rule.
    fn acquire(&mut self, compiled: &[Candidate]) -> Vec<usize> {
        let _acquire_span = telemetry::span("acquire");
        let (gp, scale) = self.model.as_ref().expect("the fit phase ran");
        let best_raw = self.obs.iter().map(|o| o.runtime).fold(f64::INFINITY, f64::min);
        let best_z = gp.transform().forward(best_raw);
        let (keys, kind) = (&self.key_union, self.cfg.features);
        let xs: Vec<_> = compiled.iter().map(|c| featurise(&c.point, keys, scale, kind)).collect();
        let q = self.q.min(self.budget - self.task.measurements).min(compiled.len()).max(1);
        let eps = draw_mc_eps(&mut self.batch_rng, MC_SAMPLES, q);
        greedy_batch(gp, Acquisition::Ucb { beta: self.cfg.beta }, best_z, &xs, q, &eps)
    }

    /// Compile and measure one genome in the session's thread.
    fn observe(&mut self, genome: Vec<u16>) {
        let c = self.compile(genome);
        self.measure(vec![c], None);
    }

    /// Measure phase: execute the picks, then admit them strictly in pick
    /// order. Admission draws the measurement noise from the task RNG, so
    /// this order (not worker timing) defines the stream — every q stays
    /// deterministic for a fixed seed. An overlapped fit (pipelined
    /// iterations only) runs on the pool alongside the measurements;
    /// otherwise everything runs inline.
    fn measure(&mut self, picks: Vec<Candidate>, overlapped_fit: Option<FitJob>) {
        let pooled = overlapped_fit.is_some();
        let mut items: Vec<Work> = picks.into_iter().map(|c| Work::Measure(Box::new(c))).collect();
        items.extend(overlapped_fit.map(Work::Fit));
        let (task, hot) = (&*self.task, self.task.hot());
        let run = |w: Work| match w {
            Work::Measure(c) => {
                let (linked, fp) = task.assemble(&[(hot, &c.module)]);
                let outcome = if task.cached_runtime(fp).is_some() {
                    None
                } else {
                    let _m = telemetry::span("measure");
                    Some(task.execute_linked_pure(&linked))
                };
                Done::Measure(c, fp, outcome)
            }
            Work::Fit(job) => {
                let _f = telemetry::span("fit");
                Done::Fit(Box::new(Gp::fit(job.x, &job.y, job.gp)), job.scale)
            }
        };
        let outs: Vec<Done> = match self.pool.as_deref().filter(|_| pooled) {
            Some(pool) => {
                let _batch_span = telemetry::span("batch");
                pool.map(items, run)
            }
            None => items.into_iter().map(run).collect(),
        };
        for done in outs {
            match done {
                // A sequence that fails differential testing (§5.4.1) is
                // discarded.
                Done::Measure(c, fp, outcome) => {
                    if let Ok(runtime) = self.task.admit_execution(fp, outcome) {
                        self.admit(*c, runtime);
                    }
                }
                Done::Fit(gp, scale) => {
                    self.hypers = Some(gp.hypers());
                    self.model = Some((*gp, scale));
                }
            }
        }
    }

    /// Admit one measured candidate into the search state.
    fn admit(&mut self, c: Candidate, runtime: f64) {
        self.des.tell(&c.point.genome, runtime);
        grow_keys(&mut self.key_union, &c.point.stats);
        self.seen_fps.insert(c.fp);
        self.seen_stats.insert(stats_sig(&c.point.stats));
        self.trace.record(runtime, vec![genome_to_seq(&c.eff)]);
        self.trace.compiles_history.push(self.task.compilations);
        self.obs.push(Observation { point: c.point, runtime });
    }

    /// End of iteration: progress event, stagnation bookkeeping, safety
    /// valve; `true` stops the session. On benchmarks whose hot module
    /// collapses to few distinct binaries, most candidates are duplicates
    /// and cached measurements consume no budget: restart the DES incumbent
    /// to escape, and stop when the search is exhausted.
    fn end_iteration(&mut self) -> bool {
        self.iter += 1;
        self.progress();
        if self.task.measurements != self.last_meas {
            self.stagnant = 0;
            self.last_meas = self.task.measurements;
        } else {
            self.stagnant += 1;
            if self.stagnant % 20 == 19 {
                let (len, npasses) = (self.task.seq_len(), self.task.registry.len());
                self.des = DiscreteOneLambda::new(len, npasses, &mut self.rng);
            }
        }
        self.stagnant > 80 || self.iter > self.budget * 20
    }

    /// Convergence-curve event, emitted after every budget-consuming step.
    /// Guarded on `is_enabled` so the disabled path builds no field array;
    /// `best_ns == 0` never occurs (runtimes are positive), so consumers can
    /// treat 0 as "no measurement yet".
    fn progress(&self) {
        if telemetry::is_enabled() {
            telemetry::event(
                "progress",
                &[
                    ("iter", self.iter as u64),
                    ("measurements", self.task.measurements as u64),
                    ("compilations", self.task.compilations as u64),
                    ("cache_hits", self.compile_cache_hits),
                    ("coverage_dropped", self.trace.coverage_dropped as u64),
                    ("last_ns", to_ns(self.trace.runtimes.last().copied())),
                    ("best_ns", to_ns(self.trace.best_history.last().copied())),
                ],
            );
        }
    }

    /// ARD impact report (Table 5.5): shortest length-scales = most
    /// impactful.
    fn finish(self) -> SessionResult {
        let mut ranked: Vec<(String, f64)> = Vec::new();
        if self.obs.len() >= 3 && self.cfg.features == FeatureKind::CompilationStats {
            let FitJob { x, y, .. } = self.fit_job();
            let gp = Gp::fit(x, &y, GpConfig { fit_iters: 60, ..self.cfg.gp.clone() });
            ranked = self.key_union.into_iter().zip(gp.lengthscales()).collect();
            ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        }
        SessionResult { trace: self.trace, report: ImpactReport { ranked }, exit: self.exit }
    }
}

/// Oracle- and subsumption-based sequence canonicalisation (off by default):
/// verdicts on the source hot module give the dead mask; running each pass
/// once gives the module-local enables edges that keep a dead pass when an
/// earlier kept pass may wake it. An interaction graph attached to the
/// session ([`SessionEnv::graph`], loaded once by the daemon) replaces the
/// per-task enables derivation and supplies the work model;
/// `subsume_collapse` adds the module-independent work-class dataflow.
fn canonicalizer(
    task: &Task,
    cfg: &CitroenConfig,
    env: &SessionEnv,
) -> Option<SeqCanonicalizer> {
    let graph_inputs =
        env.graph.as_deref().map(|g| oracle::canonicalizer_inputs(&task.registry, g));
    (cfg.oracle_prune || cfg.subsume_collapse).then(|| {
        let n = task.registry.len();
        let (dead, mask) = if cfg.oracle_prune {
            let src = &task.benchmark().modules[task.hot()];
            let dead = oracle::dead_mask(&oracle::verdicts(&task.registry, src));
            let mask = match &graph_inputs {
                Some((enables, _)) => enables.clone(),
                None => {
                    let (enables, _) = oracle::interactions_for_module(&task.registry, src);
                    let mut mask = vec![0u64; n];
                    for e in &enables {
                        mask[e.from] |= 1 << e.to;
                    }
                    mask
                }
            };
            (dead, mask)
        } else {
            (vec![false; n], vec![0u64; n])
        };
        let mut c = SeqCanonicalizer::new(dead, mask);
        if cfg.oracle_prune && cfg.idem_collapse {
            c = c.with_idempotence(task.registry.idempotent_mask());
        }
        if cfg.subsume_collapse {
            let (fires, clears, produces) = match graph_inputs.as_ref().and_then(|(_, w)| w.clone())
            {
                Some(triple) => triple,
                None => (task.registry.fires_on(), task.registry.clears(), task.registry.produces()),
            };
            c = c.with_subsumption(fires, clears, produces);
        }
        c
    })
}

/// A genome of exactly `len` genes: truncated, or padded with pass 0.
fn resized(genes: impl Iterator<Item = u16>, len: usize) -> Vec<u16> {
    genes.chain(std::iter::repeat(0)).take(len).collect()
}

fn genome_to_seq(g: &[u16]) -> Vec<PassId> {
    g.iter().map(|&v| PassId(v)).collect()
}

/// Append the statistics keys of `stats` not yet in the model's key union,
/// in first-seen order.
fn grow_keys(key_union: &mut Vec<String>, stats: &Stats) {
    for k in stats.keys() {
        if !key_union.contains(&k) {
            key_union.push(k);
        }
    }
}

/// Seconds → nanosecond event field (0 = absent; runtimes are positive).
fn to_ns(seconds: Option<f64>) -> u64 {
    seconds.map(|s| (s * 1e9) as u64).unwrap_or(0)
}

/// Within-batch coverage dedup (§5.3.4): a candidate is redundant if
/// *either* its statistics signature *or* its binary fingerprint duplicates
/// one already kept in this batch — matching the cross-batch filter, which
/// rejects on either component. (An earlier version keyed on the pair, so
/// two same-stats/different-binary candidates both survived.)
fn retain_batch_unique<T>(batch: &mut Vec<T>, key: impl Fn(&T) -> (String, u64)) {
    let mut sigs: HashSet<String> = HashSet::new();
    let mut fps: HashSet<u64> = HashSet::new();
    batch.retain(|item| {
        let (sig, fp) = key(item);
        if sigs.contains(&sig) || fps.contains(&fp) {
            return false;
        }
        sigs.insert(sig);
        fps.insert(fp);
        true
    });
}

/// A canonical signature of a statistics bag (for coverage dedup).
fn stats_sig(stats: &Stats) -> String {
    let mut s = String::new();
    for (p, st, v) in stats.iter() {
        use std::fmt::Write;
        let _ = write!(s, "{p}.{st}={v};");
    }
    s
}

/// Build the training matrix for the chosen feature kind. Features are
/// `log1p`-compressed and max-scaled for numeric stability.
fn feature_matrix(obs: &[Observation], keys: &[String], kind: FeatureKind) -> (Mat, Vec<f64>) {
    let raw: Vec<Vec<f64>> = obs.iter().map(|o| raw_features(&o.point, keys, kind)).collect();
    let d = raw.first().map(|r| r.len()).unwrap_or(0);
    let mut scale = vec![1.0f64; d];
    for r in &raw {
        for (i, v) in r.iter().enumerate() {
            scale[i] = scale[i].max(v.abs());
        }
    }
    let rows: Vec<Vec<f64>> = raw
        .into_iter()
        .map(|r| r.iter().enumerate().map(|(i, v)| v / scale[i]).collect())
        .collect();
    (Mat::from_rows(rows), scale)
}

fn raw_features(p: &Point, keys: &[String], kind: FeatureKind) -> Vec<f64> {
    match kind {
        FeatureKind::CompilationStats => {
            p.stats.to_vector(keys).into_iter().map(|v| (1.0 + v).ln()).collect()
        }
        FeatureKind::Autophase => p.autophase.iter().map(|v| (1.0 + v).ln()).collect(),
        FeatureKind::RawSequence => p.genome.iter().map(|&g| g as f64).collect(),
    }
}

fn featurise(p: &Point, keys: &[String], scale: &[f64], kind: FeatureKind) -> Vec<f64> {
    let mut r = raw_features(p, keys, kind);
    for (v, s) in r.iter_mut().zip(scale) {
        *v /= s;
    }
    // Pad/truncate to the model dimensionality (keys can grow between fits;
    // the scale vector length is the fitted dimensionality).
    r.resize(scale.len(), 0.0);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use citroen_passes::Registry;
    use citroen_sim::Platform;

    fn gsm_task(seed: u64) -> Task {
        Task::new(
            citroen_suite::kernels::telecom_gsm(),
            Registry::full(),
            Platform::tx2(),
            TaskConfig { seq_len: 16, seed, ..Default::default() },
        )
    }

    #[test]
    fn citroen_finds_speedup_over_o3_on_gsm() {
        // Quantile check over a 10-seed window rather than one pinned lucky
        // seed: any single seed can draw an unlucky candidate stream, but the
        // median over seeds is a stable property of the tuner. Seeds run in
        // parallel (`par_map` is sequential on single-core hosts).
        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let mut task = gsm_task(seed);
            let cfg =
                CitroenConfig { candidates: 24, init_random: 6, seed, ..Default::default() };
            let (trace, report) = run_citroen(&mut task, 30, &cfg);
            assert_eq!(task.measurements, 30);
            assert!(!report.ranked.is_empty());
            assert!(!trace.best_seqs.is_empty());
            (trace.best() / task.o3_seconds, trace.coverage_dropped)
        });
        let mut ratios: Vec<f64> = runs.iter().map(|(r, _)| *r).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("citroen best/O3 ratios over seeds: {ratios:?}");
        // With a 30-measurement budget the lower quartile must match -O3
        // within noise, the best seed must beat it outright, and even the
        // median seed must stay in -O3's neighbourhood (observed window:
        // 0.99–1.16; the paper's larger speedups need larger budgets).
        let quartile = ratios[ratios.len() / 4];
        let median = ratios[ratios.len() / 2];
        assert!(quartile < 1.02, "lower-quartile ratio {quartile} too weak: {ratios:?}");
        assert!(ratios[0] < 1.0, "no seed in the window beat -O3: {ratios:?}");
        assert!(median < 1.25, "median ratio {median} pathological: {ratios:?}");
        // Coverage filtering must fire somewhere in the window on a 16-long
        // sequence space full of no-op duplicates.
        let dropped: usize = runs.iter().map(|(_, d)| *d).sum();
        assert!(dropped > 0, "expected coverage drops across the seed window");
    }

    #[test]
    fn shared_cache_sessions_are_bit_identical_and_skip_compiles() {
        // The multi-tenant determinism invariant: attaching a shared compile
        // cache (empty or pre-warmed by another tenant) must not perturb the
        // trajectory — only the compile counters. A second tenant replaying
        // the same (spec, seed) against the warmed cache compiles ~nothing.
        use crate::service::{SessionCtl, SharedCompileCache};
        use std::sync::Arc;

        let cfg = CitroenConfig { candidates: 24, init_random: 6, seed: 3, ..Default::default() };
        let mut t1 = gsm_task(3);
        let r1 = run_citroen_session(&mut t1, 10, &cfg, &SessionEnv::default());
        assert_eq!(r1.exit, SessionExit::Completed);

        let cache = Arc::new(SharedCompileCache::new(0));
        let mut t2 = gsm_task(3);
        let env1 = SessionEnv {
            shared_cache: Some(cache.clone()),
            ctl: SessionCtl::new(1),
            ..Default::default()
        };
        let r2 = run_citroen_session(&mut t2, 10, &cfg, &env1);
        let mut t3 = gsm_task(3);
        let env2 = SessionEnv {
            shared_cache: Some(cache.clone()),
            ctl: SessionCtl::new(2),
            ..Default::default()
        };
        let r3 = run_citroen_session(&mut t3, 10, &cfg, &env2);

        let d = crate::service::trace_digest(&r1.trace);
        assert_eq!(d, crate::service::trace_digest(&r2.trace), "empty shared cache perturbed");
        assert_eq!(d, crate::service::trace_digest(&r3.trace), "warmed shared cache perturbed");
        assert!(
            t3.compilations < t2.compilations,
            "warmed tenant compiled {} vs {} — no reuse",
            t3.compilations,
            t2.compilations
        );
        let s = cache.stats();
        assert!(s.cross_hits > 0, "replay tenant never hit the other tenant's entries: {s:?}");
        // Every measurement recorded its running compile count.
        assert_eq!(r1.trace.compiles_history.len(), r1.trace.runtimes.len());
    }

    #[test]
    fn cancelled_and_deadlined_sessions_stop_early() {
        use crate::service::SessionCtl;

        let cfg = CitroenConfig { candidates: 24, init_random: 6, seed: 1, ..Default::default() };
        let ctl = SessionCtl::new(7);
        ctl.cancel();
        let mut task = gsm_task(1);
        let env = SessionEnv { ctl, ..Default::default() };
        let r = run_citroen_session(&mut task, 30, &cfg, &env);
        assert_eq!(r.exit, SessionExit::Cancelled);
        assert_eq!(task.measurements, 0, "cancelled before the first observation");

        let ctl = SessionCtl::new(8).with_deadline(std::time::Instant::now());
        let mut task = gsm_task(1);
        let env = SessionEnv { ctl, ..Default::default() };
        let r = run_citroen_session(&mut task, 30, &cfg, &env);
        assert_eq!(r.exit, SessionExit::TimedOut);
        assert!(task.measurements < 30, "expired deadline did not stop the session");
    }

    #[test]
    fn init_seeds_enter_the_initial_design() {
        // A transfer seed must actually be measured: run with a seed genome
        // and assert its canonical sequence shows up among the first
        // observations' sequences (the seed is observed second, after the
        // DES incumbent).
        let seed_genome: Vec<u16> = vec![5; 16];
        let cfg = CitroenConfig {
            candidates: 24,
            init_random: 6,
            seed: 2,
            init_seeds: vec![seed_genome.clone()],
            ..Default::default()
        };
        let mut task = gsm_task(2);
        let r = run_citroen_session(&mut task, 8, &cfg, &SessionEnv::default());
        assert_eq!(r.exit, SessionExit::Completed);
        // Cold run at the same seed: different trajectory (the seed displaced
        // one random init genome).
        let cold_cfg = CitroenConfig { init_seeds: Vec::new(), ..cfg.clone() };
        let mut cold = gsm_task(2);
        let rc = run_citroen_session(&mut cold, 8, &cold_cfg, &SessionEnv::default());
        assert_ne!(
            crate::service::trace_digest(&r.trace),
            crate::service::trace_digest(&rc.trace),
            "injected seed had no effect on the trajectory"
        );
    }

    #[test]
    fn within_batch_dedup_rejects_on_either_component() {
        // Regression: the within-batch filter used to key on the *pair*
        // `(stats_sig, fp)`, so two candidates sharing a stats signature but
        // not a fingerprint (or vice versa) both survived — contradicting
        // §5.3.4 and the cross-batch filter, which rejects on either match.
        let mut s1 = Stats::new();
        s1.inc("gvn", "eliminated", 3);
        let s2 = s1.clone();

        // Same stats signature, different binaries: one must be dropped.
        let mut batch = vec![(vec![1u16], s1.clone(), 10u64), (vec![2u16], s2.clone(), 20u64)];
        let old_pair_key = {
            let mut pairs = HashSet::new();
            let mut b = batch.clone();
            b.retain(|(_, st, fp)| pairs.insert((stats_sig(st), *fp)));
            b.len()
        };
        assert_eq!(old_pair_key, 2, "the old pair-keyed retain kept both");
        retain_batch_unique(&mut batch, |(_, st, fp)| (stats_sig(st), *fp));
        assert_eq!(batch.len(), 1, "same-stats/different-binary duplicate survived");
        assert_eq!(batch[0].2, 10, "the first occurrence must be the one kept");

        // Same binary, different stats signatures: one must be dropped.
        let mut s3 = Stats::new();
        s3.inc("dce", "removed", 1);
        let mut batch = vec![(vec![1u16], s1, 10u64), (vec![2u16], s3, 10u64)];
        retain_batch_unique(&mut batch, |(_, st, fp)| (stats_sig(st), *fp));
        assert_eq!(batch.len(), 1, "same-binary/different-stats duplicate survived");

        // Fully distinct candidates all survive.
        let mut s4 = Stats::new();
        s4.inc("licm", "hoisted", 2);
        let mut s5 = Stats::new();
        s5.inc("sccp", "folded", 5);
        let mut batch = vec![(vec![1u16], s4, 1u64), (vec![2u16], s5, 2u64)];
        retain_batch_unique(&mut batch, |(_, st, fp)| (stats_sig(st), *fp));
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn feature_kinds_produce_distinct_vectors() {
        let mut task = gsm_task(2);
        let o3 = citroen_passes::o3_pipeline(&task.registry);
        let hot = task.hot();
        let (stats, _, module) = task.compile_hot(hot, &o3);
        let ap = citroen_passes::autophase::autophase_features(&module);
        let keys = stats.keys();
        let genome: Vec<u16> = o3.iter().map(|p| p.0).collect();
        let n_genes = genome.len();
        let p = Point { genome, stats, autophase: ap };
        let s = raw_features(&p, &keys, FeatureKind::CompilationStats);
        let a = raw_features(&p, &keys, FeatureKind::Autophase);
        let r = raw_features(&p, &keys, FeatureKind::RawSequence);
        assert_eq!(s.len(), keys.len());
        assert_eq!(a.len(), citroen_passes::autophase::NUM_AUTOPHASE_FEATURES);
        assert_eq!(r.len(), n_genes);
        assert!(s.iter().any(|v| *v > 0.0));
    }

    #[test]
    fn oracle_pruning_cuts_compiles_without_hurting_speedup() {
        // Same 10-seed quantile discipline as the headline tuner test: for
        // each seed run the identical configuration with oracle pruning off
        // and on, then compare the windows. Pruning must cut compilations by
        // ≥15% at the median (canonical-genome cache hits) while the
        // best-found runtime stays no worse at the median.
        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let run = |prune: bool| {
                let mut task = gsm_task(seed);
                let cfg = CitroenConfig {
                    candidates: 24,
                    init_random: 6,
                    oracle_prune: prune,
                    seed,
                    ..Default::default()
                };
                let (trace, _) = run_citroen(&mut task, 20, &cfg);
                (trace.best() / task.o3_seconds, task.compilations)
            };
            (run(false), run(true))
        });
        let mut reduction: Vec<f64> = runs
            .iter()
            .map(|((_, c_off), (_, c_on))| 1.0 - *c_on as f64 / *c_off as f64)
            .collect();
        reduction.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut off: Vec<f64> = runs.iter().map(|((r, _), _)| *r).collect();
        let mut on: Vec<f64> = runs.iter().map(|(_, (r, _))| *r).collect();
        off.sort_by(|a, b| a.partial_cmp(b).unwrap());
        on.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("compile reduction per seed: {reduction:?}");
        eprintln!("best/O3 off: {off:?}\nbest/O3 on:  {on:?}");
        let median_red = reduction[reduction.len() / 2];
        assert!(
            median_red >= 0.15,
            "median compile reduction {median_red:.3} < 15%: {reduction:?}"
        );
        // "No worse" with a small noise tolerance: the two searches follow
        // different candidate streams, so compare medians, not seeds.
        let (m_off, m_on) = (off[off.len() / 2], on[on.len() / 2]);
        assert!(
            m_on <= m_off * 1.05,
            "median best/O3 degraded with pruning: {m_on:.4} vs {m_off:.4}"
        );
    }

    #[test]
    fn idempotence_collapse_cuts_compiles_without_hurting_speedup() {
        // Same quantile discipline: oracle pruning on for both arms, with
        // the idempotence collapse toggled. Collapsing `p,p → p` for the 12
        // verified-idempotent cleanup passes folds more genomes onto shared
        // compile-cache entries, so compilations must drop at the median
        // while the median best-found runtime stays within noise.
        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let run = |idem: bool| {
                let mut task = gsm_task(seed);
                let cfg = CitroenConfig {
                    candidates: 24,
                    init_random: 6,
                    oracle_prune: true,
                    idem_collapse: idem,
                    seed,
                    ..Default::default()
                };
                let (trace, _) = run_citroen(&mut task, 20, &cfg);
                (trace.best() / task.o3_seconds, task.compilations)
            };
            (run(false), run(true))
        });
        let mut reduction: Vec<f64> = runs
            .iter()
            .map(|((_, c_off), (_, c_on))| 1.0 - *c_on as f64 / *c_off as f64)
            .collect();
        reduction.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut off: Vec<f64> = runs.iter().map(|((r, _), _)| *r).collect();
        let mut on: Vec<f64> = runs.iter().map(|(_, (r, _))| *r).collect();
        off.sort_by(|a, b| a.partial_cmp(b).unwrap());
        on.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("idem compile reduction per seed: {reduction:?}");
        eprintln!("best/O3 idem-off: {off:?}\nbest/O3 idem-on:  {on:?}");
        let median_red = reduction[reduction.len() / 2];
        assert!(
            median_red > 0.0,
            "median compile reduction {median_red:.3} not positive: {reduction:?}"
        );
        let (m_off, m_on) = (off[off.len() / 2], on[on.len() / 2]);
        assert!(
            m_on <= m_off * 1.05,
            "median best/O3 degraded with idempotence collapse: {m_on:.4} vs {m_off:.4}"
        );
    }

    #[test]
    fn subsumption_collapse_cuts_compiles_without_hurting_speedup() {
        // Same quantile discipline as the oracle-pruning test: for each seed
        // run the identical configuration with the work-class subsumption
        // collapse off and on. Every drop is a module-independent theorem
        // (fuzz-checked by `citroen-analyze subsume`), so compiled artifacts
        // are unchanged; the win is genomes differing only in provable
        // no-op patterns (`p,p`, `dce` after a dce-tailed pass, `p,q,p`)
        // folding onto shared compile-cache entries.
        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let run = |subsume: bool| {
                // Longer sequences than the default gsm task (provable
                // no-op patterns scale with genome length; 32 is well inside
                // the paper's explored range) and an exploitation-heavy
                // mutation rate: most DES candidates then differ from the
                // incumbent in a single position, which is exactly the regime
                // where genomes collide onto one canonical form. Both arms
                // share the config, so the comparison stays honest.
                let mut task = Task::new(
                    citroen_suite::kernels::telecom_gsm(),
                    Registry::full(),
                    Platform::tx2(),
                    TaskConfig { seq_len: 32, seed, ..Default::default() },
                );
                let cfg = CitroenConfig {
                    candidates: 24,
                    init_random: 6,
                    mutation_rate: Some(1.0 / 32.0),
                    subsume_collapse: subsume,
                    seed,
                    ..Default::default()
                };
                let (trace, _) = run_citroen(&mut task, 40, &cfg);
                (trace.best() / task.o3_seconds, task.compilations)
            };
            (run(false), run(true))
        });
        let mut reduction: Vec<f64> = runs
            .iter()
            .map(|((_, c_off), (_, c_on))| 1.0 - *c_on as f64 / *c_off as f64)
            .collect();
        reduction.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut off: Vec<f64> = runs.iter().map(|((r, _), _)| *r).collect();
        let mut on: Vec<f64> = runs.iter().map(|(_, (r, _))| *r).collect();
        off.sort_by(|a, b| a.partial_cmp(b).unwrap());
        on.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("subsume compile reduction per seed: {reduction:?}");
        eprintln!("best/O3 subsume-off: {off:?}\nbest/O3 subsume-on:  {on:?}");
        let median_red = reduction[reduction.len() / 2];
        assert!(
            median_red >= 0.10,
            "median compile reduction {median_red:.3} < 10%: {reduction:?}"
        );
        let (m_off, m_on) = (off[off.len() / 2], on[on.len() / 2]);
        assert!(
            m_on <= m_off * 1.05,
            "median best/O3 degraded with subsumption collapse: {m_on:.4} vs {m_off:.4}"
        );
    }

    #[test]
    fn sixteen_class_masks_cut_compiles_beyond_the_twelve_class_model() {
        // The four loop/CFG work classes (CFGS, LICM, IVL, ROT) gave the
        // loop passes and simplifycfg provable `fires_on` masks they did
        // not have under the previous twelve-class model. Quantify the win
        // with the quantile discipline of the other ablations, on the
        // search space where those masks carry the drops: a loop-nest
        // sub-registry (six of its eight passes own the new classes), the
        // regime the alias/dependence analyses sharpened in the first
        // place. Arm A runs the old model — the registry's work triple
        // truncated to the first twelve classes, so any mask reaching into
        // the new bits reverts to `None` (never dropped), exactly the
        // pre-growth declarations — injected through an interaction graph
        // attached to the session; arm B runs the same graph with the full
        // model. Same seeds, same budget: the full matrix must cut compile
        // work (passes executed — every extra drop shortens the compiled
        // canonical sequence) by >=5% more at unchanged median
        // best-speedup. (On the full 33-pass registry the delta collapses
        // to noise: every loop pass's `produces` is "everything", so with
        // loop passes at 1/33 density the new drops are almost exclusively
        // immediate duplicates, which almost never survive mutation.)
        let loop_registry = || {
            const NAMES: &[&str] = &[
                "mem2reg",
                "loop-simplify",
                "loop-rotate",
                "licm",
                "loop-unroll",
                "loop-deletion",
                "simplifycfg",
                "dce",
            ];
            Registry::from_passes(
                citroen_passes::passes::all_passes()
                    .into_iter()
                    .filter(|p| NAMES.contains(&p.name()))
                    .collect(),
            )
        };
        let reg = loop_registry();
        let task0 = Task::new(
            citroen_suite::kernels::telecom_gsm(),
            loop_registry(),
            Platform::tx2(),
            TaskConfig { seq_len: 32, seed: 1, ..Default::default() },
        );
        let hot = task0.hot();
        let g16 = citroen_passes::oracle::derive_graph(
            &reg,
            &[task0.benchmark().modules[hot].clone()],
        );
        let mut g12 = g16.clone();
        {
            const OLD: u64 = (1 << 12) - 1;
            let w = g12.work.as_mut().expect("derived graph carries a work model");
            w.classes.truncate(12);
            for f in &mut w.fires_on {
                *f = f.filter(|m| m & !OLD == 0);
            }
            for c in &mut w.clears {
                *c &= OLD;
            }
            for p in &mut w.produces {
                *p &= OLD;
            }
        }
        let (g16, g12) = (Arc::new(g16), Arc::new(g12));

        let seeds: Vec<u64> = (1..=10).collect();
        let runs = citroen_rt::par::par_map(seeds, |seed| {
            let run = |graph: &Arc<oracle::InteractionGraph>| {
                let mut task = Task::new(
                    citroen_suite::kernels::telecom_gsm(),
                    loop_registry(),
                    Platform::tx2(),
                    TaskConfig { seq_len: 32, seed, ..Default::default() },
                );
                let cfg = CitroenConfig {
                    candidates: 24,
                    init_random: 6,
                    subsume_collapse: true,
                    seed,
                    ..Default::default()
                };
                let env = SessionEnv { graph: Some(graph.clone()), ..Default::default() };
                let trace = run_citroen_session(&mut task, 40, &cfg, &env).trace;
                (trace.best() / task.o3_seconds, task.passes_executed)
            };
            (run(&g12), run(&g16))
        });
        let mut extra: Vec<f64> = runs
            .iter()
            .map(|((_, w12), (_, w16))| 1.0 - *w16 as f64 / *w12 as f64)
            .collect();
        extra.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut r12: Vec<f64> = runs.iter().map(|((r, _), _)| *r).collect();
        let mut r16: Vec<f64> = runs.iter().map(|(_, (r, _))| *r).collect();
        r12.sort_by(|a, b| a.partial_cmp(b).unwrap());
        r16.sort_by(|a, b| a.partial_cmp(b).unwrap());
        eprintln!("additional compile-work reduction per seed (16 vs 12 classes): {extra:?}");
        eprintln!("best/O3 12-class: {r12:?}\nbest/O3 16-class: {r16:?}");
        let median_extra = extra[extra.len() / 2];
        assert!(
            median_extra >= 0.05,
            "median additional compile-work reduction {median_extra:.3} < 5%: {extra:?}"
        );
        let (m12, m16) = (r12[r12.len() / 2], r16[r16.len() / 2]);
        assert!(
            m16 <= m12 * 1.05 && m12 <= m16 * 1.05,
            "median best/O3 moved with the grown matrix: {m16:.4} vs {m12:.4}"
        );
    }

    #[test]
    fn attached_graph_warm_start_matches_per_task_derivation() {
        // Persist the interaction graph derived over the task's own hot
        // module, load it back, and attach it to the session the way the
        // daemon does: the canonicalizer inputs are identical, so the whole
        // tuning trajectory (best runtime and compile count) must be
        // bit-identical to the per-task derivation.
        let seed = 7;
        let run = |graph: Option<Arc<oracle::InteractionGraph>>| {
            let mut task = gsm_task(seed);
            let cfg = CitroenConfig {
                candidates: 12,
                init_random: 4,
                oracle_prune: true,
                subsume_collapse: true,
                seed,
                ..Default::default()
            };
            let env = SessionEnv { graph, ..Default::default() };
            let trace = run_citroen_session(&mut task, 10, &cfg, &env).trace;
            (trace.best(), task.compilations)
        };
        let task = gsm_task(seed);
        let hot = task.hot();
        let g = citroen_passes::oracle::derive_graph(
            &task.registry,
            &[task.benchmark().modules[hot].clone()],
        );
        let loaded = oracle::InteractionGraph::from_json(&g.to_json()).unwrap();
        let derived = run(None);
        let warm = run(Some(Arc::new(loaded)));
        assert_eq!(derived, warm, "graph warm-start diverged from per-task derivation");
    }
}
