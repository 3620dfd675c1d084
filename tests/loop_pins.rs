//! Golden pins for the CITROEN tuning loop. Each cell runs one small tuning
//! session and compares its observable outcome against literal values: the
//! trajectory digest, the task's budget and compile accounting, the number
//! of generated candidates, and a digest of the ARD impact report. A change
//! that alters any of them changes the tuner's behaviour, not just its
//! structure, and must be a deliberate, logged re-pin.
//!
//! The matrix covers the sequential (q=1) and batched (q=4) loops under the
//! configurations whose accounting differs: the paper default, oracle
//! pruning, subsumption collapse, a compile cache small enough to evict,
//! the Autophase feature kind, the random generator, transfer seeds in the
//! initial design, and a compile cache shared across two tenants.

use citroen::core::{
    run_citroen_session, trace_digest, CitroenConfig, FeatureKind, GeneratorKind, ImpactReport,
    SessionCtl, SessionEnv, SharedCompileCache, Task, TaskConfig,
};
use citroen::passes::Registry;
use citroen::sim::Platform;
use std::sync::Arc;

const BUDGET: usize = 16;

/// The pinned outcome of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    measurements: usize,
    compilations: usize,
    cache_hits: usize,
    candidates_generated: usize,
    passes_executed: usize,
    report: u64,
}

fn gsm_task(seed: u64) -> Task {
    Task::new(
        citroen::suite::kernels::telecom_gsm(),
        Registry::full(),
        Platform::tx2(),
        TaskConfig { seq_len: 16, seed, ..Default::default() },
    )
}

fn base(seed: u64, batch: usize) -> CitroenConfig {
    CitroenConfig { candidates: 16, init_random: 4, batch, seed, ..Default::default() }
}

/// FNV-1a over the ranked feature names and their length-scale bits.
fn report_digest(report: &ImpactReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(&(report.ranked.len() as u64).to_le_bytes());
    for (name, ls) in &report.ranked {
        mix(name.as_bytes());
        mix(&ls.to_bits().to_le_bytes());
    }
    h
}

fn session(cfg: &CitroenConfig, env: &SessionEnv) -> Pin {
    let mut task = gsm_task(cfg.seed);
    let r = run_citroen_session(&mut task, BUDGET, cfg, env);
    Pin {
        digest: trace_digest(&r.trace),
        measurements: task.measurements,
        compilations: task.compilations,
        cache_hits: task.cache_hits,
        candidates_generated: r.trace.candidates_generated,
        passes_executed: task.passes_executed,
        report: report_digest(&r.report),
    }
}

/// Run `cfg` standalone at each seed and compare against `pins`.
fn check(cell: &str, pins: &[(u64, Pin)], cfg: impl Fn(u64) -> CitroenConfig) {
    let got: Vec<(u64, Pin)> = pins
        .iter()
        .map(|&(seed, _)| (seed, session(&cfg(seed), &SessionEnv::default())))
        .collect();
    assert_eq!(got, pins, "cell {cell}");
}

const fn pin(d: u64, m: usize, c: usize, h: usize, g: usize, p: usize, r: u64) -> Pin {
    Pin {
        digest: d,
        measurements: m,
        compilations: c,
        cache_hits: h,
        candidates_generated: g,
        passes_executed: p,
        report: r,
    }
}

#[test]
fn q1_default() {
    check(
        "q1 default",
        &[
            (1, pin(0x7acbd9b9b9fbfdff, 16, 208, 0, 192, 3328, 0x45903e13ae66ac9c)),
            (2, pin(0x5c947a2bf38ca4e1, 16, 208, 0, 192, 3328, 0xade07d8d000dcb74)),
        ],
        |s| base(s, 1),
    );
}

#[test]
fn q1_oracle_prune() {
    check(
        "q1 oracle_prune",
        &[
            (1, pin(0x0a8ccb2ee8137b29, 16, 159, 0, 192, 1069, 0x995bbb54f53dcb8b)),
            (2, pin(0x38f4a0a3b933a459, 16, 152, 0, 192, 901, 0x9839277aadb21bc1)),
        ],
        |s| CitroenConfig { oracle_prune: true, ..base(s, 1) },
    );
}

#[test]
fn q1_subsume_collapse() {
    check(
        "q1 subsume",
        &[
            (1, pin(0x7acbd9b9b9fbfdff, 16, 195, 0, 192, 3074, 0x45903e13ae66ac9c)),
            (2, pin(0x5c947a2bf38ca4e1, 16, 194, 0, 192, 3069, 0xade07d8d000dcb74)),
        ],
        |s| CitroenConfig { subsume_collapse: true, ..base(s, 1) },
    );
}

#[test]
fn q1_oracle_prune_evicting_cache() {
    check(
        "q1 prune cap16",
        &[
            (1, pin(0x0a8ccb2ee8137b29, 16, 170, 0, 192, 1151, 0x995bbb54f53dcb8b)),
            (2, pin(0x38f4a0a3b933a459, 16, 165, 0, 192, 982, 0x9839277aadb21bc1)),
        ],
        |s| CitroenConfig { oracle_prune: true, compile_cache_cap: 16, ..base(s, 1) },
    );
}

#[test]
fn q1_autophase_features() {
    check(
        "q1 autophase",
        &[
            (1, pin(0xfa42212bf2bc582d, 16, 208, 0, 192, 3328, 0xa8c7f832281a39c5)),
            (2, pin(0xbc57b632eb37bfb3, 16, 208, 0, 192, 3328, 0xa8c7f832281a39c5)),
        ],
        |s| CitroenConfig { features: FeatureKind::Autophase, ..base(s, 1) },
    );
}

#[test]
fn q1_random_generator() {
    check(
        "q1 random",
        &[
            (1, pin(0x56445e7384ef6809, 16, 208, 0, 192, 3328, 0x0310a5771c4bb263)),
            (2, pin(0x563b793eedc41c28, 16, 208, 0, 192, 3328, 0x79ba609715857d19)),
        ],
        |s| CitroenConfig { generator: GeneratorKind::Random, ..base(s, 1) },
    );
}

#[test]
fn q1_init_seeds() {
    check(
        "q1 init_seeds",
        &[
            (1, pin(0x768d09471fd39d72, 16, 208, 0, 192, 3328, 0x0563979bfe7a0019)),
            (2, pin(0x66158da42833db5f, 16, 208, 0, 192, 3328, 0x5bdc85f191b48a2b)),
        ],
        |s| CitroenConfig { init_seeds: vec![vec![5; 16], vec![1, 2, 3, 4]], ..base(s, 1) },
    );
}

#[test]
fn q1_shared_compile_cache() {
    // Two tenants replay the same seed against one cache: the second adopts
    // the first's compiles, so only its compile counters move.
    let pins: [(u64, [Pin; 2]); 2] = [
        (
            1,
            [
                pin(0x7acbd9b9b9fbfdff, 16, 195, 0, 192, 3120, 0x45903e13ae66ac9c),
                pin(0x7acbd9b9b9fbfdff, 16, 0, 0, 192, 0, 0x45903e13ae66ac9c),
            ],
        ),
        (
            2,
            [
                pin(0x5c947a2bf38ca4e1, 16, 194, 0, 192, 3104, 0xade07d8d000dcb74),
                pin(0x5c947a2bf38ca4e1, 16, 0, 0, 192, 0, 0xade07d8d000dcb74),
            ],
        ),
    ];
    let got: Vec<(u64, [Pin; 2])> = pins
        .iter()
        .map(|&(seed, _)| {
            let cache = Arc::new(SharedCompileCache::new(0));
            let tenant = |id: u64| {
                let env = SessionEnv {
                    shared_cache: Some(cache.clone()),
                    ctl: SessionCtl::new(id),
                    ..Default::default()
                };
                session(&base(seed, 1), &env)
            };
            (seed, [tenant(1), tenant(2)])
        })
        .collect();
    assert_eq!(got, pins, "cell q1 shared cache");
}

#[test]
fn q4_default() {
    check(
        "q4 default",
        &[
            (1, pin(0xba3c04e3566a4cf4, 16, 52, 0, 48, 832, 0x2f464f09c5685aa3)),
            (2, pin(0x5079170f70ef3685, 16, 68, 0, 64, 1088, 0xe4ec862478c11a89)),
        ],
        |s| base(s, 4),
    );
}

#[test]
fn q4_prune_and_subsume() {
    check(
        "q4 prune+subsume",
        &[
            (1, pin(0xe6d3b136f3c91f0f, 16, 42, 0, 48, 235, 0x2f464f09c5685aa3)),
            (2, pin(0xd9eacdbf19bd653d, 16, 53, 0, 64, 284, 0xe4ec862478c11a89)),
        ],
        |s| CitroenConfig { oracle_prune: true, subsume_collapse: true, ..base(s, 4) },
    );
}

#[test]
fn q4_evicting_cache() {
    check(
        "q4 prune cap16",
        &[
            (1, pin(0xe6d3b136f3c91f0f, 16, 42, 0, 48, 236, 0x2f464f09c5685aa3)),
            (2, pin(0xd9eacdbf19bd653d, 16, 55, 0, 64, 296, 0xe4ec862478c11a89)),
        ],
        |s| CitroenConfig { oracle_prune: true, compile_cache_cap: 16, ..base(s, 4) },
    );
}
