//! Soundness campaigns for the pass pipeline and the analyses behind it.
//! All four share one loop: random generated modules × random pass
//! sequences, every trial handed to a campaign-specific check, and every
//! finding delta-debugged before it is reported. The pass sequence is
//! minimised with [`ddmin`] and the module shrunk with [`reduce_module`],
//! both pinned to the finding's subject, so the report holds a small
//! parseable reproducer rather than a 300-line random program.
//!
//! The checks:
//!
//! * [`run_campaign`]: the structural verifier, the translation-validation
//!   sanitizer, and an interpreter differential (return value +
//!   mutable-memory digest against the unoptimised module);
//! * [`run_oracle_campaign`]: every `CannotFire` precondition verdict along
//!   the sequence is executed as a no-op theorem;
//! * [`run_subsumption_campaign`]: every drop the sequence canonicalizer's
//!   absent-work dataflow predicts is executed as a no-op theorem;
//! * [`run_alias_campaign`]: every same-block `No`/`Must` alias answer, on
//!   the raw module and after each pipeline, is checked against concrete
//!   access addresses.

use citroen_analyze::aliasoracle;
use citroen_analyze::reduce::{ddmin, reduce_module};
use citroen_ir::interp::{run, CountingSink, Limits, Trap, Value};
use citroen_ir::module::Module;
use citroen_ir::FuncId;
use citroen_passes::oracle::check_noop;
use citroen_passes::{CompileError, PassId, PassManager, Registry};
use citroen_rt::rng::{Rng, SeedableRng, StdRng};
use citroen_suite::generator::{generate, GenConfig};

/// Campaign size knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random modules to generate.
    pub modules: usize,
    /// Random pass sequences tried per module.
    pub seqs_per_module: usize,
    /// Maximum sequence length (lengths are drawn uniformly from 1..=max).
    pub max_seq_len: usize,
    /// Campaign seed; every trial derives deterministically from it.
    pub seed: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { modules: 20, seqs_per_module: 10, max_seq_len: 16, seed: 0xC17B0E }
    }
}

impl FuzzConfig {
    /// The tiny deterministic budget behind `citroen-analyze --smoke`.
    pub fn smoke() -> FuzzConfig {
        FuzzConfig { modules: 4, seqs_per_module: 3, max_seq_len: 10, seed: 1 }
    }
}

/// A reduced, reportable finding of any campaign.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The finding's subject, which reduction keeps fixed: the failing check
    /// (`verify`, `sanitize`, `differential`) in [`run_campaign`], the pass
    /// whose no-op theorem failed in the oracle and subsume campaigns, the
    /// contradicted relation (`No`, `Must`) in the alias campaign.
    pub pass: String,
    /// What the check observed.
    pub detail: String,
    /// Seed of the generated module that exposed the finding.
    pub module_seed: u64,
    /// The original sequence (comma-separated pass names; empty for a raw
    /// module).
    pub seq: String,
    /// The ddmin-minimised sequence that still shows the finding. Empty in
    /// the alias campaign, whose reproducer is the compiled module alone.
    pub reduced_seq: String,
    /// The reduced module, printed as parseable IR.
    pub reduced_ir: String,
}

/// Campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Trials checked: one per module × sequence, plus one per raw module in
    /// the alias campaign.
    pub trials: usize,
    /// The campaign's two counters, named in each `run_*` function's docs.
    pub counts: [u64; 2],
    /// Reduced violations, in discovery order.
    pub violations: Vec<Violation>,
}

/// A finding as a check reports it: `(subject, detail)`.
type Finding = Option<(String, String)>;

/// The one campaign loop. `check(m, seq, counts)` is the trial check and,
/// with `counts` off, the predicate the reducers re-run. `label` prefixes
/// the progress lines. With a `pipeline`, each drawn sequence is compiled
/// first and the check sees the raw module and every compiled state with an
/// empty sequence, so reduction shrinks the compiled module.
fn run_trials(
    cfg: &FuzzConfig,
    reg: &Registry,
    label: &str,
    pipeline: Option<&PassManager<'_>>,
    check: impl Fn(&Module, &[PassId], Option<&mut [u64; 2]>) -> Finding,
    mut progress: impl FnMut(&str),
) -> Report {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = Report::default();
    for mi in 0..cfg.modules {
        let module_seed: u64 = rng.gen();
        let gen_cfg = varied_config(&mut rng);
        let module = generate(module_seed, &gen_cfg);
        progress(&format!(
            "{label}module {}/{} (seed {module_seed:#x}, {} insts)",
            mi + 1,
            cfg.modules,
            module.num_insts()
        ));
        let mut trial = |m: &Module, seq: &[PassId], applied: &[PassId]| {
            report.trials += 1;
            let Some((subject, detail)) = check(m, seq, Some(&mut report.counts)) else { return };
            progress(&format!("  {label}violation ({subject}) — reducing"));
            // Pin reduction to the same subject so it cannot drift to an
            // unrelated finding (a miscompile to a verifier complaint, one
            // lying pass to another).
            let same =
                |m: &Module, s: &[PassId]| check(m, s, None).is_some_and(|(x, _)| x == subject);
            let min_seq = ddmin(seq, |s| same(m, s));
            let reduced = reduce_module(m, |c| same(c, &min_seq));
            report.violations.push(Violation {
                pass: subject,
                detail,
                module_seed,
                seq: reg.seq_to_string(&[applied, seq].concat()),
                reduced_seq: reg.seq_to_string(&min_seq),
                reduced_ir: citroen_ir::print::print_module(&reduced),
            });
        };
        if pipeline.is_some() {
            trial(&module, &[], &[]);
        }
        for _ in 0..cfg.seqs_per_module {
            let len = rng.gen_range(1..=cfg.max_seq_len);
            let seq: Vec<PassId> =
                (0..len).map(|_| reg.ids()[rng.gen_range(0..reg.len())]).collect();
            match pipeline {
                None => trial(&module, &seq, &[]),
                Some(pm) => {
                    if let Ok(res) = pm.compile_result(&module, &seq) {
                        trial(&res.module, &[], &seq);
                    }
                }
            }
        }
    }
    report
}

/// Vary the generator shape per module so the campaign covers helper-call,
/// deep-nest and straight-line extremes rather than one average shape.
pub(crate) fn varied_config(rng: &mut StdRng) -> GenConfig {
    GenConfig {
        helpers: rng.gen_range(0..=3),
        trip_range: (rng.gen_range(2..16), rng.gen_range(16..64)),
        max_depth: rng.gen_range(1..=3),
        stmts: rng.gen_range(2..=8),
    }
}

/// Interpreter fuel for fuzz trials — far above any generated program's step
/// count, low enough that a reducer candidate with an accidental infinite
/// loop terminates promptly.
const FUZZ_STEPS: u64 = 5_000_000;

/// The generator's entry function is the module's last.
fn entry(m: &Module) -> FuncId {
    FuncId((m.funcs.len() - 1) as u32)
}

fn observe(m: &Module) -> Result<(Option<Value>, u64), Trap> {
    let mut sink = CountingSink::new();
    let limits = Limits { max_steps: FUZZ_STEPS, ..Limits::default() };
    let out = run(m, entry(m), &[], &mut sink, limits)?;
    Ok((out.ret, out.mem_digest))
}

/// The differential check: does `seq` break `m` in any observable way?
fn differential(pm: &PassManager<'_>, m: &Module, seq: &[PassId]) -> Finding {
    let res = match pm.compile_result(m, seq) {
        Err(e @ CompileError::Verify { .. }) => return Some(("verify".into(), e.to_string())),
        Err(e @ CompileError::Sanitize { .. }) => return Some(("sanitize".into(), e.to_string())),
        Ok(res) => res,
    };
    let detail = match (observe(m), observe(&res.module)) {
        (Ok(a), Ok(b)) if a != b => format!("(return, memory digest) {a:?} became {b:?}"),
        // A module that traps before optimisation is outside the contract
        // (generated programs never trap); don't blame the passes for it.
        (Err(_), _) => return None,
        // Trap introduced by optimisation is a differential failure too.
        (Ok(_), Err(t)) => format!("optimised module traps: {t:?}"),
        _ => return None,
    };
    Some(("differential".into(), detail))
}

/// Differential campaign: every trial runs through the verifier, the
/// sanitizer and the interpreter differential. Both counters stay zero.
/// `progress` receives one line per module and per finding (pass `|_| {}`
/// to silence).
pub fn run_campaign(cfg: &FuzzConfig, progress: impl FnMut(&str)) -> Report {
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    pm.verify_each = true;
    pm.sanitize = true;
    run_trials(cfg, &reg, "", None, |m, seq, _| differential(&pm, m, seq), progress)
}

/// Step `seq` through a clone of `m`. Every pass `predicts_noop` claims
/// changes nothing is executed as a no-op theorem ([`check_noop`]); the
/// others just run. Counts `[predicted no-ops executed, positions]`.
fn replay(
    reg: &Registry,
    m: &Module,
    seq: &[PassId],
    mut counts: Option<&mut [u64; 2]>,
    claim: &str,
    mut predicts_noop: impl FnMut(&Module, PassId) -> bool,
) -> Finding {
    let mut cur = m.clone();
    for &id in seq {
        let pass = reg.pass(id);
        let predicted = predicts_noop(&cur, id);
        if let Some(c) = counts.as_deref_mut() {
            c[0] += u64::from(predicted);
            c[1] += 1;
        }
        if !predicted {
            pass.run(&mut cur, &mut citroen_passes::Stats::new());
        } else if let Some(e) = check_noop(pass, &mut cur) {
            return Some((pass.name().to_string(), format!("{claim} pass {e}")));
        }
    }
    None
}

/// Oracle campaign: soundness-fuzz the precondition oracle of every pass in
/// `reg`, stepping each sequence through an evolving module and executing
/// every `CannotFire` verdict seen along the way. Counts `[cannot-fire
/// verdicts executed, verdicts]`.
pub fn run_oracle_campaign(cfg: &FuzzConfig, reg: &Registry, progress: impl FnMut(&str)) -> Report {
    let check = |m: &Module, seq: &[PassId], counts: Option<&mut [u64; 2]>| {
        replay(reg, m, seq, counts, "cannot-fire", |cur, id| {
            let facts = citroen_analyze::oracle::compute_facts(cur);
            reg.pass(id).precondition(cur, &facts).is_cannot_fire()
        })
    };
    run_trials(cfg, reg, "oracle ", None, check, progress)
}

/// Subsumption campaign: soundness-fuzz the work-class subsumption matrix.
/// Each sequence runs the *same* absent-work dataflow the
/// [`SeqCanonicalizer`](citroen_bo::SeqCanonicalizer) runs — `maybe`
/// starts all-ones and each kept pass applies `(maybe | produces) & !clears`
/// — and every pass the canonicalizer would drop is executed as a no-op
/// theorem. A dropped pass does not advance the dataflow (it provably
/// changed nothing), exactly as in the canonicalizer. This exercises all
/// three mask claims — `fires_on` (the no-op certificate), `clears` (the
/// postcondition) and `produces` (the frame condition) — in the composition
/// the search uses them. Counts `[predicted drops executed, positions]`.
pub fn run_subsumption_campaign(
    cfg: &FuzzConfig,
    reg: &Registry,
    progress: impl FnMut(&str),
) -> Report {
    let (fires, clears, produces) = (reg.fires_on(), reg.clears(), reg.produces());
    let check = |m: &Module, seq: &[PassId], counts: Option<&mut [u64; 2]>| {
        let mut maybe = u64::MAX;
        replay(reg, m, seq, counts, "predicted-subsumed", |_, id| {
            let i = id.0 as usize;
            let dropped = fires[i].is_some_and(|f| f & maybe == 0);
            if !dropped {
                maybe = (maybe | produces[i]) & !clears[i];
            }
            dropped
        })
    };
    run_trials(cfg, reg, "subsume ", None, check, progress)
}

/// The alias check: every same-block `No`/`Must` answer on `m` is a theorem
/// about all executions, checked against the brute-force witness — a
/// concrete interpretation recording every dynamic access's address (see
/// [`aliasoracle`]). Counts `[No claims, Must claims]`.
fn alias_check(m: &Module, counts: Option<&mut [u64; 2]>) -> Finding {
    if let Some(c) = counts {
        let (no, must) = aliasoracle::claim_count(m);
        c[0] += no as u64;
        c[1] += must as u64;
    }
    // A trapping or runaway module is no witness either way.
    let v = aliasoracle::check_module(m, entry(m), FUZZ_STEPS).ok()?.into_iter().next()?;
    Some((format!("{:?}", v.claim.result), v.to_string()))
}

/// Alias campaign: soundness-fuzz the alias analysis on each generated
/// module, raw and after every random pipeline (optimised shapes — rotated
/// loops, forwarded loads — are where an unsound analysis would bite).
/// Violating compiled modules are shrunk with `reduce_module`. Counts `[No
/// claims, Must claims]`.
pub fn run_alias_campaign(cfg: &FuzzConfig, progress: impl FnMut(&str)) -> Report {
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    pm.verify_each = false;
    pm.sanitize = false;
    run_trials(cfg, &reg, "alias ", Some(&pm), |m, _, counts| alias_check(m, counts), progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fail with the first reduced violation's reproducer, if any.
    fn assert_clean(report: &Report) {
        if let Some(v) = report.violations.first() {
            panic!(
                "violation: '{}' ({}) seed {:#x}\n  seq: {}\n  reduced: {}\n{}",
                v.pass, v.detail, v.module_seed, v.seq, v.reduced_seq, v.reduced_ir
            );
        }
    }

    #[test]
    fn smoke_campaign_is_clean() {
        // The shipped passes must survive a small deterministic campaign;
        // this is the `cargo test` face of `citroen-analyze --smoke`.
        let report = run_campaign(&FuzzConfig::smoke(), |_| {});
        assert_eq!(report.trials, 12);
        assert_clean(&report);
    }

    #[test]
    fn oracle_smoke_campaign_is_clean() {
        // Every shipped precondition must uphold its CannotFire theorem on
        // a small deterministic campaign (the full 500-trial version runs in
        // release via `citroen-analyze oracle` / scripts/check.sh).
        let cfg = FuzzConfig { modules: 6, seqs_per_module: 5, max_seq_len: 12, seed: 7 };
        let report = run_oracle_campaign(&cfg, &Registry::full(), |_| {});
        assert_eq!(report.trials, 30);
        // The campaign only proves something if verdicts were actually
        // executed: a trivially-MayFire oracle would make this test vacuous.
        let [checked_cannot_fire, verdicts] = report.counts;
        assert!(
            checked_cannot_fire >= verdicts / 10,
            "only {}/{} verdicts were CannotFire — oracle too weak to test",
            checked_cannot_fire,
            verdicts
        );
        assert_eq!((checked_cannot_fire, verdicts), (152, 213));
        assert_clean(&report);
    }

    #[test]
    fn subsumption_smoke_campaign_is_clean() {
        // Every claimed work-class theorem (fires_on/clears/produces of the
        // shipped registry) must survive a small deterministic campaign; the
        // full 500-trial version runs via `citroen-analyze subsume`.
        let cfg = FuzzConfig { modules: 6, seqs_per_module: 5, max_seq_len: 12, seed: 7 };
        let report = run_subsumption_campaign(&cfg, &Registry::full(), |_| {});
        assert_eq!(report.trials, 30);
        // Vacuity guard: the campaign only proves something if drops were
        // actually predicted and executed.
        let [checked_drops, positions] = report.counts;
        assert!(
            checked_drops > 0,
            "no drops predicted over {positions} positions — matrix too weak to test"
        );
        assert_eq!((checked_drops, positions), (5, 213));
        assert_clean(&report);
    }

    #[test]
    fn subsumption_campaign_convicts_lying_clears() {
        // A registry spiked with the pass that claims `clears == ALL` while
        // doing nothing must produce violations, and ddmin must shrink every
        // reproducer to the lie plus the one pass it falsely subsumed.
        let mut passes = citroen_passes::passes::all_passes();
        passes.push(Box::new(citroen_passes::testing::LyingSubsumption));
        let reg = Registry::from_passes(passes);
        let cfg = FuzzConfig { modules: 3, seqs_per_module: 8, max_seq_len: 16, seed: 28 };
        let report = run_subsumption_campaign(&cfg, &reg, |_| {});
        assert!(
            !report.violations.is_empty(),
            "the lying clears claim must be caught ({} trials)",
            report.trials
        );
        for v in &report.violations {
            let parts: Vec<&str> = v.reduced_seq.split(',').collect();
            assert_eq!(
                parts.first().copied(),
                Some("lying-subsumption"),
                "reduction must pin the lie first: {}",
                v.reduced_seq
            );
            assert_eq!(
                parts.len(),
                2,
                "minimal reproducer is the lie plus its victim: {}",
                v.reduced_seq
            );
            assert!(!v.reduced_ir.is_empty());
        }
    }

    #[test]
    fn alias_campaign_is_clean_and_exercises_both_claims() {
        let cfg = FuzzConfig { modules: 6, seqs_per_module: 3, max_seq_len: 10, seed: 0xA11A5 };
        let report = run_alias_campaign(&cfg, |_| {});
        assert_eq!(report.trials, 24, "each module checked raw and after 3 pipelines");
        let [no_claims, must_claims] = report.counts;
        assert!(no_claims > 0, "campaign must test No claims");
        assert!(must_claims > 0, "campaign must test Must claims");
        assert_eq!((no_claims, must_claims), (296, 89));
        assert_clean(&report);
    }

    #[test]
    fn oracle_campaign_convicts_lying_alias_precondition() {
        // The alias-flavoured lie: CannotFire claimed whenever the only
        // forwarding candidates flow through computed addresses. Generated
        // modules carry alloca-backed store→load pairs, so the campaign must
        // catch it, and ddmin must pin each reproducer to the lie alone.
        let mut passes = citroen_passes::passes::all_passes();
        passes.push(Box::new(citroen_passes::testing::LyingAliasPrecondition));
        let reg = Registry::from_passes(passes);
        let cfg = FuzzConfig { modules: 3, seqs_per_module: 8, max_seq_len: 16, seed: 11 };
        let report = run_oracle_campaign(&cfg, &reg, |_| {});
        assert!(
            !report.violations.is_empty(),
            "the alias lie must be caught ({} trials)",
            report.trials
        );
        for v in &report.violations {
            assert_eq!(v.pass, "lying-alias-precondition", "only the spiked pass may be convicted");
            assert_eq!(
                v.reduced_seq, "lying-alias-precondition",
                "ddmin must shrink the sequence to the lie alone"
            );
            assert!(!v.reduced_ir.is_empty());
        }
    }

    #[test]
    fn oracle_campaign_convicts_lying_precondition() {
        // A registry spiked with the deliberately lying pass must produce
        // violations, and ddmin must reduce each reproducer to the lie alone.
        let mut passes = citroen_passes::passes::all_passes();
        passes.push(Box::new(citroen_passes::testing::LyingPrecondition));
        let reg = Registry::from_passes(passes);
        // The lying pass is 1 of 33, so keep enough slots that some drawn
        // sequence deterministically contains it under this seed.
        let cfg = FuzzConfig { modules: 3, seqs_per_module: 8, max_seq_len: 16, seed: 11 };
        let report = run_oracle_campaign(&cfg, &reg, |_| {});
        assert!(
            !report.violations.is_empty(),
            "the lying pass must be caught ({} trials)",
            report.trials
        );
        for v in &report.violations {
            assert_eq!(v.pass, "lying-precondition", "only the spiked pass may be convicted");
            assert_eq!(
                v.reduced_seq, "lying-precondition",
                "ddmin must shrink the sequence to the lie alone"
            );
            assert!(!v.reduced_ir.is_empty());
        }
    }
}

