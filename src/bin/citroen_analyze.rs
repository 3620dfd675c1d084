//! `citroen-analyze`: the static-analysis and translation-validation front
//! end. Seven modes:
//!
//! * **lint** (`--lint`): run the dataflow lint suite over the shipped
//!   benchmark suite (optionally after `-O3`), or over a single IR file with
//!   `--ir FILE`, and print diagnostics.
//! * **oracle** (`oracle`): soundness-fuzz the per-pass precondition oracle
//!   (every `CannotFire` verdict is executed and must change nothing), then
//!   derive the static pass-interaction graph over the shipped suite and
//!   emit it as JSON on stdout.
//! * **subsume** (`subsume`): soundness-fuzz the work-class subsumption
//!   matrix — replay random sequences simulating the canonicalizer's
//!   absent-work dataflow and execute every predicted drop, which must be a
//!   behavioural no-op.
//! * **validate** (`validate`): run the shipped benchmark suite through the
//!   `-O3` pipeline with the per-pass translation-validation sanitizer armed
//!   (S1–S11, value-level and alias-aware included) and report any
//!   contradiction.
//! * **mine-edges** (`mine-edges`): trace the shipped suite under random
//!   pipelines, mine adjacent-pair no-op hypotheses, exclude those the
//!   static work matrix already proves, and promote the rest only after an
//!   executed-drop fuzz campaign (the `subsume` theorem check) fails to
//!   refute them.
//! * **alias-oracle** (`alias-oracle`): soundness-fuzz the alias analysis —
//!   every same-block `No`/`Must` answer on generated modules (raw and after
//!   random pipelines) is checked against a concrete interpretation that
//!   records every dynamic access address; violating modules are reduced.
//! * **fuzz** (default, `--smoke` for the 30-second tier-1 budget): random
//!   generated modules × random pass sequences through the verifier, the
//!   sanitizer, and an interpreter differential, delta-debugging any failure
//!   down to a minimal pass sequence + module reproducer.
//!
//! The four campaigns (fuzz, oracle, subsume, alias-oracle) run through
//! the one trial loop in [`citroen::fuzz`] and print their findings as the
//! same violation blocks: subject, detail, sequence, ddmin-reduced sequence
//! and reduced module. An explicit `--seed` sets the seed of every campaign,
//! `mine-edges` and `--smoke` budgets included.
//!
//! Exits non-zero iff a failure, an oracle violation, or (in lint mode) any
//! diagnostic was found; exits 2 on a usage error.

use citroen::fuzz::{
    run_alias_campaign, run_campaign, run_oracle_campaign, run_subsumption_campaign, FuzzConfig,
    Violation,
};
use citroen::mine::{run_mine_campaign, MineConfig};
use citroen_analyze::{filter_severity, lint_module, Severity};
use citroen_passes::manager::{o3_pipeline, Pass, PassManager, Registry};
use citroen_rt::json::Value;

const USAGE: &str = "\
citroen-analyze — dataflow lints, precondition oracle + fuzzing

USAGE:
    citroen-analyze [--smoke | --modules N --seqs N --max-len N --seed S]
    citroen-analyze oracle [--smoke] [--modules N --seqs N --max-len N --seed S]
    citroen-analyze subsume [--smoke] [--modules N --seqs N --max-len N --seed S]
    citroen-analyze alias-oracle [--smoke] [--modules N --seqs N --max-len N --seed S]
    citroen-analyze mine-edges [--smoke] [--seed S]
    citroen-analyze validate
    citroen-analyze --lint [--o3] [--errors-only] [--json] [--ir FILE]

MODES:
    (default)        fuzz campaign (20 modules x 10 sequences)
    oracle           soundness-fuzz pass preconditions (25 x 20 = 500 trials),
                     then emit the pass-interaction graph as JSON on stdout
    subsume          soundness-fuzz the work-class subsumption matrix
                     (25 x 20 = 500 trials): every drop the sequence
                     canonicalizer would take is executed and must change
                     nothing
    alias-oracle     soundness-fuzz the alias analysis: 200 generated
                     modules, each checked raw and after random pipelines
                     against concrete access addresses
    mine-edges       mine candidate subsumption edges from traced suite
                     runs; promote each novel edge only after 500
                     executed-drop trials fail to refute it
    validate         run the shipped suite through -O3 with the S1-S11
                     translation-validation sanitizer armed
    --smoke          tiny deterministic campaign (tier-1 gate, <30s)
    --lint           lint the shipped benchmark suite
    --o3             lint after the -O3 pipeline instead of the source IR
    --errors-only    only report Error-severity lints
    --json           emit lint findings / the oracle report as one JSON
                     document on stdout (exit codes unchanged)
    --ir FILE        lint a single IR file instead of the suite

FUZZ OPTIONS:
    --modules N      number of generated modules        [default: 20]
    --seqs N         pass sequences per module          [default: 10]
    --max-len N      maximum sequence length            [default: 16]
    --seed S         campaign seed                      [default: 0xC17B0E]
";

fn parse_num(args: &mut std::iter::Peekable<std::env::Args>, flag: &str) -> u64 {
    let v = args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.unwrap_or_else(|_| die(&format!("{flag}: bad number '{v}'")))
}

fn die(msg: &str) -> ! {
    eprintln!("citroen-analyze: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().peekable();
    args.next(); // argv[0]

    let mut cfg = FuzzConfig::default();
    let (mut lint, mut o3, mut errors_only, mut smoke) = (false, false, false, false);
    let (mut oracle, mut with_lying, mut explicit_size) = (false, false, false);
    let (mut subsume, mut validate) = (false, false);
    let mut alias_oracle = false;
    let mut mine_edges = false;
    let mut json = false;
    let mut ir_file: Option<String> = None;
    let mut seed = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "oracle" => oracle = true,
            "subsume" => subsume = true,
            "validate" => validate = true,
            "alias-oracle" => alias_oracle = true,
            "mine-edges" => mine_edges = true,
            "--lint" => lint = true,
            "--o3" => o3 = true,
            "--errors-only" => errors_only = true,
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--ir" => {
                ir_file = Some(args.next().unwrap_or_else(|| die("--ir needs a file path")))
            }
            // Test-only: spike the registry with the deliberately lying pass
            // to prove the soundness campaign catches it (hence not in USAGE).
            "--with-lying" => with_lying = true,
            "--modules" => {
                cfg.modules = parse_num(&mut args, "--modules") as usize;
                explicit_size = true;
            }
            "--seqs" => {
                cfg.seqs_per_module = parse_num(&mut args, "--seqs") as usize;
                explicit_size = true;
            }
            "--max-len" => {
                cfg.max_seq_len = parse_num(&mut args, "--max-len") as usize;
                if cfg.max_seq_len == 0 {
                    die("--max-len must be at least 1");
                }
            }
            "--seed" => seed = Some(parse_num(&mut args, "--seed")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    if smoke {
        cfg = FuzzConfig::smoke();
    }
    if let Some(seed) = seed {
        cfg.seed = seed;
    }

    if lint {
        match ir_file {
            Some(path) => std::process::exit(lint_file(&path, errors_only, json)),
            None => std::process::exit(lint_suite(o3, errors_only, json)),
        }
    }
    if oracle || subsume {
        if !smoke && !explicit_size {
            // The tentpole's acceptance bar: ≥500 executed module × sequence
            // soundness trials per default run.
            cfg.modules = 25;
            cfg.seqs_per_module = 20;
        }
        if subsume {
            std::process::exit(subsume_mode(&cfg, with_lying));
        }
        std::process::exit(oracle_mode(&cfg, smoke, with_lying, json));
    }
    if mine_edges {
        let mut mcfg = if smoke { MineConfig::smoke() } else { MineConfig::default() };
        if let Some(seed) = seed {
            mcfg.seed = seed;
        }
        std::process::exit(mine_edges_mode(&mcfg));
    }
    if alias_oracle {
        if smoke {
            // check.sh stage 8 budget: 25 modules x (raw + 1 pipeline) = 50
            // checked states.
            cfg.modules = 25;
            cfg.seqs_per_module = 1;
        } else if !explicit_size {
            cfg.modules = 200;
            cfg.seqs_per_module = 2;
        }
        std::process::exit(alias_oracle_mode(&cfg));
    }
    if validate {
        std::process::exit(validate_mode());
    }
    std::process::exit(fuzz(&cfg));
}

/// One lint finding as a JSON object (`--json` mode). `origin` is the
/// benchmark name or file path the finding came from.
fn diag_value(origin: &str, d: &citroen_analyze::Diagnostic) -> Value {
    let mut obj = vec![
        ("origin".into(), Value::str(origin)),
        ("code".into(), Value::str(d.code)),
        (
            "severity".into(),
            Value::str(if d.severity == Severity::Error { "error" } else { "warning" }),
        ),
        ("func".into(), Value::str(&d.func)),
    ];
    if let Some(b) = d.block {
        obj.push(("block".into(), Value::U64(u64::from(b))));
    }
    obj.push(("msg".into(), Value::str(&d.msg)));
    Value::Obj(obj)
}

/// Lint every benchmark in the cBench- and SPEC-like suites (linked form),
/// returning a non-zero exit code iff any diagnostic is produced.
fn lint_suite(after_o3: bool, errors_only: bool, json: bool) -> i32 {
    let reg = Registry::full();
    let pm = PassManager::new(&reg);
    let o3 = o3_pipeline(&reg);
    let mut total = 0usize;
    let mut findings = Vec::new();
    for bench in citroen_suite::cbench().into_iter().chain(citroen_suite::spec()) {
        let mut m = bench.link();
        if after_o3 {
            m = pm.compile(&m, &o3).module;
        }
        let mut diags = lint_module(&m);
        if errors_only {
            diags = filter_severity(diags, Severity::Error);
        }
        for d in &diags {
            if json {
                findings.push(diag_value(bench.name, d));
            } else {
                println!("{}: {d}", bench.name);
            }
        }
        total += diags.len();
    }
    let stage = if after_o3 { "after -O3" } else { "on source IR" };
    if json {
        let doc = Value::Obj(vec![
            ("mode".into(), Value::str("lint")),
            ("stage".into(), Value::str(stage)),
            ("diagnostics".into(), Value::Arr(findings)),
            ("total".into(), Value::U64(total as u64)),
        ]);
        println!("{}", doc.emit_pretty());
    } else {
        println!("citroen-analyze: {total} diagnostic(s) {stage}");
    }
    i32::from(total > 0)
}

/// Lint a single parseable IR file (e.g. a fuzz-reduced reproducer),
/// returning a non-zero exit code iff any diagnostic is produced.
fn lint_file(path: &str, errors_only: bool, json: bool) -> i32 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("--ir {path}: {e}")));
    let m = citroen_ir::parse::parse_module(&text)
        .unwrap_or_else(|e| die(&format!("--ir {path}: parse error: {e}")));
    let mut diags = lint_module(&m);
    if errors_only {
        diags = filter_severity(diags, Severity::Error);
    }
    if json {
        let doc = Value::Obj(vec![
            ("mode".into(), Value::str("lint")),
            ("file".into(), Value::str(path)),
            ("diagnostics".into(), Value::Arr(diags.iter().map(|d| diag_value(path, d)).collect())),
            ("total".into(), Value::U64(diags.len() as u64)),
        ]);
        println!("{}", doc.emit_pretty());
    } else {
        for d in &diags {
            println!("{path}: {d}");
        }
        println!("citroen-analyze: {} diagnostic(s) in {path}", diags.len());
    }
    i32::from(!diags.is_empty())
}

/// The full registry, plus the campaign's deliberately lying pass `lie`
/// under `--with-lying`.
fn registry(with_lying: bool, lie: impl Pass + 'static) -> Registry {
    let mut passes = citroen_passes::passes::all_passes();
    if with_lying {
        passes.push(Box::new(lie));
    }
    Registry::from_passes(passes)
}

/// The violation blocks of a campaign report, one per finding, in the same
/// layout for every mode; empty when the campaign is clean.
fn violation_blocks(mode: &str, violations: &[Violation]) -> String {
    let or_none = |s: &str| if s.is_empty() { "(none)".to_string() } else { s.to_string() };
    violations
        .iter()
        .map(|v| {
            format!(
                "\n=== {mode} violation: {} (module seed {:#x}) ===\n\
                 detail:           {}\n\
                 sequence:         {}\n\
                 reduced sequence: {}\n\
                 reduced module:\n{}\n",
                v.pass,
                v.module_seed,
                v.detail,
                or_none(&v.seq),
                or_none(&v.reduced_seq),
                v.reduced_ir
            )
        })
        .collect()
}

/// Oracle mode: soundness-fuzz every registered precondition, then derive
/// the pass-interaction graph over the shipped suite. Progress and the
/// campaign summary go to stderr; the graph JSON is stdout, so
/// `citroen-analyze oracle > graph.json` does the expected thing.
fn oracle_mode(cfg: &FuzzConfig, smoke: bool, with_lying: bool, json: bool) -> i32 {
    let reg = registry(with_lying, citroen_passes::testing::LyingPrecondition);
    eprintln!(
        "citroen-analyze oracle: {} modules x {} sequences (max len {}, seed {:#x})",
        cfg.modules, cfg.seqs_per_module, cfg.max_seq_len, cfg.seed
    );
    let report = run_oracle_campaign(cfg, &reg, |line| eprintln!("{line}"));
    eprint!("{}", violation_blocks("oracle", &report.violations));
    let [checked, verdicts] = report.counts;
    eprintln!(
        "citroen-analyze oracle: {} trial(s), {checked} cannot-fire verdict(s) executed \
         ({verdicts} verdicts total), {} violation(s)",
        report.trials,
        report.violations.len()
    );

    // Interaction graph over the shipped suite (linked benchmarks). The
    // smoke budget keeps the corpus small so the tier-1 gate stays <30s.
    let benches = citroen_suite::cbench();
    let corpus: Vec<_> = benches
        .iter()
        .take(if smoke { 2 } else { benches.len() })
        .map(|b| b.link())
        .collect();
    let graph = citroen_passes::oracle::derive_graph(&reg, &corpus);
    eprintln!(
        "citroen-analyze oracle: interaction graph over {} module(s): {} enables, {} disables",
        graph.modules,
        graph.enables.len(),
        graph.disables.len()
    );
    if json {
        // One document wrapping campaign + graph, so machine consumers get
        // the violation list without scraping stderr. The graph subtree is
        // byte-compatible with the plain-mode stdout document.
        let graph_value =
            Value::parse(&graph.to_json()).expect("InteractionGraph::to_json is valid JSON");
        let violations = Value::Arr(
            report
                .violations
                .iter()
                .map(|v| {
                    Value::Obj(vec![
                        ("pass".into(), Value::str(&v.pass)),
                        ("module_seed".into(), Value::U64(v.module_seed)),
                        ("detail".into(), Value::str(&v.detail)),
                        ("sequence".into(), Value::str(&v.seq)),
                        ("reduced_sequence".into(), Value::str(&v.reduced_seq)),
                        ("reduced_module".into(), Value::str(&v.reduced_ir)),
                    ])
                })
                .collect(),
        );
        let doc = Value::Obj(vec![
            ("mode".into(), Value::str("oracle")),
            (
                "campaign".into(),
                Value::Obj(vec![
                    ("trials".into(), Value::U64(report.trials as u64)),
                    ("verdicts".into(), Value::U64(verdicts)),
                    ("checked_cannot_fire".into(), Value::U64(checked)),
                    ("violations".into(), violations),
                ]),
            ),
            ("graph".into(), graph_value),
        ]);
        println!("{}", doc.emit_pretty());
    } else {
        println!("{}", graph.to_json());
    }

    i32::from(!report.violations.is_empty())
}

/// Subsume mode: print every statically claimed subsumption edge, then
/// soundness-fuzz the whole work-class model by replaying random sequences
/// and executing every drop the canonicalizer would have taken.
fn subsume_mode(cfg: &FuzzConfig, with_lying: bool) -> i32 {
    let reg = registry(with_lying, citroen_passes::testing::LyingSubsumption);
    let names = reg.names();
    let pairs = citroen_passes::oracle::work_model(&reg).subsumed_pairs();
    eprintln!("citroen-analyze subsume: {} claimed edge(s) (p subsumes q):", pairs.len());
    for &(p, q) in &pairs {
        eprintln!("    {} -> {}", names[p], names[q]);
    }
    eprintln!(
        "citroen-analyze subsume: {} modules x {} sequences (max len {}, seed {:#x})",
        cfg.modules, cfg.seqs_per_module, cfg.max_seq_len, cfg.seed
    );
    let report = run_subsumption_campaign(cfg, &reg, |line| eprintln!("{line}"));
    eprint!("{}", violation_blocks("subsumption", &report.violations));
    let [drops, positions] = report.counts;
    eprintln!(
        "citroen-analyze subsume: {} trial(s), {drops} predicted drop(s) executed \
         ({positions} positions simulated), {} violation(s)",
        report.trials,
        report.violations.len()
    );
    i32::from(!report.violations.is_empty())
}

/// Alias-oracle mode: every same-block `No`/`Must` answer is executed as a
/// theorem against concrete access addresses. Progress goes to stderr;
/// violations and the summary line to stdout.
fn alias_oracle_mode(cfg: &FuzzConfig) -> i32 {
    eprintln!(
        "citroen-analyze: alias soundness over {} modules x (raw + {} pipelines), seed {:#x}",
        cfg.modules, cfg.seqs_per_module, cfg.seed
    );
    let report = run_alias_campaign(cfg, |line| eprintln!("{line}"));
    print!("{}", violation_blocks("alias", &report.violations));
    let [no, must] = report.counts;
    println!(
        "citroen-analyze alias-oracle: {} module(s), {} state(s), {no} No + {must} Must claim(s) \
         checked, {} violation(s)",
        cfg.modules,
        report.trials,
        report.violations.len()
    );
    i32::from(!report.violations.is_empty())
}

/// Mine-edges mode: empirical edge mining with fuzz-gated promotion.
/// Progress goes to stderr; the edge report to stdout.
fn mine_edges_mode(cfg: &MineConfig) -> i32 {
    eprintln!(
        "citroen-analyze: mining subsumption edges ({} seqs/benchmark, {} drop trials/edge, \
         seed {:#x})",
        cfg.mine_seqs, cfg.promote_trials, cfg.seed
    );
    let reg = citroen_passes::manager::Registry::full();
    let report = run_mine_campaign(cfg, |line| eprintln!("{line}"));
    for e in &report.statically_implied {
        println!(
            "implied:  {} -> {} ({} obs, already in the static matrix)",
            reg.pass(e.p).name(),
            reg.pass(e.q).name(),
            e.observations
        );
    }
    for r in &report.refuted {
        println!(
            "refuted:  {} -> {} ({} obs): {}",
            reg.pass(r.edge.p).name(),
            reg.pass(r.edge.q).name(),
            r.edge.observations,
            r.detail
        );
    }
    for e in &report.promoted {
        println!(
            "promoted: {} -> {} ({} obs, survived {} executed-drop trials)",
            reg.pass(e.p).name(),
            reg.pass(e.q).name(),
            e.observations,
            cfg.promote_trials
        );
    }
    println!(
        "citroen-analyze mine-edges: {} adjacencies over {} pairs; {} implied, {} promoted, \
         {} refuted ({} drop trials)",
        report.adjacencies,
        report.pairs_seen,
        report.statically_implied.len(),
        report.promoted.len(),
        report.refuted.len(),
        report.drop_trials
    );
    0
}

/// Validate mode: compile every shipped benchmark with `-O3` under the
/// armed sanitizer; each pass's pre/post facts are cross-checked at both
/// function (S1–S5) and value (S6–S8) granularity, so a structurally valid
/// miscompile is localised to the offending pass and value.
fn validate_mode() -> i32 {
    let reg = Registry::full();
    let mut pm = PassManager::new(&reg);
    pm.sanitize = true;
    let seq = o3_pipeline(&reg);
    let mut dirty = 0usize;
    for bench in citroen_suite::cbench().into_iter().chain(citroen_suite::spec()) {
        let name = bench.name;
        match pm.compile_result(&bench.link(), &seq) {
            Ok(_) => println!("citroen-analyze validate: {name}: ok"),
            Err(citroen_passes::manager::CompileError::Sanitize { pass, violations }) => {
                dirty += 1;
                for v in &violations {
                    let at = v
                        .value
                        .map(|id| format!(" (value %{id})"))
                        .unwrap_or_default();
                    println!("citroen-analyze validate: {name}: pass '{pass}': {v}{at}");
                }
            }
            Err(citroen_passes::manager::CompileError::Verify { pass, errors }) => {
                dirty += 1;
                for e in &errors {
                    println!("citroen-analyze validate: {name}: pass '{pass}': verifier: {e}");
                }
            }
        }
    }
    println!(
        "citroen-analyze validate: {dirty} miscompiled benchmark(s) under -O3 with the \
         sanitizer armed"
    );
    i32::from(dirty > 0)
}

fn fuzz(cfg: &FuzzConfig) -> i32 {
    println!(
        "citroen-analyze: fuzzing {} modules x {} sequences (max len {}, seed {:#x})",
        cfg.modules, cfg.seqs_per_module, cfg.max_seq_len, cfg.seed
    );
    let report = run_campaign(cfg, |line| println!("{line}"));
    print!("{}", violation_blocks("fuzz", &report.violations));
    println!(
        "citroen-analyze: {} trial(s), {} failure(s)",
        report.trials,
        report.violations.len()
    );
    i32::from(!report.violations.is_empty())
}
