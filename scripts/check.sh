#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   1. release build of the whole workspace (binaries included)
#   2. the root-package test suite (integration, fuzz-differential,
#      property, hermeticity, CLI exit codes, and the daemon end to end:
#      `tests/serve_stdio.rs` cancels a running job over stdio and drains to
#      one `bye`; `tests/slo_gate.rs` runs jobs over a socket, polls the
#      `metrics` verb, and gates on `citroen-trace top --once`)
#   3. a 30-second `citroen-analyze --smoke` fuzz campaign: random modules
#      x random pass sequences through the verifier, the translation-
#      validation sanitizer, and the interpreter differential
#   4. a 30-second `citroen-analyze oracle` soundness campaign: 500 module
#      x sequence trials executing every CannotFire precondition verdict
#      (plus the pass-interaction graph derivation over the suite)
#   5. the telemetry gate: one traced tuning run, streamed as JSONL, must
#      export a well-formed trace whose `iteration` spans are >=90% covered
#      by their compile/measure/fit/acquire children (`citroen-trace
#      check`), render a monotone convergence curve (`curve`), export
#      flamegraph stacks (`flame`), and match itself as a regression
#      baseline (`regress` exit 0); the disabled-path overhead
#      (`micro --telemetry-gate`) and the marginal streaming overhead
#      (`micro --stream-gate`) must stay within their pinned budgets
#   6. the batch gate: the q=4 wall clock must beat q=1 by the pinned
#      floor (3x on >=4 worker threads, 1.5x below that)
#      (`micro --batch-gate`; same-seed q=4 determinism is a workspace test)
#   7. the subsumption gate: a >=100-trial `citroen-analyze subsume` smoke
#      campaign replaying the canonicalizer's drop decisions (every
#      predicted drop executed and checked as a behavioural no-op, exit 1
#      on any violation), then a q=4 batched tuning run with
#      subsume-collapse on and the S1-S8 sanitizer armed end to end
#      (CITROEN_SANITIZE=1)
#   8. the alias gate: a 50-state `citroen-analyze alias-oracle --smoke`
#      soundness campaign (every same-block No/Must alias verdict checked
#      against concrete access addresses), a `mine-edges --smoke` mining +
#      executed-drop promotion pass, and the shipped suite compiled at -O3
#      with the full S1-S11 sanitizer armed (`validate`, which includes
#      the alias-aware S9-S11 rules) — all exit 1 on any finding
#   9. the observability gate: the metrics-plane overhead bound, measured
#      on the daemon's own routing-sink -> metrics-hub path
#      (`micro --metrics-gate`)
#  10. the workspace test suite in release mode: every crate's unit and
#      integration tests, including the 10-seed compile-saving gates in
#      `crates/core/src/citroen.rs`, the batched-loop and telemetry-identity
#      tests in `crates/core/tests`, and the serve determinism tests (stage
#      2 runs only the root package)
#  11. the benchmark self-test: `perfbench` is a separate package outside
#      the workspace, so a telemetry or serve API change that breaks the
#      benchmark build fails here rather than only when the benchmark runs
#
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== citroen-analyze --smoke (30s budget)"
timeout 30 ./target/release/citroen-analyze --smoke

echo "== citroen-analyze oracle (500 soundness trials, 30s budget)"
timeout 30 ./target/release/citroen-analyze oracle > /dev/null

echo "== telemetry: traced run + structure/curve/flame/regress + overhead gates"
# micro lives in the citroen-bench member package, not the root package.
cargo build --release -q -p citroen-bench --bin micro
trace_file="$(mktemp)"
sanitized_trace="$(mktemp)"
trap 'rm -f "$trace_file" "$sanitized_trace"' EXIT
timeout 60 ./target/release/citroen-trace record --budget 10 --out "$trace_file"
timeout 30 ./target/release/citroen-trace check "$trace_file"
timeout 30 ./target/release/citroen-trace curve "$trace_file"
timeout 30 ./target/release/citroen-trace flame "$trace_file" > /dev/null
timeout 30 ./target/release/citroen-trace regress "$trace_file" --baseline "$trace_file"
timeout 120 ./target/release/micro --telemetry-gate
timeout 300 ./target/release/micro --stream-gate

echo "== batched loop: wall-clock speedup gate"
timeout 300 ./target/release/micro --batch-gate

echo "== subsumption: drop-soundness campaign + sanitized collapsed run"
timeout 60 ./target/release/citroen-analyze subsume --modules 10 --seqs 10
CITROEN_SANITIZE=1 timeout 120 ./target/release/citroen-trace record \
    --bench telecom_gsm --budget 6 --batch 4 --subsume --seed 9 --out "$sanitized_trace"

echo "== alias: soundness smoke + edge mining + sanitized -O3 suite (S1-S11)"
timeout 60 ./target/release/citroen-analyze alias-oracle --smoke
timeout 120 ./target/release/citroen-analyze mine-edges --smoke > /dev/null
CITROEN_SANITIZE=1 timeout 120 ./target/release/citroen-analyze validate

echo "== observability: metrics overhead gate"
timeout 300 ./target/release/micro --metrics-gate

echo "== workspace tests (release)"
cargo test -q --workspace --release

echo "== benchmark self-test (perfbench)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== tier-1 gate passed"
