#!/usr/bin/env bash
# Full verification gate: build, test, lint, and regenerate the pipeline
# performance report. Run from anywhere; operates on the repo root.
#
#   scripts/verify.sh
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace --bins --benches

echo "== tests (workspace) =="
cargo test --workspace --release -q

echo "== perfbench (builds against the public API + its unit tests) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== named suites + per-suite duration budgets (scripts/test_budget.json) =="
# Runs chaos, observability, properties, golden vectors, geometry
# equivalence, allocations, byzantine, fleet determinism, and protocol
# fuzz by name, each timed against its checked-in wall-clock ceiling.
scripts/check_test_durations.sh

echo "== quickstart demo (calibration end-to-end) =="
cargo run --release --example quickstart

echo "== fault injection demo (front-end + network chaos) =="
cargo run --release --example fault_injection

echo "== cloud failover demo (crash + partition recovery, digest diffed) =="
cargo run --release --example cloud_failover -- 400 42 --no-partition

echo "== perfreport (--quick, alloc + perf + robustness + scale + recovery budgets enforced) =="
cargo run --release -p aircal-bench --bin perfreport -- --quick --check-allocs --check-perf --check-robust --check-scale --check-recovery

echo "== verify: all gates passed =="
