#!/usr/bin/env sh
# Full local gate: formatting, release build, static analysis, tests.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> hyades-lint (determinism & numerical-correctness rules)"
mkdir -p target
# One run, two renderings: the JSON report on stdout, the stable
# machine-readable summary line (files=N violations=N effect-table=N
# collectives=N notes=N) on stderr.
if ! cargo run -q -p hyades-lint -- --json --summary \
    > target/lint-report.json 2> target/lint-summary.txt; then
    cat target/lint-report.json target/lint-summary.txt
    echo "hyades-lint reported violations (full report: target/lint-report.json)"
    exit 1
fi
lint_summary=$(grep '^hyades-lint: files=' target/lint-summary.txt)
echo "    ${lint_summary#hyades-lint: } (report: target/lint-report.json)"

echo "==> cargo test -q"
cargo test -q

# hbench is a workspace of its own, so nothing above compiles it: a
# des/arctic/gcm signature change would break the benchmark unnoticed.
echo "==> hbench: unit tests, then the des/arctic, gcm and lint workloads (must report 0 failed)"
cargo test --offline -q --manifest-path hbench/Cargo.toml
for workload in fabric_saturated comm_primitives coupled_serial ocean_1deg lint_tree; do
    cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
        --workload "$workload" --seconds 3 > "target/hbench-$workload.txt"
    if ! tail -n 1 "target/hbench-$workload.txt" | grep -q '"failed": 0,'; then
        echo "hbench $workload reported failed checks (target/hbench-$workload.txt)"
        exit 1
    fi
    sed -n "s/^  wall_s */    $workload wall_s /p" "target/hbench-$workload.txt"
done

echo "==> SPMD uniformity proof (E20: every collective reached uniformly)"
cargo run -q --release --example uniform_proof > target/e20-uniform.txt
tail -n 1 target/e20-uniform.txt
grep -q "collective-divergence findings: 0" target/e20-uniform.txt

echo "==> telemetry tour (instrumented run + exporters)"
cargo run -q --release --example telemetry_tour

echo "==> monitor smoke (coupled run, diagnostics on, sentinel armed)"
cargo run -q --release --example monitor_smoke > target/monitor-smoke.txt
tail -n 1 target/monitor-smoke.txt

echo "==> critpath smoke (critical-path profiler + straggler attribution)"
cargo run -q --release --example critpath_smoke > target/critpath-smoke.txt
tail -n 1 target/critpath-smoke.txt

echo "==> fault smoke (planned rank crash + lossy links; must recover bit-identically)"
cargo run -q --release --example fault_smoke > target/fault-smoke.txt
tail -n 1 target/fault-smoke.txt

echo "==> perf baseline (smoke): fabric observatory + export determinism"
scripts/bench.sh --smoke

echo "==> bench diff: BENCH_pr9.json vs BENCH_pr10.json (budgeted regression gate)"
./target/release/baseline diff BENCH_pr9.json BENCH_pr10.json > target/bench-diff.json
grep '"verdict"' target/bench-diff.json

echo "All checks passed."
