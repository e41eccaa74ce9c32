#!/usr/bin/env sh
# Full local gate: formatting, release build, clippy, rustdoc, static analysis,
# tests, the benchmark's six workloads, the tour example, the examples that
# complete at their defaults, and every experiment's report and point data
# regenerated into one artifact directory; then a per-crate line count.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy (every target, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# A dangling or private intra-doc link (one a deletion leaves behind) is
# an error.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

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

# The analyser reads sources as text: it links no other workspace crate,
# and nothing at run time links it.
echo "==> crate graph: hyades-lint is a leaf, hyades does not depend on it"
lint_deps=$(cargo tree --offline -p hyades-lint -e normal --prefix none | grep '^hyades' | grep -v '^hyades-lint ' || true)
if [ -n "$lint_deps" ]; then
    echo "hyades-lint depends on workspace crates:"
    echo "$lint_deps"
    exit 1
fi
if cargo tree --offline -p hyades -e normal | grep -q 'hyades-lint'; then
    echo "hyades depends on hyades-lint"
    exit 1
fi

echo "==> cargo test -q"
cargo test -q

# The simulated communication stack again in release: a defect can fail
# differently behind `debug_assert!` than in the build hbench measures.
echo "==> cargo test -q --release (des, arctic, startx, comms)"
cargo test -q --release -p hyades-des -p hyades-arctic -p hyades-startx -p hyades-comms

# One core is the adversarial schedule for a wait that polls: every rank
# a waiter needs is behind it on the same run queue, and a policy that
# forgot to yield would crawl there instead of failing. It is also the
# schedule on which a helper thread — the coupled step's, or a split
# tile's other band — cannot run beside the caller, and the coupler's
# and the bands' bit-identity tests must pass there too.
if command -v taskset > /dev/null; then
    echo "==> cargo test -q --release, pinned to one core: comms world::, gcm coupler and bands"
    taskset -c 0 cargo test -q --release -p hyades-comms world::
    taskset -c 0 cargo test -q --release -p hyades-gcm -- coupler band set_up
fi

echo "==> ignored tests, release: fault-plan seed sweep (2000 plan seeds x 6 exchange shapes and 4 gsum sizes), paper grid converges while finite"
cargo test -q --release -- --ignored

# hbench is a workspace of its own, so nothing above compiles it: a
# signature change in any crate it drives would break the benchmark
# unnoticed.
echo "==> hbench: unit tests, then all six workloads (must report 0 failed)"
cargo test --offline -q --manifest-path hbench/Cargo.toml
for workload in coupled_serial ocean_1deg cluster_tour fabric_saturated comm_primitives lint_tree; do
    cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
        --workload "$workload" --seconds 3 > "target/hbench-$workload.txt"
    if ! tail -n 1 "target/hbench-$workload.txt" | grep -q '"failed": 0,'; then
        echo "hbench $workload reported failed checks (target/hbench-$workload.txt)"
        exit 1
    fi
    # Printed, not gated: the end-to-end wall time and peak RSS.
    sed -n -e "s/^  wall_s */    $workload wall_s /p" \
        -e "s/^  peak_rss_mb */    $workload peak_rss_mb /p" "target/hbench-$workload.txt"
done
# Printed, not gated (the gates are in cargo test), from one traced run of
# each gcm workload: for the coupled pair the stand-alone kernel ranking —
# the five PS kernel rates and host Fps; for both, CG iterations per model
# step, the median step, and CPU against wall time (above 1 when PS work
# runs on the second core: the pair's two isomorphs side by side, the 1°
# tile's two bands).
for workload in coupled_serial ocean_1deg; do
    cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
        --workload "$workload" --seconds 3 --trace 1 > "target/hbench-$workload-traced.txt"
    awk -v w="$workload" '$1 == "gcm.cg_iters" { iters = $2 } $1 == "gcm.steps" { steps = $2 }
        $1 == "wall_s" { wall = $2 } $1 == "bench.cpu_s" { cpu = $2 }
        w == "coupled_serial" && $1 == "gcm.fps_mflops" { printf "    %s %-30s %8.0f Mflop/s\n", w, $1, $2 }
        w == "coupled_serial" && $1 ~ /^gcm\.k_.*_cells_per_s$/ { printf "    %s %-30s %8.1f M cells/s\n", w, $1, $2 / 1e6 }
        $1 == "gcm.step_p50_ms" { printf "    %s %-30s %8.3f ms\n", w, $1, $2 }
        END { if (steps > 0) printf "    %s gcm.cg_iters / gcm.steps  %d / %d = %.1f\n", w, iters, steps, iters / steps
              if (wall > 0) printf "    %s bench.cpu_s / wall_s      %.3f / %.3f s = %.2f\n", w, cpu, wall, cpu / wall }' \
        "target/hbench-$workload-traced.txt"
done
# Likewise printed only (tests/determinism.rs and tests/recovery.rs pin
# them): the exact simulated values of one traced comm_primitives run.
cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
    --workload comm_primitives --seconds 3 --trace 1 > target/hbench-comm_primitives-traced.txt
awk '$1 ~ /^(comms\.(exchange_4x4_4096_us|gsum_16_us|retries|backoff_waits)|startx\.(pio_rtt_half_us|vi_peak_mbyte_per_s))$/ {
        printf "    comm_primitives %-30s %14.6f %s\n", $1, $2, $3 }' \
    target/hbench-comm_primitives-traced.txt

# And from one traced run of the tour: what ThreadWorld completes a second
# between two ranks, and where a repetition's host time goes.
cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
    --workload cluster_tour --seconds 3 --trace 1 > target/hbench-cluster_tour-traced.txt
awk '$1 ~ /^comms\.thread_(exchange|gsum)_per_s$/ { printf "    cluster_tour %-33s %8.0f k/s\n", $1, $2 / 1e3 }
    $1 ~ /^core\.(tour|diag|critpath|resilient)_s$/ { printf "    cluster_tour %-33s %8.3f s\n", $1, $2 }' \
    target/hbench-cluster_tour-traced.txt

# And from one traced lint pass: the time of each measured analyser
# stage (`lint.rules_s` is the remainder of the pass, not a stage).
cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
    --workload lint_tree --seconds 3 --trace 1 > target/hbench-lint_tree-traced.txt
awk '$1 ~ /^lint\.(collect|flow|uniform)_s$/ { printf "    lint_tree %-36s %8.4f s\n", $1, $2 }' \
    target/hbench-lint_tree-traced.txt

echo "==> tour (the four core::tour runs, one artifact bundle, three verdicts)"
cargo run -q --release --example tour > target/tour.txt
tail -n 1 target/tour.txt
if command -v taskset > /dev/null; then
    taskset -c 0 cargo run -q --release --example tour > target/tour-one-core.txt
    echo "    pinned to one core: $(tail -n 1 target/tour-one-core.txt)"
fi

# The examples that complete at their defaults. `coupled_climate` is left
# out: its default 200 steps leave the finite numbers at step 60 (ROADMAP
# item 1's horizon); add it when item 1 lands.
echo "==> examples (each must exit 0)"
for example in quickstart ocean_gyre checkpoint_restart climate_atlas paleo_experiment century_planner scaling_study; do
    if ! cargo run -q --release --example "$example" > "target/example-$example.txt" 2>&1; then
        tail -n 20 "target/example-$example.txt"
        echo "example $example failed (target/example-$example.txt)"
        exit 1
    fi
    echo "    $example ok"
done

echo "==> reproduce_all (every registered experiment: reports on stdout, reports + figure CSVs as artifacts)"
cargo run -q --release --example reproduce_all -- --out target/experiments > target/experiments.txt
tail -n 1 target/experiments.txt
# Printed, not gated, like the comm_primitives values above: the two
# numbers the one simulated VI transfer (the exchange's leg) sets — Figure
# 7 at 1 KB and the HPVM comparison's 1-KB row — and E16's proof of the
# exchange and butterfly graphs the simulated nodes run.
awk '/^\[E[0-9]+\]/ { section = $1 }
    section == "[E2]" && $1 == "1024" { printf "    E2 1-KB transfer  %s us, %s MB/s\n", $3, $5 }
    section == "[E8]" && $1 == "1-KB" { printf "    E8 1-KB transfer  Hyades %s MB/s, HPVM %s MB/s (%s slower)\n", $5, $7, $9 }
    section == "[E16]" && $1 == "deadlock-free:" { sub(/^ +/, ""); printf "    E16 static proof  %s\n", $0 }' \
    target/experiments.txt

# Printed, not gated: the count every CHANGES.md entry quotes for ROADMAP
# aim 2. `tests` is every line of a file under a `tests/` directory, and
# each other file's lines from the first line that starts with
# `#[cfg(test)]` on; the closing `workspace` row sums the crates and
# counts them.
echo "==> line ledger (crate: total lines, of which tests)"
for crate in crates/*/; do
    find "$crate" -name '*.rs' -exec awk -v crate="$(basename "$crate")" '
        FNR == 1 { in_tests = (FILENAME ~ /\/tests\//) }
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++; tests += in_tests }
        END { printf "    %-10s %6d %6d\n", crate, total, tests }' {} +
done | awk '{ print; crates++; total += $2; tests += $3 }
    END { printf "    %-10s %6d %6d  (%d crates)\n", "workspace", total, tests, crates }'

echo "All checks passed."
