#!/usr/bin/env sh
# Full local gate: formatting, release build, clippy, rustdoc, static analysis,
# tests, the benchmark's six workloads, the tour example, every other
# example at its defaults, and every experiment's report and point data
# regenerated into one artifact directory; then a per-crate line count.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

# ROADMAP's standing rule: a PR's entry in CHANGES.md (its `PR N:` line,
# the last one being the newest) is at most 1.5 kB; detail beyond that
# belongs in EXPERIMENTS.md and the commit messages.
echo "==> CHANGES.md: the newest PR entry is at most 1536 bytes"
entry_bytes=$(LC_ALL=C awk '/^PR [0-9]+:/ { n = length($0) } END { print n + 0 }' CHANGES.md)
if [ "$entry_bytes" -gt 1536 ]; then
    echo "the newest PR entry in CHANGES.md is $entry_bytes bytes"
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

# The gate of the per-file determinism rules: clippy.toml bans their
# types and methods, the simulation crates warn on unwrap/expect, and a
# reasoned #[expect] is the one escape hatch (tests/lint_gate.rs pins the
# set).
echo "==> cargo clippy (every target, warnings are errors; the determinism rules in clippy.toml)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# A dangling or private intra-doc link (one a deletion leaves behind) is
# an error.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> hyades-lint (whole-program proofs: sinks stay deterministic, collectives stay uniform)"
mkdir -p target
# One run, two renderings: the JSON report on stdout, the stable
# machine-readable summary line (files=N violations=N effect-table=N
# collectives=N) on stderr. No finding can be suppressed.
if ! cargo run -q -p hyades-lint -- --json --summary \
    > target/lint-report.json 2> target/lint-summary.txt; then
    cat target/lint-report.json target/lint-summary.txt
    echo "hyades-lint reported violations (full report: target/lint-report.json)"
    exit 1
fi
lint_summary=$(grep '^hyades-lint: files=' target/lint-summary.txt)
echo "    ${lint_summary#hyades-lint: } (report: target/lint-report.json)"

# The analyser reads sources as text: it links no other workspace crate,
# and nothing at run time links it. No crate can draw an unseeded random
# number: no RNG crate is in the graph at all.
echo "==> crate graph: hyades-lint is a leaf, hyades does not depend on it, no rand or getrandom"
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
rng_crates=$(cargo tree --offline --workspace -e normal,build,dev --prefix none | grep -E '^(rand|getrandom)[_a-z]* ' | sort -u || true)
if [ -n "$rng_crates" ]; then
    echo "an RNG crate is in the crate graph:"
    echo "$rng_crates"
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
# schedule on which a helper thread — the coupled step's, a split
# tile's other band, or the analyser's second side — cannot run beside
# the caller, and the coupler's, the bands' and the analyser's
# bit-identity tests must pass there too, as must its report.
if command -v taskset > /dev/null; then
    echo "==> cargo test -q --release, pinned to one core: comms world::, gcm coupler, bands and halos, hyades-lint"
    taskset -c 0 cargo test -q --release -p hyades-comms world::
    # The filter stays: `cargo test -q` above runs all of gcm's tests; this
    # rerun is for the ones that start a helper thread or a 2x2 ThreadWorld.
    taskset -c 0 cargo test -q --release -p hyades-gcm -- coupler band halo_tests set_up
    taskset -c 0 cargo test -q --release -p hyades-lint
    taskset -c 0 cargo run -q -p hyades-lint -- --json > target/lint-report-one-core.json
    if ! cmp target/lint-report.json target/lint-report-one-core.json; then
        echo "hyades-lint's report pinned to one core differs from target/lint-report.json"
        exit 1
    fi
    echo "    hyades-lint --json pinned to one core: identical to target/lint-report.json"
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
    # Printed, not gated: the three end-to-end metrics — wall time, setup
    # time and peak RSS.
    sed -n -e "s/^  wall_s */    $workload wall_s /p" \
        -e "s/^  setup_s */    $workload setup_s /p" \
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

# And from one traced run of the long fabric simulations: the events
# dispatched (exact), the host cost of one, and the packet rate.
cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
    --workload fabric_saturated --seconds 3 --trace 1 > target/hbench-fabric_saturated-traced.txt
awk '$1 == "des.events" { printf "    fabric_saturated %-29s %12.0f\n", $1, $2 }
    $1 == "des.ns_per_event" { printf "    fabric_saturated %-29s %12.1f ns\n", $1, $2 }
    $1 ~ /^(des\.dispatch|arctic\.packets)_per_s$/ { printf "    fabric_saturated %-29s %12.2f M/s\n", $1, $2 / 1e6 }' \
    target/hbench-fabric_saturated-traced.txt

# And from one traced run of the tour: what ThreadWorld completes a second
# between two ranks, and where a repetition's host time goes.
cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
    --workload cluster_tour --seconds 3 --trace 1 > target/hbench-cluster_tour-traced.txt
awk '$1 ~ /^comms\.thread_(exchange|gsum)_per_s$/ { printf "    cluster_tour %-33s %8.0f k/s\n", $1, $2 / 1e3 }
    $1 ~ /^core\.(tour|diag|critpath|resilient)_s$/ { printf "    cluster_tour %-33s %8.3f s\n", $1, $2 }' \
    target/hbench-cluster_tour-traced.txt

# And from one traced lint pass: the time of each measured analyser
# stage (`lint.rules_s` is the remainder of the pass, not a stage), the
# lines a second, and CPU against wall time (above 1 when the pass's
# second side runs on the second core).
cargo run --release --offline --quiet --manifest-path hbench/Cargo.toml -- \
    --workload lint_tree --seconds 3 --trace 1 > target/hbench-lint_tree-traced.txt
awk '$1 ~ /^lint\.(collect|flow|uniform)_s$/ { printf "    lint_tree %-36s %8.4f s\n", $1, $2 }
    $1 == "lint.lines_per_s" { printf "    lint_tree %-36s %8.0f k/s\n", $1, $2 / 1e3 }
    $1 == "wall_s" { wall = $2 } $1 == "bench.cpu_s" { cpu = $2 }
    END { if (wall > 0) printf "    lint_tree bench.cpu_s / wall_s             %.3f / %.3f s = %.2f\n", cpu, wall, cpu / wall }' \
    target/hbench-lint_tree-traced.txt

echo "==> tour (the four core::tour runs, one artifact bundle, three verdicts)"
cargo run -q --release --example tour > target/tour.txt
tail -n 1 target/tour.txt
if command -v taskset > /dev/null; then
    taskset -c 0 cargo run -q --release --example tour > target/tour-one-core.txt
    echo "    pinned to one core: $(tail -n 1 target/tour-one-core.txt)"
fi

# Every example but `tour` and `reproduce_all` (run above and below), at
# its defaults.
echo "==> examples (each must exit 0)"
for example in quickstart ocean_gyre checkpoint_restart climate_atlas paleo_experiment century_planner scaling_study coupled_climate; do
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
echo "==> line ledger (crate: total lines, tests, non-test)"
for crate in crates/*/; do
    find "$crate" -name '*.rs' -exec awk -v crate="$(basename "$crate")" '
        FNR == 1 { in_tests = (FILENAME ~ /\/tests\//) }
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++; tests += in_tests }
        END { printf "    %-10s %6d %6d %6d\n", crate, total, tests, total - tests }' {} +
done | awk '{ print; crates++; total += $2; tests += $3 }
    END { printf "    %-10s %6d %6d %6d  (%d crates)\n", "workspace", total, tests, total - tests, crates }'
# The same count for each file of the analyser's sources, the figure
# ROADMAP item 13 tracks, closing on their sum.
echo "==> line ledger, crates/lint/src (file: total lines, tests, non-test)"
for file in crates/lint/src/*.rs; do
    awk -v file="$(basename "$file")" '
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++; tests += in_tests }
        END { printf "    %-10s %6d %6d %6d\n", file, total, tests, total - tests }' "$file"
done | awk '{ print; total += $2; tests += $3 }
    END { printf "    %-10s %6d %6d %6d\n", "lint/src", total, tests, total - tests }'

echo "All checks passed."
