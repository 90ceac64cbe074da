#!/usr/bin/env bash
# Performance tracking for the sweep engine.
#
# Runs the end-to-end policy bench plus the world-materialization/sweep
# bench, times the full experiment suite, and writes BENCH_sweep.json at
# the repo root so the perf trajectory is tracked from PR 3 on.
#
# Usage: scripts/bench.sh [--skip-suite]
#   --skip-suite   only run the criterion benches (skip the ~minutes-long
#                  full `experiments all` timing pass)
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SUITE=0
[[ "${1:-}" == "--skip-suite" ]] && SKIP_SUITE=1

# Wall-clock of the full suite on this machine before the shared-world
# engine (PR 3). Measured once on the reference box; kept here so the
# JSON always records the comparison point.
BASELINE_SUITE_SECONDS=513

echo "==> cargo bench --bench e2e"
cargo bench -p gm-bench --bench e2e | tee /tmp/gm_bench_e2e.txt

echo "==> cargo bench --bench sweep"
cargo bench -p gm-bench --bench sweep | tee /tmp/gm_bench_sweep.txt

echo "==> cargo bench --bench branch"
cargo bench -p gm-bench --bench branch | tee /tmp/gm_bench_branch.txt

echo "==> cargo bench --bench mega (workload-kernel scaling, 1k..1M streams)"
cargo bench -p gm-bench --bench mega | tee /tmp/gm_bench_mega.txt

echo "==> gm-serve decision latency (mega preset, 1M+ requests/slot)"
cargo run --release -q -p gm-bench --bin serve -- \
  --preset mega --out /tmp/gm_serve_mega.json >/dev/null

SUITE_SECONDS=null
if [[ "$SKIP_SUITE" -eq 0 ]]; then
    # Note: on a thermally-constrained box the suite timing right after
    # ~20 min of criterion runs can read 10–30% high; for the recorded
    # number, re-run `experiments all` on an idle machine and keep the
    # stable repeat.
    echo "==> timing full experiment suite (experiments all)"
    cargo build --release -q
    OUT=$(mktemp -d)
    T0=$(date +%s)
    ./target/release/experiments all --out "$OUT" --seed 42 >/dev/null
    T1=$(date +%s)
    SUITE_SECONDS=$((T1 - T0))
    rm -rf "$OUT"
    echo "    suite wall-clock: ${SUITE_SECONDS}s (baseline ${BASELINE_SUITE_SECONDS}s)"
fi

# Extract "bench <name> <value> <unit>/iter" lines into JSON entries.
bench_json() {
    awk '/^bench .*\/iter/ {
        name=$2; val=$3; unit=$4; sub("/iter", "", unit);
        printf "%s    {\"name\": \"%s\", \"per_iter\": \"%s %s\"}", sep, name, val, unit;
        sep=",\n"
    } END { print "" }' "$1"
}

{
    echo '{'
    echo '  "suite": {'
    echo "    \"baseline_seconds\": ${BASELINE_SUITE_SECONDS},"
    echo "    \"current_seconds\": ${SUITE_SECONDS}"
    echo '  },'
    echo '  "e2e": ['
    bench_json /tmp/gm_bench_e2e.txt
    echo '  ],'
    echo '  "sweep": ['
    bench_json /tmp/gm_bench_sweep.txt
    echo '  ],'
    echo '  "branch": ['
    bench_json /tmp/gm_bench_branch.txt
    echo '  ],'
    echo '  "mega": ['
    bench_json /tmp/gm_bench_mega.txt
    echo '  ],'
    echo '  "serve":'
    # Decision-latency distribution of the mega serve loop, verbatim.
    sed 's/^/  /' /tmp/gm_serve_mega.json
    echo '}'
} > BENCH_sweep.json

echo "Wrote BENCH_sweep.json"
