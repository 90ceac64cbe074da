#!/usr/bin/env bash
# Local pre-push gate: formatting, lints, tests. Same steps CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> golden trace gate (committed goldens, byte for byte)"
cargo test -q --test telemetry golden

echo "==> serve-kernel equivalence gate (serve_batch vs per-request oracle)"
cargo test -q -p gm-storage serve_kernel_equivalence

echo "==> snapshot/resume byte-identity gate (branch vs cold)"
cargo test -q --test snapshot

echo "==> shard-invariance gate (10^5-stream workload kernel, release)"
cargo test -q --release --test workload_kernel -- --ignored

echo "==> cargo bench --bench e2e -- --test (smoke)"
cargo bench -p gm-bench --bench e2e -- --test

echo "==> cargo bench --bench mega -- --test (smoke)"
cargo bench -p gm-bench --bench mega -- --test

echo "==> cargo bench --bench sweep -- --test (smoke)"
cargo bench -p gm-bench --bench sweep -- --test

echo "==> cargo bench --bench branch -- --test (smoke)"
cargo bench -p gm-bench --bench branch -- --test

echo "==> audited e2e smoke (run_once --audit)"
cargo run --release -q -p gm-bench --bin run_once -- \
  --preset small --audit --audit-out target/audit-report.json

echo "==> audited 10^5-stream smoke (mega kernel, few slots)"
cargo run --release -q -p gm-bench --bin run_once -- \
  --preset medium --streams 100000 --slots 8 --audit

echo "==> tiering experiment smoke (quick sweep)"
TSMOKE=$(mktemp -d)
cargo run --release -q -p gm-bench --bin experiments -- \
  tiering --quick --out "$TSMOKE" >/dev/null
rm -rf "$TSMOKE"

echo "==> tiering shape check (tiering-cuts-brown-or-capacity)"
cargo run --release -q -p gm-bench --bin validate -- --quick --check tiering

echo "==> admission shape check (admission-tightens-violations)"
cargo run --release -q -p gm-bench --bin validate -- --quick --check admission

echo "==> gm-serve smoke (external feed == replay, gated)"
cargo run --release -q -p gm-bench --bin serve -- \
  --preset small --slots 48 --verify --audit >/dev/null

echo "==> conservation fuzz smoke (fixed seed)"
cargo run --release -q -p gm-bench --bin fuzz -- \
  --cases 40 --seed 42 --out target/fuzz-violations.json

echo "==> checkpoint/restore fuzz smoke (random-slot split, fixed seed)"
cargo run --release -q -p gm-bench --bin fuzz -- \
  --cases 20 --seed 42 --split

echo "==> halt/resume smoke (run_once checkpoint → resume, stitched output)"
cargo build --release -q -p gm-bench --bin run_once
RSMOKE=$(mktemp -d)
./target/release/run_once --preset small --slots 48 \
  --trace "$RSMOKE/cold.jsonl" --out "$RSMOKE/cold.json" >/dev/null 2>&1
./target/release/run_once --preset small --slots 48 --halt-after 20 \
  --checkpoint-file "$RSMOKE/ck.json" --trace "$RSMOKE/stitched.jsonl" >/dev/null 2>&1
./target/release/run_once --resume "$RSMOKE/ck.json" \
  --trace "$RSMOKE/stitched.jsonl" --out "$RSMOKE/resumed.json" --audit >/dev/null 2>&1
cmp "$RSMOKE/cold.jsonl" "$RSMOKE/stitched.jsonl"
cmp "$RSMOKE/cold.json" "$RSMOKE/resumed.json"
rm -rf "$RSMOKE"
echo "    resume smoke: stitched trace and report byte-identical to cold"

echo "All checks passed."
