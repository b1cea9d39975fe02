#!/usr/bin/env bash
# The benchmark's one command: build the driver from source, then run it.
#
#   bash benchmark/run.sh --workload month_shared --seed 38 --seconds 24 --trace 0
#   bash benchmark/run.sh                 # all four workloads, round-robin
#   bash benchmark/run.sh --smoke         # all four at 1/20 size, oracles on
#
# Everything after the script's name goes to bench_e2e; see README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/bench_e2e/Cargo.toml
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
