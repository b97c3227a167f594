#!/usr/bin/env bash
# Builds the release `jsonx` binary and the benchmark from source, then
# runs one workload. From the repository root:
#
#   bash jxbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of standard output is the run's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin jsonx >&2
cargo build --release --quiet --offline --manifest-path jxbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/jxbench" --jsonx "$CARGO_TARGET_DIR/release/jsonx" "$@"
