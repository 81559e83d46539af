#!/usr/bin/env bash
# Builds tdb-server and the benchmark from this checkout, then runs one
# benchmark run. Usage (from the repository root):
#   bash tdbbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run data
# and results go to .tdbbench/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p tdb-server --bin tdb-server
cargo build --release --offline --quiet --manifest-path tdbbench/Cargo.toml
export TDBBENCH_SERVER_BIN="$CARGO_TARGET_DIR/release/tdb-server"
exec "$CARGO_TARGET_DIR/release/tdbbench" "$@"
