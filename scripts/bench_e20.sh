#!/usr/bin/env bash
# Runs the E20 connection-layer experiment and leaves a machine-readable
# copy in BENCH_E20.json at the repo root:
#
#   E20a  readiness poller at 16/64/256 concurrent committing
#         connections (one tenant each) on one connection thread, firings
#         checked byte-for-byte against the single-threaded library oracle
#   E20b  skewed load (1 hot + 7 cold tenants on 2 workers) with
#         idle-shard re-pinning off vs on
#   E20c  fixed commit-coalescing windows vs the adaptive fsync-latency
#         driven window on a durable tenant
#
# On a single-CPU host every concurrency row is host-limited: the JSON
# carries `host_cpus` and scripts/check_bench_e20.py drops to the
# no-collapse floors (E13/E17 precedent) instead of demanding speedup.
# See EXPERIMENTS.md E20.
#
# Usage:
#   scripts/bench_e20.sh            # full run
#   scripts/bench_e20.sh --quick    # smaller run for smoke tests / CI
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -p tdb-bench

./target/release/harness e20 "$@"

if [[ -f BENCH_E20.json ]]; then
    echo "== BENCH_E20.json =="
    cat BENCH_E20.json
    python3 scripts/check_bench_e20.py BENCH_E20.json
fi
