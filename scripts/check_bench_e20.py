#!/usr/bin/env python3
"""Schema/correctness check for BENCH_E20.json (readiness poller
connection scaling, idle-shard re-pinning, adaptive coalescing).

Correctness bars are hard everywhere: every scaling and coalesce row must
report firings byte-identical to the single-threaded library oracle, every
scaling row must be served by the one poller thread, and the
rebalance=on skew row must actually re-pin at least one tenant.

Performance bars follow the E13/E17 host-limited precedent: ratios of two
independently timed runs on a shared (often 1-CPU) runner compound
scheduler jitter, so the floors are conservative. The adaptive coalescer
must stay within 0.5x / 0.8x (1-CPU / multi-CPU) of the best fixed window
it is replacing."""
import json
import sys

doc = json.load(open(sys.argv[1] if len(sys.argv) > 1 else "BENCH_E20.json"))
assert doc.get("experiment") == "e20", "not an E20 result"
cpus = doc["host_cpus"]
host_limited = cpus <= 1

# --- E20a: connection scaling -------------------------------------------
scaling = doc["scaling"]
assert scaling, "no scaling rows"
assert all(r["firings_ok"] for r in scaling), \
    "a connection diverged from the library oracle"
# One connection loop: the poller serves every count on one thread.
for r in scaling:
    assert r["conn_threads"] == 1, \
        f"conns={r['conns']}: {r['conn_threads']} connection threads, expected 1"

# --- E20b: skewed load / re-pinning -------------------------------------
skew = {r["rebalance"]: r for r in doc["skew"]}
assert set(skew) == {True, False}, f"skew rows: {sorted(skew)}"
assert skew[False]["repins"] == 0, "re-pinning fired with rebalance off"
assert skew[True]["repins"] >= 1, \
    "rebalance on but no tenant was ever re-pinned off the hot worker"
for r in skew.values():
    assert r["cold_states"] > 0 and r["hot_states"] > 0, f"starved row: {r}"
if not host_limited:
    # With real cores, moving idle shards off the hot worker must not make
    # the cold tenants slower than leaving them stranded.
    ratio = (skew[True]["cold_states_per_sec"]
             / skew[False]["cold_states_per_sec"])
    assert ratio >= 0.8, f"re-pinning degraded cold tenants to {ratio:.2f}x"

# --- E20c: adaptive coalescing ------------------------------------------
coalesce = doc["coalesce"]
assert all(r["firings_ok"] for r in coalesce), \
    "a coalesce row lost or duplicated firings"
by_window = {r["window"]: r for r in coalesce}
assert "adaptive" in by_window and "none" in by_window, \
    f"coalesce windows: {sorted(by_window)}"
fixed = [r for r in coalesce if r["window"] != "adaptive"]
best_fixed = max(r["commits_per_sec"] for r in fixed)
floor = 0.5 if host_limited else 0.8
ratio = by_window["adaptive"]["commits_per_sec"] / best_fixed
assert ratio >= floor, \
    (f"adaptive window at {ratio:.2f}x of the best fixed window "
     f"(floor {floor:.2f}, host_cpus={cpus})")

print(f"check_bench_e20: OK (host_cpus={cpus}"
      + (", host-limited floors" if host_limited else "")
      + "; scaling "
      + ", ".join(f"{r['conns']}conns {r['agg_states_per_sec']:.0f} states/s"
                  for r in scaling)
      + " on 1 conn thread"
      + f"; repins={skew[True]['repins']}"
      + f"; adaptive {ratio:.2f}x of best fixed window"
      + "; firings identical everywhere)")
