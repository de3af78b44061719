#!/usr/bin/env bash
# Fleet-scale baseline bench: staggered, concurrent-window epoch rounds
# (FleetScheduler) vs the serial per-tenant round (see DESIGN.md "Fleet
# scheduler"). Scales the tenant count (default 10/100/500) over one
# pool of leased walkers and writes BENCH_fleet.json at the repo root —
# tenant-epochs/sec, dirty pages/sec, the mean in-window pause per
# tenant-epoch of the serial and of the scheduled rounds, the leased
# boundary's p50/p99/max, the scheduled-vs-serial speedup per scale, and
# the fleet-level worker-clamp lineage.
#
# Usage: scripts/bench_fleet.sh
# Env:   CRIMES_BENCH_ROUNDS  rounds per scale per variant (default 4)
#        CRIMES_BENCH_SCALES  comma-separated tenant counts
#                             (default 10,100,500)
#        CRIMES_BENCH_OUT     output path (default BENCH_fleet.json)

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --offline -q -p crimes-bench --bin fleet_baseline

CRIMES_BENCH_OUT="${CRIMES_BENCH_OUT:-BENCH_fleet.json}" \
CRIMES_BENCH_ROUNDS="${CRIMES_BENCH_ROUNDS:-4}" \
CRIMES_BENCH_SCALES="${CRIMES_BENCH_SCALES:-10,100,500}" \
    ./target/release/fleet_baseline
