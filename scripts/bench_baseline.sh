#!/usr/bin/env bash
# Pause-window baseline bench: the epoch boundary per worker count and
# sink, and its fused sharded walk against three separate passes (see
# DESIGN.md "Parallel pause window"). Runs the fig7-style web workload
# and writes BENCH_pause_window.json at the repo root — wall-clock per
# epoch boundary, walk-only breakdown, and the critical-path speedup of
# the fused 4-worker walk over the three-pass baseline.
#
# Usage: scripts/bench_baseline.sh
# Env:   CRIMES_BENCH_EPOCHS  measured epochs per variant (default 30)
#        CRIMES_BENCH_OUT     output path (default BENCH_pause_window.json)

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --offline -q -p crimes-bench --bin pause_window_baseline

CRIMES_BENCH_OUT="${CRIMES_BENCH_OUT:-BENCH_pause_window.json}" \
CRIMES_BENCH_EPOCHS="${CRIMES_BENCH_EPOCHS:-30}" \
    ./target/release/pause_window_baseline
