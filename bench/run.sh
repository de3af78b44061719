#!/usr/bin/env bash
# Build the benchmark offline and run every workload untraced, then traced.
#
#   bench/run.sh [--workload <name>[,<name>...]] [--seed N]
#
# Prints every metric by name with its unit, writes bench/out/*.json, and
# exits non-zero if any correctness check failed. An untraced run that
# the host stalled too often (more than 0.5 % extended epochs) is invalid
# and is run once more.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads="web_inline,parsec_inline,web_drain,bulk_drain,fleet_mixed"
seed=11
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"

while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        *) echo "usage: bench/run.sh [--workload <name>[,<name>...]] [--seed N]" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="$root/target/bench"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bench="$CARGO_TARGET_DIR/release/crimes-e2e-bench"

# Run one workload; the harness's last line is its result object.
run_one() { # <workload> <trace>
    "$bench" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" | tee "$here/out/.last"
    tail -n 1 "$here/out/.last" | grep -q '"correct": true' || failed=1
}

mkdir -p "$here/out"
failed=0
cd "$root"
for workload in ${workloads//,/ }; do
    run_one "$workload" 0
    if grep -q '"valid": false' "$here/out/$workload.json"; then
        echo "run.sh: $workload was invalid (host stalls); running it once more" >&2
        run_one "$workload" 0
    fi
    run_one "$workload" 1
    overhead="$(sed -n 's/.*"trace_overhead_pct": {"value": \([-0-9.e]*\).*/\1/p' "$here/out/layers-$workload.json")"
    if awk -v o="$overhead" 'BEGIN { exit !(o >= 5) }'; then
        echo "run.sh: $workload trace overhead $overhead % is not below 5 %" >&2
        failed=1
    fi
done
rm -f "$here/out/.last"
if [ "$failed" -ne 0 ]; then
    echo "run.sh: at least one check FAILED" >&2
    exit 1
fi
echo "run.sh: all checks passed; results in bench/out/"
