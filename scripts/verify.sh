#!/usr/bin/env bash
# Full offline verification for the CRIMES reproduction.
#
# Everything here must pass with no network access and no crates beyond
# the workspace itself — the build is hermetic by construction (see
# README "Building offline"). Warnings are promoted to errors so the
# tree stays clean.
#
# Usage: scripts/verify.sh
# Env:   CRIMES_BENCH_SAMPLES  sample count for bench smoke runs (unused
#                              here; benches are compile-checked only)

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="-D warnings ${RUSTFLAGS:-}"

echo "==> tier-1: release build"
cargo build --release --offline --workspace

echo "==> tier-1: test suite"
cargo test -q --offline --workspace

echo "==> fault soak (seeded, release, bounded epochs)"
CRIMES_FAULT_SEED="${CRIMES_FAULT_SEED:-1592654353}" \
CRIMES_SOAK_EPOCHS="${CRIMES_SOAK_EPOCHS:-2000}" \
    cargo test --release --offline -q --test fault_soak

echo "==> journal replay determinism (crash harness, release)"
# Kills the monitor at every journal record boundary and at every byte
# inside a record: replay must be deterministic, torn tails must recover
# to the previous boundary, and no output may release before its ack.
cargo test --release --offline -q --test crash_recovery

echo "==> crimes-lint: panic-freedom, pause-window, fault-coverage, taxonomy, hermeticity, telemetry-purity, taint"
# One analyzer replaces the old grep gates: crimes-lint walks the whole
# tree and checks the invariants rustc cannot (see DESIGN.md "Static
# guarantees"; journal-first and release-on-receipt are not among them:
# crates/crimes/src/evidence.rs holds those by field privacy, and the
# crash harness above checks them). Its exit code is the gate (0 clean,
# 1 findings, 2 analyzer-internal error); the machine-readable report is
# archived by CI as LINT_REPORT.json.
cargo build --release --offline -q -p crimes-lint
LINT_START_NS="$(date +%s%N)"
./target/release/crimes-lint --json > LINT_REPORT.json
LINT_ELAPSED_MS=$(( ($(date +%s%N) - LINT_START_NS) / 1000000 ))
echo "    lint wall-clock: ${LINT_ELAPSED_MS} ms"
# The analyzer must stay fast enough to run on every edit.
test "${LINT_ELAPSED_MS}" -lt 5000
# The exit-code contract: an unreadable tree is an analyzer error (2),
# not a clean run (0) or a finding (1).
set +e
./target/release/crimes-lint /nonexistent-lint-root >/dev/null 2>&1
LINT_BROKEN_CODE=$?
set -e
test "${LINT_BROKEN_CODE}" -eq 2

echo "==> unsafe budget: one block in the workspace (crates/checkpoint/src/resident.rs)"
# rustc enforces where it may be (`forbid(unsafe_code)` in every crate but
# crimes-checkpoint, which denies it outside `mod resident`); this counts
# how many there are. Lint fixtures are parsed, not compiled.
UNSAFE_SITES="$(grep -rnE '\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)' --include='*.rs' \
    src crates tests examples | grep -v '^crates/lint/' || true)"
echo "${UNSAFE_SITES}" | sed 's/^/    /'
test "$(echo "${UNSAFE_SITES}" | grep -c .)" -eq 1
echo "${UNSAFE_SITES}" | grep -q '^crates/checkpoint/src/resident.rs:'

echo "==> benches compile (in-tree harness, no criterion)"
cargo bench --no-run --offline

echo "==> pause-window bench smoke (one boundary: 1/2/4 workers, deferred, encoded, encoded-2)"
# A short run of the baseline bench drives the one epoch boundary at
# each worker count, with the staging sink (deferred stage+drain) and
# with the content-aware (delta + dedup) drain, end to end; the JSON goes
# to a scratch path so the committed BENCH_pause_window.json keeps its
# full-length numbers. The greps pin the deferred and encoded variants
# into the emitted JSON — a regression that drops either from the sweep
# fails here — and the encoded drain must actually save wire bytes on the
# fig7 workload.
#
# On a host with a second CPU the resident workers must deliver, first
# try: `fused-2` (shard 1 on a parked worker) must not pause longer than
# `fused-1` — BENCHMARK.json's "a parallel walk must not lose to one
# worker here" — and `encoded-2` (the same drain as `encoded` on a
# two-worker pool, whose worker starts it during the resume) must leave
# the drain less to do without stretching the pause: drain_ms below,
# mean_pause_ms within 5 %.
SMOKE_JSON="$(mktemp)"
pause_window_field() { # <variant> <field>
    grep "\"name\": \"$1\"" "${SMOKE_JSON}" | grep -o "\"$2\": [0-9.]*" | grep -o '[0-9.]*$'
}
CRIMES_BENCH_EPOCHS=3 CRIMES_BENCH_OUT="${SMOKE_JSON}" scripts/bench_baseline.sh > /dev/null
grep -q '"name": "deferred"' "${SMOKE_JSON}"
grep -q '"name": "encoded"' "${SMOKE_JSON}"
grep -q '"name": "encoded-2"' "${SMOKE_JSON}"
BYTES_SAVED="$(grep -o '"encoded_bytes_saved_delta": [0-9]*' "${SMOKE_JSON}" \
    | head -n1 | grep -o '[0-9]*$')"
echo "    encoded drain saved ${BYTES_SAVED:-0} wire bytes/epoch"
awk -v b="${BYTES_SAVED:-0}" 'BEGIN { exit !(b > 0) }'
PAUSE_CPUS="$(grep -o '"host_cpus": [0-9]*' "${SMOKE_JSON}" | head -n1 | grep -o '[0-9]*$')"
if [ "${PAUSE_CPUS:-1}" -lt 2 ]; then
    echo "    one CPU: no resident worker, fused-2 and encoded-2 not compared"
else
    echo "    fused-1:   pause $(pause_window_field fused-1 mean_pause_ms) ms"
    echo "    fused-2:   pause $(pause_window_field fused-2 mean_pause_ms) ms"
    echo "    encoded:   pause $(pause_window_field encoded mean_pause_ms) ms, drain $(pause_window_field encoded drain_ms) ms"
    echo "    encoded-2: pause $(pause_window_field encoded-2 mean_pause_ms) ms, drain $(pause_window_field encoded-2 drain_ms) ms," \
        "$(pause_window_field encoded-2 head_start_pages_per_epoch) pages/epoch head-started"
    awk -v f1="$(pause_window_field fused-1 mean_pause_ms)" -v f2="$(pause_window_field fused-2 mean_pause_ms)" \
        'BEGIN { exit !(f2 <= f1) }'
    awk -v d1="$(pause_window_field encoded drain_ms)" -v d2="$(pause_window_field encoded-2 drain_ms)" \
        -v p1="$(pause_window_field encoded mean_pause_ms)" -v p2="$(pause_window_field encoded-2 mean_pause_ms)" \
        'BEGIN { exit !(d2 < d1 && p2 <= 1.05 * p1) }'
fi
rm -f "${SMOKE_JSON}"

echo "==> fleet bench smoke (20-tenant staggered round over leased walkers)"
# A short scheduled-vs-serial run at one scale pins the fleet JSON
# schema and the throughput contract. On a multi-CPU host the round runs
# tenants' pause windows concurrently on pause lanes, so it must beat the
# serial round by a margin only concurrency gives (two lanes read
# 1.6 - 2.0x here): a return to serialized windows fails this gate. On a
# single-CPU host a round runs inline with no lanes, so the gate relaxes
# to near-parity (the scheduler must never cost real throughput).
# Scratch output path — the committed BENCH_fleet.json keeps its full
# 10/100/500 sweep.
FLEET_JSON="$(mktemp)"
CRIMES_BENCH_SCALES=20 CRIMES_BENCH_ROUNDS=3 CRIMES_BENCH_OUT="${FLEET_JSON}" \
    scripts/bench_fleet.sh > /dev/null
for key in tenants_per_sec pages_per_sec p99_pause_ms speedup_scheduled_vs_serial \
           serial_mean_in_window_pause_ms scheduled_mean_in_window_pause_ms \
           host_cpus_note peak_leases granted_pool_workers fleet_worker_clamp_engaged; do
    grep -q "\"${key}\"" "${FLEET_JSON}"
done
FLEET_SPEEDUP="$(grep -o '"speedup_scheduled_vs_serial": [0-9.]*' "${FLEET_JSON}" \
    | head -n1 | grep -o '[0-9.]*$')"
# The floor depends on the CPU count the bench actually ran with, which
# is the numeric "host_cpus" it emits (available_parallelism — respects
# cgroup limits, unlike nproc's host-wide count). The quote-colon match
# cannot hit the prose "host_cpus_note" field; a bench that stops
# emitting the number falls back to 1 CPU and takes the lenient floor
# rather than failing a ≥2-CPU host on a parse miss.
HOST_CPUS="$(grep -o '"host_cpus": [0-9]*' "${FLEET_JSON}" \
    | head -n1 | grep -o '[0-9]*$')"
HOST_CPUS="${HOST_CPUS:-1}"
if [ "${HOST_CPUS}" -ge 2 ]; then
    FLEET_FLOOR="1.3"
else
    FLEET_FLOOR="0.75"
fi
echo "    scheduled-vs-serial speedup: ${FLEET_SPEEDUP} (floor ${FLEET_FLOOR}, ${HOST_CPUS}-cpu host)"
awk -v s="${FLEET_SPEEDUP}" -v f="${FLEET_FLOOR}" 'BEGIN { exit !(s >= f) }'
rm -f "${FLEET_JSON}"

echo "==> repo benchmark smoke (every workload, untraced and traced, all checks)"
# bench/ is a package of its own, outside the workspace, so nothing above
# compiles it. The smoke pass runs all five workloads at 1/50 length and
# exits non-zero unless every run's checks hold: the output ledger,
# backup == guest, verify_backup, journal replay count, a recovered
# monitor committing one more epoch, every fleet attack detected.
CARGO_TARGET_DIR="$PWD/target/bench" \
    cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
target/bench/release/crimes-e2e-bench --smoke > /dev/null

echo "==> telemetry overhead bench smoke (recording vs pause window, 5% budget)"
# The bin itself asserts overhead_pct <= 5.0 and exits nonzero past the
# budget; the JSON goes to a scratch path so the committed
# BENCH_telemetry_overhead.json keeps its full-length numbers.
CRIMES_BENCH_EPOCHS=4 CRIMES_BENCH_OUT="$(mktemp)" \
    cargo run --release --offline -q -p crimes-bench --bin telemetry_overhead > /dev/null

echo "==> telemetry export smoke (schema-validated JSON/CSV)"
# repro's telemetry experiment round-trips its JSON export through the
# in-tree schema validator before writing it; a drifting emitter fails
# here, not in a downstream consumer.
TELEMETRY_OUT="$(mktemp -d)"
cargo run --release --offline -q -p crimes-bench --bin repro -- \
    --quick --out "${TELEMETRY_OUT}" telemetry > /dev/null
for artifact in telemetry.json telemetry_counters.csv telemetry_phases.csv telemetry_events.csv; do
    test -s "${TELEMETRY_OUT}/${artifact}"
done
rm -rf "${TELEMETRY_OUT}"

echo "==> examples smoke-run"
for example in quickstart overflow_attack malware_detection web_server_safety cloud_fleet; do
    echo "    --example ${example}"
    cargo run --release --offline -q --example "${example}" > /dev/null
done

echo "verify: all green"
