#!/usr/bin/env bash
# Full offline verification for the CRIMES reproduction.
#
# Everything here must pass with no network access and no crates beyond
# the workspace itself — the build is hermetic by construction (see
# README "Building offline"). Warnings are promoted to errors so the
# tree stays clean.
#
# Usage: scripts/verify.sh

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

echo "==> clippy: fail-closed modules, clocks and threads, console output"
# DESIGN.md "Static guarantees" says which check holds which invariant;
# that the pause window allocates nothing is tests/pause_alloc.rs's, in
# the test suite above.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> hermeticity: no package from a registry"
# A registry or git package has a non-null `source` (or, not cached,
# fails to resolve offline at all) and breaks the offline build.
METADATA="$(cargo metadata --offline --format-version 1)"
REGISTRY_PACKAGES="$(echo "${METADATA}" | grep -oE '"source":"[^"]*"' || true)"
if [ -n "${REGISTRY_PACKAGES}" ]; then
    echo "${REGISTRY_PACKAGES}" | sed 's/^/    /'
    exit 1
fi

echo "==> unsafe budget: one block in production code (crates/checkpoint/src/resident.rs), one in tests/pause_alloc.rs"
# rustc enforces where it may be (`forbid(unsafe_code)` in every library
# crate but crimes-checkpoint, which denies it outside `mod resident`);
# this counts how many there are. The test's is its counting
# `GlobalAlloc` impl, whose two methods the trait declares `unsafe fn`.
UNSAFE_SITES="$(grep -rnE '\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)' --include='*.rs' \
    src crates tests examples || true)"
echo "${UNSAFE_SITES}" | sed 's/^/    /'
test "$(echo "${UNSAFE_SITES}" | grep -c .)" -eq 4
test "$(echo "${UNSAFE_SITES}" | grep -c '^crates/checkpoint/src/resident.rs:')" -eq 1
test "$(echo "${UNSAFE_SITES}" | grep -cE \
    '^tests/pause_alloc.rs:[0-9]+: *unsafe (impl GlobalAlloc|fn (alloc|dealloc)\()')" -eq 3

echo "==> guest-bytes escape budget: at most 14 Guest::unguarded sites"
# Every host read of guest memory returns a crimes_vm::Guest<T>, and rustc
# keeps a guest value from sizing, indexing or doing arithmetic unchecked
# (DESIGN.md "Guest bytes as a type"). `unguarded()` is the one escape,
# meant only for the decoders that copy fields into report structs; this
# counts its uses (guest.rs, which defines and documents it, aside) so a
# new one is a visible change to this budget.
UNGUARDED_SITES="$(grep -rnoE '\bunguarded\(\)|Guest::unguarded' --include='*.rs' \
    src crates tests examples | grep -v '^crates/vm/src/guest.rs:' || true)"
echo "${UNGUARDED_SITES}" | sed 's/^/    /'
test "$(echo "${UNGUARDED_SITES}" | grep -c .)" -le 14

echo "==> benches compile (in-tree harness, no criterion)"
cargo bench --no-run --offline

echo "==> repo benchmark smoke (every workload, untraced and traced, all checks)"
# bench/ is a package of its own, outside the workspace, so nothing above
# compiles it. The smoke pass runs all five workloads at 1/50 length and
# exits non-zero unless every run's checks hold: the output ledger,
# backup == guest, verify_backup, journal replay count, a recovered
# monitor committing one more epoch, every fleet attack detected.
# bench/Cargo.lock predates crimes-checkpoint's crimes-telemetry
# dependency, so cargo rewrites one line of it; only a `benchmark` PR may
# change bench/, so the committed file is put back however this exits.
BENCH_LOCK="$(mktemp)"
cp bench/Cargo.lock "${BENCH_LOCK}"
trap 'cp "${BENCH_LOCK}" bench/Cargo.lock; rm -f "${BENCH_LOCK}"' EXIT
CARGO_TARGET_DIR="$PWD/target/bench" \
    cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
target/bench/release/crimes-e2e-bench --smoke > /dev/null

echo "==> repo benchmark self-tests (ledger, stats, trace, main)"
CARGO_TARGET_DIR="$PWD/target/bench" \
    cargo test --release --offline --quiet --manifest-path bench/Cargo.toml

echo "==> perf gates (bench/ workloads: the host's CPUs vs one CPU, median of three alternating pairs)"
# Every wall-clock comparison is made by the repo benchmark itself. Pinned
# to one CPU (`taskset -c 0`) available_parallelism() reads 1, so the same
# binary starts no resident walk worker, gives the drain no head start and
# no worker to lend cipher shares to, runs the fleet's round inline with
# no pause lane, and starts up (protect, recover) with no worker: the
# difference between the two sides is what the second thread buys.
# BENCHMARK.json says which way each must fall: sharding the walk wins
# on parsec_inline and must not lose on web_inline; the head start leaves
# web_drain's release less to wait for without stretching the pause; the
# drain's cipher, split with the worker, cuts bulk_drain's release lag by
# a fifth or more without stretching the pause; concurrent windows on two
# lanes beat a serial round by a margin only concurrency gives; and
# recovery, its journal replay and digest lent to a worker while the
# caller parses System.map, takes at most three quarters of the one-CPU
# run's time (bulk_drain's recover_ms).
E2E="target/bench/release/crimes-e2e-bench"
pairs() { # <workload>: three alternating pairs, one result line a run, into FREE and ONE
    local run="${E2E} --workload $1 --seed 11 --seconds 3 --trace 0" i
    W="$1" FREE="" ONE=""
    for i in 1 2 3; do # the second pair runs its one-CPU side first
        [ "${i}" -ne 2 ] || ONE+="$(taskset -c 0 ${run} | tail -n1)"$'\n'
        FREE+="$(${run} | tail -n1)"$'\n'
        [ "${i}" -eq 2 ] || ONE+="$(taskset -c 0 ${run} | tail -n1)"$'\n'
    done
    if echo -n "${FREE}${ONE}" | grep -v '"correct": true, .*"failed": 0,'; then
        echo "    $1: the run above failed its own checks"; exit 1
    fi
}
readings() { # <result lines> <metric>
    echo "$1" | grep -o "\"$2\": {\"value\": [0-9.]*" | grep -o '[0-9.]*$' | xargs printf '%.3f\n'
}
gate() { # <metric> <awk test over u (the host's CPUs) and o (one CPU), each the median of its three>
    local u o mu mo
    u="$(readings "${FREE}" "$1")" o="$(readings "${ONE}" "$1")"
    mu="$(echo "${u}" | sort -g | sed -n 2p)" mo="$(echo "${o}" | sort -g | sed -n 2p)"
    echo "    ${W} $1: $(paste -d/ <(echo "${u}") <(echo "${o}") | xargs), median ${mu}/${mo}, need $2"
    awk -v u="${mu}" -v o="${mo}" "BEGIN { exit !($2) }"
}
if [ "$(nproc)" -lt 2 ] || ! command -v taskset > /dev/null; then
    echo "    one CPU or no taskset: no resident worker, head start or lane to compare, gates skipped"
else
    # fleet_mixed first: after an idle spell this guest wakes a parked
    # worker on its waker's CPU, and two busy lanes are what ends that
    # (DESIGN.md "Measurement").
    pairs fleet_mixed; gate tenant_epochs_per_s 'u >= 1.3 * o'
    pairs parsec_inline; gate pause_ms_p50 'u <= 0.9 * o'
    pairs web_inline; gate pause_ms_p50 'u <= 1.05 * o'
    pairs web_drain; gate release_lag_ms_p50 'u < o'; gate pause_ms_p50 'u <= 1.05 * o'
    pairs bulk_drain; gate release_lag_ms_p50 'u <= 0.8 * o'; gate pause_ms_p50 'u <= 1.05 * o'; gate recover_ms 'u <= 0.75 * o'
fi

echo "==> telemetry export smoke (schema-validated JSON/CSV, recording within 5% of the boundary)"
# repro's telemetry experiment round-trips its JSON export through the
# in-tree schema validator before writing it, and times the recording
# calls of one boundary against the mean boundary of the tenant it drove;
# a drifting emitter or a blown budget fails here.
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
