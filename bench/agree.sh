#!/usr/bin/env bash
# Noise gate: run the full untraced set twice on one build and fail if any
# end-to-end metric of a workload differs between the two sets by more
# than that metric's bound in BENCHMARK.json, or if a fingerprint differs.
#
#   bench/agree.sh [--seed N]
#
# Both sets are written to bench/out/agree-seed<N>.json; the sets recorded
# when the benchmark was defined are in bench/BASELINE.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed=11
if [ "${1:-}" = "--seed" ] && [ $# -eq 2 ]; then
    seed="$2"
elif [ $# -ne 0 ]; then
    echo "usage: bench/agree.sh [--seed N]" >&2
    exit 2
fi

export CARGO_TARGET_DIR="$root/target/bench"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
mkdir -p "$here/out"
cd "$root"

python3 - "$CARGO_TARGET_DIR/release/crimes-e2e-bench" "$root/BENCHMARK.json" "$seed" "$here/out/agree-seed$seed.json" <<'EOF'
import json, subprocess, sys

bench, spec_path, seed, out_path = sys.argv[1:5]
spec = json.load(open(spec_path))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
detail_dir = out_path.rsplit("/", 1)[0]

def one_set():
    results = {}
    for w in (w["name"] for w in spec["workloads"]):
        out = subprocess.run(
            [bench, "--workload", w, "--seed", seed, "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        detail = json.load(open(f"{detail_dir}/{w}.json"))
        results[w] = {
            "correct": result["correct"],
            "failed": result["failed"],
            "valid": detail["valid"],
            "fingerprint": detail["fingerprint"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
        print(f"  {w}: correct={result['correct']} fingerprint={detail['fingerprint']}", flush=True)
    return results

print("agree.sh: first set", flush=True)
first = one_set()
print("agree.sh: second set", flush=True)
second = one_set()

bad = []
for w in first:
    a, b = first[w], second[w]
    if not (a["correct"] and b["correct"]):
        bad.append(f"{w}: a correctness check failed")
    if a["fingerprint"] != b["fingerprint"]:
        bad.append(f"{w}: fingerprint {a['fingerprint']} != {b['fingerprint']}")
    for name, bound in bounds.items():
        x, y = a["metrics"][name], b["metrics"][name]
        diff = abs(x - y) / min(abs(x), abs(y))
        mark = "ok" if diff <= bound else "DISAGREES"
        print(f"  {w:<14} {name:<22} {x:>14.5f} {y:>14.5f}  {diff * 100:6.2f} % (bound {bound * 100:g} %) {mark}")
        if diff > bound:
            bad.append(f"{w}: {name} differs by {diff * 100:.2f} % (bound {bound * 100:g} %)")

json.dump({"seed": int(seed), "run_seconds": spec["run_seconds"], "first": first, "second": second},
          open(out_path, "w"), indent=2)
print(f"agree.sh: both sets written to {out_path}")
if bad:
    print("agree.sh: the two sets DISAGREE:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("agree.sh: the two sets agree within every bound")
EOF
