#!/usr/bin/env bash
# A/A (and A/B) comparison of the six untraced workloads.
#
#   benchmark/aa.sh                 # the same build against itself (~25 min)
#   A_BIN=old/elbench B_BIN=new/elbench PAIRS=10 benchmark/aa.sh
#
# For the default seed and then seed 2, runs every workload PAIRS times
# (default 3) on each side, alternating which side goes first, and prints
# each side's median and the relative gap per (metric, workload). Exits
# non-zero when a gap exceeds the metric's bound in BENCHMARK.json, when a
# simulated-time metric (sim_*) differs at all, or when any run failed a
# check. One pair is not enough even for an A/A: a single run's setup_s is
# the median of three samples and differs by up to 30 % between two runs of
# the same binary on this host. A claim of a gain needs PAIRS >= 10
# (README.md, "Noise protocol").
set -euo pipefail
cd "$(dirname "$0")"

pairs="${PAIRS:-3}"
seconds="${RUN_SECONDS:-$(python3 -c 'import json; print(json.load(open("../BENCHMARK.json"))["run_seconds"])')}"
if [[ -z "${A_BIN:-}" ]]; then
    cargo build --release --offline --quiet
    A_BIN="${CARGO_TARGET_DIR:-target}/release/elbench"
fi
B_BIN="${B_BIN:-$A_BIN}"
mkdir -p out
out="$(mktemp -d out/aa.XXXXXX)"
trap 'rm -rf "$out"' EXIT

for seed in 0x5EED1993 2; do
    for ((pair = 0; pair < pairs; pair++)); do
        for workload in steady churn backlog search recover tenants; do
            if ((pair % 2 == 0)); then order="A B"; else order="B A"; fi
            for side in $order; do
                bin="$A_BIN"
                [[ "$side" == B ]] && bin="$B_BIN"
                "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
                    tail -n 1 >>"$out/$side.$seed.$workload.jsonl"
            done
        done
    done
done

python3 - "$out" <<'PY'
import json, statistics, sys, os

out = sys.argv[1]
bounds = {m["name"]: m["bound"] for m in json.load(open("../BENCHMARK.json"))["end_to_end"]}
bad = 0
print(f'{"seed":<11}{"workload":<9}{"metric":<20}{"A median":>16}{"B median":>16}{"gap":>9}  verdict')
for seed in ("0x5EED1993", "2"):
    for workload in ("steady", "churn", "backlog", "search", "recover", "tenants"):
        rows = {}
        for side in "AB":
            path = os.path.join(out, f"{side}.{seed}.{workload}.jsonl")
            rows[side] = [json.loads(line) for line in open(path)]
            failed = sum(r["failed"] for r in rows[side])
            if failed or not all(r["correct"] for r in rows[side]):
                print(f"{seed:<11}{workload:<9}side {side}: {failed} failed checks")
                bad += 1
        for metric, bound in bounds.items():
            a, b = (statistics.median(r["metrics"][metric]["value"] for r in rows[s]) for s in "AB")
            gap = (b - a) / a
            if metric.startswith("sim_"):
                ok = a == b
                verdict = "identical" if ok else "DIFFERS (model drift)"
            else:
                ok = abs(gap) <= bound
                verdict = f"within {bound:.0%}" if ok else f"EXCEEDS {bound:.0%}"
            bad += not ok
            print(f"{seed:<11}{workload:<9}{metric:<20}{a:>16.6g}{b:>16.6g}{gap:>+9.2%}  {verdict}")
print("aa.sh:", "PASS" if not bad else f"FAIL ({bad} rows)")
sys.exit(1 if bad else 0)
PY
