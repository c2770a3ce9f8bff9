#!/usr/bin/env bash
# bench_pairs.sh — interleaved parent-vs-change runs of the served-path
# benchmark, the comparison every performance claim in this repository
# rests on.
#
# Usage:
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED...
#
# PARENT_DIR and CHANGE_DIR are two checkouts (for example one made with
# `git archive <parent> | tar -x -C dir` and a copy of the working tree).
# For each seed it runs `bash perfbench/run.sh --workload WORKLOAD --seed
# SEED --seconds 12 --trace 0` in both, the parent first on even seeds and
# the change first on odd ones, so neither side always runs on a cooler
# host. Each run prints one line: side, seed, whether every answer was
# correct, the failed-op count and every metric the run reported. After
# the last seed, one line per metric gives both sides' medians, the ratio
# of the change's median to the parent's, both sides' quartiles
# (inclusive method) and the pairs the change won, by the direction
# BENCHMARK.json gives for the metric; ties count for neither side.
#
# Environment:
#   PAIRS_TRACE    --trace per run    (default 0; 1 reports the per-layer
#                                      metrics instead of the end-to-end ones)
#   PAIRS_OUT      file to append each run's result JSON to, with "side"
#                  and "seed" added (default: none)
set -euo pipefail

if (($# < 4)); then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED..." >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
shift 3
trace=${PAIRS_TRACE:-0}
bench_json="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

raw=$(mktemp)
log=$(mktemp)
trap 'rm -f "$raw" "$log"' EXIT

# run SIDE DIR SEED: one benchmark run. Its result goes to $raw (and
# $PAIRS_OUT) as JSON and to standard output as one line.
run() {
	local side=$1 dir=$2 seed=$3 result
	if ! result=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds 12 --trace "$trace" 2>"$log" | tail -n 1); then
		echo "bench_pairs.sh: $side run failed on seed $seed:" >&2
		cat "$log" >&2
		exit 1
	fi
	python3 - "$side" "$seed" "$result" "$raw" "${PAIRS_OUT:-}" <<'PY'
import json
import sys

side, seed, result, *paths = sys.argv[1:]
r = json.loads(result)
r["side"], r["seed"] = side, int(seed)
for path in filter(None, paths):
    with open(path, "a") as f:
        print(json.dumps(r), file=f)
cells = ["%s=%s" % (k, m["value"]) for k, m in r["metrics"].items()]
print(side, "seed=%d" % r["seed"], "correct=%s" % str(r["correct"]).lower(),
      "failed=%d" % r["failed"], *cells)
PY
}

for seed in "$@"; do
	if ((seed % 2 == 0)); then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
done

python3 - "$raw" "$bench_json" <<'PY'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
declared = spec["end_to_end"] + spec["per_layer"]
better = {m["name"]: m["better"] for m in declared}
by = {}
for r in runs:
    by.setdefault((r["side"], r["seed"]), r)
seeds = sorted({seed for _, seed in by if ("parent", seed) in by and ("change", seed) in by})
reported = runs[0]["metrics"]
names = [m["name"] for m in declared if m["name"] in reported]
names += [n for n in reported if n not in better]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print("%-28s %12s %12s %7s %25s %25s %6s" % ("metric", "parent_med", "change_med", "ratio",
                                            "parent_q1..q3", "change_q1..q3", "wins"))
for name in names:
    p = [by[("parent", s)]["metrics"][name]["value"] for s in seeds]
    c = [by[("change", s)]["metrics"][name]["value"] for s in seeds]
    pm, cm = statistics.median(p), statistics.median(c)
    sign = -1 if better.get(name, "lower") == "lower" else 1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    ratio = cm / pm if pm else float("nan")
    pq, cq = quartiles(p), quartiles(c)
    print("%-28s %12.6g %12.6g %7.4f %25s %25s %3d/%d" % (
        name, pm, cm, ratio, "%.6g..%.6g" % pq, "%.6g..%.6g" % cq, wins, len(seeds)))
PY
