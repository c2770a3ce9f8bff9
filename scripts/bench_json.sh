#!/usr/bin/env bash
# bench_json.sh — run the tier-1 benchmarks and emit a machine-readable
# BENCH_<sha>.json artifact, so the perf trajectory is tracked
# mechanically per commit instead of hand-quoted into CHANGES.md.
#
# Usage:
#   scripts/bench_json.sh [output-dir]
#
# Environment:
#   BENCH_PATTERN   benchmark regexp       (default: the CI smoke set + Search
#                                           + the cDTW oracle)
#   BENCH_TIME      -benchtime per bench   (default: 1x — smoke; use e.g. 20x locally)
#   BENCH_COUNT     -count per bench       (default: 1)
#
# The JSON shape is stable:
#   {"sha": "...", "unix": 1700000000, "go": "go1.24", "benchtime": "1x",
#    "benchmarks": [{"name": "BenchmarkSearch", "iterations": 20,
#                    "ns_per_op": 1382941.0}, ...]}
# Benchmarks that report extra metrics via b.ReportMetric (e.g. the
# quantized filter scan's exactFrac pruned-rows report) or b.ReportAllocs
# (the cDTW oracle) carry them in an additional "metrics" object:
# {"name": ..., "ns_per_op": ...,
#  "metrics": {"exactFrac": 0.018, "vs-exact-ratio": 0.9, ...}}, or
#  "metrics": {"B/op": 5376, "allocs/op": 1} for allocations.
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-.}"
mkdir -p "$outdir"
pattern="${BENCH_PATTERN:-Filter|StoreAdd|SaveDirty|CalibrateP|Search|ConstrainedDTW}"
benchtime="${BENCH_TIME:-1x}"
count="${BENCH_COUNT:-1}"

sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
out="$outdir/BENCH_${sha}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" ./... | tee "$raw"

goversion="$(go env GOVERSION)"
awk -v sha="$sha" -v unix="$(date +%s)" -v gover="$goversion" -v benchtime="$benchtime" '
  BEGIN { n = 0 }
  # Benchmark lines: "BenchmarkName-8   <iters>   <ns> ns/op [<val> <unit>]..."
  $1 ~ /^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)      # strip the GOMAXPROCS suffix
    iters = $2
    ns = $3
    # Everything past ns/op comes in (value, unit) pairs from
    # b.ReportMetric — the quantized scan reports its pruned-rows stats
    # (exactFrac, exactRows/query, vs-exact-ratio) this way.
    extra = ""
    for (i = 5; i + 1 <= NF; i += 2) {
      extra = extra sprintf("%s\"%s\": %s", (extra == "" ? "" : ", "), $(i + 1), $i)
    }
    row = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
    if (extra != "") row = row sprintf(", \"metrics\": {%s}", extra)
    rows[n++] = row "}"
  }
  END {
    printf "{\n"
    printf "  \"sha\": \"%s\",\n", sha
    printf "  \"unix\": %s,\n", unix
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
  }
' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
