#!/usr/bin/env bash
# Bench-smoke for the quantized shadow block: runs three cases of the
# seeded screen (DESIGN §16), one iteration each, and asserts the
# structural invariants that must hold on any machine:
#
#   - the 8-bit screen prunes hard: exactFrac, the share of screened
#     rows evaluated exactly, lies in (0, 0.10] on the seeded bench data;
#   - on clustered rows the walk skips most of the tree: visitedFrac,
#     the share of screened rows whose codes it summed, lies in
#     (0, 0.10], and pricedFrac, the boxes it priced over the tree's
#     nodes, in (0, 0.5] — a walk that prices every box fails.
#
# The cases:
#
#   - BenchmarkFilterTopP/n200k-quantized8: 200,000 x 64 iid Gaussian
#     rows at p = 200, past the gate. No box exceeds the bound on such
#     rows, so the walk visits every row (correctly: visitedFrac is not
#     bounded here) and the pruning falls to the rows' full bounds.
#   - BenchmarkSeededScreen/n=200000/p=200: 200,000 x 32 rows around 64
#     centres with random query weights, where the walk skips most of
#     the tree (exactFrac, visitedFrac and pricedFrac asserted).
#   - BenchmarkSeededScreen/n=16384/p=200: the same mixture at the build
#     gate's size, where two workers must still share one bound: a walk
#     whose workers bound by their own rows only visits most of them
#     (visitedFrac asserted).
#
# A missing exactFrac, visitedFrac or pricedFrac also fails: it means the
# screen never ran, so the gate sent the case to the exact scan. The timing
# ratios (vs-exact-ratio, seeded/exact) are printed for the record but
# NOT asserted: they depend on core count and cache size, and CI runners
# vary.
#
# Run from the repository root; CI runs it on every push. Each case
# builds an index of about 100-200 MB.
set -euo pipefail

out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== running the gated quantized filter bench (1 iteration, seeded data)"
go test -run '^$' -bench 'BenchmarkFilterTopP/^n200k-quantized8$' -benchtime 1x ./internal/retrieval | tee "$out"
echo "== running the seeded screen bench on clustered rows (1 iteration each)"
go test -run '^$' -bench 'BenchmarkSeededScreen/^n=(16384|200000)/p=200$' -benchtime 1x ./internal/retrieval | tee -a "$out"

# metric NAME BENCHLINE-PATTERN: pull one ReportMetric value from a bench line.
metric() {
  awk -v pat="$2" -v unit="$1" '
    $1 ~ pat { for (i = 1; i < NF; i++) if ($(i+1) == unit) { print $i; exit } }
  ' "$out"
}

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# within METRIC MAX CASE PATTERN: assert the case's METRIC lies in (0, MAX].
within() {
  local v
  v=$(metric "$1" "$4")
  [ -n "$v" ] || fail "missing $1 for $3 in bench output: the seeded screen did not run"
  echo "== $1 ($3): $v"
  awk -v v="$v" -v max="$2" 'BEGIN { exit !(v > 0 && v <= max) }' ||
    fail "$3 $1 $v outside (0, $2]"
}

within exactFrac 0.10 "8-bit, 200k Gaussian rows" 'n200k-quantized8'
within exactFrac 0.10 "seeded screen, 200k clustered rows" 'SeededScreen/n=200000/p=200'
within visitedFrac 0.10 "seeded screen, 200k clustered rows" 'SeededScreen/n=200000/p=200'
within pricedFrac 0.5 "seeded screen, 200k clustered rows" 'SeededScreen/n=200000/p=200'
within visitedFrac 0.10 "seeded screen, 16,384 clustered rows" 'SeededScreen/n=16384/p=200'

echo "check_quant_bench: OK"
