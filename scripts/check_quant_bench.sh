#!/usr/bin/env bash
# Bench-smoke for the quantized shadow block: runs two cases past the
# seeded screen's size gate (DESIGN §16), one iteration each, and
# asserts the structural invariants that must hold on any machine:
#
#   - the 8-bit screen prunes hard: exactFrac, the share of screened
#     rows evaluated exactly, lies in (0, 0.10] on the seeded bench data;
#   - on clustered rows the walk skips blocks: visitedFrac, the share of
#     screened rows whose codes it summed, lies in (0, 0.10].
#
# The cases:
#
#   - BenchmarkFilterTopP/n200k-quantized8: 200,000 x 64 iid Gaussian
#     rows at p = 200. No block's box exceeds the bound on such rows, so
#     the walk visits every row (correctly: visitedFrac is not bounded
#     here) and the pruning falls to the rows' full bounds.
#   - BenchmarkSeededScreen/n=200000/p=200: 200,000 x 32 rows around 64
#     centres with random query weights, where the walk skips most
#     blocks.
#
# A missing exactFrac or visitedFrac also fails: it means the screen
# never ran, so the gate sent the case to the exact scan. The timing
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
go test -run '^$' -bench 'BenchmarkFilterTopP/^n200k-quantized8$' -benchtime 1x . | tee "$out"
echo "== running the seeded screen bench on clustered rows (1 iteration)"
go test -run '^$' -bench 'BenchmarkSeededScreen/^n=200000/p=200$' -benchtime 1x ./internal/retrieval | tee -a "$out"

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

# check CASE PATTERN: assert the case's exactFrac lies in (0, 0.10].
check() {
  local ef
  ef=$(metric exactFrac "$2")
  [ -n "$ef" ] || fail "missing exactFrac for $1 in bench output: the seeded screen did not run"
  echo "== exactFrac ($1): $ef"
  awk -v e="$ef" 'BEGIN { exit !(e > 0 && e <= 0.10) }' ||
    fail "$1 exactFrac $ef outside (0, 0.10]"
}

# visited CASE PATTERN: assert the case's visitedFrac lies in (0, 0.10].
visited() {
  local vf
  vf=$(metric visitedFrac "$2")
  [ -n "$vf" ] || fail "missing visitedFrac for $1 in bench output: the seeded screen did not run"
  echo "== visitedFrac ($1): $vf"
  awk -v v="$vf" 'BEGIN { exit !(v > 0 && v <= 0.10) }' ||
    fail "$1 visitedFrac $vf outside (0, 0.10]"
}

check "8-bit, 200k Gaussian rows" 'n200k-quantized8'
check "seeded screen, 200k clustered rows" 'SeededScreen/n=200000/p=200'
visited "seeded screen, 200k clustered rows" 'SeededScreen/n=200000/p=200'

echo "check_quant_bench: OK"
