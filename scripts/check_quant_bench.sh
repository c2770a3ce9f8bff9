#!/usr/bin/env bash
# Bench-smoke for the quantized shadow block: runs the one FilterTopP
# case past the seeded screen's size gate (DESIGN §16) —
# n200k-quantized8, 200,000 x 64 rows at p = 200 — and asserts the
# structural invariant that must hold on any machine:
#
#   - the 8-bit screen prunes hard: exactFrac, the share of screened
#     rows evaluated exactly, lies in (0, 0.10] on the seeded bench data.
#
# A missing exactFrac also fails: it means the screen never ran, so the
# gate sent the case to the exact scan. The timing ratio
# (vs-exact-ratio) is printed for the record but NOT asserted: it
# depends on core count and cache size, and CI runners vary.
#
# Run from the repository root; CI runs it on every push. The case
# builds a ~200 MB index.
set -euo pipefail

out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== running the gated quantized filter bench (1 iteration, seeded data)"
go test -run '^$' -bench 'BenchmarkFilterTopP/^n200k-quantized8$' -benchtime 1x . | tee "$out"

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

ef=$(metric exactFrac 'n200k-quantized8')
[ -n "$ef" ] || fail "missing exactFrac in bench output: the seeded screen did not run"
echo "== exactFrac (8-bit, 200k rows): $ef"
awk -v e="$ef" 'BEGIN { exit !(e > 0 && e <= 0.10) }' ||
  fail "8-bit exactFrac $ef outside (0, 0.10]"

echo "check_quant_bench: OK"
