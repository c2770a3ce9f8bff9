#!/usr/bin/env bash
# Bench-smoke for the quantized shadow block: runs the FilterTopP
# quantized benches at 4 and 8 bits and asserts the structural
# invariants that must hold on any machine:
#
#   - the 4-bit packed shadow occupies at most 55% of the 8-bit bytes
#     (the packed layout makes it exactly 50%: two cells per byte);
#   - the 8-bit scan prunes hard (exactFrac <= 0.10 on the seeded
#     bench data; measured ~0.019);
#   - the 4-bit scan still prunes *something* (exactFrac < 1.0) but
#     never more than the 8-bit scan of the same data — narrower
#     cells mean looser bounds, by construction.
#
# The timing ratio (vs-exact-ratio) is printed for the record but NOT
# asserted: it depends on core count and cache size, and CI runners
# vary. The byte and prune invariants do not.
#
# Run from the repository root; CI runs it on every push.
set -euo pipefail

out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== running quantized filter benches (1 iteration, seeded data)"
go test -run '^$' -bench 'BenchmarkFilterTopP/^quantized' -benchtime 1x . | tee "$out"

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

shadow4=$(metric shadow-bytes 'quantized4-unweighted')
shadow8=$(metric shadow-bytes 'quantized8-unweighted')
[ -n "$shadow4" ] && [ -n "$shadow8" ] || fail "missing shadow-bytes metrics in bench output"

echo "== shadow bytes: 4-bit $shadow4 vs 8-bit $shadow8"
awk -v a="$shadow4" -v b="$shadow8" 'BEGIN { exit !(a <= 0.55 * b) }' ||
  fail "4-bit shadow ($shadow4 bytes) exceeds 55% of the 8-bit shadow ($shadow8 bytes)"

for variant in unweighted weighted; do
  ef4=$(metric exactFrac "quantized4-$variant")
  ef8=$(metric exactFrac "quantized8-$variant")
  [ -n "$ef4" ] && [ -n "$ef8" ] || fail "missing exactFrac for $variant in bench output"
  echo "== exactFrac ($variant): 4-bit $ef4, 8-bit $ef8"
  awk -v e="$ef8" 'BEGIN { exit !(e > 0 && e <= 0.10) }' ||
    fail "8-bit exactFrac $ef8 ($variant) outside (0, 0.10]"
  awk -v e="$ef4" 'BEGIN { exit !(e > 0 && e < 1.0) }' ||
    fail "4-bit exactFrac $ef4 ($variant) outside (0, 1.0) — scan prunes nothing or everything"
  awk -v a="$ef4" -v b="$ef8" 'BEGIN { exit !(a >= b) }' ||
    fail "4-bit exactFrac $ef4 below 8-bit $ef8 ($variant): looser bounds cannot prune more"
done

echo "check_quant_bench: OK"
