// Package metrics implements the vector and discrete distance measures used
// throughout the repository: L1, L2 and L∞ over real vectors (including
// the weighted L1 that underlies query-sensitive distances), the
// chi-square histogram distance, and edit distance over strings.
//
// The paper's output distance D_out (Eq. 11) is an asymmetric weighted L1:
// the weights are a function of the first argument (the query). That measure
// lives in internal/core because its weights come from the trained model;
// this package provides the raw building blocks and the query-insensitive
// variants used by baselines.
package metrics

import (
	"fmt"
	"math"
)

// L1 returns the Manhattan distance between equal-length vectors a and b.
func L1(a, b []float64) float64 {
	mustSameLen(len(a), len(b))
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// L2 returns the Euclidean distance between equal-length vectors a and b.
func L2(a, b []float64) float64 {
	mustSameLen(len(a), len(b))
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Chebyshev returns the L∞ distance between a and b.
func Chebyshev(a, b []float64) float64 {
	mustSameLen(len(a), len(b))
	var max float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

// WeightedL1 returns sum_i w[i]*|a[i]-b[i]|. Negative weights are not
// meaningful for a distance and cause a panic. This is the filter-step
// distance of the original BoostMap (query-insensitive weights).
func WeightedL1(w, a, b []float64) float64 {
	mustSameLen(len(a), len(b))
	mustSameLen(len(w), len(a))
	for i := range w {
		if w[i] < 0 {
			panic("metrics: negative weight in WeightedL1")
		}
	}
	return WeightedL1Unchecked(w, a, b)
}

// WeightedL1Unchecked is WeightedL1 without the per-element negativity
// check, for hot loops whose weights are non-negative by construction
// (core.Model.QueryWeights always is). The summation order is identical to
// WeightedL1, so both return bit-identical results on valid inputs.
func WeightedL1Unchecked(w, a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += w[i] * math.Abs(a[i]-b[i])
	}
	return sum
}

// WeightedL1x4 returns WeightedL1Unchecked(w, q, r) for the four rows a,
// b, c and d at once. Each sum runs over the dimensions in the same order
// from the same zero, so every result has WeightedL1Unchecked's bits; only
// the four dependency chains interleave, which lets the adds of one row
// overlap the latency of another's. Every slice must hold at least len(q)
// values.
func WeightedL1x4(w, q, a, b, c, d []float64) (s0, s1, s2, s3 float64) {
	n := len(q)
	w, a, b, c, d = w[:n], a[:n], b[:n], c[:n], d[:n]
	for i, x := range q {
		wi := w[i]
		s0 += wi * math.Abs(x-a[i])
		s1 += wi * math.Abs(x-b[i])
		s2 += wi * math.Abs(x-c[i])
		s3 += wi * math.Abs(x-d[i])
	}
	return s0, s1, s2, s3
}

// ChiSquare returns the chi-square histogram distance
// 0.5 * sum_i (a[i]-b[i])^2 / (a[i]+b[i]), with zero-denominator bins
// skipped. It is the histogram cost used by Shape Context matching.
// Inputs must be non-negative.
func ChiSquare(a, b []float64) float64 {
	mustSameLen(len(a), len(b))
	var sum float64
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			panic("metrics: negative histogram bin in ChiSquare")
		}
		den := a[i] + b[i]
		if den == 0 {
			continue
		}
		d := a[i] - b[i]
		sum += d * d / den
	}
	return 0.5 * sum
}

// EditDistance returns the Levenshtein distance between strings a and b
// (unit costs for insert, delete, substitute). It runs in O(len(a)*len(b))
// time and O(min) space. Strings are compared byte-wise; the examples use
// ASCII biological-sequence alphabets where bytes and runes coincide.
func EditDistance(a, b string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("metrics: dimension mismatch %d vs %d", a, b))
	}
}
