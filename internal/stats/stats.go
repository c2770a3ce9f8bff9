// Package stats provides small numeric helpers used across the repository:
// percentiles, means, deterministic RNG construction, and sampling
// utilities. Everything is stdlib-only and allocation-conscious.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// NewRand returns a deterministic *rand.Rand for the given seed. All
// stochastic components in this repository accept a *rand.Rand so that
// experiments are reproducible bit-for-bit.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Percentile returns the pct-th percentile (pct in [0,100]) of values using
// linear interpolation between closest ranks. It does not modify values.
// It panics if values is empty or pct is outside [0,100]; callers are
// expected to validate inputs on public API boundaries.
func Percentile(values []float64, pct float64) float64 {
	if len(values) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if pct < 0 || pct > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", pct))
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, pct)
}

func percentileSorted(sorted []float64, pct float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := pct / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileInt returns the smallest value v in values such that at least
// pct percent of values are <= v. This is the "ceiling" percentile used when
// the value is a count (e.g. the number of candidates p needed so that pct%
// of queries succeed): interpolation would be meaningless for counts.
func PercentileInt(values []int, pct float64) int {
	if len(values) == 0 {
		panic("stats: PercentileInt of empty slice")
	}
	if pct < 0 || pct > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", pct))
	}
	sorted := make([]int, len(values))
	copy(sorted, values)
	sort.Ints(sorted)
	// Number of queries that must succeed.
	need := int(math.Ceil(pct / 100 * float64(len(sorted))))
	if need <= 0 {
		return sorted[0]
	}
	return sorted[need-1]
}

// Mean returns the arithmetic mean of values, or 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Median returns the 50th percentile of values.
func Median(values []float64) float64 { return Percentile(values, 50) }

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n). It panics if k > n or either argument is negative.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("stats: cannot sample %d from %d", k, n))
	}
	// Partial Fisher–Yates over an index slice.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Shuffle permutes xs in place using rng.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
