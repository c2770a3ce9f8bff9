package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceBestInterval is bestInterval as it was before the trainer
// ranked the query objects: it sorts all t query projections and reads
// the quantiles from that sort.
func referenceBestInterval(qv, ft, weights []float64, pairs [][2]int) (lo, hi float64) {
	sorted := append([]float64(nil), qv...)
	sort.Float64s(sorted)

	bestLo, bestHi := math.Inf(-1), math.Inf(1)
	bestErr := intervalError(qv, ft, weights, bestLo, bestHi)

	for _, pr := range pairs {
		l, h := sorted[pr[0]], sorted[pr[1]]
		if l > h {
			l, h = h, l
		}
		if e := intervalError(qv, ft, weights, l, h); e < bestErr {
			bestErr, bestLo, bestHi = e, l, h
		}
	}
	return bestLo, bestHi
}

// TestRankedQuantilesMatchFullSort checks the ranked read of every
// quantile, and bestInterval's interval, against a sort of all t query
// projections: projections tie across training objects (a few distinct
// values), some objects are never a triple's query, and some are the
// query of many.
func TestRankedQuantilesMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 100; trial++ {
		pool := 4 + rng.Intn(60)
		levels := 1 + rng.Intn(pool)
		proj := make([]float64, pool)
		for o := range proj {
			proj[o] = float64(rng.Intn(levels)-levels/2) / 4
		}
		// Queries come from the first half of the pool only on odd
		// trials, so a run of objects is never a query.
		qPool := pool
		if trial%2 == 1 {
			qPool = pool / 2
		}
		n := 1 + rng.Intn(300)
		triples := make([]Triple, n)
		qCount := make([]int, pool)
		for i := range triples {
			triples[i] = Triple{Q: rng.Intn(qPool), A: rng.Intn(pool), B: rng.Intn(pool)}
			qCount[triples[i].Q]++
		}
		var queries []int
		for o, c := range qCount {
			if c > 0 {
				queries = append(queries, o)
			}
		}
		qv, ft, weights := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, tri := range triples {
			qv[i] = proj[tri.Q]
			ft[i] = float64(rng.Intn(5) - 2)
			weights[i] = rng.Float64()
		}
		byRank, cum := make([]int, len(queries)), make([]int, len(queries))
		rankQueries(byRank, cum, queries, qCount, proj)
		ranked := func(k int) float64 { return proj[byRank[sort.SearchInts(cum, k+1)]] }

		sorted := append([]float64(nil), qv...)
		sort.Float64s(sorted)
		for k, want := range sorted {
			if got := ranked(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: quantile %d = %v, full sort %v", trial, k, got, want)
			}
		}
		pairs := make([][2]int, 8)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		lo, hi := bestInterval(qv, ft, weights, pairs, ranked)
		rlo, rhi := referenceBestInterval(qv, ft, weights, pairs)
		if math.Float64bits(lo) != math.Float64bits(rlo) || math.Float64bits(hi) != math.Float64bits(rhi) {
			t.Fatalf("trial %d: interval [%v, %v], full sort [%v, %v]", trial, lo, hi, rlo, rhi)
		}
	}
}
