// Benchmarks regenerating every table and figure of the paper at small
// scale (see cmd/qse-bench for configurable, larger runs), plus the Sec. 9
// distance-rate micro-benchmarks and ablations of the design choices
// called out in DESIGN.md.
//
// Experiment benches (one per paper artifact):
//
//	BenchmarkFig1Toy           — Figure 1 toy example
//	BenchmarkFig4MNIST         — Figure 4 (digits + Shape Context)
//	BenchmarkFig5TimeSeries    — Figure 5 (time series + cDTW)
//	BenchmarkFig6Quick         — Figure 6 (preprocessing budget)
//	BenchmarkTable1            — Table 1 (both datasets, all 5 methods)
//	BenchmarkSpeedupVsVlachos  — Sec. 9 speed-up comparison
//
// Each reports the experiment's wall time per run; the series/tables
// themselves are printed by `go run ./cmd/qse-bench`.
package qse

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qse/internal/core"
	"qse/internal/dtw"
	"qse/internal/eval"
	"qse/internal/experiments"
	"qse/internal/fastmap"
	"qse/internal/lipschitz"
	"qse/internal/meta"
	"qse/internal/metrics"
	"qse/internal/retrieval"
	"qse/internal/shapecontext"
	"qse/internal/space"
	"qse/internal/stats"
	"qse/internal/timeseries"
	"qse/internal/vafile"

	"qse/internal/digits"
)

// ---- Retrieval-engine hot paths --------------------------------------------
//
// The whole engine, plain, filtered and batched, at "embedding store"
// scale: n=20,000 vectors, d=64. The filter phase alone is timed in
// internal/retrieval (BenchmarkFilterTopP). These are the benchmarks
// whose trajectory is tracked in CHANGES.md across PRs.

// copyEmbedder embeds a vector as itself (no exact distances): the
// benchmark then isolates the filter/refine machinery rather than the
// distance oracle.
type copyEmbedder struct{}

func (copyEmbedder) Embed(x []float64) []float64 { return append([]float64(nil), x...) }
func (copyEmbedder) EmbedCost() int              { return 0 }

func benchRetrievalIndex(b *testing.B, n, d int) (*retrieval.Index[[]float64], []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	db := make([][]float64, n)
	for i := range db {
		db[i] = make([]float64, d)
		for j := range db[i] {
			db[i][j] = rng.NormFloat64()
		}
	}
	ix, err := retrieval.BuildIndex(db, func(a, b []float64) float64 { return metrics.L1(a, b) }, copyEmbedder{})
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return ix, q
}

func BenchmarkSearch(b *testing.B) {
	ix, q := benchRetrievalIndex(b, 20000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(q, 10, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchFiltered measures predicate-filtered search on the same
// 20k x 64 corpus at three range selectivities (~1%, ~10%, ~90% of rows
// match) and one equality on a 16-value string field (~6%). Compare to
// BenchmarkSearch for the cost of evaluating the predicate below the
// top-p cut.
func BenchmarkSearchFiltered(b *testing.B) {
	ix, q := benchRetrievalIndex(b, 20000, 64)
	rows := make([]meta.Map, ix.Size())
	for i := range rows {
		rows[i] = meta.Map{
			"bucket": meta.IntValue(int64(i % 100)),
			"tenant": meta.StringValue(fmt.Sprintf("t%02d", i%16)),
		}
	}
	segs := []retrieval.Segment[[]float64]{{Seg: retrieval.NewSegmentedWithMeta(ix, meta.NewBlock(rows))}}
	reg := meta.NewRegistry()
	if err := reg.SeedRows(rows); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		raw  string
	}{
		{"sel1", `{"field":"bucket","lt":1}`},
		{"sel10", `{"field":"bucket","lt":10}`},
		{"sel90", `{"field":"bucket","lt":90}`},
		{"eq16", `{"field":"tenant","eq":"t03"}`},
	} {
		pred, err := meta.CompileFilter([]byte(c.raw), reg.Kinds())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := retrieval.Search(segs, q, 10, 200, pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchBatch measures a 64-query batch against the same index;
// compare ns/op here to 64× BenchmarkSearch to see the batching win. The
// quantized sub-benchmark times the same batch with quantization on: the
// 20,000-row base gets its 8-bit shadow, but at p = 200 the query gate
// (128·p rows, DESIGN §16) sends every query to the exact scan, so it
// measures what the gate costs a batch it rejects.
func BenchmarkSearchBatch(b *testing.B) {
	ix, _ := benchRetrievalIndex(b, 20000, 64)
	rng := rand.New(rand.NewSource(8))
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = make([]float64, 64)
		for j := range queries[i] {
			queries[i][j] = rng.NormFloat64()
		}
	}
	b.Run("exact", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.SearchBatch(queries, 10, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
	seg, err := retrieval.NewSegmentedWithMeta(ix, nil).Quantize()
	if err != nil {
		b.Fatal(err)
	}
	segs := []retrieval.Segment[[]float64]{{Seg: seg}}
	b.Run("quantized8", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := retrieval.SearchBatch(segs, queries, 10, 200, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCalibrateP measures the offline parameter-selection sweep
// (Sec. 9): ground truth plus a full weighted-L1 scan per calibration
// query. Its inner loop is the same branchless kernel as the retrieval
// filter scan (metrics.WeightedL1Unchecked); the hand-inlined branchy
// version it replaced measured 5.8x slower on the filter benchmark.
func BenchmarkCalibrateP(b *testing.B) {
	db := testDB(3, 400)
	model, err := Train(db, l2, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	queries := testDB(9, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateP(model, db, queries, l2, 5, 95); err != nil {
			b.Fatal(err)
		}
	}
}

func benchScale() experiments.Scale {
	sc := experiments.SmallScale()
	return sc
}

func BenchmarkFig1Toy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFig1(io.Discard, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4MNIST(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFig4(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5TimeSeries(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFig5(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Quick(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFig6(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable1(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedupVsVlachos(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunSpeedup(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Sec. 9 distance rates ------------------------------------------------
//
// The paper reports 15 Shape Context distances/s and 60 cDTW distances/s on
// a 2.2 GHz Opteron (at 100 sample points and ~500-sample sequences), and
// ~10^6 L1 distances/s in R^100. These benches measure our implementations
// at both the experiment scale and the paper's scale.

func benchShapes(b *testing.B, samplePoints int) (*shapecontext.Shape, *shapecontext.Shape, *shapecontext.Extractor) {
	b.Helper()
	gen := digits.NewGenerator(digits.Config{}, stats.NewRand(1))
	ex := shapecontext.NewExtractor(shapecontext.Config{SamplePoints: samplePoints})
	im1, err := gen.Generate(3)
	if err != nil {
		b.Fatal(err)
	}
	im2, err := gen.Generate(8)
	if err != nil {
		b.Fatal(err)
	}
	s1, err := ex.Extract(im1)
	if err != nil {
		b.Fatal(err)
	}
	s2, err := ex.Extract(im2)
	if err != nil {
		b.Fatal(err)
	}
	return s1, s2, ex
}

func BenchmarkShapeContextDistance(b *testing.B) {
	s1, s2, ex := benchShapes(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Distance(s1, s2)
	}
}

func BenchmarkShapeContextDistancePaperScale(b *testing.B) {
	// 100 sample points, as in [4]: the regime of the paper's "15
	// distances per second".
	s1, s2, ex := benchShapes(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Distance(s1, s2)
	}
}

func benchSeriesPair(b *testing.B, length, dims int) (dtw.Series, dtw.Series) {
	b.Helper()
	gen := timeseries.NewGenerator(timeseries.Config{Length: length, Dims: dims}, stats.NewRand(2))
	v1, err := gen.Variant(0)
	if err != nil {
		b.Fatal(err)
	}
	v2, err := gen.Variant(1)
	if err != nil {
		b.Fatal(err)
	}
	return v1, v2
}

// BenchmarkConstrainedDTW times one cDTW call on two 128-sample series at
// δ = 0.10 for samples of 1, 2 and 3 dimensions; the served series are
// two-dimensional. Each reports ns per band cell, the unit the kernel's
// work scales with.
func BenchmarkConstrainedDTW(b *testing.B) {
	for _, dims := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("dims=%d", dims), func(b *testing.B) {
			v1, v2 := benchSeriesPair(b, 128, dims)
			cells := bandCells(len(v1), len(v2), 0.10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dtw.Constrained(v1, v2, 0.10)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}

// bandCells counts the cells of the Sakoe–Chiba band Constrained fills
// for series of n and m samples at warping fraction delta.
func bandCells(n, m int, delta float64) int {
	w := max(int(math.Ceil(delta*float64(min(n, m)))), n-m, m-n)
	cells := 0
	for i := 1; i <= n; i++ {
		cells += min(m, i+w) - max(1, i-w) + 1
	}
	return cells
}

func BenchmarkConstrainedDTWPaperScale(b *testing.B) {
	// ~500-sample sequences, as in [32]: the regime of the paper's "60
	// distances per second".
	v1, v2 := benchSeriesPair(b, 500, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtw.Constrained(v1, v2, 0.10)
	}
}

func BenchmarkL1R100(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.L1(x, y)
	}
}

func BenchmarkQuerySensitiveFilterStep(b *testing.B) {
	// The full filter step at 1,000 database vectors and 64 dims: the cost
	// the paper describes as "negligible" next to exact distances.
	rng := rand.New(rand.NewSource(4))
	const n, d = 1000, 64
	db := make([][]float64, n)
	for i := range db {
		db[i] = make([]float64, d)
		for j := range db[i] {
			db[i][j] = rng.NormFloat64()
		}
	}
	q := make([]float64, d)
	w := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
		w[j] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range db {
			metrics.WeightedL1(w, q, v)
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----------------------------------------------
//
// Each ablation trains on the cheap synthetic plane space and reports the
// optimal exact-distance cost at k=1, 95% accuracy as "cost/query" so the
// effect of the design choice is visible in the benchmark output.

func ablationSpace(seed int64) (db, queries [][]float64, dist space.Distance[[]float64]) {
	rng := stats.NewRand(seed)
	centers := make([][]float64, 10)
	for i := range centers {
		centers[i] = []float64{rng.Float64(), rng.Float64()}
	}
	mk := func(n int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			c := centers[i%len(centers)]
			pts[i] = []float64{c[0] + rng.NormFloat64()*0.05, c[1] + rng.NormFloat64()*0.05}
		}
		return pts
	}
	dist = func(a, b []float64) float64 { return metrics.L2(a, b) }
	return mk(400), mk(60), dist
}

func ablationOptions() core.Options {
	o := core.DefaultOptions()
	o.Rounds = 32
	o.NumCandidates = 50
	o.NumTraining = 100
	o.NumTriples = 4000
	o.EmbeddingsPerRound = 40
	o.IntervalsPerEmbedding = 6
	o.Seed = 1
	return o
}

func ablationCost(b *testing.B, opts core.Options) float64 {
	b.Helper()
	db, queries, dist := ablationSpace(9)
	model, _, err := core.Train(db, dist, opts)
	if err != nil {
		b.Fatal(err)
	}
	gt := space.NewGroundTruth(dist, queries, db)
	m, err := eval.CoreMethod("ablation", model, db, queries, gt, []int{1}, eval.DefaultDimsGrid(model.Dims()))
	if err != nil {
		b.Fatal(err)
	}
	opt, err := m.OptimumFor(1, 95)
	if err != nil {
		b.Fatal(err)
	}
	return float64(opt.Cost)
}

func BenchmarkAblationPivots(b *testing.B) {
	for _, frac := range []struct {
		name string
		v    float64
	}{{"referenceOnly", 0}, {"mixed", 0.5}, {"pivotOnly", 1}} {
		b.Run(frac.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.PivotFraction = frac.v
				cost = ablationCost(b, opts)
			}
			b.ReportMetric(cost, "cost/query")
		})
	}
}

func BenchmarkAblationK1(b *testing.B) {
	for _, k1 := range []int{2, 5, 15} {
		b.Run(string(rune('0'+k1/10))+string(rune('0'+k1%10)), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.K1 = k1
				cost = ablationCost(b, opts)
			}
			b.ReportMetric(cost, "cost/query")
		})
	}
}

func BenchmarkAblationScaleNorm(b *testing.B) {
	for _, c := range []struct {
		name    string
		disable bool
	}{{"normalized", false}, {"raw", true}} {
		b.Run(c.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.DisableScaleNorm = c.disable
				cost = ablationCost(b, opts)
			}
			b.ReportMetric(cost, "cost/query")
		})
	}
}

func BenchmarkAblationMode(b *testing.B) {
	// QS vs QI at identical budgets: the paper's central ablation (Table 1
	// columns Se-QS vs Se-QI).
	for _, c := range []struct {
		name string
		mode core.Mode
	}{{"querySensitive", core.QuerySensitive}, {"queryInsensitive", core.QueryInsensitive}} {
		b.Run(c.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				opts := ablationOptions()
				opts.Mode = c.mode
				cost = ablationCost(b, opts)
			}
			b.ReportMetric(cost, "cost/query")
		})
	}
}

// BenchmarkTrainingRound isolates the cost of one boosting round at the
// default pool sizes (Sec. 7: O(m t) per round).
func BenchmarkTrainingRound(b *testing.B) {
	db, _, dist := ablationSpace(10)
	opts := ablationOptions()
	opts.Rounds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Train(db, dist, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extensions beyond the paper (DESIGN.md §5 closing note) ---------------

// BenchmarkVAFileFilterStep compares the VA-file-accelerated filter step
// against the linear scan at 5,000 vectors x 64 dims. The reported
// fullEvals/query metric shows the pruning power — the VA-file's actual
// advantage is that the bound phase reads 1-byte approximations instead of
// 8-byte floats (a disk/cache win at database scale); with everything
// already in RAM at this size, raw ns/op favors the linear scan.
func BenchmarkVAFileFilterStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n, d = 5000, 64
	centers := make([][]float64, 20)
	for i := range centers {
		centers[i] = make([]float64, d)
		for j := range centers[i] {
			centers[i][j] = rng.NormFloat64() * 3
		}
	}
	flat := make([]float64, n*d)
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		for j := 0; j < d; j++ {
			flat[i*d+j] = c[j] + rng.NormFloat64()*0.1
		}
	}
	q := append([]float64(nil), flat[17*d:18*d]...)
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.Float64()
	}

	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				metrics.WeightedL1(w, q, flat[r*d:(r+1)*d])
			}
		}
	})
	b.Run("vafile", func(b *testing.B) {
		const p = 50
		bd, err := vafile.BuildBoundaries(flat, n, d)
		if err != nil {
			b.Fatal(err)
		}
		codes := bd.EncodeBlock(flat, n)
		b.ResetTimer()
		var evals int
		for i := 0; i < b.N; i++ {
			var tb vafile.Tables
			if !bd.QueryTables(&tb, q, w) {
				b.Fatal("query rejected")
			}
			// Phase 1: screen the shadow, keeping the p-th smallest upper
			// bound as the exclusion threshold.
			ubs := make([]float64, 0, p)
			lbs := make([]float64, n)
			for r := 0; r < n; r++ {
				row := codes[r*d : (r+1)*d]
				lbs[r] = tb.RowLower(row)
				ub := tb.RowUpper(row)
				if len(ubs) < p {
					ubs = append(ubs, ub)
					sort.Float64s(ubs)
				} else if ub < ubs[p-1] {
					ubs[sort.SearchFloat64s(ubs[:p-1], ub)] = ub
					sort.Float64s(ubs)
				}
			}
			tau := ubs[len(ubs)-1]
			// Phase 2: exact distances only for rows the bounds keep.
			evals = 0
			for r := 0; r < n; r++ {
				if lbs[r] <= tau {
					metrics.WeightedL1(w, q, flat[r*d:(r+1)*d])
					evals++
				}
			}
		}
		b.ReportMetric(float64(evals), "fullEvals/query")
	})
}

// BenchmarkBaselineLipschitz contrasts the no-learning vantage baseline
// with FastMap at the same exact-distance budget, reporting the optimal
// cost at k=1, 95% on the synthetic plane space.
func BenchmarkBaselineLipschitz(b *testing.B) {
	db, queries, dist := ablationSpace(12)
	gt := space.NewGroundTruth(dist, queries, db)

	b.Run("lipschitz", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			lm, err := lipschitz.Build(db, dist, 16, 1)
			if err != nil {
				b.Fatal(err)
			}
			m, err := eval.LipschitzMethod("Lipschitz", lm, db, queries, gt, []int{1}, eval.DefaultDimsGrid(lm.Dims()))
			if err != nil {
				b.Fatal(err)
			}
			opt, err := m.OptimumFor(1, 95)
			if err != nil {
				b.Fatal(err)
			}
			cost = float64(opt.Cost)
		}
		b.ReportMetric(cost, "cost/query")
	})
	b.Run("fastmap", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			fm, err := fastmap.Build(db, dist, fastmap.Options{Dims: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			m, err := eval.FastMapMethod("FastMap", fm, db, queries, gt, []int{1}, eval.DefaultDimsGrid(fm.Dims()))
			if err != nil {
				b.Fatal(err)
			}
			opt, err := m.OptimumFor(1, 95)
			if err != nil {
				b.Fatal(err)
			}
			cost = float64(opt.Cost)
		}
		b.ReportMetric(cost, "cost/query")
	})
}
