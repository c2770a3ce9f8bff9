package retrieval

import (
	"math/rand"
	"testing"
	"time"

	"qse/internal/metrics"
)

// gaussianIndex is n iid Gaussian rows of d dimensions under L1, with a
// Gaussian query and uniform query weights.
func gaussianIndex(b *testing.B, n, d int) (*Index[[]float64], []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	db := make([][]float64, n)
	for i := range db {
		db[i] = make([]float64, d)
		for j := range db[i] {
			db[i][j] = rng.NormFloat64()
		}
	}
	ix, err := BuildIndex(db, func(a, b []float64) float64 { return metrics.L1(a, b) }, identityEmbedder{})
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, d)
	w := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
		w[j] = rng.Float64()
	}
	return ix, q, w
}

// BenchmarkFilterTopP times the filter phase alone, one segment's
// filter without a predicate, at p = 200.
func BenchmarkFilterTopP(b *testing.B) {
	ix, q, w := gaussianIndex(b, 20000, 64)
	seg := NewSegmentedWithMeta(ix, nil)
	b.Run("unweighted", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink, _ = seg.filter(q, nil, 200, true, nil, nil, idTables{})
		}
	})
	b.Run("weighted", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink, _ = seg.filter(q, w, 200, true, nil, nil, idTables{})
		}
	})
	// At n = 200,000 the 8-bit shadow clears the size gate (DESIGN §16)
	// and p = 200 clears the query gate (128·p rows), so this case times
	// the seeded screen against the exact scan; exactRows/query reports
	// how many rows still needed an exact evaluation. At 20,000 rows the
	// query gate sends p = 200 to the exact scan, so no smaller case is
	// timed. Its index is built only when the case is selected.
	b.Run("n200k-quantized8", func(b *testing.B) {
		ix, q, w := gaussianIndex(b, 200000, 64)
		exact := NewSegmentedWithMeta(ix, nil)
		seg, err := exact.Quantize()
		if err != nil {
			b.Fatal(err)
		}
		benchQuantizedScan(b, exact, seg, q, w)
	})
}

// benchQuantizedScan times seg's quantized filter scan at p = 200
// against exact's unquantized scan. Each iteration times the plain exact scan
// interleaved with the quantized one: the host's clock-speed drift then
// hits both sides of the comparison equally, and vs-exact-ratio
// (quantized wall-clock over exact wall-clock, < 1 means the shadow scan
// is faster) is meaningful even when absolute ns/op between separate
// sub-benchmarks is not. ns/op covers the pair.
func benchQuantizedScan(b *testing.B, exact, seg *Segmented[[]float64], q, weights []float64) {
	var clk FilterClock
	var exactNs, quantNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		benchSink, _ = exact.filter(q, weights, 200, true, nil, nil, idTables{})
		exactNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		benchSink, _ = seg.filter(q, weights, 200, true, &clk, nil, idTables{})
		quantNs += time.Since(t0).Nanoseconds()
	}
	b.ReportMetric(float64(quantNs)/float64(b.N), "quant-ns/op")
	b.ReportMetric(float64(exactNs)/float64(b.N), "exactscan-ns/op")
	b.ReportMetric(float64(quantNs)/float64(exactNs), "vs-exact-ratio")
	b.ReportMetric(float64(seg.ShadowBytes()), "shadow-bytes")
	var t Timing
	clk.AddTo(&t)
	if t.BoundScannedRows > 0 {
		b.ReportMetric(float64(t.BoundExactRows)/float64(b.N), "exactRows/query")
		b.ReportMetric(float64(t.BoundExactRows)/float64(t.BoundScannedRows), "exactFrac")
	}
}
