package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestL1Basic(t *testing.T) {
	if got := L1([]float64{1, 2}, []float64{4, 0}); got != 5 {
		t.Errorf("L1 = %v, want 5", got)
	}
	if got := L1(nil, nil); got != 0 {
		t.Errorf("L1(empty) = %v", got)
	}
}

func TestL2Basic(t *testing.T) {
	if got := L2([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"L1":         func() { L1([]float64{1}, []float64{1, 2}) },
		"L2":         func() { L2([]float64{1}, []float64{1, 2}) },
		"WeightedL1": func() { WeightedL1([]float64{1}, []float64{1, 2}, []float64{1, 2}) },
		"ChiSquare":  func() { ChiSquare([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: dimension mismatch should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWeightedL1(t *testing.T) {
	w := []float64{2, 0, 1}
	a := []float64{1, 5, 3}
	b := []float64{0, -5, 1}
	if got := WeightedL1(w, a, b); got != 2*1+0+2 {
		t.Errorf("WeightedL1 = %v, want 4", got)
	}
}

func TestWeightedL1UnitWeightsIsL1(t *testing.T) {
	f := func(raw []float64) bool {
		a := sanitize(raw)
		b := make([]float64, len(a))
		for i := range b {
			b[i] = a[i] * 0.5
		}
		w := make([]float64, len(a))
		for i := range w {
			w[i] = 1
		}
		return approx(WeightedL1(w, a, b), L1(a, b), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedL1NegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative weight should panic")
		}
	}()
	WeightedL1([]float64{-1}, []float64{1}, []float64{2})
}

// Metric axioms for L1/L2/Chebyshev on random vectors.
func TestLpMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dists := map[string]func(a, b []float64) float64{
		"L1":        L1,
		"L2":        L2,
		"Chebyshev": Chebyshev,
	}
	for name, d := range dists {
		for trial := 0; trial < 200; trial++ {
			a, b, c := randVec(rng, 6), randVec(rng, 6), randVec(rng, 6)
			if d(a, a) != 0 {
				t.Fatalf("%s: d(a,a) != 0", name)
			}
			if !approx(d(a, b), d(b, a), 1e-12) {
				t.Fatalf("%s: not symmetric", name)
			}
			if d(a, b) < 0 {
				t.Fatalf("%s: negative distance", name)
			}
			if d(a, c) > d(a, b)+d(b, c)+1e-9 {
				t.Fatalf("%s: triangle inequality violated", name)
			}
		}
	}
}

func TestChiSquare(t *testing.T) {
	a := []float64{1, 0, 3}
	b := []float64{1, 0, 1}
	// Only the last bin differs: 0.5 * (2^2 / 4) = 0.5.
	if got := ChiSquare(a, b); !approx(got, 0.5, 1e-12) {
		t.Errorf("ChiSquare = %v, want 0.5", got)
	}
	if got := ChiSquare(a, a); got != 0 {
		t.Errorf("ChiSquare(a,a) = %v", got)
	}
}

func TestChiSquareSymmetricNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		a, b := randHist(rng, 10), randHist(rng, 10)
		if !approx(ChiSquare(a, b), ChiSquare(b, a), 1e-12) {
			t.Fatal("ChiSquare not symmetric")
		}
		if ChiSquare(a, b) < 0 {
			t.Fatal("ChiSquare negative")
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGT", 1},
		{"GATTACA", "GCATGCU", 4},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphabet := "ACGT"
	randStr := func() string {
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 300; trial++ {
		a, b, c := randStr(), randStr(), randStr()
		if EditDistance(a, a) != 0 {
			t.Fatal("d(a,a) != 0")
		}
		if EditDistance(a, b) != EditDistance(b, a) {
			t.Fatal("not symmetric")
		}
		if EditDistance(a, c) > EditDistance(a, b)+EditDistance(b, c) {
			t.Fatal("triangle inequality violated")
		}
		// Length difference is a lower bound.
		if EditDistance(a, b) < abs(len(a)-len(b)) {
			t.Fatal("below length-difference lower bound")
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randHist(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() * 10
	}
	return v
}

func randSimplex(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	var sum float64
	for i := range v {
		v[i] = rng.Float64() + 1e-3
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

func sanitize(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		// Keep magnitudes bounded so quick-generated extremes don't overflow.
		out = append(out, math.Mod(v, 1e6))
	}
	return out
}

func TestWeightedL1UncheckedMatchesChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(128)
		w := make([]float64, n)
		a := randVec(rng, n)
		b := randVec(rng, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		if got, want := WeightedL1Unchecked(w, a, b), WeightedL1(w, a, b); got != want {
			t.Fatalf("trial %d: unchecked %v != checked %v", trial, got, want)
		}
	}
}

// The unchecked variant exists purely for the retrieval filter scan; these
// benches confirm it is no slower than the checked one (satellite of the
// flat-storage PR; numbers tracked in CHANGES.md).
func benchWeightedVecs(dims int) (w, a, b []float64) {
	rng := rand.New(rand.NewSource(12))
	w = make([]float64, dims)
	a = make([]float64, dims)
	b = make([]float64, dims)
	for i := range w {
		w[i] = rng.Float64()
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	return w, a, b
}

func BenchmarkWeightedL1(bb *testing.B) {
	w, a, b := benchWeightedVecs(64)
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		WeightedL1(w, a, b)
	}
}

func BenchmarkWeightedL1Unchecked(bb *testing.B) {
	w, a, b := benchWeightedVecs(64)
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		WeightedL1Unchecked(w, a, b)
	}
}

// BenchmarkWeightedL1PerRow sums 1,024 rows of a row-major block at 32
// and 64 dimensions, one row at a time (single) and four abreast (x4),
// and reports ns/row.
func BenchmarkWeightedL1PerRow(bb *testing.B) {
	for _, dims := range []int{32, 64} {
		const rows = 1024
		rng := rand.New(rand.NewSource(12))
		w, q := make([]float64, dims), randVec(rng, dims)
		for i := range w {
			w[i] = rng.Float64()
		}
		flat := randVec(rng, rows*dims)
		row := func(i int) []float64 { return flat[i*dims : (i+1)*dims] }
		var sink float64
		bb.Run(fmt.Sprintf("single/d=%d", dims), func(bb *testing.B) {
			for n := 0; n < bb.N; n++ {
				for i := 0; i < rows; i++ {
					sink += WeightedL1Unchecked(w, q, row(i))
				}
			}
			bb.ReportMetric(float64(bb.Elapsed().Nanoseconds())/float64(bb.N*rows), "ns/row")
		})
		bb.Run(fmt.Sprintf("x4/d=%d", dims), func(bb *testing.B) {
			for n := 0; n < bb.N; n++ {
				for i := 0; i < rows; i += 4 {
					s0, s1, s2, s3 := WeightedL1x4(w, q, row(i), row(i+1), row(i+2), row(i+3))
					sink += s0 + s1 + s2 + s3
				}
			}
			bb.ReportMetric(float64(bb.Elapsed().Nanoseconds())/float64(bb.N*rows), "ns/row")
		})
		if math.IsNaN(sink) {
			bb.Fatal("NaN sum")
		}
	}
}

// x4Case is one input of the four-row kernel: weights, query, and the
// four rows it sums side by side.
type x4Case struct {
	name string
	w, q []float64
	rows [4][]float64
}

// x4Cases are the four-row kernel's edge cases: every length from 0 to
// 5, the lengths around 32 and 64, zero weights, signed zeros,
// subnormals, a row whose sum overflows to +Inf beside three finite
// ones, and NaN weights.
func x4Cases() []x4Case {
	rng := rand.New(rand.NewSource(13))
	random := func(n int) x4Case {
		c := x4Case{name: fmt.Sprintf("len%d", n), w: make([]float64, n), q: randVec(rng, n)}
		for i := range c.w {
			c.w[i] = rng.Float64()
		}
		for r := range c.rows {
			c.rows[r] = randVec(rng, n)
		}
		return c
	}
	var cases []x4Case
	for _, n := range []int{0, 1, 2, 3, 4, 5, 31, 32, 33, 64, 65} {
		cases = append(cases, random(n))
	}
	zeroW := random(7)
	zeroW.name = "zero-weights"
	for i := range zeroW.w {
		if i%2 == 0 {
			zeroW.w[i] = 0
		}
	}
	negZero := math.Copysign(0, -1)
	zeros := x4Case{name: "signed-zeros",
		w: []float64{1, 0, negZero, 0.5, 2},
		q: []float64{0, negZero, 0, negZero, 1},
		rows: [4][]float64{
			{negZero, 0, negZero, 0, 1},
			{0, negZero, 0, negZero, negZero},
			{negZero, negZero, negZero, negZero, 0},
			{0, 0, 0, 0, 1},
		}}
	tiny := math.SmallestNonzeroFloat64
	subnormal := x4Case{name: "subnormals",
		w: []float64{1, 0.5, 3, tiny, 1e-300},
		q: []float64{tiny, 3 * tiny, -tiny, 1, 0x1p-1070},
		rows: [4][]float64{
			{-tiny, tiny, tiny, 0, 0x1p-1060},
			{2 * tiny, 0, -5 * tiny, 1, 0},
			{0x1p-1030, -0x1p-1040, 0, tiny, -tiny},
			{0, 0, 0, 0, 0},
		}}
	// Row 2's terms are finite, MaxFloat64 each, and its sum is +Inf.
	half := math.MaxFloat64 / 2
	overflow := x4Case{name: "one-row-overflows",
		w: []float64{1, 1, 1, 1},
		q: []float64{half, half, 1, -1},
		rows: [4][]float64{
			{half, half, 0, 0},
			{0, half, 1, 1},
			{-half, -half, 0, 0},
			{half / 2, half, 3, -3},
		}}
	// NaN weights with distinct payloads over zero differences.
	nan := x4Case{name: "nan-weights",
		w:    []float64{math.Float64frombits(0xffff303030303030), math.Float64frombits(0xffff313030303030)},
		q:    []float64{1, 2},
		rows: [4][]float64{{1, 2}, {0, 2}, {1, 0}, {3, 3}},
	}
	return append(cases, zeroW, zeros, subnormal, overflow, nan)
}

// TestWeightedL1x4MatchesUnchecked holds the four-row kernel to the
// single-row one bit for bit, each of its four outputs.
func TestWeightedL1x4MatchesUnchecked(t *testing.T) {
	cases := x4Cases()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkX4(t, c)
		})
	}
	for _, c := range cases {
		if c.name != "one-row-overflows" {
			continue
		}
		var s [4]float64
		s[0], s[1], s[2], s[3] = WeightedL1x4(c.w, c.q, c.rows[0], c.rows[1], c.rows[2], c.rows[3])
		for r, v := range s {
			if inf := math.IsInf(v, 1); inf != (r == 2) {
				t.Fatalf("%s: row %d summed to %v", c.name, r, v)
			}
		}
	}
}

// checkX4 fails t unless every output of WeightedL1x4 on c has the bits
// of WeightedL1Unchecked on its row. A NaN need only meet a NaN: Go does
// not specify which NaN an operation on two NaNs yields, and a build
// instrumented for fuzzing orders the operands of the two kernels'
// adds differently from a plain one.
func checkX4(t *testing.T, c x4Case) {
	t.Helper()
	var got [4]float64
	got[0], got[1], got[2], got[3] = WeightedL1x4(c.w, c.q, c.rows[0], c.rows[1], c.rows[2], c.rows[3])
	for r, row := range c.rows {
		want := WeightedL1Unchecked(c.w, c.q, row)
		if math.IsNaN(got[r]) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got[r]) != math.Float64bits(want) {
			t.Fatalf("row %d: WeightedL1x4 = %v (%#x), WeightedL1Unchecked = %v (%#x)",
				r, got[r], math.Float64bits(got[r]), want, math.Float64bits(want))
		}
	}
}
