package metrics

import (
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
