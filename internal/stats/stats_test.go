package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileSimple(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		pct  float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.pct); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.pct, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	vals := []float64{0, 10}
	if got := Percentile(vals, 50); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Percentile(50) = %v, want 5", got)
	}
	if got := Percentile(vals, 10); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Percentile(10) = %v, want 1", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	want := []float64{3, 1, 2}
	for i := range vals {
		if vals[i] != want[i] {
			t.Fatalf("Percentile mutated its input: %v", vals)
		}
	}
}

func TestPercentileSingleton(t *testing.T) {
	for _, pct := range []float64{0, 37, 100} {
		if got := Percentile([]float64{42}, pct); got != 42 {
			t.Errorf("Percentile(singleton, %v) = %v, want 42", pct, got)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	assertPanics(t, func() { Percentile(nil, 50) })
	assertPanics(t, func() { Percentile([]float64{1}, -1) })
	assertPanics(t, func() { Percentile([]float64{1}, 101) })
	assertPanics(t, func() { PercentileInt(nil, 50) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func TestPercentileIntCeiling(t *testing.T) {
	// 10 values 1..10. 90% of 10 queries -> need 9 successes -> value 9.
	vals := []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := PercentileInt(vals, 90); got != 9 {
		t.Errorf("PercentileInt(90) = %d, want 9", got)
	}
	if got := PercentileInt(vals, 100); got != 10 {
		t.Errorf("PercentileInt(100) = %d, want 10", got)
	}
	if got := PercentileInt(vals, 0); got != 1 {
		t.Errorf("PercentileInt(0) = %d, want 1", got)
	}
	// 50% of 10 -> need 5 -> 5th smallest = 5.
	if got := PercentileInt(vals, 50); got != 5 {
		t.Errorf("PercentileInt(50) = %d, want 5", got)
	}
}

func TestPercentileIntPropertyCoverage(t *testing.T) {
	// Property: at least pct% of the values are <= the returned threshold.
	f := func(raw []int16, pctRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int, len(raw))
		for i, v := range raw {
			vals[i] = int(v)
		}
		pct := float64(pctRaw % 101)
		th := PercentileInt(vals, pct)
		count := 0
		for _, v := range vals {
			if v <= th {
				count++
			}
		}
		return float64(count) >= pct/100*float64(len(vals))-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileMatchesSortedVariant(t *testing.T) {
	f := func(raw []float64, pctRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pct := float64(pctRaw % 101)
		sorted := make([]float64, len(raw))
		copy(sorted, raw)
		sort.Float64s(sorted)
		return almostEqual(Percentile(raw, pct), percentileSorted(sorted, pct), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
	if !almostEqual(Median([]float64{5, 1, 3}), 3, 1e-12) {
		t.Error("Median wrong")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := NewRand(7)
	got := SampleWithoutReplacement(rng, 10, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
	// Full sample is a permutation.
	perm := SampleWithoutReplacement(rng, 4, 4)
	sort.Ints(perm)
	for i, v := range perm {
		if v != i {
			t.Fatalf("not a permutation: %v", perm)
		}
	}
	assertPanics(t, func() { SampleWithoutReplacement(rng, 3, 4) })
}

func TestSampleWithoutReplacementUniformish(t *testing.T) {
	// Each element of [0,4) should be picked roughly 1/2 the time when k=2.
	rng := NewRand(42)
	counts := make([]int, 4)
	const trials = 4000
	for i := 0; i < trials; i++ {
		for _, v := range SampleWithoutReplacement(rng, 4, 2) {
			counts[v]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if frac < 0.42 || frac > 0.58 {
			t.Errorf("element %d picked with frequency %.3f, want ~0.5", i, frac)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := NewRand(1)
	xs := []int{1, 2, 3, 4, 5, 6}
	Shuffle(rng, xs)
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i+1 {
			t.Fatalf("Shuffle lost elements: %v", xs)
		}
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(9), NewRand(9)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed should produce same stream")
		}
	}
}
