package dtw

import (
	"math"
	"testing"
)

// FuzzLBKeoghBound fuzzes the central correctness property of the
// comparator index: LB_Keogh never exceeds the windowed DTW distance.
// The fuzzer drives series lengths, values, and the window from raw bytes.
func FuzzLBKeoghBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, uint8(3))
	f.Add([]byte{10, 200, 30, 40, 50, 60}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, wRaw uint8) {
		if len(raw) < 4 || len(raw) > 64 || len(raw)%2 != 0 {
			t.Skip()
		}
		n := len(raw) / 2
		a := make(Series, n)
		b := make(Series, n)
		for i := 0; i < n; i++ {
			a[i] = []float64{float64(raw[i]) / 16}
			b[i] = []float64{float64(raw[n+i]) / 16}
		}
		w := int(wRaw % 8)
		lo, up := Envelope(b, w)
		lb := LBKeogh(a, lo, up)
		exact := ConstrainedWindow(a, b, w)
		if lb > exact+1e-9 {
			t.Fatalf("LB %v exceeds DTW %v (n=%d w=%d)", lb, exact, n, w)
		}
		// The bound of a series against its own envelope is zero.
		loA, upA := Envelope(a, w)
		if self := LBKeogh(a, loA, upA); self != 0 {
			t.Fatalf("self bound %v != 0", self)
		}
	})
}

// FuzzDTWWindowMonotone fuzzes the window-monotonicity of constrained DTW:
// a wider window can only decrease the distance, and the unconstrained
// distance is the limit.
func FuzzDTWWindowMonotone(f *testing.F) {
	f.Add([]byte{5, 1, 9, 2, 8, 3})
	f.Add([]byte{0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 || len(raw) > 48 {
			t.Skip()
		}
		n := len(raw) / 2
		a := make(Series, n)
		b := make(Series, len(raw)-n)
		for i := 0; i < n; i++ {
			a[i] = []float64{float64(raw[i])}
		}
		for i := n; i < len(raw); i++ {
			b[i-n] = []float64{float64(raw[i])}
		}
		free := DTW(a, b)
		prev := math.Inf(1)
		for _, w := range []int{0, 1, 3, 7, 100} {
			d := ConstrainedWindow(a, b, w)
			if d < free-1e-9 {
				t.Fatalf("window %d below unconstrained: %v < %v", w, d, free)
			}
			if d > prev+1e-9 {
				t.Fatalf("distance grew with window: %v > %v", d, prev)
			}
			prev = d
		}
		if math.Abs(prev-free) > 1e-9 {
			t.Fatalf("wide window %v != unconstrained %v", prev, free)
		}
	})
}

// fuzzSample maps a fuzz byte to a sample value: the top six bytes are
// NaN of both signs, ±Inf and overflow-sized finite values, the rest
// spread over [-15.625, 15.5] in steps of 1/8.
func fuzzSample(c byte) float64 {
	switch c {
	case 250:
		return math.NaN()
	case 251:
		return math.Float64frombits(0xfff8000000000000)
	case 252:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 254:
		return 1e300
	case 255:
		return -1e300
	}
	return (float64(c) - 125) / 8
}

// FuzzConstrainedMatchesPath fuzzes the kernel's contract: DTW and
// ConstrainedWindow return exactly the bits of Path's total (+Inf where
// Path finds no feasible alignment), for any lengths, dimensionality,
// window and sample values, NaN and ±Inf included. A negative window is
// the unconstrained distance.
func FuzzConstrainedMatchesPath(f *testing.F) {
	f.Add([]byte{125, 133, 141, 149, 117, 125, 133, 141, 149, 157}, uint8(0), uint8(4), int8(1))
	f.Add([]byte{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, uint8(1), uint8(1), int8(-1))
	f.Add([]byte{125, 250, 125, 125, 130, 140}, uint8(0), uint8(2), int8(0))
	f.Fuzz(func(t *testing.T, raw []byte, dRaw, split uint8, w int8) {
		dims := 1 + int(dRaw%3)
		samples := len(raw) / dims
		if samples < 2 || samples > 64 {
			t.Skip()
		}
		n := 1 + int(split)%(samples-1)
		all := make(Series, samples)
		for i := range all {
			all[i] = make([]float64, dims)
			for k := range all[i] {
				all[i][k] = fuzzSample(raw[i*dims+k])
			}
		}
		a, b := all[:n], all[n:]
		checkMatchesPath(t, a, b, int(w))
		checkMatchesPath(t, b, a, int(w))
	})
}
