package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// pathTotal is Path's total cost, and +Inf where Path finds no feasible
// alignment: the value the distance must return there.
func pathTotal(t testing.TB, a, b Series, w int) float64 {
	t.Helper()
	_, total, err := Path(a, b, w)
	if err != nil {
		return math.Inf(1)
	}
	return total
}

// distance is the windowed distance under test: DTW for w < 0, else
// ConstrainedWindow.
func distance(a, b Series, w int) float64 {
	if w < 0 {
		return DTW(a, b)
	}
	return ConstrainedWindow(a, b, w)
}

// checkMatchesPath fails unless the distance has exactly the bits of
// Path's total.
func checkMatchesPath(t testing.TB, a, b Series, w int) {
	t.Helper()
	want := pathTotal(t, a, b, w)
	got := distance(a, b, w)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d m=%d dims=%d w=%d: distance %v (%#x) != Path %v (%#x)",
			len(a), len(b), a.Dims(), w, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestKernelMatchesPathRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 404; trial++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		if trial%4 == 0 {
			m = n
		}
		d := 1 + rng.Intn(3)
		if trial >= 400 {
			// Long enough that the kernel's buffer outgrows its stack array.
			n, m, d = 200+rng.Intn(100), 200+rng.Intn(100), 3
		}
		a, b := randSeries(rng, n, d), randSeries(rng, m, d)
		diff := n - m
		if diff < 0 {
			diff = -diff
		}
		for _, w := range []int{-1, 0, 1, diff, max(n, m) + 1, rng.Intn(max(n, m) + 2)} {
			checkMatchesPath(t, a, b, w)
			checkMatchesPath(t, b, a, w)
		}
	}
}

// specials are the sample values the fast loop must not be trusted
// with, plus finite values large enough to overflow a squared
// difference, and zeros of both signs.
var specials = []float64{
	math.NaN(),
	math.Float64frombits(0xfff8000000000000), // the NaN x86 makes from Inf-Inf
	math.Inf(1),
	math.Inf(-1),
	math.MaxFloat64,
	-math.MaxFloat64,
	1e300,
	-1e300,
	1e154,
	math.SmallestNonzeroFloat64,
	math.Copysign(0, -1),
	0,
}

func TestKernelMatchesPathSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 600; trial++ {
		n, m, d := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(3)
		a, b := randSeries(rng, n, d), randSeries(rng, m, d)
		// Plant one to three special values, anywhere in either series;
		// every fourth trial plants only overflow-sized finite values.
		for k := 1 + rng.Intn(3); k > 0; k-- {
			s := a
			if rng.Intn(2) == 0 {
				s = b
			}
			v := specials[rng.Intn(len(specials))]
			if trial%4 == 0 {
				v = specials[4+rng.Intn(5)]
			}
			s[rng.Intn(len(s))][rng.Intn(d)] = v
		}
		for _, w := range []int{-1, 0, 1, 3, max(n, m) + 1} {
			checkMatchesPath(t, a, b, w)
		}
	}
}

func TestKernelNoFeasibleAlignmentIsInf(t *testing.T) {
	// Squared differences overflow everywhere: every alignment costs
	// +Inf, Path reports none, and the distance is +Inf.
	a := Series{{1e300}, {1e300}, {1e300}}
	b := Series{{-1e300}, {-1e300}}
	if _, _, err := Path(a, b, 1); err == nil {
		t.Fatal("Path found a feasible alignment")
	}
	for _, w := range []int{-1, 0, 1, 5} {
		if got := distance(a, b, w); !math.IsInf(got, 1) {
			t.Fatalf("w=%d: distance %v, want +Inf", w, got)
		}
	}
}

// outcome runs f and returns its result's bits, or whether it panicked.
func outcome(f func() float64) (bits uint64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return math.Float64bits(f()), false
}

func TestKernelRaggedMatchesScalar(t *testing.T) {
	// A series the kernel does not take goes to the scalar loop, which
	// reads only the first len(a[i]) values of each b sample, so a b
	// sample shorter than that panics there. The kernel finds a ragged or
	// non-finite b while it transposes b, after it has written part of
	// its buffer: it must return, or panic, exactly as the scalar loop
	// does.
	nanLast := randSeries(rand.New(rand.NewSource(14)), 40, 2)
	nanLast[len(nanLast)-1][1] = math.NaN()
	cases := []struct {
		name string
		a, b Series
	}{
		{"b sample longer than d", Series{{1, 2}, {3, 4}, {5, 6}}, Series{{1, 2}, {3, 4, 9}, {5, 6}}},
		{"b sample shorter than d", Series{{1, 2}, {3, 4}, {5, 6}}, Series{{1, 2}, {3}, {5, 6}}},
		{"ragged a", Series{{1, 2}, {3}, {5, 6}, {7, 8}}, Series{{1, 2}, {3, 4}, {5, 6}}},
		{"2-D b with NaN in its last sample", randSeries(rand.New(rand.NewSource(15)), 40, 2), nanLast},
	}
	for _, c := range cases {
		for _, w := range []int{-1, 0, 1, 4} {
			got, gotPanic := outcome(func() float64 { return distance(c.a, c.b, w) })
			want, wantPanic := outcome(func() float64 { return scalarDTW(c.a, c.b, widened(len(c.a), len(c.b), w)) })
			if got != want || gotPanic != wantPanic {
				t.Fatalf("%s, w=%d: distance %#x (panicked %v), scalar %#x (panicked %v)",
					c.name, w, got, gotPanic, want, wantPanic)
			}
		}
	}
}

// widened is the window dtwWindow hands the loops: w, raised to |n-m|,
// or < 0 for unconstrained.
func widened(n, m, w int) int {
	if w < 0 {
		return w
	}
	return max(w, n-m, m-n)
}

// TestConstrainedAllocFree pins the kernel's stack buffer: a call on the
// served shape, 128 × 2 series at δ = 0.10, allocates nothing. A heap
// buffer there doubled the time-series workload's allocation per
// operation (DESIGN §15).
func TestConstrainedAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a, b := randSeries(rng, 128, 2), randSeries(rng, 128, 2)
	if allocs := testing.AllocsPerRun(100, func() { Constrained(a, b, 0.10) }); allocs != 0 {
		t.Fatalf("Constrained allocates %v times a call, want 0", allocs)
	}
}
