package dtw

import (
	"math/rand"
	"testing"
)

func TestPathEndpointsAndMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randSeries(rng, 3+rng.Intn(15), 2)
		b := randSeries(rng, 3+rng.Intn(15), 2)
		w := -1
		if trial%2 == 0 {
			w = rng.Intn(6)
		}
		path, total, err := Path(a, b, w)
		if err != nil {
			t.Fatal(err)
		}
		if path[0] != (PathStep{0, 0}) {
			t.Fatalf("path starts at %+v", path[0])
		}
		if last := path[len(path)-1]; last.I != len(a)-1 || last.J != len(b)-1 {
			t.Fatalf("path ends at %+v", last)
		}
		for k := 1; k < len(path); k++ {
			di := path[k].I - path[k-1].I
			dj := path[k].J - path[k-1].J
			if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
				t.Fatalf("invalid step %+v -> %+v", path[k-1], path[k])
			}
		}
		if total < 0 {
			t.Fatal("negative cost")
		}
	}
}

func TestPathCostMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a := randSeries(rng, 4+rng.Intn(12), 1)
		b := randSeries(rng, 4+rng.Intn(12), 1)
		for _, w := range []int{-1, 0, 2, 5} {
			path, total, err := Path(a, b, w)
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			if w < 0 {
				want = DTW(a, b)
			} else {
				want = ConstrainedWindow(a, b, w)
			}
			if total != want {
				t.Fatalf("path cost %v != distance %v (w=%d)", total, want, w)
			}
			// Recomputing the cost from the steps must agree: the DP adds
			// the same distances in the same (path) order.
			var recomputed float64
			for _, s := range path {
				recomputed += sampleDist(a[s.I], b[s.J])
			}
			if recomputed != total {
				t.Fatalf("recomputed %v != reported %v", recomputed, total)
			}
		}
	}
}

func TestPathIdentity(t *testing.T) {
	s := seq(1, 2, 3, 4)
	path, total, err := Path(s, s, -1)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("self cost %v", total)
	}
	if len(path) != 4 {
		t.Fatalf("self path %v", path)
	}
	for k, step := range path {
		if step.I != k || step.J != k {
			t.Fatalf("self path not diagonal: %v", path)
		}
	}
}

func TestPathShiftedPulse(t *testing.T) {
	a := seq(0, 1, 0, 0)
	b := seq(0, 0, 1, 0)
	path, total, err := Path(a, b, -1)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("shifted pulse cost %v", total)
	}
	// The pulse samples must be aligned with each other.
	ok := false
	for _, s := range path {
		if s.I == 1 && s.J == 2 {
			ok = true
		}
	}
	if !ok {
		t.Errorf("pulses not aligned: %v", path)
	}
}

func TestPathErrors(t *testing.T) {
	if _, _, err := Path(nil, seq(1), -1); err == nil {
		t.Error("empty series should error")
	}
	if _, _, err := Path(Series{{1, 2}}, Series{{1}}, -1); err == nil {
		t.Error("dims mismatch should error")
	}
}
