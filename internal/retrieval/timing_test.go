package retrieval

import (
	"reflect"
	"testing"

	"qse/internal/stats"
)

// TestTimingDoesNotChangeResults is the instrumentation bit-identity
// regression: the filter scan with a clock attached must return exactly
// what the unclocked scan returns (same candidates, same order, same
// distances), above and below the parallel threshold and with
// tombstones in both segments. The clock itself must have accumulated
// something, or the stage histograms would silently flatline.
func TestTimingDoesNotChangeResults(t *testing.T) {
	for _, n := range []int{300, minParallelScan + 500} {
		base, err := BuildIndex(testDB(n), l2, identityEmbedder{})
		if err != nil {
			t.Fatal(err)
		}
		head, _ := applyScript(t, NewSegmentedWithMeta(base, nil), 11, n/8)
		rng := stats.NewRand(5)
		for qi := 0; qi < 8; qi++ {
			qvec := []float64{rng.Float64(), rng.Float64()}
			p := 1 + rng.Intn(40)
			bare, _ := filterLiveMatch(head, qvec, nil, p, true, nil, nil, nil, nil)
			var clk FilterClock
			timed, _ := filterLiveMatch(head, qvec, nil, p, true, &clk, nil, nil, nil)
			if !reflect.DeepEqual(bare, timed) {
				t.Fatalf("n=%d query %d: clocked filter diverges:\nbare  %v\ntimed %v", n, qi, bare, timed)
			}
			var tm Timing
			clk.AddTo(&tm)
			if tm.FilterBaseNanos+tm.FilterDeltaNanos <= 0 || tm.MergeNanos < 0 {
				t.Fatalf("n=%d query %d: clock recorded nothing: %+v", n, qi, tm)
			}
		}
	}
}

// TestSearchTimingPopulated checks a full search fills the stage
// breakdown: every stage that ran reports a non-negative duration and
// the stages that must have run (embed can legitimately be ~0 for the
// identity embedder, but filter and refine scan real rows) report > 0.
func TestSearchTimingPopulated(t *testing.T) {
	base, err := BuildIndex(testDB(2000), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head, _ := applyScript(t, NewSegmentedWithMeta(base, nil), 3, 100)
	res, st, err := segSearch(head, []float64{0.3, 0.7}, 5, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	tm := st.Timing
	if tm.FilterBaseNanos <= 0 {
		t.Errorf("FilterBaseNanos = %d, want > 0", tm.FilterBaseNanos)
	}
	if tm.FilterDeltaNanos <= 0 {
		t.Errorf("FilterDeltaNanos = %d, want > 0 (delta has rows)", tm.FilterDeltaNanos)
	}
	if tm.RefineNanos <= 0 {
		t.Errorf("RefineNanos = %d, want > 0", tm.RefineNanos)
	}
	if tm.EmbedNanos < 0 || tm.MergeNanos < 0 {
		t.Errorf("negative stage duration: %+v", tm)
	}
	if tm.TotalNanos() != tm.EmbedNanos+tm.FilterBaseNanos+tm.FilterDeltaNanos+tm.MergeNanos+tm.RefineNanos {
		t.Errorf("TotalNanos inconsistent: %+v", tm)
	}
	if st.WithoutTiming().Timing != (Timing{}) {
		t.Error("WithoutTiming left timing behind")
	}
}
