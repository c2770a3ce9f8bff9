package dtw_test

import (
	"math"
	"testing"

	"qse/internal/dtw"
	"qse/internal/stats"
	"qse/internal/timeseries"
)

// TestConstrainedMatchesPathGenerated checks the paper's configuration
// — generated 128 × 2 series at δ = 0.10 — bit for bit against Path.
func TestConstrainedMatchesPathGenerated(t *testing.T) {
	gen := timeseries.NewGenerator(timeseries.Config{}, stats.NewRand(3))
	ds, err := gen.GenerateDataset(24)
	if err != nil {
		t.Fatal(err)
	}
	series := ds.Series
	for i, a := range series {
		for _, b := range series[i:] {
			w := int(math.Ceil(0.10 * float64(min(len(a), len(b)))))
			_, want, err := dtw.Path(a, b, w)
			if err != nil {
				t.Fatal(err)
			}
			got := dtw.Constrained(a, b, 0.10)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Constrained %v != Path %v", got, want)
			}
		}
	}
}
