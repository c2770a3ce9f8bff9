package retrieval

import (
	"reflect"
	"runtime"
	"testing"

	"qse/internal/meta"
)

// TestQuantizedFilterCrossProduct pins the exactness claim across the
// full tombstone x delta x predicate cross product: on a churned head
// (live tombstones in both segments, delta rows outside the base's
// boundary range, rows with and without metadata), the seeded screen —
// called directly, the head being below the gate — must answer filtered
// top-p queries bit-identically to the exact head, for both the
// unweighted and the weighted kernel, under both filter plans, and run
// whenever p seedable rows exist (assertSeededMatches). Two quantization
// lifecycles are covered: the shadow built after the churn (bulk encode)
// and built before it (incremental delta append).
func TestQuantizedFilterCrossProduct(t *testing.T) {
	preds := []*meta.Predicate{
		nil,
		mustFilter(t, `{"field":"bucket","eq":3}`),
		mustFilter(t, `{"field":"bucket","exists":false}`),
		mustFilter(t, `{"and":[{"field":"tag","eq":"a"},{"field":"bucket","ge":5}]}`),
		// Contradiction: matches nothing, every row is excluded before the
		// screen sees it.
		mustFilter(t, `{"and":[{"field":"tag","eq":"a"},{"field":"tag","eq":"b"}]}`),
	}
	for name, em := range map[string]Embedder[[]float64]{
		"unweighted": identityEmbedder{},
		"weighted":   weightedEmbedder{},
	} {
		t.Run(name, func(t *testing.T) {
			t.Run("bits8", func(t *testing.T) {
				const n = 300
				// lifecycle A: churn first, shadow the churned head.
				late := churnHead(t, seedBase(t, n, em), n)
				lateQ := mustShadow(t, late)
				// lifecycle B: shadow the fresh base, then run the identical
				// script on both heads so the shadowed one grows its delta
				// codes one Add at a time.
				early := churnHead(t, seedBase(t, n, em), n)
				earlyQ := churnHead(t, mustShadow(t, seedBase(t, n, em)), n)
				// Every row's codes, plus the base's order and boxes.
				if earlyQ.QuantBits() != 8 || earlyQ.DeltaLen() != early.DeltaLen() || earlyQ.ShadowBytes() != wantShadowBytes(t, earlyQ) {
					t.Fatalf("incremental head lost state: bits %d, delta %d vs %d, %d shadow bytes",
						earlyQ.QuantBits(), earlyQ.DeltaLen(), early.DeltaLen(), earlyQ.ShadowBytes())
				}
				queries := append(clusteredDB(4, 5), clusteredDB(4, 77)...)
				for pair, heads := range map[string][2]*Segmented[[]float64]{
					"bulk":        {late, lateQ},
					"incremental": {early, earlyQ},
				} {
					exact, quant := heads[0], heads[1]
					var engaged int64
					for _, q := range queries {
						qvec := em.Embed(q)
						var weights []float64
						if w, ok := em.(Weighter); ok {
							weights = w.QueryWeights(qvec)
						}
						for _, pred := range preds {
							for _, p := range []int{1, 20, exact.Total() + 10} {
								want, _ := exact.FilterLiveMatch(qvec, weights, p, false, nil, pred, nil, nil)
								var keep func(int) bool
								if pred != nil {
									keep = matching(quant, pred)
								}
								run := assertSeededMatches(t, quant, qvec, weights, p, false, keep)
								if run.pr != nil && !reflect.DeepEqual(run.res, want) {
									t.Fatalf("%s p=%d: seeded screen diverges from the exact head\n  exact  %v\n  screen %v", pair, p, want, run.res)
								}
								engaged += run.tm.BoundScannedRows
							}
						}
					}
					if engaged == 0 {
						t.Fatalf("%s: the screen never ran — cross product ran exact-only", pair)
					}
				}
			})
		})
	}
}

// TestQuantizedFilterEdges covers the degenerate shapes: a shadowed head
// drained to zero live rows, the dormant state (quantization on, no
// shadow: an empty base, or one below the gate), and a predicate
// excluding every row of a base at the gate — each must answer like the
// exact path, empty results included, without panicking.
func TestQuantizedFilterEdges(t *testing.T) {
	q := clusteredDB(1, 5)[0]

	// Every row tombstoned: the screen has nothing to seed from.
	drained := mustShadow(t, seedBase(t, 40, identityEmbedder{}))
	var err error
	for pos := 0; pos < drained.Total(); pos++ {
		if drained, err = drained.Remove(pos); err != nil {
			t.Fatalf("Remove(%d): %v", pos, err)
		}
	}
	if res, _ := drained.FilterLiveMatch(q, nil, 5, false, nil, nil, nil, nil); len(res) != 0 {
		t.Fatalf("drained quantized head returned %v", res)
	}
	if run := runScreen(drained, q, nil, 5, false, drained.selectRows(nil, nil)); run.pr != nil || len(run.res) != 0 {
		t.Fatalf("drained head screened: %+v", run)
	}

	// Dormant state: quantization on against an empty base; scans stay
	// exact (and correct) until a compaction folds a base past the gate.
	empty, err := FromParts[[]float64](nil, nil, seedDims, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	dormant, err := NewSegmentedWithMeta(empty, nil).Quantize()
	if err != nil {
		t.Fatalf("quantizing empty segment: %v", err)
	}
	if dormant.QuantBits() != 8 || dormant.ShadowBytes() != 0 {
		t.Fatalf("dormant state reports %d bits, %d shadow bytes", dormant.QuantBits(), dormant.ShadowBytes())
	}
	if res, _ := dormant.FilterLiveMatch(q, nil, 3, false, nil, nil, nil, nil); len(res) != 0 {
		t.Fatalf("dormant empty head returned %v", res)
	}
	dormant, _, err = dormant.Add(q)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := dormant.FilterLiveMatch(q, nil, 1, false, nil, nil, nil, nil); len(res) != 1 || res[0].Distance != 0 || dormant.ShadowBytes() != 0 {
		t.Fatalf("dormant head after Add returned %v with %d shadow bytes", res, dormant.ShadowBytes())
	}

	// A predicate no row satisfies: zero matches, zero results, and
	// nothing screened or evaluated.
	tagged, err := seedBase(t, shadowMinRows, identityEmbedder{}).Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if tagged.ShadowBytes() == 0 {
		t.Fatal("a base at the gate carries no shadow")
	}
	none := mustFilter(t, `{"field":"bucket","eq":99}`)
	var clk FilterClock
	res, n := tagged.FilterLiveMatch(q, nil, 5, false, &clk, none, nil, nil)
	if n != 0 || len(res) != 0 {
		t.Fatalf("all-excluded predicate matched %d rows: %v", n, res)
	}
	var tm Timing
	clk.AddTo(&tm)
	if tm.BoundScannedRows != 0 || tm.BoundExactRows != 0 {
		t.Fatalf("all-excluded predicate still screened %d rows, evaluated %d", tm.BoundScannedRows, tm.BoundExactRows)
	}
}

// TestQuantizedParallelSerialIdentity checks the partitioned screen:
// above the parallelism threshold, with tombstones in both segments and
// unsafe delta rows, parallel (on two workers at least) and serial
// screens return exactly the same neighbors, tau, and scanned and
// exact-row counts as each other, and the neighbors of the exact scan.
// Some case must split the block bounds and phase 2's candidates across
// the workers too, or those parallel paths would go untested.
func TestQuantizedParallelSerialIdentity(t *testing.T) {
	const n = minParallelScan*2 + 133
	exact := churnHead(t, seedBase(t, n, identityEmbedder{}), n)
	quant := mustShadow(t, exact)
	split := false
	for qi, q := range append(clusteredDB(3, 5), clusteredDB(3, 23)...) {
		for _, p := range []int{1, 50, 800} {
			want, _ := exact.FilterLiveMatch(q, nil, p, true, nil, nil, nil, nil)
			rs := quant.selectRows(nil, nil)
			ser := runScreen(quant, q, nil, p, false, rs)
			var par1 screenRun
			withGOMAXPROCS(max(2, runtime.GOMAXPROCS(0)), func() {
				par1 = runScreen(quant, q, nil, p, true, rs)
			})
			if ser.pr == nil || par1.pr == nil {
				t.Fatalf("query %d p=%d: the screen did not run", qi, p)
			}
			if len(par1.pr.parts) < 2 {
				t.Fatalf("query %d p=%d: the parallel screen ran on %d worker", qi, p, len(par1.pr.parts))
			}
			if len(quant.quant.starts)-1 >= minParallelCands && len(par1.pr.cands) >= minParallelCands {
				split = true
			}
			if !reflect.DeepEqual(ser.res, par1.res) || ser.pr.tau != par1.pr.tau || ser.tm.BoundExactRows != par1.tm.BoundExactRows ||
				ser.tm.BoundScannedRows != par1.tm.BoundScannedRows {
				t.Fatalf("query %d p=%d: serial/parallel screens diverge:\n  %v\n  %v", qi, p, ser.res, par1.res)
			}
			if !reflect.DeepEqual(want, par1.res) {
				t.Fatalf("query %d p=%d: screen diverges from exact:\n  %v\n  %v", qi, p, want, par1.res)
			}
		}
	}
	if !split {
		t.Fatalf("no case reached minParallelCands = %d blocks and candidates: the split block bounds and phase 2 went unchecked", minParallelCands)
	}
}
