package retrieval

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"qse/internal/meta"
	"qse/internal/metrics"
	"qse/internal/space"
)

// TestFilterLiveMatchRanksTiesOnID pins the scan's tie-break under ID
// tables. IDs run opposite to position order, and twins — exact copies of
// one row, spread over the base and the delta and over both partitions of
// a parallel scan, one of them tombstoned — tie at the p-th filter
// distance, so only the tie-break decides which of them survive. Every
// run must equal a brute-force top p on (distance, ID): the exact scan's
// sequential loop (unfiltered) and set-bit loop (a filter matching every
// row), serial and partitioned past minParallelScan, and the seeded
// screen over a base past the gate. Nil tables keep the (distance,
// position) answer.
func TestFilterLiveMatchRanksTiesOnID(t *testing.T) {
	const bn, dn, p = shadowMinRows + 300, 700, 20
	db := clusteredDB(bn+dn, 23)
	q := db[bn/2]

	// The twin is the row ranked p-2 by distance; six rows far past the
	// top p become its copies, so seven rows tie at ranks p-2 to p+4.
	byDist := make([]int, len(db))
	for i := range byDist {
		byDist[i] = i
	}
	slices.SortFunc(byDist, func(a, b int) int {
		return cmp.Compare(metrics.L1(q, db[a]), metrics.L1(q, db[b]))
	})
	rank := make([]int, len(db))
	for r, i := range byDist {
		rank[i] = r
	}
	twin := db[byDist[p-2]]
	var twins []int
	for _, want := range []int{100, 3000, 7000, 10000, 16000, bn + 10, bn + 300} {
		pos := want
		for rank[pos] < 4*p {
			pos++
		}
		db[pos] = slices.Clone(twin)
		twins = append(twins, pos)
	}
	dead := twins[len(twins)-1] // the lowest-ID twin, tombstoned

	n := uint64(bn + dn)
	baseIDs, deltaIDs := make([]uint64, bn), make([]uint64, dn)
	for i := range baseIDs {
		baseIDs[i] = n - 1 - uint64(i)
	}
	for j := range deltaIDs {
		deltaIDs[j] = n - 1 - uint64(bn+j)
	}

	rows := make([]meta.Map, bn+dn)
	for i := range rows {
		rows[i] = meta.Map{"bucket": meta.IntValue(int64(i % 10))}
	}
	ix, err := BuildIndex(db[:bn], l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewSegmentedWithMeta(ix, meta.NewBlock(rows[:bn]))
	quant, err := exact.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range db[bn:] {
		if exact, _, err = exact.AddWithVectorMeta(x, x, rows[bn+j]); err != nil {
			t.Fatal(err)
		}
		if quant, _, err = quant.AddWithVectorMeta(x, x, rows[bn+j]); err != nil {
			t.Fatal(err)
		}
	}
	if exact, err = exact.Remove(dead); err != nil {
		t.Fatal(err)
	}
	if quant, err = quant.Remove(dead); err != nil {
		t.Fatal(err)
	}
	if quant.ShadowBytes() == 0 {
		t.Fatal("the quantized base has no shadow")
	}

	// The brute-force reference: every live row on (distance, ID). The
	// twins must straddle the cut, and the answer must differ from the
	// (distance, position) one, or the test could not tell the orders
	// apart.
	type row struct {
		pos  int
		id   uint64
		dist float64
	}
	var all []row
	for pos := range db {
		if exact.Alive(pos) {
			all = append(all, row{pos, n - 1 - uint64(pos), metrics.L1(q, db[pos])})
		}
	}
	slices.SortFunc(all, func(a, b row) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.id, b.id))
	})
	if all[p-1].dist != all[p].dist || all[p-1].dist != metrics.L1(q, twin) {
		t.Fatalf("the twins do not tie at the p-th distance: %v then %v", all[p-1], all[p])
	}
	want := make([]space.Neighbor, p)
	for i := range want {
		want[i] = space.Neighbor{Index: all[i].pos, Distance: all[i].dist}
	}
	byPos := referenceTopP(exact, q, nil, p, exact.Alive)
	if reflect.DeepEqual(want, byPos) {
		t.Fatal("ID and position order pick the same twins")
	}

	all1 := mustFilter(t, `{"field":"bucket","ge":0}`)
	for _, c := range []struct {
		name string
		s    *Segmented[[]float64]
		pred *meta.Predicate
	}{
		{"exact", exact, nil},
		{"exact-filtered", exact, all1},
		{"seeded", quant, nil},
		{"seeded-filtered", quant, all1},
	} {
		for _, parallel := range []bool{false, true} {
			var got, gotPos []space.Neighbor
			var tm Timing
			withGOMAXPROCS(max(2, runtime.GOMAXPROCS(0)), func() {
				var clk FilterClock
				got, _ = c.s.FilterLiveMatch(q, nil, p, parallel, &clk, c.pred, baseIDs, deltaIDs)
				clk.AddTo(&tm)
				gotPos, _ = c.s.FilterLiveMatch(q, nil, p, parallel, nil, c.pred, nil, nil)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s parallel=%v: ID tables\n  got  %v\n  want %v", c.name, parallel, got, want)
			}
			if !reflect.DeepEqual(gotPos, byPos) {
				t.Fatalf("%s parallel=%v: nil tables\n  got  %v\n  want %v", c.name, parallel, gotPos, byPos)
			}
			if seeded := tm.BoundScannedRows > 0; seeded != (c.s == quant) {
				t.Fatalf("%s parallel=%v: seeded screen ran %v", c.name, parallel, seeded)
			}
		}
	}
}
