package retrieval

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"qse/internal/meta"
	"qse/internal/space"
	"qse/internal/stats"
)

// testMeta tags row i with a deterministic record; every seventh row
// carries no metadata at all.
func testMeta(i int) meta.Map {
	if i%7 == 6 {
		return nil
	}
	return meta.Map{
		"bucket": meta.IntValue(int64(i % 10)),
		"tag":    meta.StringValue(string(rune('a' + i%3))),
	}
}

func testKinds() map[string]meta.Kind {
	return map[string]meta.Kind{"bucket": meta.KindInt, "tag": meta.KindString}
}

func mustFilter(t *testing.T, raw string) *meta.Predicate {
	t.Helper()
	p, err := meta.CompileFilter([]byte(raw), testKinds())
	if err != nil {
		t.Fatalf("CompileFilter(%s): %v", raw, err)
	}
	return p
}

// metaScript churns a segmented head: adds with metadata (and some
// without), plus removes — the filtered counterpart of applyScript.
func metaScript(t *testing.T, head *Segmented[[]float64], seed int64, steps int) *Segmented[[]float64] {
	t.Helper()
	rng := stats.NewRand(seed)
	for i := 0; i < steps; i++ {
		if rng.Intn(3) > 0 || head.Live() == 0 {
			x := []float64{rng.Float64() * 2, rng.Float64() * 2}
			next, _, err := head.AddWithVectorMeta(x, head.Base().embedder.Embed(x), testMeta(i))
			if err != nil {
				t.Fatalf("step %d: AddWithVectorMeta: %v", i, err)
			}
			head = next
		} else {
			pos := rng.Intn(head.Total())
			for !head.Alive(pos) {
				pos = (pos + 1) % head.Total()
			}
			next, err := head.Remove(pos)
			if err != nil {
				t.Fatalf("step %d: Remove(%d): %v", i, pos, err)
			}
			head = next
		}
	}
	return head
}

// matchingLive lists the live global positions whose metadata matches.
func matchingLive(s *Segmented[[]float64], pred *meta.Predicate) []int {
	var out []int
	for pos := 0; pos < s.Total(); pos++ {
		if s.Alive(pos) && pred.Match(s.Metadata(pos)) {
			out = append(out, pos)
		}
	}
	return out
}

// TestSearchFilteredNilIsSearch pins the neutrality contract: a nil
// predicate, whose rows are the snapshot's own tombstones, answers
// exactly like a predicate every row matches, whose rows are a fresh
// skip bitmap — and spends no time evaluating anything.
func TestSearchFilteredNilIsSearch(t *testing.T) {
	base, err := BuildIndex(testDB(300), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head := metaScript(t, NewSegmentedWithMeta(base, nil), 5, 120)
	q := []float64{0.4, 0.6}
	// A predicate without comparisons matches every row.
	want, wantStats, err := head.Search(q, 5, 40, new(meta.Predicate))
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := head.Search(q, 5, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("nil-filter results diverge:\n  match-all %v\n  nil       %v", want, got)
	}
	if wantStats.WithoutTiming() != gotStats.WithoutTiming() {
		t.Fatalf("nil-filter stats diverge: %+v vs %+v", wantStats.WithoutTiming(), gotStats.WithoutTiming())
	}
	if gotStats.Timing.FilterEvalNanos != 0 {
		t.Fatalf("nil-filter query reported %d eval nanos", gotStats.Timing.FilterEvalNanos)
	}
}

// TestSearchFilteredMatchesReference checks, over churned segments,
// that a filtered search returns exactly the matching live rows
// re-ranked by exact distance — top-p drawn from matching rows only.
func TestSearchFilteredMatchesReference(t *testing.T) {
	for name, em := range map[string]Embedder[[]float64]{
		"unweighted": identityEmbedder{},
		"weighted":   skewEmbedder{},
	} {
		t.Run(name, func(t *testing.T) {
			base, err := BuildIndex(testDB(200), l2, em)
			if err != nil {
				t.Fatal(err)
			}
			head := metaScript(t, NewSegmentedWithMeta(base, nil), 17, 170)
			filters := []string{
				`{"field":"bucket","eq":3}`,
				`{"and":[{"field":"tag","eq":"b"},{"field":"bucket","ge":5}]}`,
				`{"field":"bucket","exists":false}`,
				`{"field":"bucket","in":[1,2]}`,
				`{"field":"tag","ne":"a"}`,
			}
			for _, raw := range filters {
				pred := mustFilter(t, raw)
				match := matchingLive(head, pred)
				q := []float64{0.3, 0.7}
				// p past the match count: the result is every matching live
				// row, sorted by (exact distance, position).
				var want []space.Neighbor
				for _, pos := range match {
					want = append(want, space.Neighbor{Index: pos, Distance: l2(q, head.Object(pos))})
				}
				space.SortNeighbors(want)
				k := len(want)
				if k == 0 {
					k = 1
				}
				got, st, err := head.Search(q, k, head.Total()+10, pred)
				if err != nil {
					t.Fatalf("filter %s: %v", raw, err)
				}
				if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
					t.Fatalf("filter %s:\n  want %v\n  got  %v", raw, want, got)
				}
				if st.RefineDistances != len(match) {
					t.Fatalf("filter %s: refined %d, want %d matching rows",
						raw, st.RefineDistances, len(match))
				}
			}
		})
	}
}

// TestAppendLeavesHeldVersion holds one version of a segment with
// metadata in both segments and re-runs filtered searches on it from
// three goroutines while the main goroutine appends 240 metadata rows
// down the chain: a new string and a bool in every row, a new field
// from the 100th, and the delta crossing three more 64-row words. The held
// version's answers must never change; under the race detector this
// also checks that no append writes a word the held version reads. The
// grown head must then select exactly the rows Match selects.
func TestAppendLeavesHeldVersion(t *testing.T) {
	base, err := BuildIndex(testDB(100), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]meta.Map, base.Size())
	for i := range rows {
		rows[i] = testMeta(i)
	}
	rng := stats.NewRand(41)
	add := func(s *Segmented[[]float64], md meta.Map) *Segmented[[]float64] {
		x := []float64{rng.Float64() * 2, rng.Float64() * 2}
		next, _, err := s.AddWithVectorMeta(x, x, md)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	held := NewSegmentedWithMeta(base, meta.NewBlock(rows))
	for i := 0; i < 70; i++ {
		md := testMeta(i)
		if md != nil {
			md["hot"] = meta.BoolValue(i%3 == 0)
		}
		held = add(held, md)
	}
	kinds := testKinds()
	kinds["late"] = meta.KindInt
	kinds["hot"] = meta.KindBool
	var preds []*meta.Predicate
	for _, raw := range []string{
		`{"field":"tag","eq":"b"}`,
		`{"field":"tag","ne":"a"}`,
		`{"and":[{"field":"bucket","ge":4},{"field":"tag","in":["a","c"]}]}`,
		`{"field":"bucket","exists":false}`,
		`{"field":"late","exists":false}`,
		`{"field":"hot","eq":true}`,
	} {
		p, err := meta.CompileFilter([]byte(raw), kinds)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p)
	}
	queries := [][]float64{{0.3, 0.7}, {1.5, 0.2}, {0.9, 1.9}}
	answers := func(s *Segmented[[]float64]) ([][]space.Neighbor, error) {
		var out [][]space.Neighbor
		for _, pred := range preds {
			for _, q := range queries {
				ns, _, err := s.Search(q, 5, 30, pred)
				if err != nil {
					return nil, err
				}
				out = append(out, ns)
			}
		}
		return out, nil
	}
	want, err := answers(held)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var started, done sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			started.Done()
			for round := 0; ; round++ {
				got, err := answers(held)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("round %d: the held version's answers changed:\n  %v\n  %v", round, want, got)
				}
				if err != nil {
					errs <- err
					return
				}
				if stop.Load() {
					return
				}
			}
		}()
	}
	started.Wait()
	head := held
	for i := 0; i < 240; i++ {
		md := meta.Map{
			"tag":    meta.StringValue(fmt.Sprintf("new-%d", i)),
			"bucket": meta.IntValue(int64(i % 10)),
			"hot":    meta.BoolValue(i%2 == 0),
		}
		if i >= 100 {
			md["late"] = meta.IntValue(int64(i))
		}
		head = add(head, md)
		runtime.Gosched()
	}
	stop.Store(true)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if head.DeltaLen() != 310 {
		t.Fatalf("head has %d delta rows, want 310", head.DeltaLen())
	}
	for i, pred := range preds {
		got, _, err := head.Search(queries[0], head.Total(), head.Total(), pred)
		if err != nil {
			t.Fatal(err)
		}
		var pos []int
		for _, n := range got {
			pos = append(pos, n.Index)
		}
		sort.Ints(pos)
		if want := matchingLive(head, pred); fmt.Sprint(pos) != fmt.Sprint(want) {
			t.Fatalf("predicate %d over the grown head selects %v, Match %v", i, pos, want)
		}
	}
}

// TestFilterLiveMatchParallelBoundaries exercises the word-skip kernel's
// edge masking across parallel partition boundaries: a base big enough
// to fan out, a selective predicate, parallel and serial scans must
// agree exactly.
func TestFilterLiveMatchParallelBoundaries(t *testing.T) {
	n := minParallelScan*2 + 133
	base, err := BuildIndex(testDB(n), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]meta.Map, n)
	for i := range rows {
		rows[i] = testMeta(i)
	}
	seg := NewSegmentedWithMeta(base, meta.NewBlock(rows))
	// A handful of removes so the liveness AND is exercised too.
	for _, pos := range []int{0, 63, 64, 65, n - 1, n / 2} {
		seg, err = seg.Remove(pos)
		if err != nil {
			t.Fatal(err)
		}
	}
	pred := mustFilter(t, `{"field":"bucket","eq":7}`)
	q := []float64{0.5, 0.5}
	qvec := identityEmbedder{}.Embed(q)
	for _, p := range []int{1, 17, 400, n} {
		ser, serCount := seg.FilterLiveMatch(qvec, nil, p, false, nil, pred, nil, nil)
		par1, parCount := seg.FilterLiveMatch(qvec, nil, p, true, nil, pred, nil, nil)
		if serCount != parCount {
			t.Fatalf("p=%d: match counts diverge: %d/%d", p, serCount, parCount)
		}
		if !reflect.DeepEqual(ser, par1) {
			t.Fatalf("p=%d: serial/parallel candidate lists diverge", p)
		}
		want := matchingLive(seg, pred)
		if serCount != len(want) {
			t.Fatalf("p=%d: matched %d, want %d", p, serCount, len(want))
		}
		if p >= len(want) {
			got := make([]int, len(ser))
			for i, nb := range ser {
				got[i] = nb.Index
			}
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("p=%d: candidate positions %v, want %v", p, got, want)
			}
		}
	}
}

// TestMetadataSurvivesCompactAndGather pins the metadata lifecycle:
// compaction carries each live row's record unchanged, and a freshly
// compacted segment answers filtered queries identically. (The gather
// half went with Segmented.GatherSegmented; the name stays so the test's
// history stays traceable.)
func TestMetadataSurvivesCompactAndGather(t *testing.T) {
	base, err := BuildIndex(testDB(150), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head := metaScript(t, NewSegmentedWithMeta(base, nil), 23, 140)
	ix, blk := head.CompactSegmented()
	comp := NewSegmentedWithMeta(ix, blk)
	if comp.Total() != head.Live() {
		t.Fatalf("compacted total %d, want %d", comp.Total(), head.Live())
	}
	// Row r of the compacted segment is the r-th live row of head.
	r := 0
	for pos := 0; pos < head.Total(); pos++ {
		if !head.Alive(pos) {
			continue
		}
		want, got := head.Metadata(pos), comp.Metadata(r)
		if len(want) != len(got) {
			t.Fatalf("live row %d: metadata %v -> %v", pos, want, got)
		}
		for f, v := range want {
			if gv, ok := got[f]; !ok || !gv.Equal(v) {
				t.Fatalf("live row %d field %q: %+v -> %+v", pos, f, v, gv)
			}
		}
		r++
	}
	pred := mustFilter(t, `{"and":[{"field":"tag","eq":"a"},{"field":"bucket","le":6}]}`)
	q := []float64{0.2, 0.9}
	want, _, err := head.Search(q, 7, head.Total(), pred)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := comp.Search(q, 7, comp.Total(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("filtered results %d vs %d after compaction", len(want), len(got))
	}
	for i := range want {
		if want[i].Distance != got[i].Distance {
			t.Fatalf("result %d: distance %v vs %v after compaction", i, want[i].Distance, got[i].Distance)
		}
	}

}

// TestSegmentedFromPartsRoundTripMeta pins the persistence seam: a
// segment reassembled from its own serialized parts answers filtered
// queries identically and normalizes an all-nil delta metadata slice
// back to nil.
func TestSegmentedFromPartsRoundTripMeta(t *testing.T) {
	base, err := BuildIndex(testDB(90), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head := metaScript(t, NewSegmentedWithMeta(base, nil), 31, 80)
	deltaDB, deltaFlat := head.DeltaSegment()
	baseDead, deltaDead := head.Tombstoned()
	re, err := NewSegmentedFromParts(head.Base(), deltaDB, deltaFlat, baseDead, deltaDead,
		head.BaseMetaRows(), head.DeltaMetaRows(0))
	if err != nil {
		t.Fatal(err)
	}
	pred := mustFilter(t, `{"field":"bucket","in":[0,4,8]}`)
	q := []float64{0.8, 0.1}
	want, _, err := head.Search(q, 9, head.Total(), pred)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := re.Search(q, 9, re.Total(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round-tripped filtered results diverge:\n  %v\n  %v", want, got)
	}
	// Shape violations are rejected.
	if _, err := NewSegmentedFromParts(head.Base(), deltaDB, deltaFlat, baseDead, deltaDead,
		make([]meta.Map, 3), nil); err == nil {
		t.Fatal("mis-sized base metadata accepted")
	}
	if _, err := NewSegmentedFromParts(head.Base(), deltaDB, deltaFlat, baseDead, deltaDead,
		nil, make([]meta.Map, 1)); err == nil {
		t.Fatal("mis-sized delta metadata accepted")
	}
	// All-nil delta metadata normalizes to the canonical nil.
	re2, err := NewSegmentedFromParts(head.Base(), deltaDB, deltaFlat, baseDead, deltaDead,
		nil, make([]meta.Map, len(deltaDB)))
	if err != nil {
		t.Fatal(err)
	}
	if re2.DeltaMetaRows(0) != nil {
		t.Fatal("all-nil delta metadata not normalized to nil")
	}
}

// TestScanLoopsMatchReference checks FilterLiveMatch against the
// brute-force reference on every exact loop: filters selecting about 1%,
// a quarter, half and all of the rows take the set-bit loop over fresh
// skip bitmaps, unfiltered scans the tombstone loop over the shared
// tombstones, or the four-abreast loop of a segment with none. Filters
// on a row's lane (its offset in its segment's 64-row word) select
// exactly 0, 1, 2, 3 and 5 rows of each word, so the four-row batches
// end on every tail. The loops run on segments with a ninth of their
// rows tombstoned, on segments with more than three quarters tombstoned,
// whose tombstone bitmaps end words before their last live rows, and on
// segments with no tombstones. Both segments have delta rows and end
// mid-word, at 1, 2 and 3 rows past a multiple of four, and every case
// runs serial and partitioned, weighted and unweighted (nil weights,
// which must keep metrics.L1's distances), at a small p and at one past
// every selected row — through the exact scan and through the seeded
// screen's phase 2, whose candidate chunks end on their own tails. Every
// answer must equal the reference's bit for bit.
func TestScanLoopsMatchReference(t *testing.T) {
	for extra := 0; extra < 3; extra++ {
		bn, dn := minParallelScan*2+133+extra, 301+extra
		t.Run(fmt.Sprintf("len%%4=%d", bn%4), func(t *testing.T) {
			if bn%4 != 1+extra || dn%4 != 1+extra {
				t.Fatalf("segments of %d and %d rows", bn, dn)
			}
			checkScanLoops(t, bn, dn)
		})
	}
}

func checkScanLoops(t *testing.T, bn, dn int) {
	db := clusteredDB(bn+dn, 17)
	rows := make([]meta.Map, bn+dn)
	for i := range rows {
		lane := i % 64
		if i >= bn {
			lane = (i - bn) % 64
		}
		rows[i] = meta.Map{"v": meta.IntValue(int64(i * 7919 % 1000)), "lane": meta.IntValue(int64(lane))}
	}
	ix, err := BuildIndex(db[:bn], l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	var deltaFlat []float64
	for _, x := range db[bn:] {
		deltaFlat = append(deltaFlat, x...)
	}
	dead := func(n int, f func(i int) bool) bitmap {
		var b bitmap
		for i := 0; i < n; i++ {
			if f(i) {
				b = b.withSet(i)
			}
		}
		return b
	}
	head := func(baseDead, deltaDead bitmap) *Segmented[[]float64] {
		s, err := NewSegmentedFromParts(ix, db[bn:], deltaFlat, baseDead, deltaDead, rows[:bn], rows[bn:])
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	every9th := func(i int) bool { return i%9 == 4 }
	churned := head(dead(bn, every9th), dead(dn, every9th))
	mostlyDead := head(dead(bn, func(i int) bool { return i < bn*4/5 }), dead(dn, func(i int) bool { return i < dn*4/5 }))
	if bd, dd := mostlyDead.Tombstoned(); len(bd) >= (bn+63)/64 || len(dd) >= (dn+63)/64 {
		t.Fatalf("tombstone bitmaps of %d and %d words reach the segments' last words", len(bd), len(dd))
	}
	clean := head(nil, nil)

	below := func(field string, x int) *meta.Predicate {
		p, err := meta.CompileFilter([]byte(fmt.Sprintf(`{"field":%q,"lt":%d}`, field, x)),
			map[string]meta.Kind{"v": meta.KindInt, "lane": meta.KindInt})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type scanCase struct {
		name string
		s    *Segmented[[]float64]
		pred *meta.Predicate
	}
	cases := []scanCase{
		{"sel1", churned, below("v", 10)},
		{"sel25", churned, below("v", 250)},
		{"sel50", churned, below("v", 500)},
		{"sel100", churned, below("v", 1000)},
		{"unfiltered", churned, nil},
		{"sel50-mostly-dead", mostlyDead, below("v", 500)},
		{"unfiltered-mostly-dead", mostlyDead, nil},
		{"unfiltered-clean", clean, nil},
		{"sel50-clean", clean, below("v", 500)},
	}
	for _, k := range []int{0, 1, 2, 3, 5} {
		cases = append(cases,
			scanCase{fmt.Sprintf("lanes%d-clean", k), clean, below("lane", k)},
			scanCase{fmt.Sprintf("lanes%d", k), churned, below("lane", k)})
	}
	shadows := map[*Segmented[[]float64]]*Segmented[[]float64]{}
	for _, c := range cases {
		kept := make([]bool, c.s.Total())
		sel := 0
		for pos := range kept {
			kept[pos] = c.s.Alive(pos) && (c.pred == nil || c.pred.Match(c.s.Metadata(pos)))
			if kept[pos] {
				sel++
			}
		}
		keep := func(pos int) bool { return kept[pos] }
		if shadows[c.s] == nil {
			shadows[c.s] = mustShadow(t, c.s)
		}
		quant := shadows[c.s]
		for _, weights := range [][]float64{nil, seedWeights()} {
			for _, p := range []int{10, c.s.Total() + 1} {
				for qi, q := range [][]float64{db[3], db[bn+5]} {
					want := referenceTopP(c.s, q, weights, p, keep)
					for _, parallel := range []bool{false, true} {
						what := fmt.Sprintf("%s parallel=%v weighted=%v p=%d query %d", c.name, parallel, weights != nil, p, qi)
						var got []space.Neighbor
						var n int
						var run screenRun
						withGOMAXPROCS(max(2, runtime.GOMAXPROCS(0)), func() {
							got, n = c.s.FilterLiveMatch(q, weights, p, parallel, nil, c.pred, nil, nil)
							run = runScreen(quant, q, weights, p, parallel, quant.selectRows(c.pred, nil))
						})
						if n != sel {
							t.Fatalf("%s: counted %d selected rows, want %d", c.name, n, sel)
						}
						assertSameBits(t, what+": exact scan", got, want)
						if sel > 0 && (run.pr == nil || run.tm.BoundExactRows == 0) {
							t.Fatalf("%s: the seeded screen evaluated no candidate", what)
						}
						assertSameBits(t, what+": seeded screen", run.res, want)
					}
				}
			}
		}
	}
}

// assertSameBits fails t unless got and want hold the same positions
// with distances of the same bits.
func assertSameBits(t *testing.T, what string, got, want []space.Neighbor) {
	t.Helper()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i].Index == want[i].Index && math.Float64bits(got[i].Distance) == math.Float64bits(want[i].Distance)
	}
	if !same {
		t.Fatalf("%s: diverges from the reference\n  got  %v\n  want %v", what, got, want)
	}
}
