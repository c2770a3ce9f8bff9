package retrieval

import (
	"fmt"
	"reflect"
	"sort"
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
// predicate takes exactly the unfiltered path.
func TestSearchFilteredNilIsSearch(t *testing.T) {
	base, err := BuildIndex(testDB(300), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head := metaScript(t, NewSegmented(base), 5, 120)
	q := []float64{0.4, 0.6}
	want, wantStats, err := head.Search(q, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := head.SearchFiltered(q, 5, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("nil-filter results diverge:\n  search   %v\n  filtered %v", want, got)
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
			head := metaScript(t, NewSegmented(base), 17, 170)
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
				got, st, err := head.SearchFiltered(q, k, head.Total()+10, pred)
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
		ser, serCount := seg.FilterLiveMatch(qvec, nil, p, false, nil, pred)
		par1, parCount := seg.FilterLiveMatch(qvec, nil, p, true, nil, pred)
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
// compaction and gather carry each live row's record unchanged, and a
// freshly compacted segment answers filtered queries identically.
func TestMetadataSurvivesCompactAndGather(t *testing.T) {
	base, err := BuildIndex(testDB(150), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head := metaScript(t, NewSegmented(base), 23, 140)
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
	want, _, err := head.SearchFiltered(q, 7, head.Total(), pred)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := comp.SearchFiltered(q, 7, comp.Total(), pred)
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

	// Gather in reversed-live order keeps records aligned with positions.
	var positions []int
	for pos := head.Total() - 1; pos >= 0; pos-- {
		if head.Alive(pos) {
			positions = append(positions, pos)
		}
	}
	gix, gblk, err := head.GatherSegmented(positions)
	if err != nil {
		t.Fatal(err)
	}
	gath := NewSegmentedWithMeta(gix, gblk)
	for i, pos := range positions {
		want, got := head.Metadata(pos), gath.Metadata(i)
		if len(want) != len(got) {
			t.Fatalf("gathered row %d (pos %d): metadata %v -> %v", i, pos, want, got)
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
	head := metaScript(t, NewSegmented(base), 31, 80)
	deltaDB, deltaFlat := head.DeltaSegment()
	baseDead, deltaDead := head.Tombstoned()
	re, err := NewSegmentedFromParts(head.Base(), deltaDB, deltaFlat, baseDead, deltaDead,
		head.BaseMetaRows(), head.DeltaMeta())
	if err != nil {
		t.Fatal(err)
	}
	pred := mustFilter(t, `{"field":"bucket","in":[0,4,8]}`)
	q := []float64{0.8, 0.1}
	want, _, err := head.SearchFiltered(q, 9, head.Total(), pred)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := re.SearchFiltered(q, 9, re.Total(), pred)
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
	if re2.DeltaMeta() != nil {
		t.Fatal("all-nil delta metadata not normalized to nil")
	}
}
