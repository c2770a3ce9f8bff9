package retrieval

import (
	"reflect"
	"testing"

	"qse/internal/space"
	"qse/internal/stats"
)

// applyScript runs a deterministic mutation script (adds interleaved with
// removes of live positions) against a Segmented head, returning the head
// and every intermediate version.
func applyScript(t *testing.T, head *Segmented[[]float64], seed int64, steps int) (*Segmented[[]float64], []*Segmented[[]float64]) {
	t.Helper()
	rng := stats.NewRand(seed)
	versions := []*Segmented[[]float64]{head}
	for i := 0; i < steps; i++ {
		if rng.Intn(3) > 0 || head.Live() == 0 {
			next, pos, err := head.Add([]float64{rng.Float64() * 2, rng.Float64() * 2})
			if err != nil {
				t.Fatalf("step %d: Add: %v", i, err)
			}
			if pos != head.Total() {
				t.Fatalf("step %d: Add landed at %d, want %d", i, pos, head.Total())
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
		versions = append(versions, head)
	}
	return head, versions
}

// liveRank maps a global position to its position in the compacted
// layout: the number of live rows before it.
func liveRank(s *Segmented[[]float64], pos int) int {
	rank := 0
	for i := 0; i < pos; i++ {
		if s.Alive(i) {
			rank++
		}
	}
	return rank
}

// TestSegmentedMatchesCompacted is the tentpole acceptance check at the
// retrieval layer: after arbitrary churn, segmented search results are
// bit-identical to searching the freshly compacted single-segment index —
// same distances, same (distance, position) ordering, same stats — for
// both the unweighted and the query-sensitive filter path.
func TestSegmentedMatchesCompacted(t *testing.T) {
	for name, em := range map[string]Embedder[[]float64]{
		"unweighted": identityEmbedder{},
		"weighted":   skewEmbedder{},
	} {
		t.Run(name, func(t *testing.T) {
			base, err := BuildIndex(testDB(200), l2, em)
			if err != nil {
				t.Fatal(err)
			}
			head, _ := applyScript(t, NewSegmentedWithMeta(base, nil), 11, 160)
			if head.Tombstones() == 0 || head.DeltaLen() == 0 {
				t.Fatalf("script produced no delta/tombstones: %d/%d", head.DeltaLen(), head.Tombstones())
			}
			compacted := head.Compact()
			if compacted.Size() != head.Live() {
				t.Fatalf("compacted size %d, want %d live", compacted.Size(), head.Live())
			}
			rng := stats.NewRand(99)
			for qi := 0; qi < 30; qi++ {
				q := []float64{rng.Float64() * 2, rng.Float64() * 2}
				got, gst, err := head.Search(q, 5, 25, nil)
				if err != nil {
					t.Fatalf("query %d: segmented: %v", qi, err)
				}
				want, wst, err := compacted.Search(q, 5, 25)
				if err != nil {
					t.Fatalf("query %d: compacted: %v", qi, err)
				}
				// Map global positions to compacted positions; everything
				// else must agree bit-for-bit.
				mapped := make([]space.Neighbor, len(got))
				for i, n := range got {
					mapped[i] = space.Neighbor{Index: liveRank(head, n.Index), Distance: n.Distance}
				}
				if !reflect.DeepEqual(mapped, want) {
					t.Fatalf("query %d: segmented %v (mapped %v) != compacted %v", qi, got, mapped, want)
				}
				if gst.WithoutTiming() != wst.WithoutTiming() {
					t.Fatalf("query %d: stats %+v != %+v", qi, gst, wst)
				}
			}
		})
	}
}

// TestSegmentedVersionIsolation pins the persistence contract the store's
// lock-free readers rely on: a version's answers never change, no matter
// how much churn happens on versions derived from it (the delta backing
// arrays are shared, so this is exactly the aliasing bug the prefix
// discipline must prevent).
func TestSegmentedVersionIsolation(t *testing.T) {
	base, err := BuildIndex(testDB(60), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head, _ := applyScript(t, NewSegmentedWithMeta(base, nil), 7, 40)
	q := []float64{0.4, 0.6}
	before, bst, err := head.Search(q, 6, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	before = append([]space.Neighbor(nil), before...)
	total, live := head.Total(), head.Live()

	// Churn far past the captured version, enough to force delta
	// reallocation and to tombstone rows the old version still serves.
	if _, versions := applyScript(t, head, 13, 300); len(versions) != 301 {
		t.Fatalf("script produced %d versions", len(versions))
	}

	if head.Total() != total || head.Live() != live {
		t.Fatalf("old version's shape changed: %d/%d, want %d/%d", head.Total(), head.Live(), total, live)
	}
	after, ast, err := head.Search(q, 6, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) || bst.WithoutTiming() != ast.WithoutTiming() {
		t.Fatalf("old version's answers changed under later churn:\nbefore %v\nafter  %v", before, after)
	}
}

// TestSegmentedMutationErrors covers the panic-free mutation contract.
func TestSegmentedMutationErrors(t *testing.T) {
	base, err := BuildIndex(testDB(10), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSegmentedWithMeta(base, nil)
	if _, _, err := s.Add([]float64{1, 2, 3}); err == nil {
		t.Error("Add with drifted embedding dims should error, not panic")
	}
	if _, err := s.Remove(-1); err == nil {
		t.Error("Remove(-1) should error")
	}
	if _, err := s.Remove(10); err == nil {
		t.Error("Remove past the end should error")
	}
	s2, err := s.Remove(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Remove(4); err == nil {
		t.Error("double Remove should error")
	}
	if s.Alive(4) != true || s2.Alive(4) != false {
		t.Error("Remove mutated the receiver or failed to tombstone the result")
	}
}

// TestSegmentedParallelSerialIdentity checks the partitioned scan over
// both segments returns exactly what the serial path returns, above the
// parallelism threshold and with tombstones in both segments.
func TestSegmentedParallelSerialIdentity(t *testing.T) {
	base, err := BuildIndex(testDB(minParallelScan+500), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head, _ := applyScript(t, NewSegmentedWithMeta(base, nil), 5, 600)
	rng := stats.NewRand(21)
	for qi := 0; qi < 10; qi++ {
		q := []float64{rng.Float64(), rng.Float64()}
		par, pst, err := head.Search(q, 8, 40, nil) // parallel path
		if err != nil {
			t.Fatal(err)
		}
		ser, sst, err := head.SearchBatch([][]float64{q}, 8, 40) // serial per query
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, ser[0]) || pst.WithoutTiming() != sst[0].WithoutTiming() {
			t.Fatalf("query %d: parallel %v != serial %v", qi, par, ser[0])
		}
	}
}

// TestSegmentedDrained covers the empty-store contract end to end at this
// layer: removing every row leaves a version that still answers (with
// zero results, not an error), compacts to an empty index, and accepts
// new objects.
func TestSegmentedDrained(t *testing.T) {
	base, err := BuildIndex(testDB(12), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	head := NewSegmentedWithMeta(base, nil)
	for pos := 0; pos < head.Total(); pos++ {
		if head, err = head.Remove(pos); err != nil {
			t.Fatalf("Remove(%d): %v", pos, err)
		}
	}
	if head.Live() != 0 {
		t.Fatalf("live = %d after draining", head.Live())
	}
	res, st, err := head.Search([]float64{0.5, 0.5}, 3, 9, nil)
	if err != nil {
		t.Fatalf("search on drained index: %v", err)
	}
	if len(res) != 0 || st.RefineDistances != 0 {
		t.Fatalf("drained search returned %v (stats %+v), want none", res, st)
	}
	compacted := head.Compact()
	if compacted.Size() != 0 || compacted.Dims() != 2 {
		t.Fatalf("drained compaction: size %d dims %d", compacted.Size(), compacted.Dims())
	}
	refilled, pos, err := NewSegmentedWithMeta(compacted, nil).Add([]float64{0.3, 0.3})
	if err != nil || pos != 0 {
		t.Fatalf("Add after drain: pos %d, err %v", pos, err)
	}
	res, _, err = refilled.Search([]float64{0.3, 0.3}, 1, 1, nil)
	if err != nil || len(res) != 1 || res[0].Distance != 0 {
		t.Fatalf("search after refill: %v, %v", res, err)
	}
}

// TestSearchBatchSurfacesErrors is the regression test for the silently
// discarded per-query errors: an empty index reassembled by FromParts
// with a dimensionality the embedder no longer produces must fail every
// query loudly — first error in query order — not emit nil result rows.
func TestSearchBatchSurfacesErrors(t *testing.T) {
	ix, err := FromParts(nil, nil, 5, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{{0.1, 0.2}, {0.3, 0.4}}
	if _, _, err := ix.Search(queries[0], 2, 4); err == nil {
		t.Fatal("Search with mismatched query dims should error")
	}
	results, _, err := ix.SearchBatch(queries, 2, 4)
	if err == nil {
		t.Fatalf("SearchBatch swallowed the per-query error, returned %v", results)
	}
	if want := "query 0"; !reflect.DeepEqual(err.Error()[:len(want)], want) {
		t.Fatalf("batch error %q does not identify the first failing query", err)
	}
	// The segmented path shares the contract.
	if _, _, err := NewSegmentedWithMeta(ix, nil).SearchBatch(queries, 2, 4); err == nil {
		t.Fatal("Segmented.SearchBatch swallowed the per-query error")
	}
}
