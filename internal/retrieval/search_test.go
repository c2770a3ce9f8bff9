package retrieval

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qse/internal/meta"
	"qse/internal/metrics"
	"qse/internal/space"
)

// segSearch runs the engine over s alone, its rows ranked and answered
// on their positions.
func segSearch[T any](s *Segmented[T], q T, k, p int, pred *meta.Predicate) ([]space.Neighbor, Stats, error) {
	rs, st, _, err := Search([]Segment[T]{{Seg: s}}, q, k, p, pred)
	if err != nil {
		return nil, Stats{}, err
	}
	return neighbors(rs), st, nil
}

// segSearchBatch is segSearch's batch form, unfiltered.
func segSearchBatch[T any](s *Segmented[T], queries []T, k, p int) ([][]space.Neighbor, []Stats, error) {
	rss, sts, _, err := SearchBatch([]Segment[T]{{Seg: s}}, queries, k, p, nil)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]space.Neighbor, len(rss))
	for i, rs := range rss {
		out[i] = neighbors(rs)
	}
	return out, sts, nil
}

// filterLiveMatch runs s's filter phase under the given ID tables (nil
// for positions) and returns its candidates as (position, filter
// distance) neighbors, with the count of matching live rows.
func filterLiveMatch[T any](s *Segmented[T], qvec, weights []float64, p int, parallel bool, clk *FilterClock, pred *meta.Predicate, baseIDs, deltaIDs []uint64) ([]space.Neighbor, int) {
	rows, matched := s.filter(qvec, weights, p, parallel, clk, pred, idTables{baseIDs, deltaIDs})
	return positions(rows), matched
}

// positions turns filter candidates into (position, filter distance)
// neighbors; nil stays nil.
func positions(rows []ranked) []space.Neighbor {
	if rows == nil {
		return nil
	}
	out := make([]space.Neighbor, len(rows))
	for i, r := range rows {
		out[i] = space.Neighbor{Index: r.pos, Distance: r.dist}
	}
	return out
}

// addObject appends x, embedded by s's own embedder and without
// metadata, to s's delta.
func addObject[T any](s *Segmented[T], x T) (*Segmented[T], int, error) {
	return s.AddWithVectorMeta(x, s.base.embedder.Embed(x), nil)
}

// vectorAt returns the embedded vector of the row at global position pos,
// a view into its segment's flat block.
func vectorAt[T any](s *Segmented[T], pos int) []float64 {
	d := s.base.dims
	if bn := s.base.Size(); pos >= bn {
		pos -= bn
		return s.deltaFlat[pos*d : pos*d+d]
	}
	return s.base.flat[pos*d : pos*d+d]
}

// engineRow is one row of the split-invariance database: its stable
// ID, vector and metadata, whether it sits in its segment's delta, and
// whether it is tombstoned.
type engineRow struct {
	id    uint64
	x     []float64
	md    meta.Map
	delta bool
	dead  bool
}

// splitRows lays rows out as n segments with ID tables: a row goes to
// segment id mod n, base rows first and delta rows after them, each in
// row order, and dead rows are tombstoned.
func splitRows(t *testing.T, rows []engineRow, n int) []Segment[[]float64] {
	t.Helper()
	segs := make([]Segment[[]float64], n)
	for s := range segs {
		var base, delta []engineRow
		for _, r := range rows {
			switch {
			case int(r.id%uint64(n)) != s:
			case r.delta:
				delta = append(delta, r)
			default:
				base = append(base, r)
			}
		}
		var db [][]float64
		var flat []float64
		var mds []meta.Map
		var baseIDs, deltaIDs []uint64
		for _, r := range base {
			db, flat, mds, baseIDs = append(db, r.x), append(flat, r.x...), append(mds, r.md), append(baseIDs, r.id)
		}
		ix, err := FromParts(db, flat, engineDims, l2, identityEmbedder{})
		if err != nil {
			t.Fatal(err)
		}
		seg := NewSegmentedWithMeta(ix, meta.NewBlock(mds))
		for _, r := range delta {
			if seg, _, err = seg.AddWithVectorMeta(r.x, r.x, r.md); err != nil {
				t.Fatal(err)
			}
			deltaIDs = append(deltaIDs, r.id)
		}
		for pos, r := range append(base, delta...) {
			if r.dead {
				if seg, err = seg.Remove(pos); err != nil {
					t.Fatal(err)
				}
			}
		}
		segs[s] = Segment[[]float64]{Seg: seg, BaseIDs: baseIDs, DeltaIDs: deltaIDs}
	}
	return segs
}

const engineDims = 3

// engineRef is filter-and-refine by brute force over rows, the paper's
// definition: the p best live rows matching pred on (L1, ID), re-ranked
// on (L2, ID), cut at k; with the count of matching live rows.
func engineRef(rows []engineRow, q []float64, k, p int, pred *meta.Predicate) ([]Result, int) {
	type cand struct {
		id          uint64
		fdist, dist float64
	}
	var all []cand
	for _, r := range rows {
		if !r.dead && (pred == nil || pred.Match(r.md)) {
			all = append(all, cand{r.id, metrics.L1(q, r.x), l2(q, r.x)})
		}
	}
	slices.SortFunc(all, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.fdist, b.fdist), cmp.Compare(a.id, b.id))
	})
	top := all[:min(p, len(all))]
	slices.SortFunc(top, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.id, b.id))
	})
	out := make([]Result, min(k, len(top)))
	for i := range out {
		out[i] = Result{ID: top[i].id, Distance: top[i].dist}
	}
	return out, len(all)
}

// TestSearchAnySplit holds one database as one segment and split into 2
// and 3 segments with ID tables — base rows, delta rows, tombstones,
// upserted IDs whose old row is dead, and metadata under a predicate —
// and requires every search to equal the brute-force definition, with
// the same stats and matching count, for every split, single (parallel)
// and batched (serial), at 2 workers (fewer than the 3-way split's
// segments: no nested partitions) and 8 (every segment's scan
// partitions).
//
// IDs run opposite to positions (but for the upserted rows), and twin
// groups (exact copies of one row, spread over the segments, the
// lowest-ID copy tombstoned) straddle both cuts
// of the first query: a group tied at the p-th filter distance, so only
// the merge's tie-break decides which survive, and a group tied at the
// k-th exact distance, so only the refine's does.
func TestSearchAnySplit(t *testing.T) {
	const n = 14000
	rng := rand.New(rand.NewSource(17))
	obj := func() []float64 { return []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()} }
	rows := make([]engineRow, n)
	for i := range rows {
		rows[i] = engineRow{
			id:    uint64(n - 1 - i),
			x:     obj(),
			md:    meta.Map{"bucket": meta.IntValue(int64(rng.Intn(10)))},
			delta: i >= n*4/5,
			dead:  rng.Intn(13) == 0,
		}
	}
	pred := mustFilter(t, `{"field":"bucket","lt":7}`)
	q := []float64{3.5, -3.5, 0}
	fdist := func(x []float64) float64 { return metrics.L1(q, x) }
	edist := func(x []float64) float64 { return l2(q, x) }

	// ranked returns the positions in rows of the live rows matching
	// pred, on (key, ID).
	ranked := func(key func([]float64) float64, pred *meta.Predicate) []int {
		var idx []int
		for i, r := range rows {
			if !r.dead && (pred == nil || pred.Match(r.md)) {
				idx = append(idx, i)
			}
		}
		slices.SortFunc(idx, func(a, b int) int {
			return cmp.Or(cmp.Compare(key(rows[a].x), key(rows[b].x)), cmp.Compare(rows[a].id, rows[b].id))
		})
		return idx
	}
	// The twin groups copy the rows at filter rank 60 and exact rank 5
	// of the matching live rows into six rows each far past both cuts,
	// the lowest-ID copy tombstoned.
	byFilter, byExact := ranked(fdist, pred), ranked(edist, pred)
	tieP, tieK := rows[byFilter[60]], rows[byExact[5]]
	far := byFilter[len(byFilter)/2:]
	for g, src := range []engineRow{tieP, tieK} {
		at := make([]int, 6)
		for c := range at {
			at[c] = far[(g*6+c)*331%len(far)]
			rows[at[c]].x, rows[at[c]].md = slices.Clone(src.x), src.md
		}
		rows[slices.Max(at)].dead = true
	}
	// Upserts: a live row's old version dies and its replacement, under
	// the same ID, is appended to the delta.
	for u := 0; u < 40; u++ {
		old := &rows[rng.Intn(n*4/5)]
		if !old.dead {
			old.dead = true
			rows = append(rows, engineRow{id: old.id, x: obj(), md: old.md, delta: true})
		}
	}

	queries := [][]float64{q}
	for len(queries) < 5 {
		queries = append(queries, obj())
	}
	var splits [][]Segment[[]float64]
	for s := 1; s <= 3; s++ {
		splits = append(splits, splitRows(t, rows, s))
	}
	for _, pred := range []*meta.Predicate{nil, pred} {
		// p cuts two rows into the filter-tied group, k two rows into the
		// exact-tied group among the p candidates.
		byFilter := ranked(fdist, pred)
		p := slices.IndexFunc(byFilter, func(i int) bool { return slices.Equal(rows[i].x, tieP.x) }) + 2
		cands := slices.Clone(byFilter[:p])
		slices.SortFunc(cands, func(a, b int) int {
			return cmp.Or(cmp.Compare(edist(rows[a].x), edist(rows[b].x)), cmp.Compare(rows[a].id, rows[b].id))
		})
		k := slices.IndexFunc(cands, func(i int) bool { return slices.Equal(rows[i].x, tieK.x) }) + 2
		if k < 2 || p < k ||
			!slices.Equal(rows[byFilter[p]].x, tieP.x) || !slices.Equal(rows[cands[k]].x, tieK.x) {
			t.Fatalf("pred %v: the twin groups do not straddle the cuts (k = %d, p = %d)", pred != nil, k, p)
		}

		// k = p answers every candidate, so the filter tie's survivors
		// show; the smaller k shows the refine tie's.
		for _, k := range []int{k, p} {
			for _, workers := range []int{2, 8} {
				withGOMAXPROCS(workers, func() {
					for s, segs := range splits {
						batch, sts, ms, err := SearchBatch(segs, queries, k, p, pred)
						if err != nil {
							t.Fatal(err)
						}
						for qi, q := range queries {
							want, matched := engineRef(rows, q, k, p, pred)
							wantStats := Stats{RefineDistances: min(p, matched)}
							got, st, m, err := Search(segs, q, k, p, pred)
							if err != nil {
								t.Fatal(err)
							}
							for mode, g := range map[string]struct {
								res []Result
								st  Stats
								m   int
							}{"single": {got, st, m}, "batch": {batch[qi], sts[qi], ms[qi]}} {
								if !reflect.DeepEqual(g.res, want) || g.st.WithoutTiming() != wantStats || g.m != matched {
									t.Fatalf("%s, pred %v, k = %d, p = %d, query %d, %d segments, %d workers: got %v (%+v, %d matched)\n  want %v (%+v, %d)",
										mode, pred != nil, k, p, qi, s+1, workers, g.res, g.st.WithoutTiming(), g.m, want, wantStats, matched)
								}
							}
						}
					}
				})
			}
		}
	}
}
