// The filter-and-refine engine: the one function every search in the
// repository runs through, over the segments of one view — an Index
// alone, or a store's shard snapshots. Its answer does not depend on how
// the rows are split into segments (DESIGN.md §8):
//
//   - The query is embedded once; the same qvec/weights go to every
//     segment, so filter distances are computed by the same kernels on
//     the same float64 inputs whatever the split.
//   - Each segment returns its p best matching live rows under the
//     (filter distance, key) total order. Any member of the global top p
//     lies in its own segment's top p, so the union covers the global
//     candidate set.
//   - Merging the segments' rows on the same order and truncating to p
//     gives the same candidates for every split — same set, same order,
//     same size — so the refine pays the same exact distances and ranks
//     identically on (exact distance, key).
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"qse/internal/meta"
	"qse/internal/par"
)

// Segment is one segment of a search: one immutable version of a
// segmented index and its stable-ID tables — BaseIDs[i] is base row i's
// ID, DeltaIDs[j] delta row j's. Nil tables rank and answer the
// segment's rows on their global positions, which are distinct only
// within one segment, so a search over several segments passes tables
// for all of them.
type Segment[T any] struct {
	Seg               *Segmented[T]
	BaseIDs, DeltaIDs []uint64
}

// Result is one answer of a search: the row's key — its stable ID, or
// its global position in a segment without ID tables — and its exact
// distance to the query.
type Result struct {
	ID       uint64
	Distance float64
}

// Search runs filter-and-refine for one query over the rows of segs that
// are live and match pred (nil for every live row): keep the p best under
// the filter distance, re-rank them with the exact distance, and return
// the k best on (exact distance, key), with the query's stats and the
// count of matching live rows across segs. The predicate is a query's
// extra tombstones, applied below the top-p truncation, so a selective
// filter never starves the candidate set. Segments filter side by side
// and each partitions its own scan only while segments are fewer than
// workers (DESIGN §4). segs holds at least one segment; all share one
// embedder and exact distance, the first segment's.
//
// k and p must be positive and p at least k (CheckKP), and the query
// must embed to the segments' width. Fewer matching live rows than k is
// not an error: the search answers with what it has, possibly nothing.
func Search[T any](segs []Segment[T], q T, k, p int, pred *meta.Predicate) ([]Result, Stats, int, error) {
	if err := CheckKP(k, p); err != nil {
		return nil, Stats{}, 0, err
	}
	return search(segs, q, k, p, pred, true)
}

// SearchBatch runs Search for every query against the same segments,
// pipelining the queries across the worker pool; each query runs its own
// serial scan, so per-query results and stats are bit-identical to
// running the queries one at a time. matched[i] is query i's count of
// matching live rows. If any query fails, the error of the lowest-indexed
// failing query fails the whole batch, whatever the scheduling.
func SearchBatch[T any](segs []Segment[T], queries []T, k, p int, pred *meta.Predicate) (results [][]Result, stats []Stats, matched []int, err error) {
	if err := CheckKP(k, p); err != nil {
		return nil, nil, nil, err
	}
	results = make([][]Result, len(queries))
	stats = make([]Stats, len(queries))
	matched = make([]int, len(queries))
	errs := make([]error, len(queries))
	par.For(len(queries), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i], stats[i], matched[i], errs[i] = search(segs, queries[i], k, p, pred, false)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return results, stats, matched, nil
}

// search is the engine: embed, scatter the filter phase, gather, refine.
// parallel spreads one query over the workers; a batch runs each of its
// queries serially.
func search[T any](segs []Segment[T], q T, k, p int, pred *meta.Predicate, parallel bool) ([]Result, Stats, int, error) {
	ix := segs[0].Seg.base
	var t Timing
	t0 := time.Now()
	qvec := ix.embedder.Embed(q)
	if len(qvec) != ix.dims {
		return nil, Stats{}, 0, fmt.Errorf("retrieval: query embedded to %d dims, index has %d", len(qvec), ix.dims)
	}
	var weights []float64
	if w, ok := ix.embedder.(Weighter); ok {
		weights = w.QueryWeights(qvec)
	}
	t.EmbedNanos = time.Since(t0).Nanoseconds()

	// Scatter: the segments spread over the workers. A segment's own scan
	// partitions only while the scatter leaves workers idle: a scatter
	// over as many segments as workers already keeps every worker busy,
	// and partitions inside it would add goroutines, heaps and sorts and
	// no capacity (DESIGN §4). One clock serves every segment — its
	// fields are atomic.
	var clk FilterClock
	lists := make([][]ranked, len(segs))
	matches := make([]int, len(segs))
	nested := parallel && len(segs) < par.Workers()
	scatter := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sg := segs[i]
			lists[i], matches[i] = sg.Seg.filter(qvec, weights, p, nested, &clk, pred, idTables{sg.BaseIDs, sg.DeltaIDs})
			for j := range lists[i] {
				lists[i][j].seg = i
			}
		}
	}
	if parallel && len(segs) > 1 {
		par.For(len(segs), 2, scatter)
	} else {
		scatter(0, len(segs))
	}
	clk.AddTo(&t)

	// Gather: each list is ascending on the (filter distance, key) total
	// order, so a k-way merge takes the global top p. Each segment
	// returned min(p, its matching rows), so the merge keeps min(p,
	// matched) — exactly the p one segment holding every row would
	// refine.
	t0 = time.Now()
	matched := 0
	for _, m := range matches {
		matched += m
	}
	cands := mergeSorted(lists, p, ranked.before)
	t.MergeNanos += time.Since(t0).Nanoseconds()

	// Refine: one exact distance per candidate, its object read from the
	// segment its filter scanned, ranked on (exact distance, key).
	t0 = time.Now()
	refined := make([]Result, len(cands))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := cands[i]
			refined[i] = Result{ID: c.key, Distance: ix.dist(q, segs[c.seg].Seg.Object(c.pos))}
		}
	}
	if parallel {
		par.For(len(cands), minParallelDist, fill)
	} else {
		fill(0, len(cands))
	}
	slices.SortFunc(refined, func(a, b Result) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	t.RefineNanos = time.Since(t0).Nanoseconds()
	return refined[:min(k, len(refined))], Stats{
		EmbedDistances:  ix.embedder.EmbedCost(),
		RefineDistances: len(cands),
		Timing:          t,
	}, matched, nil
}
