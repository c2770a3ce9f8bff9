// Segmented index: the storage shape behind cheap dynamic updates
// (Sec. 7.1). A plain Index answers queries over one contiguous flat
// block, which makes mutation under a copy-on-write serving discipline
// O(n): every published version needs its own copy of everything. A
// Segmented index splits the database into
//
//   - an immutable base segment (a whole *Index, shared by every version
//     that descends from it),
//   - a small append-only delta segment (backing arrays shared across
//     versions; each version sees a prefix), and
//   - tombstone bitmaps over both segments.
//
// Add and Remove are persistent-data-structure operations: they return a
// new *Segmented and never modify the receiver, so a reader holding an
// older version keeps getting exactly its answers. Because the delta
// arrays are append-only and a version only ever reads its own prefix,
// Add costs O(EmbedCost + dims) amortized — no copy of the base, the
// delta, or the id tables — and Remove costs one bitmap copy
// (O(rows/64) words). Compact folds delta and tombstones back into a
// fresh single-segment Index when the caller's thresholds say so.
//
// Positions are global: base rows keep their base positions, delta row j
// sits at BaseSize()+j. Search results are bit-identical to a freshly
// compacted index (see DESIGN.md §7): tombstoned rows are filtered before
// the top-p truncation, distances are computed by the same kernels on the
// same vectors, and compaction preserves the relative order of live rows,
// so the (distance, position) total order ranks live rows identically in
// both layouts.
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"container/heap"
	"fmt"
	"math/bits"
	"time"

	"qse/internal/meta"
	"qse/internal/metrics"
	"qse/internal/par"
	"qse/internal/space"
)

// bitmap is an immutable tombstone set over row positions. Bits beyond
// the backing slice are implicitly zero (alive), so an append-only
// segment can grow without the bitmap being touched.
type bitmap []uint64

func (b bitmap) get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]>>(uint(i)&63)&1 != 0
}

// popcount returns the number of set bits.
func (b bitmap) popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// validFor reports whether the bitmap is a legal tombstone set for a
// segment of the given row count: no backing words past the last possible
// row, and no bits set beyond the rows that exist. Serialized bitmaps
// pass through here before a reassembled segment trusts them.
func (b bitmap) validFor(rows int) bool {
	if len(b) > (rows+63)/64 {
		return false
	}
	if rem := rows & 63; rem != 0 && len(b) == (rows+63)/64 {
		if b[len(b)-1]>>uint(rem) != 0 {
			return false
		}
	}
	return true
}

// withSet returns a copy of b with bit i set, grown as needed.
func (b bitmap) withSet(i int) bitmap {
	w := i >> 6
	n := len(b)
	if w >= n {
		n = w + 1
	}
	out := make(bitmap, n)
	copy(out, b)
	out[w] |= 1 << (uint(i) & 63)
	return out
}

// Segmented is one immutable version of a segmented index. The zero value
// is not usable; build one with NewSegmented.
type Segmented[T any] struct {
	base *Index[T]
	// deltaDB/deltaFlat are the delta segment. Their backing arrays are
	// shared by every version in an Add chain: a version's visible prefix
	// is the slice length, and appends beyond it (made while holding the
	// owning store's mutation lock) land in slots no published version
	// can read.
	deltaDB   []T
	deltaFlat []float64
	// baseDead/deltaDead are tombstones over base positions and delta
	// offsets respectively; dead is their total population.
	baseDead  bitmap
	deltaDead bitmap
	dead      int
	// baseMeta is the base segment's columnar metadata (nil when no base
	// row carries metadata — the exact pre-metadata representation).
	// deltaMeta is the delta's row-oriented metadata, aligned with
	// deltaDB under the same shared-backing prefix discipline; it is nil
	// until the first metadata-carrying Add, after which it stays
	// exactly len(deltaDB) long (nil entries for metadata-less rows).
	baseMeta  *meta.Block
	deltaMeta []meta.Map
	// quant is the optional quantized shadow block (see quantized.go);
	// nil means exact scans only.
	quant *quantState
}

// NewSegmented wraps a single-segment index as a Segmented with an empty
// delta, no tombstones, and no metadata.
func NewSegmented[T any](base *Index[T]) *Segmented[T] {
	return &Segmented[T]{base: base}
}

// NewSegmentedWithMeta is NewSegmented with the base segment's columnar
// metadata attached. blk must be nil or shaped for exactly base.Size()
// rows (CompactSegmented and GatherSegmented produce matched pairs).
func NewSegmentedWithMeta[T any](base *Index[T], blk *meta.Block) *Segmented[T] {
	return &Segmented[T]{base: base, baseMeta: blk}
}

// Base returns the immutable base segment.
func (s *Segmented[T]) Base() *Index[T] { return s.base }

// BaseSize returns the number of base rows (live or tombstoned).
func (s *Segmented[T]) BaseSize() int { return s.base.Size() }

// DeltaLen returns the number of delta rows (live or tombstoned).
func (s *Segmented[T]) DeltaLen() int { return len(s.deltaDB) }

// Total returns the number of rows across both segments, including
// tombstoned ones; valid positions are [0, Total()).
func (s *Segmented[T]) Total() int { return s.base.Size() + len(s.deltaDB) }

// Tombstones returns the number of tombstoned rows.
func (s *Segmented[T]) Tombstones() int { return s.dead }

// Live returns the number of live (searchable) rows.
func (s *Segmented[T]) Live() int { return s.Total() - s.dead }

// Dims returns the embedding dimensionality.
func (s *Segmented[T]) Dims() int { return s.base.dims }

// Alive reports whether position pos holds a live row.
func (s *Segmented[T]) Alive(pos int) bool {
	if bn := s.base.Size(); pos >= bn {
		return !s.deltaDead.get(pos - bn)
	}
	return !s.baseDead.get(pos)
}

// Object returns the database object at global position pos.
func (s *Segmented[T]) Object(pos int) T {
	if bn := s.base.Size(); pos >= bn {
		return s.deltaDB[pos-bn]
	}
	return s.base.db[pos]
}

// Vector returns the embedded vector of the row at global position pos —
// a view into the segment's flat storage, not a copy. Callers must not
// modify it.
func (s *Segmented[T]) Vector(pos int) []float64 {
	d := s.base.dims
	if bn := s.base.Size(); pos >= bn {
		off := (pos - bn) * d
		return s.deltaFlat[off : off+d]
	}
	return s.base.flat[pos*d : (pos+1)*d]
}

// DeltaSegment returns this version's view of the delta segment: the
// objects and their row-major flat vector block, in append order. The
// slices are views of the (immutable-prefix) shared backing, not copies —
// exactly what a serializer needs to write the delta section of a bundle
// without compacting first. Callers must not modify them.
func (s *Segmented[T]) DeltaSegment() ([]T, []float64) {
	return s.deltaDB, s.deltaFlat
}

// Tombstoned returns the tombstone bitmaps over base positions and delta
// offsets, as raw uint64 words (bit i of word w marks row w*64+i dead;
// words beyond the slice are all-alive). The slices are the snapshot's
// own immutable storage; callers must not modify them.
func (s *Segmented[T]) Tombstoned() ([]uint64, []uint64) {
	return s.baseDead, s.deltaDead
}

// MetaBlock returns the base segment's columnar metadata (nil when no
// base row carries metadata).
func (s *Segmented[T]) MetaBlock() *meta.Block { return s.baseMeta }

// DeltaMeta returns this version's view of the delta metadata, aligned
// with DeltaSegment's objects: nil when no delta row carries metadata,
// otherwise exactly DeltaLen() entries (nil entries for metadata-less
// rows). Same shared-backing caveats as DeltaSegment.
func (s *Segmented[T]) DeltaMeta() []meta.Map { return s.deltaMeta }

// BaseMetaRows materializes the base segment's metadata as per-row
// records (nil when the base has none) — the persist shape of MetaBlock.
func (s *Segmented[T]) BaseMetaRows() []meta.Map {
	if s.baseMeta == nil {
		return nil
	}
	rows := make([]meta.Map, s.base.Size())
	for i := range rows {
		rows[i] = s.baseMeta.Row(i)
	}
	return rows
}

// Metadata returns the metadata record of the row at global position
// pos (nil for a row without metadata). Base rows materialize a fresh
// Map; delta rows return the stored record, which callers must not
// modify.
func (s *Segmented[T]) Metadata(pos int) meta.Map {
	if bn := s.base.Size(); pos >= bn {
		if s.deltaMeta == nil {
			return nil
		}
		return s.deltaMeta[pos-bn]
	}
	return s.baseMeta.Row(pos)
}

// Gather builds a fresh single-segment Index holding the rows at the
// given global positions, in the given order, sharing no mutable storage
// with the receiver. It is the reordering counterpart of Compact: the
// store layer uses it to fold segments back into stable-ID order after
// upserts have decoupled position order from ID order. Positions must be
// in range; liveness is the caller's business (the store gathers exactly
// its live set).
func (s *Segmented[T]) Gather(positions []int) (*Index[T], error) {
	d := s.base.dims
	db := make([]T, 0, len(positions))
	flat := make([]float64, 0, len(positions)*d)
	total := s.Total()
	for _, pos := range positions {
		if pos < 0 || pos >= total {
			return nil, fmt.Errorf("retrieval: gather position %d out of range [0,%d)", pos, total)
		}
		db = append(db, s.Object(pos))
		flat = append(flat, s.Vector(pos)...)
	}
	return &Index[T]{db: db, flat: flat, dims: d, embedder: s.base.embedder, dist: s.base.dist}, nil
}

// GatherSegmented is Gather carrying metadata: the fresh base index
// plus the columnar block of the gathered rows' metadata (nil when none
// of them has any).
func (s *Segmented[T]) GatherSegmented(positions []int) (*Index[T], *meta.Block, error) {
	ix, err := s.Gather(positions)
	if err != nil {
		return nil, nil, err
	}
	if s.baseMeta == nil && s.deltaMeta == nil {
		return ix, nil, nil
	}
	rows := make([]meta.Map, len(positions))
	for i, pos := range positions {
		rows[i] = s.Metadata(pos)
	}
	return ix, meta.NewBlock(rows), nil
}

// NewSegmentedFromParts reassembles a Segmented from serialized parts: a
// base index plus a delta segment (objects, row-major vectors), the two
// tombstone bitmaps, and the per-row metadata of both segments (either
// may be nil for "no metadata"), without re-embedding anything. It is
// the deserialization counterpart of DeltaSegment/Tombstoned/
// BaseMetaRows/DeltaMeta, used to reopen a base+delta bundle section as
// the exact in-memory segment layout that was saved. Lengths and bitmap
// shapes are validated; the vectors are trusted to be the embedder's
// output for the objects, like AddWithVector.
func NewSegmentedFromParts[T any](base *Index[T], deltaDB []T, deltaFlat []float64, baseDead, deltaDead []uint64, baseMeta, deltaMeta []meta.Map) (*Segmented[T], error) {
	d := base.dims
	if len(deltaFlat) != len(deltaDB)*d {
		return nil, fmt.Errorf("retrieval: delta flat block has %d values for %d objects x %d dims",
			len(deltaFlat), len(deltaDB), d)
	}
	bd, dd := bitmap(baseDead), bitmap(deltaDead)
	if !bd.validFor(base.Size()) {
		return nil, fmt.Errorf("retrieval: base tombstone bitmap shaped for more than %d rows", base.Size())
	}
	if !dd.validFor(len(deltaDB)) {
		return nil, fmt.Errorf("retrieval: delta tombstone bitmap shaped for more than %d rows", len(deltaDB))
	}
	if baseMeta != nil && len(baseMeta) != base.Size() {
		return nil, fmt.Errorf("retrieval: base metadata has %d rows for %d base rows", len(baseMeta), base.Size())
	}
	if deltaMeta != nil && len(deltaMeta) != len(deltaDB) {
		return nil, fmt.Errorf("retrieval: delta metadata has %d rows for %d delta rows", len(deltaMeta), len(deltaDB))
	}
	dm := deltaMeta
	if dm != nil {
		// Normalize an all-nil row set back to the canonical nil, so a
		// round trip through persistence cannot flip the representation.
		any := false
		for _, m := range dm {
			if len(m) > 0 {
				any = true
				break
			}
		}
		if !any {
			dm = nil
		}
	}
	return &Segmented[T]{
		base:      base,
		deltaDB:   deltaDB,
		deltaFlat: deltaFlat,
		baseDead:  bd,
		deltaDead: dd,
		dead:      bd.popcount() + dd.popcount(),
		baseMeta:  meta.NewBlock(baseMeta),
		deltaMeta: dm,
	}, nil
}

// Add embeds x and returns a new version with x appended to the delta
// segment, along with x's global position. The receiver is unchanged. An
// object embedding to the wrong dimensionality is rejected with an error.
// Callers that publish versions concurrently must serialize Adds (they
// append to the shared delta backing).
func (s *Segmented[T]) Add(x T) (*Segmented[T], int, error) {
	return s.AddWithVector(x, s.base.embedder.Embed(x))
}

// AddWithVector is Add with the embedding already computed. It exists for
// callers that must validate or route on the vector before committing to
// an insert (the sharded store embeds outside any lock, then routes the
// object to a shard by its assigned ID): the EmbedCost exact distances are
// paid exactly once, not once per routing decision. v must be the
// embedder's output for x — passing anything else silently corrupts
// search results.
func (s *Segmented[T]) AddWithVector(x T, v []float64) (*Segmented[T], int, error) {
	return s.AddWithVectorMeta(x, v, nil)
}

// AddWithVectorMeta is AddWithVector carrying the new row's metadata
// record (nil for a row without metadata). md must already be validated
// against the store's field-type registry; this layer stores, it does
// not type-check. The record is retained as-is — callers must not
// modify it afterwards.
func (s *Segmented[T]) AddWithVectorMeta(x T, v []float64, md meta.Map) (*Segmented[T], int, error) {
	if len(v) != s.base.dims {
		return nil, 0, ObjectDimsError(len(v), s.base.dims)
	}
	if len(md) == 0 {
		md = nil
	}
	n := *s
	n.deltaDB = append(s.deltaDB, x)
	n.deltaFlat = append(s.deltaFlat, v...)
	if s.quant != nil {
		n.quant = s.quant.appendRow(v, s.base.dims)
	}
	switch {
	case md == nil && s.deltaMeta == nil:
		// Still no delta metadata anywhere: keep the canonical nil.
	case s.deltaMeta == nil:
		// First metadata-carrying row: nil-pad the rows before it once,
		// then the slice grows append-only like deltaDB.
		dm := make([]meta.Map, len(s.deltaDB), len(s.deltaDB)+1)
		n.deltaMeta = append(dm, md)
	default:
		n.deltaMeta = append(s.deltaMeta, md)
	}
	return &n, s.Total(), nil
}

// Remove returns a new version with the row at global position pos
// tombstoned; the receiver is unchanged. Removing an out-of-range or
// already-tombstoned position is an error.
func (s *Segmented[T]) Remove(pos int) (*Segmented[T], error) {
	if pos < 0 || pos >= s.Total() {
		return nil, fmt.Errorf("retrieval: remove position %d out of range [0,%d)", pos, s.Total())
	}
	if !s.Alive(pos) {
		return nil, fmt.Errorf("retrieval: position %d already removed", pos)
	}
	n := *s
	if bn := s.base.Size(); pos >= bn {
		n.deltaDead = s.deltaDead.withSet(pos - bn)
	} else {
		n.baseDead = s.baseDead.withSet(pos)
	}
	n.dead = s.dead + 1
	return &n, nil
}

// Compact folds both segments and the tombstones into a fresh
// single-segment Index holding exactly the live rows, base order first,
// then delta order — the relative order of live rows is preserved, which
// is what makes segmented search results bit-identical to searching the
// compacted index. The receiver is unchanged and shares no mutable
// storage with the result.
func (s *Segmented[T]) Compact() *Index[T] {
	live, d := s.Live(), s.base.dims
	db := make([]T, 0, live)
	flat := make([]float64, 0, live*d)
	appendLive := func(src []T, srcFlat []float64, dead bitmap) {
		for i := range src {
			if dead.get(i) {
				continue
			}
			db = append(db, src[i])
			flat = append(flat, srcFlat[i*d:(i+1)*d]...)
		}
	}
	appendLive(s.base.db, s.base.flat, s.baseDead)
	appendLive(s.deltaDB, s.deltaFlat, s.deltaDead)
	return &Index[T]{db: db, flat: flat, dims: d, embedder: s.base.embedder, dist: s.base.dist}
}

// CompactSegmented is Compact carrying metadata: the compacted index
// plus the columnar block of the live rows' metadata, in the same
// order (nil when no live row has any).
func (s *Segmented[T]) CompactSegmented() (*Index[T], *meta.Block) {
	ix := s.Compact()
	if s.baseMeta == nil && s.deltaMeta == nil {
		return ix, nil
	}
	rows := make([]meta.Map, 0, ix.Size())
	for i := 0; i < s.base.Size(); i++ {
		if s.baseDead.get(i) {
			continue
		}
		rows = append(rows, s.baseMeta.Row(i))
	}
	for j := range s.deltaDB {
		if s.deltaDead.get(j) {
			continue
		}
		var m meta.Map
		if s.deltaMeta != nil {
			m = s.deltaMeta[j]
		}
		rows = append(rows, m)
	}
	return ix, meta.NewBlock(rows)
}

// Search runs filter-and-refine over both segments, skipping tombstoned
// rows before the top-p truncation. Neighbor indices are global
// positions; distances, ordering and the empty-index contract are exactly
// those of Index.Search on the compacted equivalent.
func (s *Segmented[T]) Search(q T, k, p int) ([]space.Neighbor, Stats, error) {
	return s.search(q, k, p, true)
}

func (s *Segmented[T]) search(q T, k, p int, parallel bool) ([]space.Neighbor, Stats, error) {
	return s.searchPred(q, k, p, nil, parallel)
}

// SearchFiltered is Search restricted to the rows matching pred: the
// predicate is evaluated below the top-p truncation, so p candidates
// are drawn from the matching live rows alone — a selective filter
// never starves the result. A nil pred is exactly Search.
func (s *Segmented[T]) SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]space.Neighbor, Stats, error) {
	return s.searchPred(q, k, p, pred, true)
}

func (s *Segmented[T]) searchPred(q T, k, p int, pred *meta.Predicate, parallel bool) ([]space.Neighbor, Stats, error) {
	if err := CheckKP(k, p); err != nil {
		return nil, Stats{}, err
	}
	var t Timing
	t0 := time.Now()
	qvec := s.base.embedder.Embed(q)
	if len(qvec) != s.base.dims {
		return nil, Stats{}, QueryDimsError(len(qvec), s.base.dims)
	}
	var weights []float64
	if w, ok := s.base.embedder.(Weighter); ok {
		weights = w.QueryWeights(qvec)
	}
	t.EmbedNanos = time.Since(t0).Nanoseconds()

	var clk FilterClock
	var candidates []space.Neighbor
	if pred == nil {
		candidates = s.filterTopP(qvec, weights, p, parallel, &clk)
	} else {
		candidates, _ = s.FilterLiveMatch(qvec, weights, p, parallel, &clk, pred)
	}
	clk.AddTo(&t)

	t0 = time.Now()
	refined := make([]space.Neighbor, len(candidates))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := candidates[i]
			refined[i] = space.Neighbor{Index: c.Index, Distance: s.base.dist(q, s.Object(c.Index))}
		}
	}
	if parallel {
		par.For(len(candidates), minParallelDist, fill)
	} else {
		fill(0, len(candidates))
	}
	space.SortNeighbors(refined)
	t.RefineNanos = time.Since(t0).Nanoseconds()
	if k > len(refined) {
		k = len(refined)
	}
	stats := Stats{
		EmbedDistances:  s.base.embedder.EmbedCost(),
		RefineDistances: len(candidates),
		Timing:          t,
	}
	return refined[:k], stats, nil
}

// SearchBatch pipelines queries across the worker pool like
// Index.SearchBatch, with the same deterministic first-error semantics:
// each query runs its own serial scan, so per-query results and stats
// are bit-identical to running the queries one at a time.
func (s *Segmented[T]) SearchBatch(queries []T, k, p int) ([][]space.Neighbor, []Stats, error) {
	if err := CheckKP(k, p); err != nil {
		return nil, nil, err
	}
	results := make([][]space.Neighbor, len(queries))
	stats := make([]Stats, len(queries))
	errs := make([]error, len(queries))
	par.For(len(queries), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i], stats[i], errs[i] = s.search(queries[i], k, p, false)
		}
	})
	return firstBatchError(results, stats, errs)
}

// FilterLive runs only the filter phase, with a precomputed query
// embedding: the p best live rows under the filter distance, in ascending
// (distance, position) order. It is the scatter half of the sharded
// store's scatter-gather search — the store embeds the query once, fans
// the same qvec/weights out to every shard's FilterLive, and merges the
// per-shard candidate lists before a single refine pass, so the exact
// distance cost stays identical to an unsharded search. weights may be
// nil for the unweighted L1. clk, when non-nil, accumulates the scan's
// per-segment and merge durations (the store feeds it into the query's
// stage breakdown); a nil clk skips all timekeeping.
func (s *Segmented[T]) FilterLive(qvec, weights []float64, p int, parallel bool, clk *FilterClock) []space.Neighbor {
	return s.filterTopP(qvec, weights, p, parallel, clk)
}

// FilterLiveMatch is FilterLive restricted to rows matching pred: a
// timed pre-pass evaluates the predicate into per-segment match bitsets
// (ANDed with liveness), p is clamped to the matching-live population,
// and the partitioned scan walks only matching rows — the predicate is
// below the top-p truncation. It returns the candidates and the
// matching-live row count (the sharded store sums it across shards to
// clamp the global truncation identically to an unsharded store). A nil
// pred is exactly FilterLive with count Live().
func (s *Segmented[T]) FilterLiveMatch(qvec, weights []float64, p int, parallel bool, clk *FilterClock, pred *meta.Predicate) ([]space.Neighbor, int) {
	if pred == nil {
		return s.filterTopP(qvec, weights, p, parallel, clk), s.Live()
	}
	t0 := time.Now()
	matchBase, matchDelta := s.matchBits(pred)
	matched := matchBase.popcount() + matchDelta.popcount()
	clk.AddEval(time.Since(t0).Nanoseconds())
	if p > matched {
		p = matched
	}
	if p <= 0 {
		return nil, matched
	}
	total := s.Total()
	var pr *boundPrune
	if v := s.seedView(p, matchBase, matchDelta, true); v != nil {
		t0 = time.Now()
		pr = s.screen(qvec, weights, p, parallel, clk, v)
		clk.AddBound(time.Since(t0).Nanoseconds())
	}
	var heaps []neighborMaxHeap
	if pr != nil {
		heaps = s.scanCandidateChunks(qvec, weights, p, parallel, pr, clk)
	} else if !parallel || total < minParallelScan {
		heaps = []neighborMaxHeap{s.scanRangeMatch(qvec, weights, 0, total, p, matchBase, matchDelta, clk)}
	} else {
		w := par.Workers()
		all := make([]neighborMaxHeap, w)
		shards := par.Shards(w, total, minParallelScan, func(sh, lo, hi int) {
			all[sh] = s.scanRangeMatch(qvec, weights, lo, hi, p, matchBase, matchDelta, clk)
		})
		heaps = all[:shards]
	}
	if clk == nil {
		return mergeTopP(heaps, p), matched
	}
	t0 = time.Now()
	out := mergeTopP(heaps, p)
	clk.AddMerge(time.Since(t0).Nanoseconds())
	return out, matched
}

// matchBits evaluates pred into per-segment match bitsets ANDed with
// liveness: the base through the column kernels of meta.EvalBlock, the
// delta row by row through Predicate.Match.
func (s *Segmented[T]) matchBits(pred *meta.Predicate) (matchBase, matchDelta bitmap) {
	bn, dn := s.base.Size(), len(s.deltaDB)
	if bn > 0 {
		matchBase = make(bitmap, (bn+63)/64)
		pred.EvalBlock(s.baseMeta, bn, matchBase)
		for w := range s.baseDead {
			matchBase[w] &^= s.baseDead[w]
		}
	}
	if dn > 0 {
		matchDelta = make(bitmap, (dn+63)/64)
		for j := 0; j < dn; j++ {
			if s.deltaDead.get(j) {
				continue
			}
			var m meta.Map
			if s.deltaMeta != nil {
				m = s.deltaMeta[j]
			}
			if pred.Match(m) {
				matchDelta[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	return matchBase, matchDelta
}

// filterTopP ranks the live rows of both segments under the filter
// distance and returns the p best in ascending (distance, position)
// order. Tombstoned rows are skipped before the truncation, so p live
// candidates survive whenever p live rows exist. The global position
// space is partitioned exactly like Index.filterTopP partitions its rows;
// the merged top-p is unique under the total order, so the result is
// identical for any shard count.
func (s *Segmented[T]) filterTopP(qvec, weights []float64, p int, parallel bool, clk *FilterClock) []space.Neighbor {
	total := s.Total()
	if live := s.Live(); p > live {
		p = live
	}
	if p <= 0 {
		return nil
	}
	var pr *boundPrune
	if v := s.seedView(p, nil, nil, false); v != nil {
		t0 := time.Now()
		pr = s.screen(qvec, weights, p, parallel, clk, v)
		clk.AddBound(time.Since(t0).Nanoseconds())
	}
	var heaps []neighborMaxHeap
	if pr != nil {
		heaps = s.scanCandidateChunks(qvec, weights, p, parallel, pr, clk)
	} else if !parallel || total < minParallelScan {
		heaps = []neighborMaxHeap{s.scanRange(qvec, weights, 0, total, p, clk)}
	} else {
		w := par.Workers()
		all := make([]neighborMaxHeap, w)
		shards := par.Shards(w, total, minParallelScan, func(sh, lo, hi int) {
			all[sh] = s.scanRange(qvec, weights, lo, hi, p, clk)
		})
		heaps = all[:shards]
	}
	if clk == nil {
		return mergeTopP(heaps, p)
	}
	t0 := time.Now()
	out := mergeTopP(heaps, p)
	clk.AddMerge(time.Since(t0).Nanoseconds())
	return out
}

// mergeTopP flattens per-shard candidate heaps, sorts by the
// (distance, position) total order, and truncates to the p best. The
// total order has no duplicate keys (positions are unique), so the merged
// top-p is a unique set in a unique order — the same for any partition of
// the position space, which is what makes both the partitioned scan above
// and the sharded store's cross-shard gather deterministic.
func mergeTopP(heaps []neighborMaxHeap, p int) []space.Neighbor {
	n := 0
	for _, h := range heaps {
		n += len(h)
	}
	merged := make([]space.Neighbor, 0, n)
	for _, h := range heaps {
		merged = append(merged, h...)
	}
	space.SortNeighbors(merged)
	if len(merged) > p {
		merged = merged[:p]
	}
	return merged
}

// scanRange scans global positions [lo, hi), splitting the range at the
// base/delta boundary, and returns at most the p best live rows as an
// unsorted bounded max-heap (threaded through both segment scans by
// value, like the pre-segmentation scanShard kernel). clk, when
// non-nil, gets this partition's base/delta scan durations; the scan
// itself is untouched by timing, so results cannot depend on it.
func (s *Segmented[T]) scanRange(qvec, weights []float64, lo, hi, p int, clk *FilterClock) neighborMaxHeap {
	h := make(neighborMaxHeap, 0, p+1)
	bn := s.base.Size()
	if clk == nil {
		if lo < bn {
			h = scanSegment(h, s.base.flat, s.base.dims, s.baseDead, qvec, weights, lo, min(hi, bn), 0, p)
		}
		if hi > bn {
			h = scanSegment(h, s.deltaFlat, s.base.dims, s.deltaDead, qvec, weights, max(lo, bn)-bn, hi-bn, bn, p)
		}
		return h
	}
	if lo < bn {
		t0 := time.Now()
		h = scanSegment(h, s.base.flat, s.base.dims, s.baseDead, qvec, weights, lo, min(hi, bn), 0, p)
		clk.AddBase(time.Since(t0).Nanoseconds())
	}
	if hi > bn {
		t0 := time.Now()
		h = scanSegment(h, s.deltaFlat, s.base.dims, s.deltaDead, qvec, weights, max(lo, bn)-bn, hi-bn, bn, p)
		clk.AddDelta(time.Since(t0).Nanoseconds())
	}
	return h
}

// scanRangeMatch is scanRange driven by match bitsets instead of
// tombstones: positions [lo, hi) split at the base/delta boundary, each
// side scanned by the word-skipping match kernel.
func (s *Segmented[T]) scanRangeMatch(qvec, weights []float64, lo, hi, p int, matchBase, matchDelta bitmap, clk *FilterClock) neighborMaxHeap {
	h := make(neighborMaxHeap, 0, p+1)
	bn := s.base.Size()
	if clk == nil {
		if lo < bn {
			h = scanSegmentMatch(h, s.base.flat, s.base.dims, matchBase, qvec, weights, lo, min(hi, bn), 0, p)
		}
		if hi > bn {
			h = scanSegmentMatch(h, s.deltaFlat, s.base.dims, matchDelta, qvec, weights, max(lo, bn)-bn, hi-bn, bn, p)
		}
		return h
	}
	if lo < bn {
		t0 := time.Now()
		h = scanSegmentMatch(h, s.base.flat, s.base.dims, matchBase, qvec, weights, lo, min(hi, bn), 0, p)
		clk.AddBase(time.Since(t0).Nanoseconds())
	}
	if hi > bn {
		t0 := time.Now()
		h = scanSegmentMatch(h, s.deltaFlat, s.base.dims, matchDelta, qvec, weights, max(lo, bn)-bn, hi-bn, bn, p)
		clk.AddDelta(time.Since(t0).Nanoseconds())
	}
	return h
}

// scanSegmentMatch scans only the match-bitset rows of [lo, hi) in one
// segment's flat block, word-skipping over non-matching runs (trailing-
// zero iteration with edge masking at the range bounds) — for a
// selective predicate the scan touches a fraction of the segment's
// vectors. Match bits are already live-only; the heap discipline and
// the (distance, position) order are exactly scanSegment's.
func scanSegmentMatch(h neighborMaxHeap, flat []float64, dims int, match bitmap, qvec, weights []float64, lo, hi, posOff, p int) neighborMaxHeap {
	push := func(i int, dd float64) {
		n := space.Neighbor{Index: posOff + i, Distance: dd}
		if len(h) < p {
			heap.Push(&h, n)
		} else if less(n, h[0]) {
			h[0] = n
			heap.Fix(&h, 0)
		}
	}
	for w := lo >> 6; w < len(match) && w<<6 < hi; w++ {
		word := match[w]
		base := w << 6
		if base < lo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if rem := hi - base; rem < 64 {
			word &= ^uint64(0) >> uint(64-rem)
		}
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			v := flat[i*dims : i*dims+dims]
			if weights == nil {
				push(i, metrics.L1(qvec, v))
			} else {
				push(i, metrics.WeightedL1Unchecked(weights, qvec, v))
			}
		}
	}
	return h
}

// scanSegment scans rows [lo, hi) of one segment's flat block, skipping
// tombstoned rows, accumulating survivors (offset to global positions by
// posOff) into the bounded max-heap, which it returns: O((hi-lo) log p)
// with no allocation beyond the heap itself. A segment with no tombstones
// (always true for a plain Index searching through its Segmented view)
// takes a dedicated loop with no per-row liveness test, so the hot scan
// is instruction-identical to the pre-segmentation kernel.
func scanSegment(h neighborMaxHeap, flat []float64, dims int, dead bitmap, qvec, weights []float64, lo, hi, posOff, p int) neighborMaxHeap {
	row := flat[lo*dims:]
	push := func(i int, dd float64) {
		n := space.Neighbor{Index: posOff + i, Distance: dd}
		if len(h) < p {
			heap.Push(&h, n)
		} else if less(n, h[0]) {
			h[0] = n
			heap.Fix(&h, 0)
		}
	}
	if len(dead) == 0 {
		for i := lo; i < hi; i++ {
			v := row[:dims]
			row = row[dims:]
			if weights == nil {
				push(i, metrics.L1(qvec, v))
			} else {
				push(i, metrics.WeightedL1Unchecked(weights, qvec, v))
			}
		}
		return h
	}
	for i := lo; i < hi; i++ {
		v := row[:dims]
		row = row[dims:]
		if dead.get(i) {
			continue
		}
		if weights == nil {
			push(i, metrics.L1(qvec, v))
		} else {
			push(i, metrics.WeightedL1Unchecked(weights, qvec, v))
		}
	}
	return h
}
