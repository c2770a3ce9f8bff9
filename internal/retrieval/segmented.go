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
// delta, or the id tables; a row with metadata adds one copy of the
// delta's metadata bitsets (O(fields · rows/64) words) — and Remove
// costs one bitmap copy (O(rows/64) words). Compact folds delta and
// tombstones back into a fresh single-segment Index when the caller's
// thresholds say so.
//
// Positions are global: base rows keep their base positions, delta row j
// sits at BaseSize()+j. The filter phase ranks rows on (distance, key),
// where the key is the row's stable ID from the caller's ID tables, or
// its position when the caller has none. Search results are bit-identical
// to a freshly compacted index (see DESIGN.md §7): tombstoned rows are
// filtered before the top-p truncation, distances are computed by the
// same kernels on the same vectors, and compaction preserves both the
// relative order of live rows and their IDs, so either order ranks live
// rows identically in both layouts.
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"fmt"
	"math/bits"
	"slices"
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
// is not usable; build one with NewSegmentedWithMeta.
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
	// baseMeta and deltaMeta are the segments' columnar metadata, nil
	// while no row of the segment carries any — the exact pre-metadata
	// representation. deltaMeta grows by meta.Block.Append under the
	// same shared-backing discipline as deltaDB; once non-nil it has
	// exactly len(deltaDB) rows.
	baseMeta  *meta.Block
	deltaMeta *meta.Block
	// quant is the optional quantized shadow block (see quantized.go);
	// nil means exact scans only.
	quant *quantState
}

// NewSegmentedWithMeta wraps a single-segment index as a Segmented with
// an empty delta and no tombstones, the base segment's columnar metadata
// attached. blk must be nil (no metadata) or shaped for exactly
// base.Size() rows (CompactSegmented produces matched pairs).
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

// BaseMetaRows materializes the base segment's metadata as per-row
// records (nil when the base has none) — the persist shape of its
// block.
func (s *Segmented[T]) BaseMetaRows() []meta.Map {
	return s.baseMeta.Records(0, s.base.Size())
}

// DeltaMetaRows materializes the metadata of delta rows [from,
// DeltaLen()) as per-row records (nil when no delta row has any) — the
// window of one delta frame.
func (s *Segmented[T]) DeltaMetaRows(from int) []meta.Map {
	return s.deltaMeta.Records(from, len(s.deltaDB))
}

// Metadata returns the metadata record of the row at global position
// pos, materialized as a fresh Map (nil for a row without metadata).
func (s *Segmented[T]) Metadata(pos int) meta.Map {
	if bn := s.base.Size(); pos >= bn {
		return s.deltaMeta.Row(pos - bn)
	}
	return s.baseMeta.Row(pos)
}

// NewSegmentedFromParts reassembles a Segmented from serialized parts: a
// base index plus a delta segment (objects, row-major vectors), the two
// tombstone bitmaps, and the per-row metadata of both segments (either
// may be nil for "no metadata"), without re-embedding anything. It is
// the deserialization counterpart of DeltaSegment/Tombstoned/
// BaseMetaRows/DeltaMetaRows, used to reopen a base+delta bundle section as
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
	return &Segmented[T]{
		base:      base,
		deltaDB:   deltaDB,
		deltaFlat: deltaFlat,
		baseDead:  bd,
		deltaDead: dd,
		dead:      bd.popcount() + dd.popcount(),
		baseMeta:  meta.NewBlock(baseMeta),
		deltaMeta: meta.NewBlock(deltaMeta),
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
// not type-check. The record's values are copied into the delta's
// columns; md itself is not kept.
func (s *Segmented[T]) AddWithVectorMeta(x T, v []float64, md meta.Map) (*Segmented[T], int, error) {
	if len(v) != s.base.dims {
		return nil, 0, ObjectDimsError(len(v), s.base.dims)
	}
	n := *s
	n.deltaDB = append(s.deltaDB, x)
	n.deltaFlat = append(s.deltaFlat, v...)
	if s.quant != nil {
		n.quant = s.quant.appendRow(v, s.base.dims)
	}
	n.deltaMeta = s.deltaMeta.Append(len(s.deltaDB), md)
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
	return newIndex(db, flat, d, s.base.embedder, s.base.dist)
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
		rows = append(rows, s.deltaMeta.Row(j))
	}
	return ix, meta.NewBlock(rows)
}

// Search runs filter-and-refine over the rows of both segments that
// are live and match pred (nil for every live row): the predicate is a
// query's extra tombstones, applied below the top-p truncation, so p
// candidates are drawn from the matching live rows alone and a selective
// filter never starves the result. Neighbor indices are global
// positions; distances, ordering and the empty-index contract are
// exactly those of Index.Search on the compacted equivalent.
func (s *Segmented[T]) Search(q T, k, p int, pred *meta.Predicate) ([]space.Neighbor, Stats, error) {
	return s.search(q, k, p, pred, true)
}

func (s *Segmented[T]) search(q T, k, p int, pred *meta.Predicate, parallel bool) ([]space.Neighbor, Stats, error) {
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
	candidates, _ := s.FilterLiveMatch(qvec, weights, p, parallel, &clk, pred, nil, nil)
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

// SearchBatch pipelines unfiltered queries across the worker pool like
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
			results[i], stats[i], errs[i] = s.search(queries[i], k, p, nil, false)
		}
	})
	return firstBatchError(results, stats, errs)
}

// rowSet is one query's rows as per-query tombstones: per segment, the
// rows the filter phase skips and the count of rows it selects. Bits
// past a skip bitmap's end are selected, like a tombstone bitmap's.
// filtered marks a predicate's skip bitmaps, which cover every row and
// take the exact scan's set-bit loop (scanSelected).
type rowSet struct {
	baseSkip, deltaSkip bitmap
	baseSel, deltaSel   int
	filtered            bool
}

// selectRows is the first step of the filter phase, and the only one
// that reads pred. For a nil pred the skips are the snapshot's own
// tombstones, shared and never copied. Otherwise they are fresh bitmaps
// of the rows tombstoned or not matching pred, both segments evaluated
// by the column kernels of meta.EvalBlock and timed into clk.
func (s *Segmented[T]) selectRows(pred *meta.Predicate, clk *FilterClock) rowSet {
	bn, dn := s.base.Size(), len(s.deltaDB)
	if pred == nil {
		deltaDead := s.deltaDead.popcount()
		return rowSet{baseSkip: s.baseDead, deltaSkip: s.deltaDead,
			baseSel: bn - (s.dead - deltaDead), deltaSel: dn - deltaDead}
	}
	t0 := time.Now()
	rs := rowSet{filtered: true}
	rs.baseSkip, rs.baseSel = unmatched(pred, s.baseMeta, bn, s.baseDead)
	rs.deltaSkip, rs.deltaSel = unmatched(pred, s.deltaMeta, dn, s.deltaDead)
	clk.AddEval(time.Since(t0).Nanoseconds())
	return rs
}

// unmatched returns one segment's skip bitmap under pred — its rows of
// blk that are dead or do not match — and the count of the rest.
func unmatched(pred *meta.Predicate, blk *meta.Block, rows int, dead bitmap) (bitmap, int) {
	skip := make(bitmap, (rows+63)/64)
	pred.EvalBlock(blk, rows, skip)
	sel := 0
	for w, match := range skip {
		if w < len(dead) {
			match &^= dead[w]
		}
		sel += bits.OnesCount64(match)
		skip[w] = ^match
	}
	return skip, sel
}

// FilterLiveMatch runs only the filter phase, with a precomputed query
// embedding: the p best live rows matching pred (nil for every live
// row) under the filter distance, in ascending (distance, key) order,
// and the count of those rows — the sharded store sums it across shards
// to clamp the global truncation identically to an unsharded store. A
// row's key is its stable ID: baseIDs[i] for base row i, deltaIDs[j] for
// delta row j. Nil tables make the key the row's position; a caller
// passes both tables or neither, since IDs and positions do not compare.
// p is clamped to the selected count first, so p candidates survive
// whenever p such rows exist. weights may be nil for the unweighted L1,
// which the scan sums as the weighted L1 under the index's ones vector:
// 1·|x| is |x| exactly, so every distance keeps the L1's bits. clk
// accumulates the predicate evaluation, the per-segment scan and merge
// durations and the screen's row counters (the store feeds it into the
// query's stage breakdown); a nil clk drops them.
//
// A parallel scan partitions the global position space; the merged
// top-p is unique under the total order (live rows' keys are distinct),
// so the result is identical for any partition count.
func (s *Segmented[T]) FilterLiveMatch(qvec, weights []float64, p int, parallel bool, clk *FilterClock, pred *meta.Predicate, baseIDs, deltaIDs []uint64) ([]space.Neighbor, int) {
	rs := s.selectRows(pred, clk)
	selected := rs.baseSel + rs.deltaSel
	if p > selected {
		p = selected
	}
	if p <= 0 {
		return nil, selected
	}
	if weights == nil {
		weights = s.base.ones
	}
	total := s.Total()
	ids := idTables{baseIDs, deltaIDs}
	var pr *boundPrune
	if v := s.seedView(p, rs); v != nil {
		t0 := time.Now()
		pr = s.screen(qvec, weights, p, parallel, clk, v)
		clk.AddBound(time.Since(t0).Nanoseconds())
	}
	var heaps []*topP
	if pr != nil {
		heaps = s.scanCandidateChunks(qvec, weights, p, pr, ids, clk)
	} else if !parallel || total < minParallelScan {
		heaps = []*topP{s.scanRange(qvec, weights, 0, total, p, rs, ids, clk)}
	} else {
		w := par.Workers()
		all := make([]*topP, w)
		shards := par.Shards(w, total, minParallelScan, func(sh, lo, hi int) {
			all[sh] = s.scanRange(qvec, weights, lo, hi, p, rs, ids, clk)
		})
		heaps = all[:shards]
	}
	t0 := time.Now()
	out := mergeTopP(heaps, p)
	clk.AddMerge(time.Since(t0).Nanoseconds())
	return out, selected
}

// mergeTopP sorts each partition's candidate heap in place and merges
// them with MergeSorted on the (distance, key) total order, keeping the
// p best. No two scanned rows share a key (positions are unique, and so
// are the IDs of live rows), so the merged top-p is a unique set in a
// unique order — the same for any partition of the position space, which
// is what makes the partitioned scan above deterministic.
func mergeTopP(heaps []*topP, p int) []space.Neighbor {
	lists := make([][]ranked, 0, 8) // on the stack up to 8 partitions
	for _, h := range heaps {
		slices.SortFunc(h.rows, func(a, b ranked) int {
			switch {
			case a.before(b):
				return -1
			case b.before(a):
				return 1
			}
			return 0
		})
		lists = append(lists, h.rows)
	}
	top := MergeSorted(lists, p, ranked.before)
	out := make([]space.Neighbor, len(top))
	for i, r := range top {
		out[i] = space.Neighbor{Index: r.pos, Distance: r.dist}
	}
	return out
}

// MergeSorted is a k-way merge: given lists each ascending under the
// strict order before, it returns the first p elements of their union in
// ascending order. When the order is total over the union (no two
// elements tie), the result is the same for any split of the union into
// lists. It consumes the lists: each list header is advanced past the
// elements taken, and a single list comes back as a prefix of itself,
// not a copy.
func MergeSorted[E any](lists [][]E, p int, before func(a, b E) bool) []E {
	if len(lists) == 1 {
		return lists[0][:min(p, len(lists[0]))]
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]E, 0, min(p, n))
	for len(out) < cap(out) {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || before(l[0], lists[best][0])) {
				best = i
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}

// scanRange scans the selected rows of global positions [lo, hi),
// splitting the range at the base/delta boundary, and returns at most
// the p best in a bounded heap that both segment scans fill. clk gets
// this partition's base/delta scan durations.
func (s *Segmented[T]) scanRange(qvec, weights []float64, lo, hi, p int, rs rowSet, ids idTables, clk *FilterClock) *topP {
	h := newTopP(p)
	base, delta := s.exactScans(h, qvec, weights, ids)
	bn := s.base.Size()
	if lo < bn {
		t0 := time.Now()
		base.scan(rs.filtered, rs.baseSkip, lo, min(hi, bn))
		clk.AddBase(time.Since(t0).Nanoseconds())
	}
	if hi > bn {
		t0 := time.Now()
		delta.scan(rs.filtered, rs.deltaSkip, max(lo, bn)-bn, hi-bn)
		clk.AddDelta(time.Since(t0).Nanoseconds())
	}
	return h
}

// exactScan evaluates one segment's rows exactly for one query and
// offers them to the bounded heap h: the segment's flat block, its ID
// table ids and the global position posOff of its first row. Every exact
// loop queues the rows it selects with add, and every fourth queued row
// sums the four side by side (metrics.WeightedL1x4, each distance with
// WeightedL1Unchecked's bits); flush sums the last zero to three rows
// one at a time. The heap's p best under (distance, key) are one unique
// set whatever order rows are offered in, so batching changes no answer.
type exactScan struct {
	h             *topP
	flat          []float64
	dims          int
	ids           []uint64
	posOff        int
	qvec, weights []float64
	queued        [4]int
	n             int
}

// exactScans returns the exact scans of s's base and delta segments for
// one query, both offering to h.
func (s *Segmented[T]) exactScans(h *topP, qvec, weights []float64, ids idTables) (base, delta exactScan) {
	base = exactScan{h: h, flat: s.base.flat, dims: s.base.dims, ids: ids.base, qvec: qvec, weights: weights}
	delta = base
	delta.flat, delta.ids, delta.posOff = s.deltaFlat, ids.delta, s.base.Size()
	return base, delta
}

// scan evaluates the rows of [lo, hi) that skip does not mark: a
// predicate's skip bitmap (filtered) takes scanSelected, the shared
// tombstones scanSegment. Called directly, not through a function
// value, sc stays on its caller's stack.
func (sc *exactScan) scan(filtered bool, skip bitmap, lo, hi int) {
	if filtered {
		scanSelected(sc, skip, lo, hi)
	} else {
		scanSegment(sc, skip, lo, hi)
	}
}

// add queues segment row r, summing the queue once it holds four rows.
func (sc *exactScan) add(r int) {
	sc.queued[sc.n&3] = r
	sc.n++
	if sc.n == 4 {
		sc.n = 0
		sc.sum4()
	}
}

// sum4 sums the four queued rows side by side and offers them.
func (sc *exactScan) sum4() {
	f, d, off := sc.flat, sc.dims, sc.posOff
	r0, r1, r2, r3 := sc.queued[0], sc.queued[1], sc.queued[2], sc.queued[3]
	s0, s1, s2, s3 := metrics.WeightedL1x4(sc.weights, sc.qvec,
		f[r0*d:r0*d+d], f[r1*d:r1*d+d], f[r2*d:r2*d+d], f[r3*d:r3*d+d])
	sc.h.offer(s0, off+r0, sc.ids, off)
	sc.h.offer(s1, off+r1, sc.ids, off)
	sc.h.offer(s2, off+r2, sc.ids, off)
	sc.h.offer(s3, off+r3, sc.ids, off)
}

// flush sums the rows still queued one at a time and empties the queue.
func (sc *exactScan) flush() {
	d, off := sc.dims, sc.posOff
	for _, r := range sc.queued[:sc.n] {
		sc.h.offer(metrics.WeightedL1Unchecked(sc.weights, sc.qvec, sc.flat[r*d:r*d+d]), off+r, sc.ids, off)
	}
	sc.n = 0
}

// scanSelected evaluates the rows of [lo, hi) of sc's segment that skip
// does not mark, where skip is a predicate's skip bitmap and covers
// every row. It walks the selected rows' set bits a word at a time,
// skipping unselected runs (trailing-zero iteration with edge masking at
// the range bounds), so a selective predicate touches only the selected
// rows' vectors.
func scanSelected(sc *exactScan, skip bitmap, lo, hi int) {
	for w := lo >> 6; w<<6 < hi; w++ {
		word := ^skip[w]
		base := w << 6
		if base < lo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if rem := hi - base; rem < 64 {
			word &= ^uint64(0) >> uint(64-rem)
		}
		for word != 0 {
			sc.add(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	sc.flush()
}

// scanSegment evaluates rows [lo, hi) of sc's segment, skipping the
// rows skip marks (tombstones): O((hi-lo) log p) with no allocation. sc's
// queue must be empty. A segment with no tombstones sums its rows in
// fours straight from their positions, with no per-row test or queuing:
// through the tombstone loop instead, its scan ran a median 1.09× as
// long (6 runs, 0.97–1.21×; 5,000 × 32 rows at p = 100, 2-vCPU KVM Xeon,
// Go 1.24.0).
func scanSegment(sc *exactScan, skip bitmap, lo, hi int) {
	i := lo
	if len(skip) == 0 {
		for ; i+4 <= hi; i += 4 {
			sc.queued = [4]int{i, i + 1, i + 2, i + 3}
			sc.sum4()
		}
	}
	for ; i < hi; i++ {
		if !skip.get(i) {
			sc.add(i)
		}
	}
	sc.flush()
}
