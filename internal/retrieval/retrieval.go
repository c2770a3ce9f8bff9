// Package retrieval implements the filter-and-refine pipeline of Sec. 8:
// database objects are embedded offline; a query is embedded (a handful of
// exact distance computations), the embedded database is ranked under the
// filter distance (cheap vector arithmetic), the best p candidates are
// re-ranked with the exact distance, and the top k survive.
//
// Retrieval cost is measured exactly as the paper measures it: the number
// of exact distance computations per query (embedding step + refine step);
// the vector arithmetic of the filter step is "a fraction of a second" and
// is reported separately.
//
// The embedded database is stored as one contiguous row-major []float64
// block (object i occupies the dims-wide row starting at i*dims), so the
// filter scan streams through memory instead of chasing per-row pointers.
// Index build, the filter scan and the refine step all fan out over
// GOMAXPROCS goroutines above a size threshold; results are bit-identical
// to serial execution (see internal/par and DESIGN.md §4). The distance
// oracle and embedder must therefore be safe for concurrent use — every
// oracle in this repository is a pure function of its inputs.
package retrieval

import (
	"fmt"
	"math"
	"sync/atomic"

	"qse/internal/par"
	"qse/internal/space"
)

// Parallelism thresholds: below these sizes the serial path runs directly
// on the caller's goroutine. The filter scan does cheap vector arithmetic
// per row, so it needs thousands of rows to amortize a fork-join. Phase
// 2's scattered candidate rows each cost a cache miss instead of a
// streamed read, and each of the seeded screen's block bounds sums 2·d
// table entries, so a few hundred of either already earn one. The
// embed/refine steps call the (typically expensive) exact distance
// oracle, so even small batches benefit.
const (
	minParallelScan  = 4096
	minParallelCands = 256
	minParallelDist  = 32
)

// shrinkFactor governs Remove's capacity watermark: when fewer than
// cap/shrinkFactor slots remain in use, backing storage is reallocated to
// fit, so long Add/Remove churn cannot strand memory.
const shrinkFactor = 4

// Embedder is any embedding method usable in the pipeline: it maps an
// object to a vector at a known exact-distance price. Both core.Model and
// fastmap.Model satisfy it.
type Embedder[T any] interface {
	Embed(x T) []float64
	EmbedCost() int
}

// Weighter is the optional query-sensitive extension: given a query's
// embedding it returns the per-coordinate weights A_i(q) to use in the
// filter distance. core.Model satisfies it; query-insensitive methods
// (FastMap) do not, and their filter distance is the unweighted L1.
type Weighter interface {
	QueryWeights(qvec []float64) []float64
}

// Index is an embedded database ready for filter-and-refine queries.
type Index[T any] struct {
	db []T
	// flat is the embedded database in row-major order: the vector of
	// db[i] is flat[i*dims : (i+1)*dims].
	flat     []float64
	dims     int
	embedder Embedder[T]
	dist     space.Distance[T]
	// ones is a dims-wide vector of 1.0, the weights of a query whose
	// embedder has none: 1·|x| is |x| exactly, so its weighted-L1
	// distances keep the unweighted L1's bits.
	ones []float64
}

// newIndex assembles an index over db and its row-major embedded block.
func newIndex[T any](db []T, flat []float64, dims int, em Embedder[T], dist space.Distance[T]) *Index[T] {
	ones := make([]float64, dims)
	for i := range ones {
		ones[i] = 1
	}
	return &Index[T]{db: db, flat: flat, dims: dims, embedder: em, dist: dist, ones: ones}
}

// BuildIndex embeds every database object offline. The preprocessing cost
// (len(db) * EmbedCost exact distances) is paid here, once; the embedding
// work is spread across GOMAXPROCS goroutines.
func BuildIndex[T any](db []T, dist space.Distance[T], em Embedder[T]) (*Index[T], error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("retrieval: empty database")
	}
	if em == nil {
		return nil, fmt.Errorf("retrieval: nil embedder")
	}
	// Embed the first object serially to learn the dimensionality, then
	// fan the rest out; every row lands in its own slot of the flat block,
	// so the result is identical to a serial build.
	first := em.Embed(db[0])
	dims := len(first)
	ix := newIndex(db, make([]float64, len(db)*dims), dims, em, dist)
	copy(ix.flat[:dims], first)
	// bad records the lowest mismatching row as row<<32|dims (row is always
	// >= 1 here, and row owns the high bits, so taking the minimum packed
	// value yields the same error row regardless of scheduling).
	bad := atomic.Uint64{}
	bad.Store(math.MaxUint64)
	par.For(len(db)-1, minParallelDist, func(lo, hi int) {
		for i := lo + 1; i < hi+1; i++ {
			v := em.Embed(db[i])
			if len(v) != dims {
				packed := uint64(i)<<32 | uint64(len(v))
				for {
					cur := bad.Load()
					if packed >= cur || bad.CompareAndSwap(cur, packed) {
						break
					}
				}
				continue
			}
			copy(ix.flat[i*dims:(i+1)*dims], v)
		}
	})
	if packed := bad.Load(); packed != math.MaxUint64 {
		return nil, fmt.Errorf("retrieval: object %d embedded to %d dims, want %d",
			packed>>32, packed&0xffffffff, dims)
	}
	return ix, nil
}

// FromParts reassembles an index from a previously saved flat vector block
// without re-embedding anything: db and flat must come from the same index
// (len(flat) == len(db)*dims). This is what lets a durable bundle reopen in
// O(decode) instead of O(n · EmbedCost) exact distances. Unlike BuildIndex,
// an empty database is accepted — a store drained by removals must still
// reopen — so dims must be supplied explicitly.
func FromParts[T any](db []T, flat []float64, dims int, dist space.Distance[T], em Embedder[T]) (*Index[T], error) {
	if em == nil {
		return nil, fmt.Errorf("retrieval: nil embedder")
	}
	if dims <= 0 {
		return nil, fmt.Errorf("retrieval: dims = %d, want > 0", dims)
	}
	if len(flat) != len(db)*dims {
		return nil, fmt.Errorf("retrieval: flat block has %d values, want %d objects x %d dims = %d",
			len(flat), len(db), dims, len(db)*dims)
	}
	return newIndex(db, flat, dims, em, dist), nil
}

// Size returns the number of database objects.
func (ix *Index[T]) Size() int { return len(ix.db) }

// Object returns database object i.
func (ix *Index[T]) Object(i int) T { return ix.db[i] }

// Objects returns the database slice itself (callers must not modify it,
// and must not retain it across Add/Remove calls).
func (ix *Index[T]) Objects() []T { return ix.db }

// Flat returns the raw row-major embedded block and its row width — the
// counterpart of FromParts, used to persist an index. The slice is the
// index's own storage, not a copy: callers must not modify it, and must
// not retain it across Add/Remove calls, which may reallocate it.
func (ix *Index[T]) Flat() ([]float64, int) { return ix.flat, ix.dims }

// Dims returns the embedding dimensionality.
func (ix *Index[T]) Dims() int { return ix.dims }

// CheckKP validates the k/p contract shared by every search entry point
// — Index, Segmented, and the sharded store's scatter-gather — so the
// client-visible error text cannot depend on the backend layout.
func CheckKP(k, p int) error {
	if k <= 0 {
		return fmt.Errorf("retrieval: k = %d, want > 0", k)
	}
	if p < k {
		return fmt.Errorf("retrieval: p = %d must be >= k = %d", p, k)
	}
	return nil
}

// QueryDimsError is the shared wrong-query-width rejection, for the same
// reason.
func QueryDimsError(got, want int) error {
	return fmt.Errorf("retrieval: query embedded to %d dims, index has %d", got, want)
}

// ObjectDimsError is the shared wrong-object-width rejection on insert.
func ObjectDimsError(got, want int) error {
	return fmt.Errorf("retrieval: object embedded to %d dims, index has %d", got, want)
}

// Stats reports the cost of one query, in the paper's currency, plus
// wall-clock per-stage timing for observability.
type Stats struct {
	// EmbedDistances is the exact distance count of the embedding step.
	EmbedDistances int
	// RefineDistances is the exact distance count of the refine step (p).
	RefineDistances int
	// Timing is the per-stage duration breakdown of this query. Unlike
	// the distance counts it is nondeterministic; it is excluded from
	// the bit-identity guarantee (compare via WithoutTiming) and never
	// influences which results a query returns.
	Timing Timing
}

// Total returns the total exact distance computations for the query.
func (s Stats) Total() int { return s.EmbedDistances + s.RefineDistances }

// WithoutTiming returns the stats with the timing zeroed — the
// deterministic part, which equivalence tests compare bit for bit.
func (s Stats) WithoutTiming() Stats {
	s.Timing = Timing{}
	return s
}

// Timing is the per-stage duration breakdown of one query through the
// filter-and-refine pipeline. Parallel stages accumulate per-partition
// work time, so a fanned-out filter scan reports total CPU time spent
// scanning, which can exceed the stage's wall time.
type Timing struct {
	// EmbedNanos covers embedding the query (the exact distances of the
	// embedding step) plus computing the query-sensitive weights.
	EmbedNanos int64
	// FilterBaseNanos / FilterDeltaNanos split the filter scan by
	// segment, so a scrape can see delta-scan drag directly.
	FilterBaseNanos  int64
	FilterDeltaNanos int64
	// FilterEvalNanos covers evaluating the query's metadata predicate
	// into per-segment skip bitmaps before the scan consumes them.
	// Always zero for unfiltered queries.
	FilterEvalNanos int64
	// BoundScanNanos covers the seeded shadow screen: building the
	// query's cell tables, the block bounds and their order, accumulating
	// per-row lower bounds, and maintaining the p-th smallest upper bound. Always zero
	// when no screen ran (quantization off, or the size gate sent the
	// query to the exact scan).
	BoundScanNanos int64
	// MergeNanos covers merging per-partition (and, in the sharded
	// store, per-shard) candidate lists and truncating to top-p.
	MergeNanos int64
	// RefineNanos covers the exact-distance re-ranking and final sort.
	RefineNanos int64
	// BoundScannedRows / BoundVisitedRows / BoundExactRows are the bound
	// scan's row counters, not durations: the live (matching) rows the
	// screen covered, the subset whose codes it summed (the rest sat in
	// blocks the walk skipped), and the rows that still had to be
	// evaluated against the exact float64 block (BoundScannedRows -
	// BoundExactRows rows were pruned). All stay zero when no screen ran
	// — the exact scan does not count. A parallel walk's visited count
	// can differ by a few rows between runs; the other two cannot.
	BoundScannedRows int64
	BoundVisitedRows int64
	BoundExactRows   int64
}

// TotalNanos returns the summed stage durations (row counters are not
// durations and do not contribute).
func (t Timing) TotalNanos() int64 {
	return t.EmbedNanos + t.FilterBaseNanos + t.FilterDeltaNanos + t.FilterEvalNanos + t.BoundScanNanos + t.MergeNanos + t.RefineNanos
}

// Add accumulates another breakdown into t (used when batch callers
// aggregate per-query timings).
func (t *Timing) Add(o Timing) {
	t.EmbedNanos += o.EmbedNanos
	t.FilterBaseNanos += o.FilterBaseNanos
	t.FilterDeltaNanos += o.FilterDeltaNanos
	t.FilterEvalNanos += o.FilterEvalNanos
	t.BoundScanNanos += o.BoundScanNanos
	t.MergeNanos += o.MergeNanos
	t.RefineNanos += o.RefineNanos
	t.BoundScannedRows += o.BoundScannedRows
	t.BoundVisitedRows += o.BoundVisitedRows
	t.BoundExactRows += o.BoundExactRows
}

// FilterClock accumulates filter-phase durations from concurrent scan
// partitions: scan kernels add their base/delta segment time with
// atomics, so a parallel filter needs no lock to be timed. The zero
// value is ready to use; a nil *FilterClock drops every reading.
type FilterClock struct {
	base, delta, eval, merge                   atomic.Int64
	bound, boundRows, boundVisited, boundExact atomic.Int64
}

// AddBase/AddDelta/AddMerge accumulate nanoseconds into a stage; like
// every method below, they are no-ops on a nil clock.
func (c *FilterClock) AddBase(ns int64) {
	if c != nil {
		c.base.Add(ns)
	}
}

func (c *FilterClock) AddDelta(ns int64) {
	if c != nil {
		c.delta.Add(ns)
	}
}

func (c *FilterClock) AddMerge(ns int64) {
	if c != nil {
		c.merge.Add(ns)
	}
}

// AddEval accumulates predicate-evaluation time (the skip-bitmap
// pre-pass of a filtered query).
func (c *FilterClock) AddEval(ns int64) {
	if c != nil {
		c.eval.Add(ns)
	}
}

// AddBound accumulates shadow-block bound-scan time.
func (c *FilterClock) AddBound(ns int64) {
	if c != nil {
		c.bound.Add(ns)
	}
}

// AddBoundRows counts rows whose bounds the shadow scan examined.
func (c *FilterClock) AddBoundRows(n int64) {
	if c != nil {
		c.boundRows.Add(n)
	}
}

// AddBoundVisited counts rows whose codes the shadow scan summed.
func (c *FilterClock) AddBoundVisited(n int64) {
	if c != nil {
		c.boundVisited.Add(n)
	}
}

// AddBoundExact counts rows the bound scan could not exclude, which the
// exact scan then evaluated against the float64 block.
func (c *FilterClock) AddBoundExact(n int64) {
	if c != nil {
		c.boundExact.Add(n)
	}
}

// AddTo folds the accumulated filter durations into a Timing.
func (c *FilterClock) AddTo(t *Timing) {
	if c == nil {
		return
	}
	t.FilterBaseNanos += c.base.Load()
	t.FilterDeltaNanos += c.delta.Load()
	t.FilterEvalNanos += c.eval.Load()
	t.BoundScanNanos += c.bound.Load()
	t.MergeNanos += c.merge.Load()
	t.BoundScannedRows += c.boundRows.Load()
	t.BoundVisitedRows += c.boundVisited.Load()
	t.BoundExactRows += c.boundExact.Load()
}

// Search runs filter-and-refine: keep the p best database objects under
// the filter distance, re-rank them with the exact distance, and return
// the k best. If the embedder implements Weighter, the filter distance is
// the query-sensitive D_out of Eq. 11; otherwise it is the unweighted L1.
//
// k and p must be positive; p is clamped to the database size and must be
// at least k to be able to return k results. Fewer than k results — down
// to none at all — is not an error: an index smaller than k (including an
// empty index reassembled by FromParts, e.g. a store drained by removals)
// answers with what it has, so a mutating workload can never turn a valid
// query into a failure.
//
// There is exactly one search engine in this package: an Index searches
// as a Segmented with an empty delta and no tombstones (see view), so the
// two layouts cannot drift apart behaviorally.
func (ix *Index[T]) Search(q T, k, p int) ([]space.Neighbor, Stats, error) {
	return ix.view().search(q, k, p, nil, true)
}

// view wraps the index as a delta-less, tombstone-less Segmented: global
// positions coincide with index positions, the dead bitmaps are empty,
// and the scan partitions [0, n) exactly as the single-segment scan did —
// so delegating through it is behavior- and bit-identical.
func (ix *Index[T]) view() *Segmented[T] { return &Segmented[T]{base: ix} }

// SearchBatch runs Search for every query, pipelining the queries across a
// GOMAXPROCS-sized worker pool (each individual query stays serial, so the
// pool is never oversubscribed). Results and stats are index-aligned with
// queries and byte-identical to calling Search sequentially. If any query
// fails (e.g. it embeds to the wrong dimensionality), the error of the
// lowest-indexed failing query is returned and the results are discarded —
// never a silently nil result row.
func (ix *Index[T]) SearchBatch(queries []T, k, p int) ([][]space.Neighbor, []Stats, error) {
	return ix.view().SearchBatch(queries, k, p)
}

// firstBatchError scans per-query errors in query order — deterministic
// regardless of worker scheduling — and fails the whole batch on the first
// one, annotated with the query's index.
func firstBatchError(results [][]space.Neighbor, stats []Stats, errs []error) ([][]space.Neighbor, []Stats, error) {
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return results, stats, nil
}

// idTables map a segmented index's global positions to the stable IDs
// that break exact filter-distance ties: base[i] is base row i's ID,
// delta[j] delta row j's. A nil table breaks its segment's ties on
// position instead.
type idTables struct {
	base, delta []uint64
}

// ranked is one row in a scan's bounded heap: its filter distance, its
// global position, and the key that breaks exact distance ties — its
// stable ID, or its position when its segment has no ID table.
type ranked struct {
	dist float64
	key  uint64
	pos  int
}

// before is the scan's total order: (distance, key).
func (a ranked) before(b ranked) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.key < b.key
}

// topP keeps the p best rows offered so far (p > 0) as a bounded
// max-heap, the worst on top. Its sift is written out: container/heap's
// Push boxes every row it is given, one allocation per admitted row.
type topP struct {
	p    int
	rows []ranked
}

func newTopP(p int) *topP { return &topP{p: p, rows: make([]ranked, 0, p)} }

// offer ranks the row at global position pos, at filter distance d,
// against the heap. ids is the row's segment's ID table, whose first
// entry is global position off. A row farther than a full heap's top is
// rejected on its distance alone: only a row that enters the heap or
// ties its top reads its ID.
func (h *topP) offer(d float64, pos int, ids []uint64, off int) {
	if len(h.rows) == h.p && d > h.rows[0].dist {
		return
	}
	h.admit(d, pos, ids, off)
}

// admit is offer's slow path, kept out of offer so that offer inlines
// into the per-row loops.
func (h *topP) admit(d float64, pos int, ids []uint64, off int) {
	r := ranked{dist: d, key: uint64(pos), pos: pos}
	if ids != nil {
		r.key = ids[pos-off]
	}
	if len(h.rows) < h.p {
		h.rows = append(h.rows, r)
		h.siftUp(len(h.rows) - 1)
	} else if r.before(h.rows[0]) {
		h.rows[0] = r
		h.siftDown()
	}
}

func (h *topP) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.rows[parent].before(h.rows[i]) {
			return
		}
		h.rows[i], h.rows[parent] = h.rows[parent], h.rows[i]
		i = parent
	}
}

func (h *topP) siftDown() {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h.rows) {
			return
		}
		worst := l
		if r := l + 1; r < len(h.rows) && h.rows[l].before(h.rows[r]) {
			worst = r
		}
		if !h.rows[i].before(h.rows[worst]) {
			return
		}
		h.rows[i], h.rows[worst] = h.rows[worst], h.rows[i]
		i = worst
	}
}

// BruteForce returns the exact k nearest neighbors by scanning the whole
// database (len(db) exact distances) — the baseline every speed-up in the
// paper is measured against.
func (ix *Index[T]) BruteForce(q T, k int) ([]space.Neighbor, Stats) {
	res := space.KNearest(ix.dist, q, ix.db, k)
	return res, Stats{RefineDistances: len(ix.db)}
}

// Add embeds and appends a new database object (Sec. 7.1, dynamic
// datasets): the cost is EmbedCost exact distances, and no retraining
// happens. An object that embeds to the wrong dimensionality is rejected
// with an error — not a panic — so a serving layer can turn a bad insert
// into a 4xx response instead of a crashed request.
func (ix *Index[T]) Add(x T) error {
	v := ix.embedder.Embed(x)
	if len(v) != ix.dims {
		return fmt.Errorf("retrieval: object embedded to %d dims, index has %d", len(v), ix.dims)
	}
	ix.db = append(ix.db, x)
	ix.flat = append(ix.flat, v...)
	return nil
}

// Remove deletes the database object at index i (swap-with-last order is
// NOT used: order is preserved so external ground-truth indexes stay
// aligned; removal is O(n)). When occupancy falls below 1/shrinkFactor of
// capacity the backing arrays are reallocated to fit, so repeated
// Add/Remove cycles do not strand vector storage.
func (ix *Index[T]) Remove(i int) error {
	if i < 0 || i >= len(ix.db) {
		return fmt.Errorf("retrieval: remove index %d out of range [0,%d)", i, len(ix.db))
	}
	ix.db = append(ix.db[:i], ix.db[i+1:]...)
	ix.flat = append(ix.flat[:i*ix.dims], ix.flat[(i+1)*ix.dims:]...)
	if len(ix.db)*shrinkFactor <= cap(ix.db) {
		db := make([]T, len(ix.db))
		copy(db, ix.db)
		ix.db = db
	}
	if len(ix.flat)*shrinkFactor <= cap(ix.flat) {
		flat := make([]float64, len(ix.flat))
		copy(flat, ix.flat)
		ix.flat = flat
	}
	return nil
}
