// Quantized shadow block: an optional 8-bit companion of a Segmented's
// float64 vectors (one code byte per dimension; the base's codes held in
// cluster order, built at quantization/compaction time, the delta's
// appended incrementally in row order) plus the two-phase bound scan
// that consumes it. Phase 1 is the seeded screen, a best-first walk down
// the tree over the base's blocks: it accumulates weighted-L1 lower
// bounds per candidate row from per-query cell tables (internal/vafile)
// while maintaining the p-th smallest upper bound tau, and skips every
// node whose box bound exceeds it; phase 2 evaluates the exact float64
// block only for rows whose lower bound is <= tau. The result is
// bit-identical to the exact scan by construction:
//
//   - every row with upper bound <= tau has true distance <= tau, and at
//     least p such candidate rows exist whenever tau is finite, so a row
//     excluded by lb > tau has true distance strictly above the distances
//     of >= p surviving rows — it cannot be in the top p, whichever key
//     breaks distance ties;
//   - surviving rows flow through the same exact kernels, heaps, and
//     merge as the unquantized scan, producing identical distances in an
//     identical order;
//   - whenever bounds cannot be trusted — a delta row encoded outside the
//     base's boundary range, a query or weight vector the tables reject —
//     the affected rows (or the whole scan) fall back to exact
//     evaluation.
//
// The rows a query skips — tombstoned, or not matching its predicate —
// are excluded from phase 1 entirely: a skipped row's upper bound must
// never tighten tau, or it could evict a selected row from the survivor
// set.
//
// The shadow pays off only on long scans, so one gate (DESIGN §16)
// decides both where a shadow is built (shadowGate) and which queries
// screen it (seedGate); every scan the gate rejects takes the exact scan.
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"qse/internal/par"
	"qse/internal/vafile"
)

// The gate (DESIGN §16). Below it the seeded screen costs more than the
// exact scan it replaces: each shard-query first writes 4 × dims × 256
// bound-table cells and prices the cluster tree's roots, which only a
// long scan earns back.
const (
	// shadowMinRows and shadowMinDims gate the build: a base segment gets
	// a shadow only with at least this many rows and dimensions. 16
	// dimensions is the span sumRow sums between exit checks; no workload
	// has a narrower base, so the value was never measured against
	// another.
	shadowMinRows = 16384
	shadowMinDims = 16
	// seedBaseRowsPerP gates the query: the base must hold at least
	// seedBaseRowsPerP·p rows.
	seedBaseRowsPerP = 128
)

// shadowGate reports whether a base segment of rows × dims gets a shadow.
func shadowGate(rows, dims int) bool {
	return rows >= shadowMinRows && dims >= shadowMinDims
}

// seedGate reports whether a query at p over a shadowed base of bn rows,
// seedable of them live (and matching the filter), takes the seeded
// screen: the base is long enough for p, and it holds p rows, without
// which the walk's bound stays +Inf through the base and skips nothing.
func seedGate(bn, p, seedable int) bool {
	return bn >= seedBaseRowsPerP*p && seedable >= p
}

// quantState is one version's shadow-block state. Like the delta arrays
// it rides the persistent-data-structure discipline: Add copies the
// struct (a few words), appends codes to the shared backing, and
// publishes a new pointer; older versions keep reading their own
// prefixes. A nil bounds marks the dormant state — quantization is on
// but the base segment is below the gate (or empty), so there is no grid
// to encode against and scans stay exact until a compaction folds a base
// that clears it.
type quantState struct {
	bounds *vafile.Boundaries
	// baseShadow is the base segment's codes in cluster order
	// (clusterOrder): BaseSize x Dims bytes, the row at cluster position
	// i being base row order[i]. Block b is cluster positions
	// [starts[b], starts[b+1]). nodes is the cluster tree over the
	// blocks, roots its top nodes (one per k-means leaf), and
	// boxes[n·2·Dims:] node n's box (vafile.Box over its rows). All are
	// derived from the row-order codes wherever a base shadow is built
	// or restored, never persisted, and immutable and shared across
	// versions like the base itself.
	baseShadow []uint8
	order      []int32
	starts     []int32
	nodes      []treeNode
	roots      []int32
	boxes      []uint8
	// deltaShadow holds the delta rows' codes under the same
	// shared-backing prefix discipline as deltaFlat. deltaUnsafe is
	// aligned with delta rows: true marks a row with a value outside the
	// base's boundary range, whose clamped codes yield no valid bounds —
	// the scan always evaluates such rows exactly and never lets them
	// tighten tau.
	deltaShadow []uint8
	deltaUnsafe []bool
}

// Quantize returns a copy of s with quantization on. A base segment that
// clears the gate (shadowGate) gets an 8-bit shadow block; any other
// leaves the state dormant — no shadow, exact scans — until a compaction
// folds a base that clears it. The receiver is unchanged.
func (s *Segmented[T]) Quantize() (*Segmented[T], error) {
	if !shadowGate(s.base.Size(), s.base.dims) {
		n := *s
		n.quant = &quantState{}
		return &n, nil
	}
	return s.withShadow()
}

// withShadow is Quantize without the gate: equi-populated boundaries
// built from the (non-empty) base segment's flat block, and codes for
// every base and delta row. Tests use it to screen bases below the gate.
func (s *Segmented[T]) withShadow() (*Segmented[T], error) {
	bn := s.base.Size()
	b, err := vafile.BuildBoundaries(s.base.flat, bn, s.base.dims)
	if err != nil {
		return nil, err
	}
	return s.withQuant(b, b.EncodeBlock(s.base.flat, bn)), nil
}

// withQuant returns a copy of s carrying the shadow of grid b and the
// row-order base codes shadow: the codes are permuted into cluster
// order, each node of the cluster tree gets its box, and the delta rows
// are (re)encoded against b.
func (s *Segmented[T]) withQuant(b *vafile.Boundaries, shadow []uint8) *Segmented[T] {
	bn, d := s.base.Size(), s.base.dims
	order, starts, nodes, roots := clusterOrder(shadow, bn, d)
	qs := &quantState{bounds: b, baseShadow: make([]uint8, bn*d), order: order, starts: starts,
		nodes: nodes, roots: roots, boxes: make([]uint8, len(nodes)*2*d)}
	for i, r := range order {
		copy(qs.baseShadow[i*d:(i+1)*d], shadow[int(r)*d:(int(r)+1)*d])
	}
	// A node's children follow it, so boxing the nodes last to first
	// boxes both children before their parent, whose box is then the
	// min and max of theirs.
	for n := len(nodes) - 1; n >= 0; n-- {
		nd, box := nodes[n], qs.box(n)
		if nd.hi-nd.lo == 1 {
			vafile.Box(qs.baseShadow[int(starts[nd.lo])*d:int(starts[nd.hi])*d], d, box)
			continue
		}
		l, r := qs.box(int(nd.kids[0])), qs.box(int(nd.kids[1]))
		for j := 0; j < d; j++ {
			box[j] = min(l[j], r[j])
			box[d+j] = max(l[d+j], r[d+j])
		}
	}
	qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	n := *s
	n.quant = qs
	return &n
}

// Dequantize returns a copy of s without a shadow block; scans revert to
// exact. The receiver is unchanged.
func (s *Segmented[T]) Dequantize() *Segmented[T] {
	n := *s
	n.quant = nil
	return &n
}

// QuantizeFromParts restores persisted quantization state — the width
// the section recorded, the boundary grid and the base segment's shadow
// codes in row order, which it permutes into cluster order — re-encoding
// the delta rows locally (the delta log does not carry codes;
// re-encoding a handful of delta rows is cheap and cannot diverge from
// what Add would have appended). An 8-bit section's grid
// and codes are validated, then kept if the base clears the gate. The
// shadow bytes are trusted to match the base vectors, like the vectors
// are trusted to match the objects. A section without a grid, and one
// written at a narrower width (1 to 7 bits) by an older version, goes
// through Quantize instead: a shadow is derived from the base vectors,
// so it is rebuilt at 8 bits or left dormant below the gate. Widths
// above 8 are rejected.
func (s *Segmented[T]) QuantizeFromParts(bitWidth int, boundsFlat []float64, baseShadow []uint8) (*Segmented[T], error) {
	if bitWidth < 1 || bitWidth > vafile.Bits {
		return nil, fmt.Errorf("retrieval: quantize bits = %d, want 1..%d", bitWidth, vafile.Bits)
	}
	bn, d := s.base.Size(), s.base.dims
	if bitWidth < vafile.Bits || bn == 0 || len(boundsFlat) == 0 {
		return s.Quantize()
	}
	b, err := vafile.FromFlat(boundsFlat, d)
	if err != nil {
		return nil, err
	}
	if len(baseShadow) != bn*d {
		return nil, fmt.Errorf("retrieval: base shadow has %d bytes for %d rows x %d dims (want %d)",
			len(baseShadow), bn, d, bn*d)
	}
	if !shadowGate(bn, d) {
		return s.Quantize()
	}
	return s.withQuant(b, baseShadow), nil
}

// box returns tree node n's box: 2·Dims codes, each dimension's smallest
// code over the node's rows, then its largest.
func (qs *quantState) box(n int) []uint8 {
	w := 2 * qs.bounds.Dims()
	return qs.boxes[n*w : (n+1)*w]
}

// encodeDelta (re)encodes the current delta rows against qs.bounds into
// fresh backing arrays; subsequent Adds append to them.
func (qs *quantState) encodeDelta(deltaFlat []float64, rows int) {
	d := qs.bounds.Dims()
	qs.deltaShadow = make([]uint8, rows*d)
	qs.deltaUnsafe = make([]bool, rows)
	for j := 0; j < rows; j++ {
		qs.deltaUnsafe[j] = !qs.bounds.Encode(deltaFlat[j*d:(j+1)*d], qs.deltaShadow[j*d:(j+1)*d])
	}
}

// appendRow returns a copy of qs with one delta row's codes appended —
// the shadow half of AddWithVectorMeta, same prefix discipline.
func (qs *quantState) appendRow(v []float64, dims int) *quantState {
	n := *qs
	if qs.bounds == nil {
		return &n
	}
	off := len(qs.deltaShadow)
	n.deltaShadow = append(qs.deltaShadow, make([]uint8, dims)...)
	ok := qs.bounds.Encode(v, n.deltaShadow[off:off+dims])
	n.deltaUnsafe = append(qs.deltaUnsafe, !ok)
	return &n
}

// QuantBits returns the shadow block's bit width: vafile.Bits when
// quantization is on (dormant or not), 0 when it is off.
func (s *Segmented[T]) QuantBits() int {
	if s.quant == nil {
		return 0
	}
	return vafile.Bits
}

// QuantBounds returns the persisted shape of the boundary grid (nil when
// quantization is off or dormant). Callers must not modify it.
func (s *Segmented[T]) QuantBounds() []float64 {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	return s.quant.bounds.Flat()
}

// BaseShadow returns a fresh copy of the base segment's shadow codes in
// row order (nil when quantization is off or dormant) — the persist
// shape QuantizeFromParts restores.
func (s *Segmented[T]) BaseShadow() []uint8 {
	qs := s.quant
	if qs == nil || qs.bounds == nil {
		return nil
	}
	d := s.base.dims
	out := make([]uint8, len(qs.baseShadow))
	for i, r := range qs.order {
		copy(out[int(r)*d:(int(r)+1)*d], qs.baseShadow[i*d:(i+1)*d])
	}
	return out
}

// ShadowBytes returns the shadow block's resident size in bytes (0 when
// quantization is off or dormant): the base and delta codes, the cluster
// order's map back to base positions (4 bytes a row), the blocks' first
// positions (4 bytes a block), and the cluster tree: each node's box,
// block range and children (2·Dims + 16 bytes a node), and the roots
// (4 bytes each).
func (s *Segmented[T]) ShadowBytes() int {
	qs := s.quant
	if qs == nil || qs.bounds == nil {
		return 0
	}
	return len(qs.baseShadow) + len(qs.deltaShadow) + 4*len(qs.order) + 4*len(qs.starts) +
		len(qs.boxes) + 16*len(qs.nodes) + 4*len(qs.roots)
}

// boundPrune is phase 1's verdict, consumed by the exact candidate
// scan: the candidate rows with their lower bounds — the base rows the
// walk admitted, in the order it admitted them, then from split on the
// delta rows in ascending position — and the pruning threshold tau (the
// p-th smallest candidate upper bound; +Inf when fewer than p candidates
// had valid bounds). A row missing from cands was excluded against a
// bound that never drops below tau, so the exclusion already holds
// against tau, and phase 2 only needs the final clbs[i] > tau filter for
// rows admitted early. Rows without valid bounds (unsafe delta rows) are
// admitted with a zero lower bound, which never prunes. priced counts
// the boxes the walk priced. parts are the walk's per-worker states,
// which phase 2 reuses as its own.
type boundPrune struct {
	cands  []int32
	clbs   []float64
	split  int
	tau    float64
	priced int
	parts  []*screenState
}

// ubHeap is a max-heap over upper bounds, retaining the p smallest
// offered.
type ubHeap []float64

func (h ubHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// offer keeps ub in the heap if it is among the p smallest upper bounds
// offered so far.
func (h *ubHeap) offer(ub float64, p int) {
	if len(*h) < p {
		*h = append(*h, ub)
		h.siftUp(len(*h) - 1)
	} else if ub < (*h)[0] {
		(*h)[0] = ub
		h.siftDown()
	}
}

func (h ubHeap) siftDown() {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && h[r] > h[l] {
			big = r
		}
		if h[big] <= h[i] {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// bound is the threshold a row's lower bound must not cross: the heap
// top once p upper bounds are in, +Inf before. It is the p-th smallest
// upper bound of some live rows, so it never drops below tau, the p-th
// smallest of all of them.
func (h ubHeap) bound(p int) float64 {
	if len(h) == p {
		return h[0]
	}
	return math.Inf(1)
}

// keyHeap is a min-heap over the walk's (bound, node) keys.
type keyHeap []uint64

func (h *keyHeap) push(k uint64) {
	*h = append(*h, k)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			return
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the least key; the heap must not be empty.
func (h *keyHeap) pop() uint64 {
	s := *h
	k, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			return k
		}
		least := l
		if r := l + 1; r < n && s[r] < s[l] {
			least = r
		}
		if s[least] >= s[i] {
			return k
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// shadowView is the non-generic slice of a Segmented the screen needs:
// the shadow, the base/delta split, and the query's rows (the tombstones
// of an unfiltered query, a filtered one's own skips).
type shadowView struct {
	*quantState
	bn, stride int
	rowSet
}

// seedView applies the query half of the gate: it returns the view the
// seeded screen runs on, or nil — the exact scan — when the segment has
// no shadow or seedGate rejects the query.
func (s *Segmented[T]) seedView(p int, rs rowSet) *shadowView {
	if s.quant == nil || s.quant.bounds == nil || !seedGate(s.base.Size(), p, rs.baseSel) {
		return nil
	}
	return &shadowView{quantState: s.quant, bn: s.base.Size(), stride: s.base.dims, rowSet: rs}
}

// treeWalk is what one screen's workers share: the query's bound tables
// (read only), and under mu the min-heap of (bound, node) keys still to
// visit and the p smallest upper bounds of the rows admitted so far,
// whose top is every worker's bound. A screen takes its treeWalk from
// walkPool and puts it back when phase 1 ends, so the tables and the
// heaps keep their backing arrays from one query to the next.
type treeWalk struct {
	tbl  vafile.Tables
	mu   sync.Mutex
	keys keyHeap
	ubs  ubHeap
	p    int
	mask uint64
}

var walkPool = sync.Pool{New: func() any { return new(treeWalk) }}

// key packs node n and its box bound s into a heap key: the node in the
// low bits (mask), the bound's bits above them. Non-negative floats
// order like their bits, so a key's floor — key&^mask read as a float64
// — never exceeds s, and keys order like their floors.
func (tw *treeWalk) key(s float64, n int32) uint64 {
	return math.Float64bits(s)&^tw.mask | uint64(n)
}

// screenState is one worker's state through a seeded screen: the
// candidates it admitted with their lower bounds, the upper bounds of
// the block it last visited, not yet offered to the shared heap, and its
// scanned and visited rows and priced boxes. touched folds in every byte
// phase 2's touches load: nothing reads it, but storing it keeps the
// compiler from dropping the loads, and each worker stores only into its
// own state.
type screenState struct {
	cands   []int32
	clbs    []float64
	ubs     []float64
	scanned int64
	visited int64
	priced  int
	touched uint64
}

// admit screens one row's codes against bound: a row within it becomes
// a candidate at position pos, and admit returns its upper bound. A
// lower bound crossing the bound — whether the full sum or a partial sum
// RowLowerBounded aborts on — already crosses tau, which is never above
// it, so the row is dropped here instead of re-filtered in phase 2; ub
// >= lb, so a dropped row cannot lower tau either.
func (st *screenState) admit(tbl *vafile.Tables, row []uint8, pos int, bound float64) (ub float64, ok bool) {
	st.visited++
	lb, within := tbl.RowLowerBounded(row, bound)
	if !within {
		return 0, false
	}
	st.cands = append(st.cands, int32(pos))
	st.clbs = append(st.clbs, lb)
	return tbl.RowUpper(row), true
}

// cacheLine is the span of one cache line in bytes: a touch loads one
// element of each line a row spans.
const cacheLine = 64

// touchFloats loads one float64 of each cache line that b[lo:hi] spans —
// its first element, then one at every line boundary past it, lines
// counted from the start of b, which a large allocation places on a page
// boundary — and returns the sum of their bits. The loads do not depend
// on one another, so touching a batch of scattered rows before summing
// any of them overlaps the rows' cache misses instead of queuing one
// behind each row's sum.
func touchFloats(b []float64, lo, hi int) uint64 {
	const perLine = cacheLine / 8
	s := math.Float64bits(b[lo])
	for i := (lo | (perLine - 1)) + 1; i < hi; i += perLine {
		s += math.Float64bits(b[i])
	}
	return s
}

// screenDelta screens the selected delta rows at global positions [lo, hi)
// (all >= bn) in ascending position order into st, offering each
// admitted row's upper bound to ubs and tightening the bound to its top.
func (v *shadowView) screenDelta(st *screenState, tbl *vafile.Tables, ubs *ubHeap, p, lo, hi int) {
	stride := v.stride
	bound := ubs.bound(p)
	for pos := lo; pos < hi; pos++ {
		j := pos - v.bn
		if v.deltaSkip.get(j) {
			continue
		}
		st.scanned++
		if v.deltaUnsafe[j] {
			// No valid bounds: admit unconditionally with a zero lower
			// bound (never pruned, always evaluated) and keep its upper
			// bound out of tau.
			st.cands = append(st.cands, int32(pos))
			st.clbs = append(st.clbs, 0)
			continue
		}
		if ub, ok := st.admit(tbl, v.deltaShadow[j*stride:j*stride+stride], pos, bound); ok {
			ubs.offer(ub, p)
			bound = ubs.bound(p)
		}
	}
}

// The seeded screen (DESIGN §16) is phase 1 as a best-first walk down
// the cluster tree (Hjaltason and Samet's incremental nearest-neighbour
// search over the blocks' nested boxes). The roots' boxes are priced
// first (vafile BoxLower); then each worker repeatedly pops the least
// key of the shared heap: an internal node prices its two children's
// boxes and pushes those within reach, and a block screens its live
// (matching) rows against the bound. A node's box holds its children's,
// and sumRow adds a box's terms in a fixed order, so a child's bound is
// never below its parent's (a serial walk pops keys in non-decreasing
// order), and a node whose bound exceeds BoxStop of the bound holds, in
// its whole subtree, no row that RowLowerBounded admits against the
// bound. The bound never drops below tau, so no skipped row can define
// tau or reach phase 2. After each block a worker offers the block's
// admitted upper bounds to the shared heap and reads the bound back; the
// delta rows are screened after the walk, against its final bound. So
// tau, the rows with lb <= tau and the answers are the same for any
// worker count and schedule; only the rows visited and boxes priced can
// differ.

// walk is one worker's share of the walk. It stops when the heap is
// empty or its least key's floor exceeds BoxStop of the bound (then
// every key's does). It never ends another worker's walk: a worker still
// pricing children may yet push keys within the bound, and then walks
// them itself.
func (v *shadowView) walk(st *screenState, tw *treeWalk) {
	d := v.stride
	tbl := &tw.tbl
	var kids [2]uint64
	nk := 0
	for {
		tw.mu.Lock()
		for _, k := range kids[:nk] {
			tw.keys.push(k)
		}
		for _, ub := range st.ubs {
			tw.ubs.offer(ub, tw.p)
		}
		st.ubs = st.ubs[:0]
		bound := tw.ubs.bound(tw.p)
		stop := tbl.BoxStop(bound)
		if len(tw.keys) == 0 || math.Float64frombits(tw.keys[0]&^tw.mask) > stop {
			tw.mu.Unlock()
			return
		}
		nd := v.nodes[tw.keys.pop()&tw.mask]
		tw.mu.Unlock()
		nk = 0
		if nd.hi-nd.lo > 1 {
			for _, c := range nd.kids {
				if s := tbl.BoxLower(v.box(int(c))); s <= stop {
					kids[nk] = tw.key(s, c)
					nk++
				}
			}
			st.priced += len(nd.kids)
			continue
		}
		for i := int(v.starts[nd.lo]); i < int(v.starts[nd.hi]); i++ {
			if pos := int(v.order[i]); !v.baseSkip.get(pos) {
				if ub, ok := st.admit(tbl, v.baseShadow[i*d:i*d+d], pos, bound); ok {
					st.ubs = append(st.ubs, ub)
				}
			}
		}
	}
}

// screen is phase 1 for one query, the seeded screen over the view
// seedView admitted: the walk down the cluster tree, then the delta rows
// against its final bound. A parallel screen of at least minParallelScan
// rows runs the walk, and phase 2, on par.Workers() workers; any other
// runs on one. It returns nil — the exact scan, no pruning — when the
// query or its weights cannot support valid bounds.
func (s *Segmented[T]) screen(qvec, weights []float64, p int, parallel bool, clk *FilterClock, v *shadowView) *boundPrune {
	total := s.Total()
	if total > math.MaxInt32 {
		return nil
	}
	tw := walkPool.Get().(*treeWalk)
	defer walkPool.Put(tw)
	if !s.quant.bounds.QueryTables(&tw.tbl, qvec, weights) {
		return nil
	}
	w := 1
	if parallel && total >= minParallelScan {
		w = par.Workers()
	}
	tw.p, tw.mask = p, 1<<bits.Len(uint(len(v.nodes)))-1
	tw.keys, tw.ubs = tw.keys[:0], tw.ubs[:0]
	for _, r := range v.roots {
		tw.keys.push(tw.key(tw.tbl.BoxLower(v.box(int(r))), r))
	}
	parts := make([]*screenState, w)
	for i := range parts {
		parts[i] = &screenState{}
	}
	par.Shards(w, w, 2, func(sh, _, _ int) {
		v.walk(parts[sh], tw)
	})

	delta := &screenState{}
	v.screenDelta(delta, &tw.tbl, &tw.ubs, p, v.bn, total)
	nc, visited, priced := 0, delta.visited, len(v.roots)
	for _, pt := range parts {
		nc += len(pt.cands)
		visited += pt.visited
		priced += pt.priced
	}
	pr := &boundPrune{
		cands:  make([]int32, 0, nc+len(delta.cands)),
		clbs:   make([]float64, 0, nc+len(delta.clbs)),
		split:  nc,
		tau:    tw.ubs.bound(p),
		priced: priced,
		parts:  parts,
	}
	for _, pt := range parts {
		pr.cands = append(pr.cands, pt.cands...)
		pr.clbs = append(pr.clbs, pt.clbs...)
	}
	pr.cands = append(pr.cands, delta.cands...)
	pr.clbs = append(pr.clbs, delta.clbs...)
	clk.AddBoundRows(int64(v.baseSel) + delta.scanned)
	clk.AddBoundVisited(visited)
	return pr
}

// scanCandidateChunks runs phase 2 over the full candidate list, chunked
// across the screen's workers when it holds at least minParallelCands
// candidates, and returns the per-chunk heaps for mergeTopP.
func (s *Segmented[T]) scanCandidateChunks(qvec, weights []float64, p int, pr *boundPrune, ids idTables, clk *FilterClock) []*topP {
	all := make([]*topP, len(pr.parts))
	shards := par.Shards(len(pr.parts), len(pr.cands), minParallelCands, func(sh, lo, hi int) {
		all[sh] = s.scanCandidates(qvec, weights, p, pr, lo, hi, ids, clk, pr.parts[sh])
	})
	return all[:shards]
}

// scanCandidates is phase 2 over one chunk [lo, hi) of the candidate
// list: each candidate still within the final tau is evaluated exactly
// against its segment's float64 block, through the same kernels and heap
// discipline as the unpruned scan. pr.split divides the chunk at the
// base/delta boundary for the per-segment stage timers. Chunking the
// candidate list is as partition-safe as chunking the position space:
// mergeTopP is order- and partition-agnostic. st is the worker's state.
func (s *Segmented[T]) scanCandidates(qvec, weights []float64, p int, pr *boundPrune, lo, hi int, ids idTables, clk *FilterClock, st *screenState) *topP {
	h := newTopP(p)
	base, delta := s.exactScans(h, qvec, weights, ids)
	split := min(max(pr.split, lo), hi)
	evald := 0
	if lo < split {
		t0 := time.Now()
		evald += scanCandRows(&base, pr, lo, split, st)
		clk.AddBase(time.Since(t0).Nanoseconds())
	}
	if split < hi {
		t0 := time.Now()
		evald += scanCandRows(&delta, pr, split, hi, st)
		clk.AddDelta(time.Since(t0).Nanoseconds())
	}
	clk.AddBoundExact(int64(evald))
	return h
}

// candBatch is how many candidates phase 2 touches before it evaluates
// any of them.
const candBatch = 256

// scanCandRows evaluates candidates [lo, hi) — all in sc's segment —
// exactly, skipping entries whose lower bound exceeds tau, and returns
// how many it evaluated. It works in batches of candBatch candidates,
// touching the rows of a batch before queuing any.
func scanCandRows(sc *exactScan, pr *boundPrune, lo, hi int, st *screenState) int {
	var touched uint64
	flat, dims, off := sc.flat, sc.dims, sc.posOff
	evald := 0
	for blo := lo; blo < hi; blo += candBatch {
		bhi := min(blo+candBatch, hi)
		for i := blo; i < bhi; i++ {
			if pr.clbs[i] <= pr.tau {
				r := int(pr.cands[i]) - off
				touched += touchFloats(flat, r*dims, r*dims+dims)
			}
		}
		for i := blo; i < bhi; i++ {
			if pr.clbs[i] <= pr.tau {
				sc.add(int(pr.cands[i]) - off)
				evald++
			}
		}
	}
	sc.flush()
	st.touched += touched
	return evald
}
