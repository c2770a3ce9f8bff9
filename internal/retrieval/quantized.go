// Quantized shadow block: an optional 8-bit companion of a Segmented's
// float64 vectors (one code byte per dimension, row-major; built from the
// base segment at quantization/compaction time, appended incrementally
// for the delta) plus the two-phase bound scan that consumes it. Phase 1
// is the seeded screen: it walks the shadow accumulating weighted-L1
// lower bounds per candidate row from per-query cell tables
// (internal/vafile) while maintaining the p-th smallest upper bound tau;
// phase 2 evaluates the exact float64 block only for rows whose lower
// bound is <= tau. The result is bit-identical to the exact scan by
// construction:
//
//   - every row with upper bound <= tau has true distance <= tau, and at
//     least p such candidate rows exist whenever tau is finite, so a row
//     excluded by lb > tau has true distance strictly above the distances
//     of >= p surviving rows — it cannot be in the top p under the
//     (distance, position) total order;
//   - surviving rows flow through the same exact kernels, heaps, and
//     merge as the unquantized scan, producing identical distances in an
//     identical order;
//   - whenever bounds cannot be trusted — a delta row encoded outside the
//     base's boundary range, a query or weight vector the tables reject,
//     no finite seed — the affected rows (or the whole scan) fall back to
//     exact evaluation.
//
// Tombstoned and predicate-excluded rows are excluded from phase 1
// entirely: a dead row's upper bound must never tighten tau, or it could
// evict a live row from the survivor set.
//
// The shadow pays off only on long scans, so one gate (DESIGN §16)
// decides both where a shadow is built (shadowGate) and which queries
// screen it (seedGate); every scan the gate rejects takes the exact scan.
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"qse/internal/metrics"
	"qse/internal/par"
	"qse/internal/space"
	"qse/internal/vafile"
)

// The gate (DESIGN §16). Below it the seeded screen costs more than the
// exact scan it replaces: each shard-query first builds 2 × dims × 256
// bound-table cells, which only a long scan earns back.
const (
	// shadowMinRows and shadowMinDims gate the build: a base segment gets
	// a shadow only with at least this many rows and dimensions (heads
	// span vafile.HeadDims dimensions).
	shadowMinRows = 16384
	shadowMinDims = vafile.HeadDims
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
// screen: the base is long enough for p, and it holds the p rows the
// seed is taken from.
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
	// baseShadow is the base segment's codes: BaseSize x Dims bytes,
	// immutable like the base itself.
	baseShadow []uint8
	// baseHeads is the head block: the first vafile.HeadDims codes of
	// every base row, stored contiguously (BaseSize x HeadDims bytes),
	// so pass 1 of the seeded screen streams only the codes it reads.
	// It is derived from baseShadow wherever a base shadow is built or
	// restored, never persisted, and immutable and shared like it; at
	// exactly HeadDims dimensions it is baseShadow itself.
	baseHeads []uint8
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

// withQuant returns a copy of s carrying the shadow of grid b and base
// codes shadow: the head block is derived from the codes, and the delta
// rows are (re)encoded against b.
func (s *Segmented[T]) withQuant(b *vafile.Boundaries, shadow []uint8) *Segmented[T] {
	qs := &quantState{bounds: b, baseShadow: shadow, baseHeads: headBlock(shadow, s.base.Size(), s.base.dims)}
	qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	n := *s
	n.quant = qs
	return &n
}

// headBlock returns the head block of a rows x dims shadow: the first
// vafile.HeadDims codes of each row, contiguous — the shadow itself when
// it is HeadDims wide.
func headBlock(shadow []uint8, rows, dims int) []uint8 {
	if dims == vafile.HeadDims {
		return shadow
	}
	hb := make([]uint8, rows*vafile.HeadDims)
	for r := range rows {
		copy(hb[r*vafile.HeadDims:(r+1)*vafile.HeadDims], shadow[r*dims:])
	}
	return hb
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
// codes — re-encoding the delta rows locally (the delta log does not
// carry codes; re-encoding a handful of delta rows is cheap and cannot
// diverge from what Add would have appended). An 8-bit section's grid
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

// BaseShadow returns the base segment's shadow codes (nil when
// quantization is off or dormant) — the persist shape QuantizeFromParts
// restores. Callers must not modify it.
func (s *Segmented[T]) BaseShadow() []uint8 {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	return s.quant.baseShadow
}

// ShadowBytes returns the shadow block's resident size in bytes (0 when
// quantization is off or dormant): the base and delta codes, plus the
// head block where it is a copy rather than the base codes themselves.
func (s *Segmented[T]) ShadowBytes() int {
	if s.quant == nil || s.quant.bounds == nil {
		return 0
	}
	n := len(s.quant.baseShadow) + len(s.quant.deltaShadow)
	if s.base.dims != vafile.HeadDims {
		n += len(s.quant.baseHeads)
	}
	return n
}

// boundPrune is phase 1's verdict, consumed by the exact candidate
// scan: the candidate rows (ascending global position) with their lower
// bounds, and the pruning threshold tau (the p-th smallest candidate
// upper bound; +Inf when fewer than p candidates had valid bounds). A
// row missing from cands was excluded against the running bound —
// min(heap top, seed), which never drops below tau — so the exclusion
// already holds against tau, and phase 2 only needs the final
// clbs[i] > tau filter for rows admitted early. Rows without valid
// bounds (unsafe delta rows) are admitted with a zero lower bound,
// which never prunes. parts are the screen's per-worker states, which
// phase 2 reuses as its own.
type boundPrune struct {
	cands []int32
	clbs  []float64
	tau   float64
	parts []*screenState
}

// ubHeap is a max-heap over upper bounds, retaining the p smallest seen
// within one scan partition.
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

// shadowView is the non-generic slice of a Segmented the screening loop
// needs: the shadow blocks, liveness/match bitmaps, and the base/delta
// split.
type shadowView struct {
	bn, stride              int
	baseShadow, deltaShadow []uint8
	heads                   []uint8
	deltaUnsafe             []bool
	baseDead, deltaDead     bitmap
	matchBase, matchDelta   bitmap
	useMatch                bool
}

func (s *Segmented[T]) shadowView(matchBase, matchDelta bitmap, useMatch bool) *shadowView {
	qs := s.quant
	return &shadowView{
		bn: s.base.Size(), stride: s.base.dims,
		baseShadow: qs.baseShadow, deltaShadow: qs.deltaShadow, heads: qs.baseHeads, deltaUnsafe: qs.deltaUnsafe,
		baseDead: s.baseDead, deltaDead: s.deltaDead,
		matchBase: matchBase, matchDelta: matchDelta, useMatch: useMatch,
	}
}

// seedView applies the query half of the gate: it returns the view the
// seeded screen runs on, or nil — the exact scan — when the segment has
// no shadow or seedGate rejects the query.
func (s *Segmented[T]) seedView(p int, matchBase, matchDelta bitmap, useMatch bool) *shadowView {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	v := s.shadowView(matchBase, matchDelta, useMatch)
	if !seedGate(v.bn, p, v.liveBase(0, v.bn)) {
		return nil
	}
	return v
}

// baseLive reports whether base row pos takes part in the scan: live,
// and matching when the scan runs under a filter.
func (v *shadowView) baseLive(pos int) bool {
	if v.useMatch {
		return v.matchBase.get(pos)
	}
	return !v.baseDead.get(pos)
}

// liveBase counts the base rows of [lo, hi) for which baseLive holds.
func (v *shadowView) liveBase(lo, hi int) int {
	if v.useMatch {
		return v.matchBase.countRange(lo, hi)
	}
	return hi - lo - v.baseDead.countRange(lo, hi)
}

// countRange returns the number of set bits at positions [lo, hi).
func (b bitmap) countRange(lo, hi int) int {
	n := 0
	for w := lo >> 6; w < len(b) && w<<6 < hi; w++ {
		word := b[w]
		base := w << 6
		if base < lo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if rem := hi - base; rem < 64 {
			word &= ^uint64(0) >> uint(64-rem)
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// screenState is one worker's state through a seeded screen. In pass 2
// it is a partition's accumulator: the tau heap, the admitted candidates
// with their lower bounds, and the scanned count, with seed capping
// every bound the screen compares against; partitions merge in
// partition order via mergeScreenParts. touched folds in every byte the
// worker's touches load, in the seed, pass 2 and phase 2 alike: nothing
// reads it, but storing it keeps the compiler from dropping the loads,
// and each worker stores only into its own state.
type screenState struct {
	tbl     *vafile.Tables
	p       int
	seed    float64
	ubs     ubHeap
	cands   []int32
	clbs    []float64
	scanned int64
	touched uint64
}

// cacheLine is the span of one cache line in bytes: a touch loads one
// element of each line a row spans.
const cacheLine = 64

// touchCodes loads one byte of each cache line that b[lo:hi] spans — its
// first byte, then one at every line boundary past it, lines counted from
// the start of b, which a large allocation places on a page boundary —
// and returns their sum. The loads do not depend on one another, so
// touching a batch of scattered rows before summing any of them overlaps
// the rows' cache misses instead of queuing one behind each row's sum.
func touchCodes(b []uint8, lo, hi int) uint64 {
	s := uint64(b[lo])
	for i := (lo | (cacheLine - 1)) + 1; i < hi; i += cacheLine {
		s += uint64(b[i])
	}
	return s
}

// touchFloats is touchCodes over a float64 block; lo and hi index
// float64s, eight to a line.
func touchFloats(b []float64, lo, hi int) uint64 {
	const perLine = cacheLine / 8
	s := math.Float64bits(b[lo])
	for i := (lo | (perLine - 1)) + 1; i < hi; i += perLine {
		s += math.Float64bits(b[i])
	}
	return s
}

// bound is the threshold a row's lower bound must not cross: the heap
// top once p upper bounds are in, capped by the seed.
func (st *screenState) bound() float64 {
	if len(st.ubs) == st.p && st.ubs[0] < st.seed {
		return st.ubs[0]
	}
	return st.seed
}

// screenDelta screens the delta rows at global positions [lo, hi) (all
// >= bn) in ascending position order into st. Because the state machine
// is sequential in position, splitting a range into consecutive
// sub-ranges leaves the result byte-identical to one unbroken pass.
func (v *shadowView) screenDelta(st *screenState, lo, hi int) {
	stride := v.stride
	for pos := lo; pos < hi; pos++ {
		j := pos - v.bn
		if v.useMatch {
			if !v.matchDelta.get(j) {
				continue
			}
		} else if v.deltaDead.get(j) {
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
		row := v.deltaShadow[j*stride : j*stride+stride]
		// The bound only shrinks toward the final tau, so a lower bound
		// crossing it — whether the full sum or a partial sum
		// RowLowerBounded aborts on — already crosses tau, and the row
		// can be dropped here instead of re-filtered in phase 2. The
		// exclusion set stays identical for any partitioning: a row
		// surviving to phase 2 under one partitioning has full bound
		// <= tau <= every intermediate bound of any other, so it is
		// admitted everywhere, and droppable rows are droppable
		// everywhere by the same dominance. ub >= lb, so a dropped row
		// cannot improve the heap either, skipping the second table
		// pass.
		lb, within := st.tbl.RowLowerBounded(row, st.bound())
		if !within {
			continue
		}
		st.cands = append(st.cands, int32(pos))
		st.clbs = append(st.clbs, lb)
		st.ubs.offer(st.tbl.RowUpper(row), st.p)
	}
}

// The seeded screen (DESIGN §16) is phase 1 in two passes over the base
// rows. Pass 1 (seedFromHeads) streams the head block, writing every base
// row's head — the lower-bound sum sumRow checks first, over the row's
// first vafile.HeadDims codes — and derives a seed: the p-th smallest
// upper bound among the seedKeepPerP·p live rows with the smallest heads.
// Pass 2 (screenSeeded) drops, block by block and without a branch,
// every row whose head already exceeds seed·inv, and screens the
// survivors against min(heap top, seed), resuming each survivor's lower
// bound from its head; screenDelta then screens the delta rows against
// the same bound. The seed is the p-th smallest upper bound of p distinct
// live rows, so seed >= tau: every exclusion still uses a threshold >=
// tau, and the p rows that define tau (head <= lb <= ub <= tau) are never
// dropped. The seed's rows, pass 2's survivors and phase 2's candidates
// are scattered, so each of those steps touches its batch of rows
// (touchCodes, touchFloats) before it sums any of them.
const (
	// seedKeepPerP·p best-head rows feed the seed.
	seedKeepPerP = 4
	// headChunk is how many heads pass 1 writes before it selects from
	// them, so the selection reads heads that are still in L1.
	headChunk = 2048
	// seedBlock is pass 2's compaction block (a power of two), and the
	// batch of candidates phase 2 touches at a time.
	seedBlock = 256
)

// headBufs recycles pass 1's head buffers: one float64 per base row for
// each in-flight seeded scan.
var headBufs sync.Pool

// headEntry is one pass-1 candidate for the seed: a base row and its
// head, ordered by (head, position).
type headEntry struct {
	h   float64
	pos int32
}

func (a headEntry) less(b headEntry) bool {
	return a.h < b.h || (a.h == b.h && a.pos < b.pos)
}

// headHeap is a max-heap retaining the keep smallest headEntries offered.
type headHeap []headEntry

func (hp *headHeap) offer(e headEntry, keep int) {
	h := *hp
	if len(h) < keep {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h[parent].less(h[i]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		*hp = h
		return
	}
	if !e.less(h[0]) {
		return
	}
	h[0] = e
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && h[l].less(h[r]) {
			big = r
		}
		if !h[i].less(h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// headRange is pass 1 over base rows [lo, hi): it writes their heads
// into heads[lo:hi] and returns the keep live rows of the range with the
// smallest (head, position).
func (v *shadowView) headRange(t *vafile.Tables, heads []float64, lo, hi, keep int) headHeap {
	const hd = vafile.HeadDims
	best := make(headHeap, 0, keep)
	for clo := lo; clo < hi; clo += headChunk {
		chi := min(clo+headChunk, hi)
		chunk := heads[clo:chi]
		t.Heads(v.heads[clo*hd:chi*hd], hd, chunk)
		for i, h := range chunk {
			// Positions ascend, so an equal head never displaces the top.
			if len(best) == keep && !(h < best[0].h) {
				continue
			}
			if pos := clo + i; v.baseLive(pos) {
				best.offer(headEntry{h, int32(pos)}, keep)
			}
		}
	}
	return best
}

// seedFromHeads is pass 1 of the seeded screen, split over as many
// workers as parts: it fills heads (one per base row) and returns the
// seed, the p-th smallest upper bound among the seedKeepPerP·p live base
// rows with the smallest heads — +Inf when fewer than p live base rows
// exist.
func (v *shadowView) seedFromHeads(t *vafile.Tables, heads []float64, p int, parts []*screenState) float64 {
	keep := seedKeepPerP * p
	found := make([]headHeap, len(parts))
	shards := par.Shards(len(parts), v.bn, minParallelScan, func(sh, lo, hi int) {
		found[sh] = v.headRange(t, heads, lo, hi, keep)
	})
	best := found[0]
	for _, pt := range found[1:shards] {
		for _, e := range pt {
			best.offer(e, keep)
		}
	}
	if len(best) < p {
		return math.Inf(1)
	}
	// The seed's rows are scattered across the shadow: each worker
	// touches its share of them, then sums their upper bounds.
	ubs := make([]float64, len(best))
	par.Shards(len(parts), len(best), minParallelCands, func(sh, lo, hi int) {
		var touched uint64
		for _, e := range best[lo:hi] {
			off := int(e.pos) * v.stride
			touched += touchCodes(v.baseShadow, off, off+v.stride)
		}
		for i, e := range best[lo:hi] {
			off := int(e.pos) * v.stride
			ubs[lo+i] = t.RowUpper(v.baseShadow[off : off+v.stride])
		}
		parts[sh].touched += touched
	})
	top := make(ubHeap, 0, p)
	for _, ub := range ubs {
		top.offer(ub, p)
	}
	return top[0]
}

// screenSeeded is pass 2 of the seeded screen over base rows [lo, hi):
// per block it compacts the positions whose head is within stop =
// st.seed·inv (a row whose head exceeds it would abort at sumRow's first
// check against any bound <= seed), keeps the live ones and touches
// their codes, then screens them like screenDelta, their lower bounds
// resumed from the head. Every live row counts as scanned, dropped or
// not, so BoundScannedRows is the number of live (matching) rows.
func (v *shadowView) screenSeeded(st *screenState, lo, hi int, heads []float64, stop float64) {
	st.scanned += int64(v.liveBase(lo, hi))
	stride := v.stride
	var idx [seedBlock]int32
	var touched uint64
	for blo := lo; blo < hi; blo += seedBlock {
		n := 0
		for i, h := range heads[blo:min(blo+seedBlock, hi)] {
			idx[n&(seedBlock-1)] = int32(blo + i)
			keep := 1
			if h > stop {
				keep = 0
			}
			n += keep
		}
		live := 0
		for _, pos := range idx[:n] {
			if v.baseLive(int(pos)) {
				idx[live] = pos
				live++
				touched += touchCodes(v.baseShadow, int(pos)*stride, int(pos)*stride+stride)
			}
		}
		for _, pos := range idx[:live] {
			row := v.baseShadow[int(pos)*stride : int(pos)*stride+stride]
			lb, within := st.tbl.RowLowerBoundedFrom(row, heads[pos], st.bound())
			if !within {
				continue
			}
			st.cands = append(st.cands, pos)
			st.clbs = append(st.clbs, lb)
			st.ubs.offer(st.tbl.RowUpper(row), st.p)
		}
	}
	st.touched += touched
}

// mergeScreenParts folds per-partition screen states (ascending position
// ranges, partition order) into phase 1's verdict. The partition merge
// takes the p-th smallest of the per-partition p-smallest upper bounds,
// which equals the global p-th smallest, so tau (and the whole scan) is
// identical for any partitioning; concatenating candidate lists in
// partition order keeps global positions ascending — phase 2 evaluates
// rows in exactly the order the exact scan would. The verdict keeps the
// parts for phase 2.
func mergeScreenParts(parts []*screenState, p int, clk *FilterClock) *boundPrune {
	var scanned int64
	nc := 0
	merged := make([]float64, 0, len(parts)*p)
	for _, pt := range parts {
		scanned += pt.scanned
		nc += len(pt.cands)
		merged = append(merged, pt.ubs...)
	}
	clk.AddBoundRows(scanned)
	pr := &boundPrune{
		cands: make([]int32, 0, nc),
		clbs:  make([]float64, 0, nc),
		tau:   math.Inf(1),
		parts: parts,
	}
	for _, pt := range parts {
		pr.cands = append(pr.cands, pt.cands...)
		pr.clbs = append(pr.clbs, pt.clbs...)
	}
	if len(merged) >= p {
		sort.Float64s(merged)
		pr.tau = merged[p-1]
	}
	return pr
}

// screen is phase 1 for one query, the seeded screen over the view
// seedView admitted: pass 1 derives the seed from the base rows' heads,
// then the partitions screen their base rows (screenSeeded) and delta
// rows (screenDelta) against it. A parallel screen of at least
// minParallelScan rows splits each step, phase 2 included, over
// par.Workers() workers once the step is long enough: the passes from
// minParallelScan rows, the seed and phase 2 from minParallelCands. Any
// other screen runs on one. It returns nil — the exact scan, no pruning
// — when the query or its weights cannot support valid bounds, or when
// pass 1 finds no finite seed.
func (s *Segmented[T]) screen(qvec, weights []float64, p int, parallel bool, clk *FilterClock, v *shadowView) *boundPrune {
	tbl, ok := s.quant.bounds.QueryTables(qvec, weights)
	if !ok {
		return nil
	}
	total := s.Total()
	if total > math.MaxInt32 {
		return nil
	}
	buf, _ := headBufs.Get().(*[]float64)
	if buf == nil || cap(*buf) < v.bn {
		b := make([]float64, v.bn)
		buf = &b
	}
	defer headBufs.Put(buf)
	heads := (*buf)[:v.bn]
	w := 1
	if parallel && total >= minParallelScan {
		w = par.Workers()
	}
	parts := make([]*screenState, w)
	for i := range parts {
		parts[i] = &screenState{tbl: &tbl, p: p}
	}
	seed := v.seedFromHeads(&tbl, heads, p, parts)
	if !(seed < math.Inf(1)) {
		return nil
	}
	_, inv := tbl.Slack()
	stop := seed * inv
	shards := par.Shards(w, total, minParallelScan, func(sh, lo, hi int) {
		st := parts[sh]
		st.seed = seed
		if lo < v.bn {
			mid := min(hi, v.bn)
			v.screenSeeded(st, lo, mid, heads, stop)
			lo = mid
		}
		v.screenDelta(st, lo, hi)
	})
	return mergeScreenParts(parts[:shards], p, clk)
}

// scanCandidateChunks runs phase 2 over the full candidate list, chunked
// across the screen's workers when it holds at least minParallelCands
// candidates, and returns the per-chunk heaps for mergeTopP.
func (s *Segmented[T]) scanCandidateChunks(qvec, weights []float64, p int, pr *boundPrune, clk *FilterClock) []neighborMaxHeap {
	all := make([]neighborMaxHeap, len(pr.parts))
	shards := par.Shards(len(pr.parts), len(pr.cands), minParallelCands, func(sh, lo, hi int) {
		all[sh] = s.scanCandidates(qvec, weights, p, pr, lo, hi, clk, pr.parts[sh])
	})
	return all[:shards]
}

// scanCandidates is phase 2 over one chunk [lo, hi) of the candidate
// list: each candidate still within the final tau is evaluated exactly
// against its segment's float64 block, through the same kernels and heap
// discipline as the unpruned scan. Candidates are ascending by global
// position, so one binary search splits the chunk at the base/delta
// boundary for the per-segment stage timers. Chunking the candidate
// list is as partition-safe as chunking the position space: mergeTopP
// is order- and partition-agnostic. st is the worker's state.
func (s *Segmented[T]) scanCandidates(qvec, weights []float64, p int, pr *boundPrune, lo, hi int, clk *FilterClock, st *screenState) neighborMaxHeap {
	h := make(neighborMaxHeap, 0, p+1)
	bn, d := s.base.Size(), s.base.dims
	split := lo + sort.Search(hi-lo, func(i int) bool { return int(pr.cands[lo+i]) >= bn })
	evald := 0
	if clk == nil {
		h = scanCandRows(h, s.base.flat, d, 0, qvec, weights, p, pr, lo, split, &evald, st)
		h = scanCandRows(h, s.deltaFlat, d, bn, qvec, weights, p, pr, split, hi, &evald, st)
		return h
	}
	if lo < split {
		t0 := time.Now()
		h = scanCandRows(h, s.base.flat, d, 0, qvec, weights, p, pr, lo, split, &evald, st)
		clk.AddBase(time.Since(t0).Nanoseconds())
	}
	if split < hi {
		t0 := time.Now()
		h = scanCandRows(h, s.deltaFlat, d, bn, qvec, weights, p, pr, split, hi, &evald, st)
		clk.AddDelta(time.Since(t0).Nanoseconds())
	}
	clk.AddBoundExact(int64(evald))
	return h
}

// scanCandRows evaluates candidates [lo, hi) — all in the one segment
// whose flat block starts at global position posOff — against the exact
// kernels, skipping entries whose lower bound exceeds tau. It works in
// batches of seedBlock candidates, touching the rows of a batch before
// evaluating any. evald counts rows actually evaluated.
func scanCandRows(h neighborMaxHeap, flat []float64, dims, posOff int, qvec, weights []float64, p int, pr *boundPrune, lo, hi int, evald *int, st *screenState) neighborMaxHeap {
	push := func(pos int, dd float64) {
		n := space.Neighbor{Index: pos, Distance: dd}
		if len(h) < p {
			heap.Push(&h, n)
		} else if less(n, h[0]) {
			h[0] = n
			heap.Fix(&h, 0)
		}
	}
	var touched uint64
	for blo := lo; blo < hi; blo += seedBlock {
		bhi := min(blo+seedBlock, hi)
		for i := blo; i < bhi; i++ {
			if pr.clbs[i] <= pr.tau {
				r := int(pr.cands[i]) - posOff
				touched += touchFloats(flat, r*dims, r*dims+dims)
			}
		}
		for i := blo; i < bhi; i++ {
			if pr.clbs[i] > pr.tau {
				continue
			}
			pos := int(pr.cands[i])
			r := pos - posOff
			v := flat[r*dims : r*dims+dims]
			*evald++
			if weights == nil {
				push(pos, metrics.L1(qvec, v))
			} else {
				push(pos, metrics.WeightedL1Unchecked(weights, qvec, v))
			}
		}
	}
	st.touched += touched
	return h
}
