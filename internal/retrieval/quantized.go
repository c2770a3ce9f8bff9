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
	n := *s
	qs := &quantState{bounds: b, baseShadow: b.EncodeBlock(s.base.flat, bn)}
	qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	n.quant = qs
	return &n, nil
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
	n := *s
	qs := &quantState{bounds: b, baseShadow: baseShadow}
	qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	n.quant = qs
	return &n, nil
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

// ShadowBytes returns the shadow block's total footprint in bytes across
// base and delta (0 when quantization is off or dormant) — the memory
// phase 1 streams per query, surfaced as a gauge.
func (s *Segmented[T]) ShadowBytes() int {
	if s.quant == nil || s.quant.bounds == nil {
		return 0
	}
	return len(s.quant.baseShadow) + len(s.quant.deltaShadow)
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
// which never prunes.
type boundPrune struct {
	cands []int32
	clbs  []float64
	tau   float64
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
	deltaUnsafe             []bool
	baseDead, deltaDead     bitmap
	matchBase, matchDelta   bitmap
	useMatch                bool
}

func (s *Segmented[T]) shadowView(matchBase, matchDelta bitmap, useMatch bool) *shadowView {
	qs := s.quant
	return &shadowView{
		bn: s.base.Size(), stride: s.base.dims,
		baseShadow: qs.baseShadow, deltaShadow: qs.deltaShadow, deltaUnsafe: qs.deltaUnsafe,
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

// screenState is one partition's phase-1 accumulator: the tau heap, the
// admitted candidates with their lower bounds, and the scanned count.
// seed caps every bound the screen compares against. Partitions merge
// in partition order via mergeScreenParts.
type screenState struct {
	tbl     *vafile.Tables
	p       int
	seed    float64
	ubs     ubHeap
	cands   []int32
	clbs    []float64
	scanned int64
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
// rows. Pass 1 (seedFromHeads) writes every base row's head — the
// lower-bound sum sumRow checks first, over the row's first
// vafile.HeadDims codes — and derives a seed: the p-th smallest upper
// bound among the seedKeepPerP·p live rows with the smallest heads. Pass
// 2 (screenSeeded) drops, block by block and without a branch, every row
// whose head already exceeds seed·inv, and screens the survivors against
// min(heap top, seed), resuming each survivor's lower bound from its
// head; screenDelta then screens the delta rows against the same bound.
// The seed is the p-th smallest upper bound of p distinct live rows, so
// seed >= tau: every exclusion still uses a threshold >= tau, and the p
// rows that define tau (head <= lb <= ub <= tau) are never dropped.
const (
	// seedKeepPerP·p best-head rows feed the seed.
	seedKeepPerP = 4
	// headChunk is how many heads pass 1 writes before it selects from
	// them, so the selection reads heads that are still in L1.
	headChunk = 2048
	// seedBlock is pass 2's compaction block (a power of two).
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
	best := make(headHeap, 0, keep)
	for clo := lo; clo < hi; clo += headChunk {
		chi := min(clo+headChunk, hi)
		chunk := heads[clo:chi]
		t.Heads(v.baseShadow[clo*v.stride:chi*v.stride], v.stride, chunk)
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

// seedFromHeads is pass 1 of the seeded screen: it fills heads (one per
// base row) and returns the seed, the p-th smallest upper bound among the
// seedKeepPerP·p live base rows with the smallest heads — +Inf when
// fewer than p live base rows exist.
func (v *shadowView) seedFromHeads(t *vafile.Tables, heads []float64, p int, parallel bool) float64 {
	keep := seedKeepPerP * p
	var parts []headHeap
	if !parallel || v.bn < minParallelScan {
		parts = []headHeap{v.headRange(t, heads, 0, v.bn, keep)}
	} else {
		w := par.Workers()
		all := make([]headHeap, w)
		shards := par.Shards(w, v.bn, minParallelScan, func(sh, lo, hi int) {
			all[sh] = v.headRange(t, heads, lo, hi, keep)
		})
		parts = all[:shards]
	}
	best := parts[0]
	for _, pt := range parts[1:] {
		for _, e := range pt {
			best.offer(e, keep)
		}
	}
	if len(best) < p {
		return math.Inf(1)
	}
	ubs := make(ubHeap, 0, p)
	for _, e := range best {
		pos := int(e.pos)
		ubs.offer(t.RowUpper(v.baseShadow[pos*v.stride:pos*v.stride+v.stride]), p)
	}
	return ubs[0]
}

// screenSeeded is pass 2 of the seeded screen over base rows [lo, hi):
// per block it compacts the positions whose head is within stop =
// st.seed·inv (a row whose head exceeds it would abort at sumRow's first
// check against any bound <= seed), then screens the live survivors like
// screenDelta, their lower bounds resumed from the head. Every live row
// counts as scanned, dropped or not, so BoundScannedRows is the number of
// live (matching) rows.
func (v *shadowView) screenSeeded(st *screenState, lo, hi int, heads []float64, stop float64) {
	st.scanned += int64(v.liveBase(lo, hi))
	stride := v.stride
	var idx [seedBlock]int32
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
		for _, pos := range idx[:n] {
			if !v.baseLive(int(pos)) {
				continue
			}
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
}

// mergeScreenParts folds per-partition screen states (ascending position
// ranges, partition order) into phase 1's verdict. The partition merge
// takes the p-th smallest of the per-partition p-smallest upper bounds,
// which equals the global p-th smallest, so tau (and the whole scan) is
// identical for any partitioning; concatenating candidate lists in
// partition order keeps global positions ascending — phase 2 evaluates
// rows in exactly the order the exact scan would.
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
// rows (screenDelta) against it. It returns nil — the exact scan, no
// pruning — when the query or its weights cannot support valid bounds,
// or when pass 1 finds no finite seed.
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
	seed := v.seedFromHeads(&tbl, heads, p, parallel)
	if !(seed < math.Inf(1)) {
		return nil
	}
	_, inv := tbl.Slack()
	stop := seed * inv
	run := func(lo, hi int) *screenState {
		st := &screenState{tbl: &tbl, p: p, seed: seed}
		if lo < v.bn {
			mid := min(hi, v.bn)
			v.screenSeeded(st, lo, mid, heads, stop)
			lo = mid
		}
		v.screenDelta(st, lo, hi)
		return st
	}
	var parts []*screenState
	if !parallel || total < minParallelScan {
		parts = []*screenState{run(0, total)}
	} else {
		w := par.Workers()
		all := make([]*screenState, w)
		shards := par.Shards(w, total, minParallelScan, func(sh, lo, hi int) {
			all[sh] = run(lo, hi)
		})
		parts = all[:shards]
	}
	return mergeScreenParts(parts, p, clk)
}

// scanCandidateChunks runs phase 2 over the full candidate list,
// chunked across workers when it is long enough to parallelize, and
// returns the per-chunk heaps for mergeTopP.
func (s *Segmented[T]) scanCandidateChunks(qvec, weights []float64, p int, parallel bool, pr *boundPrune, clk *FilterClock) []neighborMaxHeap {
	n := len(pr.cands)
	if !parallel || n < minParallelScan {
		return []neighborMaxHeap{s.scanCandidates(qvec, weights, p, pr, 0, n, clk)}
	}
	w := par.Workers()
	all := make([]neighborMaxHeap, w)
	shards := par.Shards(w, n, minParallelScan, func(sh, lo, hi int) {
		all[sh] = s.scanCandidates(qvec, weights, p, pr, lo, hi, clk)
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
// is order- and partition-agnostic.
func (s *Segmented[T]) scanCandidates(qvec, weights []float64, p int, pr *boundPrune, lo, hi int, clk *FilterClock) neighborMaxHeap {
	h := make(neighborMaxHeap, 0, p+1)
	bn, d := s.base.Size(), s.base.dims
	split := lo + sort.Search(hi-lo, func(i int) bool { return int(pr.cands[lo+i]) >= bn })
	evald := 0
	if clk == nil {
		h = scanCandRows(h, s.base.flat, d, 0, qvec, weights, p, pr, lo, split, &evald)
		h = scanCandRows(h, s.deltaFlat, d, bn, qvec, weights, p, pr, split, hi, &evald)
		return h
	}
	if lo < split {
		t0 := time.Now()
		h = scanCandRows(h, s.base.flat, d, 0, qvec, weights, p, pr, lo, split, &evald)
		clk.AddBase(time.Since(t0).Nanoseconds())
	}
	if split < hi {
		t0 := time.Now()
		h = scanCandRows(h, s.deltaFlat, d, bn, qvec, weights, p, pr, split, hi, &evald)
		clk.AddDelta(time.Since(t0).Nanoseconds())
	}
	clk.AddBoundExact(int64(evald))
	return h
}

// scanCandRows evaluates candidates [lo, hi) — all in the one segment
// whose flat block starts at global position posOff — against the exact
// kernels, skipping entries whose lower bound exceeds tau. evald counts
// rows actually evaluated.
func scanCandRows(h neighborMaxHeap, flat []float64, dims, posOff int, qvec, weights []float64, p int, pr *boundPrune, lo, hi int, evald *int) neighborMaxHeap {
	push := func(pos int, dd float64) {
		n := space.Neighbor{Index: pos, Distance: dd}
		if len(h) < p {
			heap.Push(&h, n)
		} else if less(n, h[0]) {
			h[0] = n
			heap.Fix(&h, 0)
		}
	}
	for i := lo; i < hi; i++ {
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
	return h
}
