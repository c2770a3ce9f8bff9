// Quantized shadow block: an optional packed companion of a Segmented's
// float64 vectors (bits ∈ {1,2,4,8} per dimension, row-major packed so a
// 4-bit shadow stores two dimensions per byte; built from the base
// segment at quantization/compaction time, appended incrementally for
// the delta) plus the two-phase bound scan that consumes it. Phase 1
// walks the packed shadow accumulating weighted-L1 lower bounds per
// candidate row from per-query cell tables (internal/vafile) while
// maintaining the p-th smallest upper bound tau; phase 2 evaluates the
// exact float64 block only for rows whose lower bound is <= tau. The
// result is bit-identical to the exact scan by construction:
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
//     fewer than p bounded candidates — the affected rows (or the whole
//     scan) fall back to exact evaluation.
//
// Tombstoned and predicate-excluded rows are excluded from phase 1
// entirely: a dead row's upper bound must never tighten tau, or it could
// evict a live row from the survivor set.
//
// A large 8-bit base segment runs phase 1 as the seeded screen: a first
// pass over every base row's head sets a seed for tau before the screen
// proper starts (see screenSeeded).
//
// This file also hosts the scan kernels themselves. The sub-byte widths
// never materialize unpacked codes: each kernel extracts fields with a
// shift-and-mask and indexes fixed-stride [16]float64 per-dimension
// tables (vafile.Tables.Tab16) with a value the compiler can prove < 16,
// so the innermost loop carries no bounds checks. The vafile package
// keeps the packed layout and the table math (property-tested and fuzzed
// in isolation); this file owns the traversal — per-row unrolling,
// early-abort, and the two passes of the seeded screen.
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

// quantState is one version's shadow-block state. Like the delta arrays
// it rides the persistent-data-structure discipline: Add copies the
// struct (a few words), appends packed codes to the shared backing, and
// publishes a new pointer; older versions keep reading their own
// prefixes. A nil bounds marks the dormant state — quantization is
// requested (bits recorded) but the base segment is empty, so there is
// no grid to encode against and scans stay exact until a compaction
// folds rows into a base.
type quantState struct {
	bits int
	// stride is the packed row width in bytes:
	// vafile.PackedStride(dims, bits). At 4 bits it is half the
	// dimensionality — the whole point.
	stride int
	bounds *vafile.Boundaries
	// baseShadow is the base segment's packed codes: BaseSize x stride
	// bytes, immutable like the base itself.
	baseShadow []uint8
	// deltaShadow holds the delta rows' packed codes under the same
	// shared-backing prefix discipline as deltaFlat. deltaUnsafe is
	// aligned with delta rows: true marks a row with a value outside the
	// base's boundary range, whose clamped codes yield no valid bounds —
	// the scan always evaluates such rows exactly and never lets them
	// tighten tau.
	deltaShadow []uint8
	deltaUnsafe []bool
}

// Quantize returns a copy of s carrying a bits-wide packed shadow block:
// equi-populated boundaries built from the base segment's flat block,
// packed codes for every base and delta row. Only the byte-tiling widths
// 1, 2, 4, and 8 are supported — a code never straddles a byte, which is
// what the unrolled kernels and the packed persistence format rely on.
// With an empty base the state is dormant (recorded bits, exact scans)
// until compaction. The receiver is unchanged.
func (s *Segmented[T]) Quantize(bitWidth int) (*Segmented[T], error) {
	if !vafile.PackedWidth(bitWidth) {
		return nil, fmt.Errorf("retrieval: quantize bits = %d, want 1, 2, 4, or 8", bitWidth)
	}
	n := *s
	qs := &quantState{bits: bitWidth, stride: vafile.PackedStride(s.base.dims, bitWidth)}
	if bn := s.base.Size(); bn > 0 {
		b, err := vafile.BuildBoundaries(s.base.flat, bn, s.base.dims, bitWidth)
		if err != nil {
			return nil, err
		}
		qs.bounds = b
		qs.baseShadow = b.EncodePackedBlock(s.base.flat, bn)
		qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	}
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

// QuantizeFromParts restores persisted quantization state — the boundary
// grid and the base segment's shadow codes — re-encoding the delta rows
// locally (the delta log does not carry codes; re-encoding a handful of
// delta rows is cheap and cannot diverge from what Add would have
// appended). An empty grid triggers a full rebuild via Quantize, so a
// section that recorded only the bit width still opens quantized. The
// shadow bytes are trusted to match the base vectors, like the vectors
// are trusted to match the objects; shapes, pad bits, and (for the
// legacy layout) code ranges are validated.
//
// Two base-shadow layouts open: the packed layout this version writes
// (bn x PackedStride bytes; every field of a packed row is a valid code
// by construction since cells fills the field range exactly, so only
// the pad bits after the last dimension need checking) and the legacy
// one-byte-per-dimension layout older bundles carry for sub-byte widths
// (bn x dims bytes — repacked here once at open; the shapes cannot
// collide because stride < dims exactly when bits < 8). Legacy widths
// that do not tile bytes (3, 5, 6, 7) no longer have a storage format
// and are rejected loudly.
func (s *Segmented[T]) QuantizeFromParts(bitWidth int, boundsFlat []float64, baseShadow []uint8) (*Segmented[T], error) {
	if !vafile.PackedWidth(bitWidth) {
		return nil, fmt.Errorf("retrieval: quantize bits = %d, want 1, 2, 4, or 8 (width no longer supported; re-quantize via SetQuantization)", bitWidth)
	}
	bn, d := s.base.Size(), s.base.dims
	if bn == 0 || len(boundsFlat) == 0 {
		return s.Quantize(bitWidth)
	}
	b, err := vafile.FromFlat(boundsFlat, d, bitWidth)
	if err != nil {
		return nil, err
	}
	stride := vafile.PackedStride(d, bitWidth)
	switch {
	case len(baseShadow) == bn*stride:
		if pad := stride*8 - d*bitWidth; pad > 0 {
			mask := uint8(0xff) << (8 - pad)
			for r := 0; r < bn; r++ {
				if baseShadow[(r+1)*stride-1]&mask != 0 {
					return nil, fmt.Errorf("retrieval: base shadow row %d has nonzero pad bits", r)
				}
			}
		}
	case bitWidth < 8 && len(baseShadow) == bn*d:
		cells := b.Cells()
		for i, c := range baseShadow {
			if int(c) >= cells {
				return nil, fmt.Errorf("retrieval: base shadow code %d at offset %d, want < %d cells", c, i, cells)
			}
		}
		packed := make([]uint8, bn*stride)
		for r := 0; r < bn; r++ {
			vafile.PackRow(baseShadow[r*d:(r+1)*d], bitWidth, packed[r*stride:(r+1)*stride])
		}
		baseShadow = packed
	default:
		return nil, fmt.Errorf("retrieval: base shadow has %d bytes for %d rows x %d dims at %d bits (want %d)",
			len(baseShadow), bn, d, bitWidth, bn*stride)
	}
	n := *s
	qs := &quantState{bits: bitWidth, stride: stride, bounds: b, baseShadow: baseShadow}
	qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	n.quant = qs
	return &n, nil
}

// encodeDelta (re)encodes the current delta rows against qs.bounds into
// fresh backing arrays; subsequent Adds append to them.
func (qs *quantState) encodeDelta(deltaFlat []float64, rows int) {
	d, stride := qs.bounds.Dims(), qs.stride
	qs.deltaShadow = make([]uint8, rows*stride)
	qs.deltaUnsafe = make([]bool, rows)
	for j := 0; j < rows; j++ {
		qs.deltaUnsafe[j] = !qs.bounds.EncodePacked(deltaFlat[j*d:(j+1)*d], qs.deltaShadow[j*stride:(j+1)*stride])
	}
}

// appendRow returns a copy of qs with one delta row's packed codes
// appended — the shadow half of AddWithVectorMeta, same prefix
// discipline.
func (qs *quantState) appendRow(v []float64, dims int) *quantState {
	n := *qs
	if qs.bounds == nil {
		return &n
	}
	off := len(qs.deltaShadow)
	n.deltaShadow = append(qs.deltaShadow, make([]uint8, qs.stride)...)
	ok := qs.bounds.EncodePacked(v, n.deltaShadow[off:off+qs.stride])
	n.deltaUnsafe = append(qs.deltaUnsafe, !ok)
	return &n
}

// QuantBits returns the shadow block's bit width (0 when quantization is
// off).
func (s *Segmented[T]) QuantBits() int {
	if s.quant == nil {
		return 0
	}
	return s.quant.bits
}

// QuantBounds returns the persisted shape of the boundary grid (nil when
// quantization is off or dormant). Callers must not modify it.
func (s *Segmented[T]) QuantBounds() []float64 {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	return s.quant.bounds.Flat()
}

// BaseShadow returns the base segment's packed shadow codes (nil when
// quantization is off or dormant) — the persist shape QuantizeFromParts
// restores. Callers must not modify it.
func (s *Segmented[T]) BaseShadow() []uint8 {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	return s.quant.baseShadow
}

// ShadowBytes returns the packed shadow block's total footprint in bytes
// across base and delta (0 when quantization is off or dormant) — the
// memory phase 1 streams per query, surfaced as a gauge so width changes
// are observable.
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
// row missing from cands was excluded against an intermediate heap top,
// which only ever shrinks toward tau — so the exclusion already holds
// against tau, and phase 2 only needs the final clbs[i] > tau filter
// for rows admitted early. Rows without valid bounds (unsafe delta
// rows) are admitted with a zero lower bound, which never prunes.
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

// rowKernel is one query's bound kernels over one packed shadow row,
// built once per (query, width) by newKernel so the per-row dispatch is
// a single indirect call instead of a width switch inside the scan.
type rowKernel struct {
	// lowerBounded returns a valid lower bound and whether it is <=
	// bound, aborting early (+Inf, false) once the partial sum already
	// crosses it.
	lowerBounded func(row []uint8, bound float64) (lb float64, within bool)
	// lower is the unconditional lower bound, used while the tau heap is
	// still filling.
	lower func(row []uint8) float64
	// upper is the row's upper bound (tau candidates).
	upper func(row []uint8) float64
}

// newKernel builds the packed-width kernels for one query's tables. An
// 8-bit packed row is one byte per dimension, so the vafile row methods
// (with their own 8-codes-per-load fast path) apply directly; the
// sub-byte widths run the shift-and-mask kernels below over the
// fixed-stride [16]float64 tables. The reordering-slack discipline is
// identical to Tables.RowLowerBounded/RowUpper: the reassociated sum is
// compared against bound*inv, a returned lower bound is discounted by
// mrel, an upper bound padded by it — so every bound the kernels emit
// brackets the exact kernel's sequentially-rounded distance.
func newKernel(t *vafile.Tables, bits int) rowKernel {
	if bits == 8 {
		return rowKernel{lowerBounded: t.RowLowerBounded, lower: t.RowLower, upper: t.RowUpper}
	}
	var sum func(t16 [][16]float64, row []uint8, stop float64) (float64, bool)
	switch bits {
	case 4:
		sum = sumPacked4
	case 2:
		sum = sumPacked2
	default:
		sum = sumPacked1
	}
	lb16, ub16 := t.Tab16()
	mrel, inv := t.Slack()
	return rowKernel{
		lowerBounded: func(row []uint8, bound float64) (float64, bool) {
			s, aborted := sum(lb16, row, bound*inv)
			if aborted {
				return math.Inf(1), false
			}
			lb := s - s*mrel
			if lb < 0 {
				lb = 0
			}
			return lb, lb <= bound
		},
		lower: func(row []uint8) float64 {
			s, _ := sum(lb16, row, math.Inf(1))
			lb := s - s*mrel
			if lb < 0 {
				lb = 0
			}
			return lb
		},
		upper: func(row []uint8) float64 {
			s, _ := sum(ub16, row, math.Inf(1))
			return s + s*mrel
		},
	}
}

// sumPacked4 sums one [16]float64 table entry per dimension over a 4-bit
// packed row (two dimensions per byte, low nibble first), aborting once
// the partial sum exceeds stop. Four independent accumulators break the
// float-add dependency chain; the main loop covers sixteen dimensions
// (eight bytes) per exit check. Re-slicing the tables and the row to
// fixed-length windows plus the provably-<16 nibble indices eliminate
// every bounds check from the loop body.
func sumPacked4(t16 [][16]float64, row []uint8, stop float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	dims := len(t16)
	i, d := 0, 0
	for ; d+16 <= dims; i, d = i+8, d+16 {
		t := t16[d : d+16 : d+16]
		r := row[i : i+8 : i+8]
		b := r[0]
		s0 += t[0][b&15]
		s1 += t[1][b>>4]
		b = r[1]
		s2 += t[2][b&15]
		s3 += t[3][b>>4]
		b = r[2]
		s0 += t[4][b&15]
		s1 += t[5][b>>4]
		b = r[3]
		s2 += t[6][b&15]
		s3 += t[7][b>>4]
		b = r[4]
		s0 += t[8][b&15]
		s1 += t[9][b>>4]
		b = r[5]
		s2 += t[10][b&15]
		s3 += t[11][b>>4]
		b = r[6]
		s0 += t[12][b&15]
		s1 += t[13][b>>4]
		b = r[7]
		s2 += t[14][b&15]
		s3 += t[15][b>>4]
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d+2 <= dims; i, d = i+1, d+2 {
		b := row[i]
		s0 += t16[d][b&15]
		s1 += t16[d+1][b>>4]
	}
	if d < dims {
		// Odd dimension count: the last byte's high nibble is padding.
		s0 += t16[d][row[i]&15]
	}
	s := s0 + s1 + s2 + s3
	return s, s > stop
}

// sumPacked2 is sumPacked4 at 2 bits: four dimensions per byte, sixteen
// dimensions (four bytes) per exit check.
func sumPacked2(t16 [][16]float64, row []uint8, stop float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	dims := len(t16)
	i, d := 0, 0
	for ; d+16 <= dims; i, d = i+4, d+16 {
		t := t16[d : d+16 : d+16]
		r := row[i : i+4 : i+4]
		b := r[0]
		s0 += t[0][b&3]
		s1 += t[1][(b>>2)&3]
		s2 += t[2][(b>>4)&3]
		s3 += t[3][b>>6]
		b = r[1]
		s0 += t[4][b&3]
		s1 += t[5][(b>>2)&3]
		s2 += t[6][(b>>4)&3]
		s3 += t[7][b>>6]
		b = r[2]
		s0 += t[8][b&3]
		s1 += t[9][(b>>2)&3]
		s2 += t[10][(b>>4)&3]
		s3 += t[11][b>>6]
		b = r[3]
		s0 += t[12][b&3]
		s1 += t[13][(b>>2)&3]
		s2 += t[14][(b>>4)&3]
		s3 += t[15][b>>6]
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d+4 <= dims; i, d = i+1, d+4 {
		b := row[i]
		s0 += t16[d][b&3]
		s1 += t16[d+1][(b>>2)&3]
		s2 += t16[d+2][(b>>4)&3]
		s3 += t16[d+3][b>>6]
	}
	if d < dims {
		b := row[i]
		for sh := 0; d < dims; d, sh = d+1, sh+2 {
			s0 += t16[d][(b>>sh)&3]
		}
	}
	s := s0 + s1 + s2 + s3
	return s, s > stop
}

// sumPacked1 is sumPacked4 at 1 bit: eight dimensions per byte, sixteen
// dimensions (two bytes) per exit check.
func sumPacked1(t16 [][16]float64, row []uint8, stop float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	dims := len(t16)
	i, d := 0, 0
	for ; d+16 <= dims; i, d = i+2, d+16 {
		t := t16[d : d+16 : d+16]
		b := row[i]
		s0 += t[0][b&1]
		s1 += t[1][(b>>1)&1]
		s2 += t[2][(b>>2)&1]
		s3 += t[3][(b>>3)&1]
		s0 += t[4][(b>>4)&1]
		s1 += t[5][(b>>5)&1]
		s2 += t[6][(b>>6)&1]
		s3 += t[7][b>>7]
		b = row[i+1]
		s0 += t[8][b&1]
		s1 += t[9][(b>>1)&1]
		s2 += t[10][(b>>2)&1]
		s3 += t[11][(b>>3)&1]
		s0 += t[12][(b>>4)&1]
		s1 += t[13][(b>>5)&1]
		s2 += t[14][(b>>6)&1]
		s3 += t[15][b>>7]
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d+8 <= dims; i, d = i+1, d+8 {
		b := row[i]
		s0 += t16[d][b&1]
		s1 += t16[d+1][(b>>1)&1]
		s2 += t16[d+2][(b>>2)&1]
		s3 += t16[d+3][(b>>3)&1]
		s0 += t16[d+4][(b>>4)&1]
		s1 += t16[d+5][(b>>5)&1]
		s2 += t16[d+6][(b>>6)&1]
		s3 += t16[d+7][b>>7]
	}
	if d < dims {
		b := row[i]
		for sh := 0; d < dims; d, sh = d+1, sh+1 {
			s0 += t16[d][(b>>sh)&1]
		}
	}
	s := s0 + s1 + s2 + s3
	return s, s > stop
}

// shadowView is the non-generic slice of a Segmented the screening loop
// needs: the packed shadow blocks, liveness/match bitmaps, and the
// base/delta split.
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
		bn: s.base.Size(), stride: qs.stride,
		baseShadow: qs.baseShadow, deltaShadow: qs.deltaShadow, deltaUnsafe: qs.deltaUnsafe,
		baseDead: s.baseDead, deltaDead: s.deltaDead,
		matchBase: matchBase, matchDelta: matchDelta, useMatch: useMatch,
	}
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
// seed caps every bound the screen compares against (+Inf when the scan
// is unseeded). Partitions merge in partition order via
// mergeScreenParts.
type screenState struct {
	kern    rowKernel
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

// screenRange screens rows [lo, hi) in ascending position order into st.
// Because the state machine is sequential in position, splitting a range
// into consecutive sub-ranges leaves the result byte-identical to one
// unbroken pass.
func (v *shadowView) screenRange(st *screenState, lo, hi int) {
	stride := v.stride
	for pos := lo; pos < hi; pos++ {
		var row []uint8
		if pos < v.bn {
			if !v.baseLive(pos) {
				continue
			}
			row = v.baseShadow[pos*stride : pos*stride+stride]
		} else {
			j := pos - v.bn
			if v.useMatch {
				if !v.matchDelta.get(j) {
					continue
				}
			} else if v.deltaDead.get(j) {
				continue
			}
			if v.deltaUnsafe[j] {
				// No valid bounds: admit unconditionally with a zero
				// lower bound (never pruned, always evaluated) and keep
				// its upper bound out of tau.
				st.scanned++
				st.cands = append(st.cands, int32(pos))
				st.clbs = append(st.clbs, 0)
				continue
			}
			row = v.deltaShadow[j*stride : j*stride+stride]
		}
		st.scanned++
		if len(st.ubs) < st.p && math.IsInf(st.seed, 1) {
			st.cands = append(st.cands, int32(pos))
			st.clbs = append(st.clbs, st.kern.lower(row))
			st.ubs.offer(st.kern.upper(row), st.p)
			continue
		}
		// The heap top only shrinks toward the final tau, so a lower
		// bound crossing it — whether the full sum or a partial sum
		// lowerBounded aborts on — already crosses tau, and the row
		// can be dropped here instead of re-filtered in phase 2. The
		// exclusion set stays identical for any partitioning: a row
		// surviving to phase 2 under one partitioning has full bound
		// <= tau <= every intermediate heap top of any other, so it is
		// admitted everywhere, and droppable rows are droppable
		// everywhere by the same dominance. ub >= lb, so a dropped row
		// cannot improve the heap either, skipping the second table
		// pass.
		lb, within := st.kern.lowerBounded(row, st.bound())
		if !within {
			continue
		}
		st.cands = append(st.cands, int32(pos))
		st.clbs = append(st.clbs, lb)
		st.ubs.offer(st.kern.upper(row), st.p)
	}
}

// The seeded screen (DESIGN §16) splits phase 1 into two passes over the
// base rows of an 8-bit shadow. Pass 1 (seedFromHeads) writes every base
// row's head — the lower-bound sum sumRow checks first, over the row's
// first vafile.HeadDims codes — and derives a seed: the p-th smallest
// upper bound among the seedKeepPerP·p live rows with the smallest
// heads. Pass 2 (screenSeeded) drops, block by block and without a
// branch, every row whose head already exceeds seed·inv, and runs the
// screenRange state machine on the survivors against min(heap top,
// seed), resuming each survivor's lower bound from its head. The seed is
// the p-th smallest upper bound of p distinct live rows, so seed >= tau:
// every exclusion still uses a threshold >= tau, and the p rows that
// define tau (head <= lb <= ub <= tau) are never dropped. Tau, the
// phase-2 set and the answers are those of the unseeded screen; what
// changes is how many rows reach the candidate lists.
const (
	// seedMinBase and seedBaseRowsPerP gate the seeded screen on scan
	// size (the measured crossover is in DESIGN §16).
	seedMinBase      = 16384
	seedBaseRowsPerP = 128
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
func (v *shadowView) seedFromHeads(t *vafile.Tables, kern rowKernel, heads []float64, p int, parallel bool) float64 {
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
		ubs.offer(kern.upper(v.baseShadow[pos*v.stride:pos*v.stride+v.stride]), p)
	}
	return ubs[0]
}

// screenSeeded is pass 2 of the seeded screen over base rows [lo, hi):
// per block it compacts the positions whose head is within stop =
// st.seed·inv (a row whose head exceeds it would abort at sumRow's first
// check against any bound <= seed), then screens the live survivors like
// screenRange, their lower bounds resumed from the head. Every live row
// counts as scanned, dropped or not, so BoundScannedRows matches the
// unseeded screen.
func (v *shadowView) screenSeeded(st *screenState, t *vafile.Tables, lo, hi int, heads []float64, stop float64) {
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
			lb, within := t.RowLowerBoundedFrom(row, heads[pos], st.bound())
			if !within {
				continue
			}
			st.cands = append(st.cands, pos)
			st.clbs = append(st.clbs, lb)
			st.ubs.offer(st.kern.upper(row), st.p)
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

// boundScan is phase 1 for one query: walk the packed shadow of every
// candidate row (live rows, or the match bitsets when useMatch),
// accumulate lower bounds, and derive tau. An 8-bit base segment large
// relative to p takes the seeded screen. Returns nil — exact scan, no
// pruning — when quantization is off/dormant or the query cannot support
// valid bounds.
func (s *Segmented[T]) boundScan(qvec, weights []float64, p int, parallel bool, clk *FilterClock, matchBase, matchDelta bitmap, useMatch bool) *boundPrune {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	// Heads are defined over 8-bit codes (the 256-cell tables) and at
	// least vafile.HeadDims dimensions.
	bn := s.base.Size()
	seeded := s.quant.bits == 8 && s.base.dims >= vafile.HeadDims && bn >= seedMinBase && bn >= seedBaseRowsPerP*p
	return s.screen(qvec, weights, p, parallel, clk, s.shadowView(matchBase, matchDelta, useMatch), seeded)
}

// screen is boundScan with the gate's verdict passed in: seeded asks for
// the seeded screen, which runs when pass 1 finds a seed and needs an
// 8-bit shadow of at least vafile.HeadDims dimensions; the delta rows,
// and every row of an unseeded scan, go through screenRange. The shadow
// must be live (non-nil bounds).
func (s *Segmented[T]) screen(qvec, weights []float64, p int, parallel bool, clk *FilterClock, v *shadowView, seeded bool) *boundPrune {
	qs := s.quant
	tbl, ok := qs.bounds.QueryTables(qvec, weights)
	if !ok {
		return nil
	}
	total := s.Total()
	if total > math.MaxInt32 {
		return nil
	}
	kern := newKernel(&tbl, qs.bits)
	seed, stop := math.Inf(1), math.Inf(1)
	var heads []float64
	if seeded {
		buf, _ := headBufs.Get().(*[]float64)
		if buf == nil || cap(*buf) < v.bn {
			b := make([]float64, v.bn)
			buf = &b
		}
		defer headBufs.Put(buf)
		heads = (*buf)[:v.bn]
		if sd := v.seedFromHeads(&tbl, kern, heads, p, parallel); sd < math.Inf(1) {
			_, inv := tbl.Slack()
			seed, stop = sd, sd*inv
		} else {
			heads = nil
		}
	}
	run := func(lo, hi int) *screenState {
		st := &screenState{kern: kern, p: p, seed: seed}
		if heads != nil && lo < v.bn {
			mid := min(hi, v.bn)
			v.screenSeeded(st, &tbl, lo, mid, heads, stop)
			lo = mid
		}
		v.screenRange(st, lo, hi)
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
