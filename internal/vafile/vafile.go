// Package vafile implements the bound machinery of a VA-file (Weber,
// Schek & Blott, VLDB 1998 — the paper's reference [35]) over the
// repository's row-major flat vector blocks: per-dimension scalar
// quantization into 256 equi-populated cells, a one-byte-per-dimension
// shadow code for every row, and per-query lookup tables that turn a
// row's codes into provable lower/upper bounds on its weighted L1
// distance to the query.
//
// The bounds stay valid under the query-sensitive weighted L1 of the
// paper's Eq. 11 because the distance decomposes per dimension: for a
// value v known to lie in cell c = [lo, hi] of dimension j,
//
//	w_j * max(lo - q_j, q_j - hi, 0)  <=  w_j*|q_j - v|  <=  w_j * max(|q_j - lo|, |q_j - hi|)
//
// (|q - .| is convex, so its extrema over an interval sit at the
// endpoints). Summing per-dimension table entries over a row's codes
// yields a lower and an upper bound on the full distance, which is what
// lets a scan rank rows by cheap byte lookups and touch the exact
// float64 block only for rows whose lower bound survives the running
// p-th smallest upper bound. The two-phase scan itself lives in
// internal/retrieval; this package owns the boundary construction, the
// encoding, and the table math, so their correctness can be
// property-tested and fuzzed in isolation.
//
// Boundaries are built once per base segment (at compaction) and reused
// across every delta append: a delta row is encoded against the base's
// boundaries, and a row holding a value outside the base's range is
// reported by Encode so the scan can exclude it from the bound argument
// (clamped codes would not bound such a row).
package vafile

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"qse/internal/par"
)

// Bits is the code width: one byte per dimension, so a row's codes are
// its shadow row and the scan reads eight of them per load. cells is the
// number of cells per dimension.
const (
	Bits  = 8
	cells = 1 << Bits
)

// Boundaries is one segment's per-dimension quantization grid: for each
// dimension, cells+1 non-decreasing boundary values whose consecutive
// pairs delimit the cells. Equi-populated construction (quantiles of the
// segment's own values) keeps cells tight where the data is dense, which
// is what makes the bounds selective. Immutable after construction.
type Boundaries struct {
	dims int
	// flat stores the grid row-major by dimension: dimension d's
	// boundaries are flat[d*(cells+1) : (d+1)*(cells+1)].
	flat []float64
}

// BuildBoundaries computes equi-populated cell boundaries from a
// row-major block of rows x dims values (the segment the shadow block
// will cover). Every value must be finite — embedded vectors always are,
// and a non-finite value would poison the bound math silently. Boundary
// c is the column's value of rank c·(rows-1)/256 in ascending order with
// -0 below +0, so a rank that falls in a run of zeros of both signs
// reads the zero of its own side of that order.
func BuildBoundaries(block []float64, rows, dims int) (*Boundaries, error) {
	if rows <= 0 || dims <= 0 {
		return nil, fmt.Errorf("vafile: %d rows x %d dims, want both > 0", rows, dims)
	}
	if len(block) != rows*dims {
		return nil, fmt.Errorf("vafile: block has %d values for %d rows x %d dims", len(block), rows, dims)
	}
	for _, v := range block {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("vafile: block contains a non-finite value")
		}
	}
	b := &Boundaries{dims: dims, flat: make([]float64, dims*(cells+1))}
	// Each dimension is independent, so the column sorts fan out; the
	// result is identical to a serial build.
	par.For(dims, 4, func(lo, hi int) {
		keys, tmp := make([]uint64, rows), make([]uint64, rows)
		for d := lo; d < hi; d++ {
			for r := 0; r < rows; r++ {
				keys[r] = sortKey(block[r*dims+d])
			}
			radixSort(keys, tmp)
			bd := b.flat[d*(cells+1) : (d+1)*(cells+1)]
			for c := 0; c <= cells; c++ {
				bd[c] = fromSortKey(keys[c*(rows-1)/cells])
			}
			// Quantiles of a sorted column are already non-decreasing;
			// enforce it anyway so a future construction change cannot
			// silently hand the scan an invalid grid.
			for c := 1; c <= cells; c++ {
				if bd[c] < bd[c-1] {
					bd[c] = bd[c-1]
				}
			}
		}
	})
	return b, nil
}

// sortKey maps a float64 to a uint64 whose unsigned order is the
// float's order, with -0 below +0: a non-negative float's bits with the
// sign bit set, a negative float's bits inverted.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromSortKey inverts sortKey.
func fromSortKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k ^ 1<<63)
	}
	return math.Float64frombits(^k)
}

// radixSort sorts keys ascending, a byte at a time from the lowest
// (LSD), using tmp (the same length) as the other buffer. A byte every
// key shares moves nothing, so its pass is skipped. The sorted keys end
// in keys.
func radixSort(keys, tmp []uint64) {
	var counts [8][256]int
	for _, k := range keys {
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	src, dst := keys, tmp
	for p := range counts {
		c := &counts[p]
		if c[byte(src[0]>>(8*p))] == len(src) {
			continue
		}
		at := 0
		for i, n := range c {
			c[i] = at
			at += n
		}
		for _, k := range src {
			b := byte(k >> (8 * p))
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// FromFlat reassembles Boundaries from a persisted grid (the counterpart
// of Flat). The grid is validated — length, finiteness, per-dimension
// monotonicity — so a damaged bundle section cannot smuggle an invalid
// grid into the scan.
func FromFlat(flat []float64, dims int) (*Boundaries, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("vafile: dims = %d, want > 0", dims)
	}
	if len(flat) != dims*(cells+1) {
		return nil, fmt.Errorf("vafile: boundary grid has %d values, want %d dims x %d", len(flat), dims, cells+1)
	}
	for d := 0; d < dims; d++ {
		bd := flat[d*(cells+1) : (d+1)*(cells+1)]
		for c, v := range bd {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("vafile: boundary grid contains a non-finite value in dim %d", d)
			}
			if c > 0 && v < bd[c-1] {
				return nil, fmt.Errorf("vafile: boundary grid decreases in dim %d at cell %d", d, c)
			}
		}
	}
	return &Boundaries{dims: dims, flat: flat}, nil
}

// Dims returns the grid's dimensionality.
func (b *Boundaries) Dims() int { return b.dims }

// Flat returns the grid's backing storage (dims x (cells+1), row-major
// by dimension) — the persist shape FromFlat restores. Callers must not
// modify it.
func (b *Boundaries) Flat() []float64 { return b.flat }

// cellOf maps a value to its cell in dimension d. A value equal to a
// boundary belongs to the cell whose lower edge it is (the top boundary
// folds into the last cell), so every in-range value lands in a cell
// that contains it — the property the bound argument rests on.
func (b *Boundaries) cellOf(d int, v float64) int {
	bd := b.flat[d*(cells+1) : (d+1)*(cells+1)]
	c := sort.SearchFloat64s(bd, v)
	if c == len(bd) || bd[c] != v {
		c--
	}
	if c < 0 {
		c = 0
	} else if c >= cells {
		c = cells - 1
	}
	return c
}

// Encode quantizes one row into dst (Dims codes, one byte per
// dimension). It reports whether every value was inside its dimension's
// boundary range: the codes of an out-of-range (or non-finite) row are
// clamped and MUST NOT be used for bounds — the scan keeps such rows on
// the always-evaluate path instead.
func (b *Boundaries) Encode(row []float64, dst []uint8) bool {
	inRange := true
	for d := 0; d < b.dims; d++ {
		v := row[d]
		bd := b.flat[d*(cells+1) : (d+1)*(cells+1)]
		if !(v >= bd[0] && v <= bd[cells]) { // NaN fails both comparisons
			inRange = false
		}
		dst[d] = uint8(b.cellOf(d, v))
	}
	return inRange
}

// EncodeBlock encodes a row-major block of rows x Dims values into a
// fresh shadow block (rows x Dims codes). A block the boundaries were
// built from is in range by construction (the grid's edges are each
// column's min and max), so no in-range report is needed here.
func (b *Boundaries) EncodeBlock(block []float64, rows int) []uint8 {
	codes := make([]uint8, rows*b.dims)
	par.For(rows, 512, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b.Encode(block[r*b.dims:(r+1)*b.dims], codes[r*b.dims:(r+1)*b.dims])
		}
	})
	return codes
}

// Tables are one query's per-cell bound lookup tables: for dimension d
// and cell c, entry d*cells+c bounds the weighted per-dimension distance
// w_d*|q_d - v| below (lb) or above (ub) for any v in the cell. Summing
// entries over a row's codes bounds the row's full weighted L1. box
// splits lb at the query's cell for BoxLower: entry d*cells+c is lb's
// entry above the query's cell and 0 at or below it, and entry
// (dims+d)*cells+c is lb's entry below the query's cell and 0 at or
// above it.
type Tables struct {
	dims        int
	lb, ub, box []float64
	// mrel is reorderSlack(dims); inv is 1/(1-mrel), hoisting the
	// per-row division out of the screening loop (the one extra rounding
	// is far inside mrel's 4x safety factor).
	mrel, inv float64
}

// QueryTables writes the query's bound tables (4 x Dims x cells floats)
// into t, reusing t's buffers when they are large enough, so a caller
// that keeps one Tables across queries allocates them once. Every entry
// is written, so nothing of t's previous query survives. It reports
// false — and the caller must fall back to the exact scan, and must not
// read t — when the query or its weights cannot support valid bounds:
// wrong width, a non-finite value, or a negative weight. A nil weights
// slice is the unweighted L1. Zero weights are fine: the dimension
// contributes nothing to either bound, exactly as it contributes
// nothing to the exact kernel.
func (b *Boundaries) QueryTables(t *Tables, qvec, weights []float64) bool {
	if len(qvec) != b.dims || (weights != nil && len(weights) != b.dims) {
		return false
	}
	n := b.dims * cells
	if cap(t.lb) < n {
		t.lb, t.ub, t.box = make([]float64, n), make([]float64, n), make([]float64, 2*n)
	}
	t.dims, t.lb, t.ub, t.box = b.dims, t.lb[:n], t.ub[:n], t.box[:2*n]
	for d := 0; d < b.dims; d++ {
		q := qvec[d]
		w := 1.0
		if weights != nil {
			w = weights[d]
		}
		if math.IsNaN(q) || math.IsInf(q, 0) || math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return false
		}
		bd := b.flat[d*(cells+1) : (d+1)*(cells+1)]
		lbRow := t.lb[d*cells : (d+1)*cells]
		ubRow := t.ub[d*cells : (d+1)*cells]
		above := t.box[d*cells : (d+1)*cells]
		below := t.box[(b.dims+d)*cells : (b.dims+d+1)*cells]
		// The distance to a cell is monotone in the cell's offset from the
		// query's own cell cq, so the table splits into three branch-free
		// runs. Below cq the whole cell sits at or below q (q >= bd[c+1]),
		// above cq at or above it (q <= bd[c]), so each difference is
		// non-negative and equals the |.| form computed cell-by-cell. For
		// cq itself the lower bound is 0 — exact when q lies inside the
		// cell, and still a valid (if loose) bound when an out-of-range q
		// was clamped into an edge cell; the upper bound max(q-lo, hi-q)
		// covers both the straddling and the clamped case, where the
		// farther edge's difference is the positive one.
		cq := b.cellOf(d, q)
		for c := 0; c < cq; c++ {
			lbRow[c] = w * (q - bd[c+1])
			ubRow[c] = w * (q - bd[c])
			below[c] = lbRow[c]
			above[c] = 0
		}
		for c := cq + 1; c < cells; c++ {
			lbRow[c] = w * (bd[c] - q)
			ubRow[c] = w * (bd[c+1] - q)
			above[c] = lbRow[c]
			below[c] = 0
		}
		ub := q - bd[cq]
		if hi := bd[cq+1] - q; hi > ub {
			ub = hi
		}
		lbRow[cq] = 0
		ubRow[cq] = w * ub
		above[cq], below[cq] = 0, 0
	}
	t.mrel = reorderSlack(b.dims)
	t.inv = 1 / (1 - t.mrel)
	return true
}

// reorderSlack is the relative error allowance applied when an n-term
// bound sum is accumulated in a different order than the exact kernel's
// sequential sum: 4x the first-order (n-1)*eps reordering bound, so a
// reordered lower bound discounted by it (or an upper bound padded by
// it) still brackets the sequentially-rounded distance.
func reorderSlack(n int) float64 {
	const eps = 2.220446049250313e-16 // 2^-52
	return 4 * eps * float64(n)
}

// Dims returns the tables' dimensionality (0 for the zero value).
func (t *Tables) Dims() int { return t.dims }

// Slack exposes the reordering allowance the row methods apply: a lower
// bound is discounted to s - s*mrel (equivalently, s is compared against
// bound*inv) and an upper bound padded to s + s*mrel.
func (t *Tables) Slack() (mrel, inv float64) { return t.mrel, t.inv }

// RowLower sums the lower-bound table over a row's codes: a provable
// lower bound on the row's weighted L1 distance to the query. codes must
// hold Dims in-range codes from Encode (an out-of-range row has no valid
// bounds).
func (t *Tables) RowLower(codes []uint8) float64 {
	lb, off := 0.0, 0
	for _, c := range codes {
		lb += t.lb[off+int(c)]
		off += cells
	}
	return lb
}

// RowLowerBounded is RowLower tuned for the hot screening loop: within
// reports whether the returned lower bound is <= bound.
//
// Two departures from RowLower, both preserving the bound's validity:
//
//   - The sum runs over four independent accumulators to break the
//     serial float-add dependency chain (the screening scan's actual
//     bottleneck). Reordering a sum changes its rounding, so the result
//     no longer term-by-term dominates the distance kernel's sequential
//     sum; validity is restored by discounting the classic reordering
//     error bound (~n*eps relative, applied with 4x slack) — a 1e-13
//     relative haircut that costs no measurable pruning power.
//   - Non-negative terms only grow the partial sum, so the scan aborts
//     every eight dimensions once the discounted partial already
//     crosses bound (lb = +Inf): the common excluded row touches a
//     fraction of its codes.
func (t *Tables) RowLowerBounded(codes []uint8, bound float64) (lb float64, within bool) {
	// s - s*mrel > bound <=> s > bound/(1-mrel): hoist the slack out of
	// the per-block exit check (inv caches the reciprocal).
	s, aborted := t.sumRow(t.lb, codes, bound*t.inv)
	if aborted {
		return math.Inf(1), false
	}
	lb = s - s*t.mrel
	if lb < 0 {
		lb = 0
	}
	return lb, lb <= bound
}

// sumRow sums one table entry per dimension over four accumulators,
// aborting once the partial sum exceeds stop (+Inf never aborts; the
// terms are non-negative, so the partial only grows). Constant cell
// strides and byte-masked indices let the compiler prove every lookup in
// range, eight dimensions per step off a single 8-byte code load.
func (t *Tables) sumRow(tbl []float64, codes []uint8, stop float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	n := len(codes)
	off, d := 0, 0
	// The exit check (three serial adds and a branch) is a real fraction
	// of a group's cost, and the typical excluded row only crosses the
	// threshold in its last few groups — so the main loop covers sixteen
	// dimensions per check, falling back to one check per group for a
	// trailing odd group.
	for ; d+16 <= n; d += 16 {
		blk := tbl[off : off+2048]
		w := binary.LittleEndian.Uint64(codes[d:])
		s0 += blk[w&0xff]
		s1 += blk[256+(w>>8)&0xff]
		s2 += blk[512+(w>>16)&0xff]
		s3 += blk[768+(w>>24)&0xff]
		s0 += blk[1024+(w>>32)&0xff]
		s1 += blk[1280+(w>>40)&0xff]
		s2 += blk[1536+(w>>48)&0xff]
		s3 += blk[1792+(w>>56)]
		off += 2048
		blk = tbl[off : off+2048]
		w = binary.LittleEndian.Uint64(codes[d+8:])
		s0 += blk[w&0xff]
		s1 += blk[256+(w>>8)&0xff]
		s2 += blk[512+(w>>16)&0xff]
		s3 += blk[768+(w>>24)&0xff]
		s0 += blk[1024+(w>>32)&0xff]
		s1 += blk[1280+(w>>40)&0xff]
		s2 += blk[1536+(w>>48)&0xff]
		s3 += blk[1792+(w>>56)]
		off += 2048
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d+8 <= n; d += 8 {
		blk := tbl[off : off+2048]
		w := binary.LittleEndian.Uint64(codes[d:])
		s0 += blk[w&0xff]
		s1 += blk[256+(w>>8)&0xff]
		s2 += blk[512+(w>>16)&0xff]
		s3 += blk[768+(w>>24)&0xff]
		s0 += blk[1024+(w>>32)&0xff]
		s1 += blk[1280+(w>>40)&0xff]
		s2 += blk[1536+(w>>48)&0xff]
		s3 += blk[1792+(w>>56)]
		off += 2048
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d < n; d++ {
		s0 += tbl[off+int(codes[d])]
		off += cells
	}
	s := s0 + s1 + s2 + s3
	return s, s > stop
}

// RowUpper is RowLower's upper-bound counterpart. Like RowLowerBounded
// it sums over four accumulators for speed and restores validity by
// padding the result with the reordering slack — a marginally looser
// upper bound is still an upper bound.
func (t *Tables) RowUpper(codes []uint8) float64 {
	s, _ := t.sumRow(t.ub, codes, math.Inf(1))
	return s + s*t.mrel
}

// Box writes the box of a block of rows into dst (2 x Dims codes): the
// smallest code of each dimension over the rows, then the largest.
// codes holds the rows contiguously, Dims codes each, at least one row.
func Box(codes []uint8, dims int, dst []uint8) {
	lo, hi := dst[:dims], dst[dims:2*dims]
	copy(lo, codes[:dims])
	copy(hi, codes[:dims])
	for r := dims; r < len(codes); r += dims {
		for d, c := range codes[r : r+dims] {
			lo[d] = min(lo[d], c)
			hi[d] = max(hi[d], c)
		}
	}
}

// BoxLower sums the smallest lower-bound entry each dimension takes over
// a box's code range (a box from Box). A dimension's lower-bound table is
// zero at the query's cell and non-decreasing away from it, so its
// minimum over [lo, hi] is the entry at lo above the query's cell, the
// entry at hi below it, and zero when the range holds the query's cell:
// the split table's entry at lo plus its entry at hi, one of which is
// zero. Summed by sumRow over the box's 2 x Dims codes, no term exceeds
// the matching term of any row inside the box.
func (t *Tables) BoxLower(box []uint8) float64 {
	s, _ := t.sumRow(t.box, box, math.Inf(1))
	return s
}

// BoxStop is the threshold a box's BoxLower must exceed for the box to
// hold no row that RowLowerBounded admits against bound. A row aborts
// once its sum exceeds bound*inv; the box's terms are each at most the
// row's, but they are summed in a different order, so the box takes the
// reordering slack once more: bound*inv*inv.
func (t *Tables) BoxStop(bound float64) float64 { return bound * t.inv * t.inv }
