package dtw

import "math"

// The banded kernel behind DTW, Constrained and ConstrainedWindow. On
// every input it takes — rectangular series of finite samples — it
// returns the float64 bits scalarDTW returns, because each cell is
// computed with the same operations in the same order:
//
//   - the sample distance sums the squared differences over dimensions
//     in order and takes math.Sqrt of the sum. The sum starts from the
//     first dimension's square rather than from 0 plus it, which is the
//     same value: a square is never −0;
//   - the cell is the minimum of up, left and diagonal, plus that
//     distance. The minimum is taken on the IEEE bits as unsigned
//     integers. The table holds only +0, positive finite values and +Inf
//     here (finite samples give no NaN, and no sum of non-negative terms
//     is −0), and on those the bit order is the numeric order, so the
//     minimum is exact;
//   - a cell whose minimum is +Inf becomes +Inf plus a distance, which
//     is +Inf: the value scalarDTW's skip leaves there.
//
// Only the work around the cells differs. Rather than the whole row
// being reset each row, only the cell just left of a stored row's band
// is set to +Inf: the band's right edge never moves left, so every cell
// right of it still holds the +Inf the row started with. One buffer per
// call holds the running row, b in dimension-major order and the squared
// distances of the rows being swept. Rows are swept in pairs, row i+1
// one column behind row i, so the loop carries two independent
// min-then-add chains rather than one. Two-dimensional samples, the
// shape every served series has, take their distances inside that sweep
// (sweepPair2); other widths, and an odd last row at every width, compute
// the squared distances first, one pass per dimension (sqDists).

// posInfBits is math.Float64bits(math.Inf(1)).
const posInfBits = 0x7ff0000000000000

// nonFinite returns a word with bit 11 set when v is NaN or ±Inf, whose
// exponent bits are all ones, and clear otherwise. OR-ing it over many
// values tests them all without a branch.
func nonFinite(v float64) uint64 {
	return math.Float64bits(v)>>52&0x7ff + 1
}

// regular reports whether every sample of s has d values, all finite.
func regular(s Series, d int) bool {
	var bad uint64
	for _, sample := range s {
		if len(sample) != d {
			return false
		}
		for _, v := range sample {
			bad |= nonFinite(v)
		}
	}
	return bad&0x800 == 0
}

// transpose writes b into bt with dimension k of sample j at k*m+j, and
// reports whether every sample of b has d values, all finite. It stops at
// the first sample of another width, leaving bt partly written.
func transpose(bt []float64, b Series, d int) bool {
	m := len(b)
	var bad uint64
	for j, sample := range b {
		if len(sample) != d {
			return false
		}
		for k, v := range sample {
			bt[k*m+j] = v
			bad |= nonFinite(v)
		}
	}
	return bad&0x800 == 0
}

// bandDTW is dtwWindow for non-empty series of equal dimensionality d;
// w is already widened (< 0 for unconstrained). A ragged series or a
// NaN or ±Inf sample goes to scalarDTW. Table indices are 1-based as in
// scalarDTW: cell (i, j) aligns a[i-1] with b[j-1].
func bandDTW(a, b Series, w int) float64 {
	n, m, d := len(a), len(b), len(a[0])
	// One buffer per call, on the stack when it fits (series of up to
	// about 200 two-dimensional samples), so a call leaves no garbage.
	// r is the running row: row i-1 on entry to a pair, +Inf outside
	// its band. bt is b with dimension k of sample j at k*m+j. sq1 and
	// sq2 take the squared distances of the rows being swept.
	var stack [1024]float64
	buf := stack[:]
	if need := 3*(m+1) + m*d; need <= len(stack) {
		buf = stack[:need]
	} else {
		buf = make([]float64, need)
	}
	r, sq1, sq2, bt := buf[:m+1], buf[m+1:2*(m+1)], buf[2*(m+1):3*(m+1)], buf[3*(m+1):]
	if !regular(a, d) || !transpose(bt, b, d) {
		return scalarDTW(a, b, w)
	}
	inf := math.Inf(1)
	for j := range r {
		r[j] = inf
	}
	r[0] = 0
	band := func(i int) (lo, hi int) {
		if w < 0 {
			return 1, m
		}
		return max(1, i-w), min(m, i+w)
	}
	i := 1
	for ; i < n; i += 2 {
		l1, h1 := band(i)
		l2, h2 := band(i + 1)
		if d == 2 {
			sweepPair2(r, bt[:m], bt[m:], a[i-1], a[i], l1, h1, l2, h2)
			continue
		}
		sqDists(sq1, sq2, a[i-1], a[i], bt, m, l1, h2)
		sweepPair(r, sq1, sq2, l1, h1, l2, h2)
	}
	if i == n {
		// The widened window reaches column m on the last row.
		lo, _ := band(n)
		sqDists(sq1, sq2, a[n-1], a[n-1], bt, m, lo, m)
		return lastRow(r, sq1, lo, m)
	}
	return r[m]
}

// sqDists writes the squared distances from samples a1 and a2 to b's
// samples at columns lo..hi into s1[lo:hi+1] and s2[lo:hi+1]. bt is b in
// dimension-major order with m samples per dimension. Each sum runs over
// the dimensions in order, as in sampleDist.
func sqDists(s1, s2, a1, a2, bt []float64, m, lo, hi int) {
	s1 = s1[lo : hi+1]
	s2 = s2[lo : hi+1]
	s2 = s2[:len(s1)]
	a2 = a2[:len(a1)]
	col := bt[lo-1 : hi]
	col = col[:len(s1)]
	v1, v2 := a1[0], a2[0]
	for j, v := range col {
		t1, t2 := v1-v, v2-v
		s1[j] = t1 * t1
		s2[j] = t2 * t2
	}
	for k := 1; k < len(a1); k++ {
		v1, v2 := a1[k], a2[k]
		col := bt[k*m+lo-1 : k*m+hi]
		col = col[:len(s1)]
		for j, v := range col {
			t1, t2 := v1-v, v2-v
			s1[j] += t1 * t1
			s2[j] += t2 * t2
		}
	}
}

// lastRow returns the final cell of the table's last row, whose band is
// lo..m; r holds the row before it and sq the last row's squared
// distances. Nothing reads the last row but its final cell, so it stays
// in registers.
func lastRow(r, sq []float64, lo, m int) float64 {
	left := uint64(posInfBits)
	diag := math.Float64bits(r[lo-1])
	for j := lo; j <= m; j++ {
		up := math.Float64bits(r[j])
		left = math.Float64bits(math.Float64frombits(min(up, diag, left)) + math.Sqrt(sq[j]))
		diag = up
	}
	return math.Float64frombits(left)
}

// sweepPair advances r from row i-1 to row i+1. Row i has band l1..h1
// and squared distances sq1, row i+1 band l2..h2 and sq2; bands move by
// at most one column a row (l1 <= l2 <= l1+1, h1 <= h2 <= h1+1). Each
// step computes cell (i, j) and cell (i+1, j-1): the second needs only
// cells of row i already computed, so the two chains run side by side.
// Row i never reaches memory: x1 and x2 hold its last two cells and y1
// holds row i+1's last cell, all as IEEE bits.
func sweepPair(r, sq1, sq2 []float64, l1, h1, l2, h2 int) {
	x1, x2, y1 := uint64(posInfBits), uint64(posInfBits), uint64(posInfBits)
	// Row i alone, up to the column where row i+1's band starts.
	j := l1
	for end := min(l2, h1); j <= end; j++ {
		t := min(math.Float64bits(r[j]), math.Float64bits(r[j-1]))
		x := math.Float64bits(math.Float64frombits(min(t, x1)) + math.Sqrt(sq1[j]))
		x2, x1 = x1, x
	}
	r[l2-1] = math.Inf(1)
	// Both rows. Cell (i+1, j-1) overwrites r[j-1] once cell (i, j) has
	// read it as its diagonal.
	if j <= h1 {
		up := r[j : h1+1]
		out := r[j-1 : h1]
		s1 := sq1[j : h1+1]
		s2 := sq2[j-1 : h1]
		out, s2 = out[:len(up)], s2[:len(up)]
		s1 = s1[:len(up)]
		for k, u := range up {
			t := min(math.Float64bits(u), math.Float64bits(out[k]))
			x := math.Float64bits(math.Float64frombits(min(t, x1)) + math.Sqrt(s1[k]))
			y := math.Float64frombits(min(x1, x2, y1)) + math.Sqrt(s2[k])
			out[k] = y
			x2, x1, y1 = x1, x, math.Float64bits(y)
		}
	}
	// Row i+1 alone, past the end of row i's band.
	for c := h1; c <= h2; c++ {
		if c >= l2 {
			y := math.Float64frombits(min(x1, x2, y1)) + math.Sqrt(sq2[c])
			r[c] = y
			y1 = math.Float64bits(y)
		}
		x2, x1 = x1, posInfBits
	}
}

// sqDist2 is the squared distance between two-dimensional samples (ax,
// ay) and (bx, by), summed in sampleDist's shape: the first square, then
// sum += t*t, so a compiler that fuses multiply-add fuses both alike.
func sqDist2(ax, ay, bx, by float64) float64 {
	tx, ty := ax-bx, ay-by
	s := tx * tx
	s += ty * ty
	return s
}

// sweepPair2 is sweepPair for two-dimensional samples a1 (row i) and a2
// (row i+1), taking each cell's squared distance (sqDist2) where the
// cell is computed instead of from a pass before it. bx and by are the
// first and second coordinates of b's samples.
func sweepPair2(r, bx, by, a1, a2 []float64, l1, h1, l2, h2 int) {
	a1x, a1y := a1[0], a1[1]
	a2x, a2y := a2[0], a2[1]
	x1, x2, y1 := uint64(posInfBits), uint64(posInfBits), uint64(posInfBits)
	// Row i alone, up to the column where row i+1's band starts.
	j := l1
	for end := min(l2, h1); j <= end; j++ {
		t := min(math.Float64bits(r[j]), math.Float64bits(r[j-1]))
		x := math.Float64bits(math.Float64frombits(min(t, x1)) + math.Sqrt(sqDist2(a1x, a1y, bx[j-1], by[j-1])))
		x2, x1 = x1, x
	}
	r[l2-1] = math.Inf(1)
	// Both rows.
	if j <= h1 {
		x1, x2, y1 = bothRows2(r[j-1:h1+1], bx[j-2:h1], by[j-2:h1], a1x, a1y, a2x, a2y, x1, x2, y1)
	}
	// Row i+1 alone, past the end of row i's band.
	for c := h1; c <= h2; c++ {
		if c >= l2 {
			y := math.Float64frombits(min(x1, x2, y1)) + math.Sqrt(sqDist2(a2x, a2y, bx[c-1], by[c-1]))
			r[c] = y
			y1 = math.Float64bits(y)
		}
		x2, x1 = x1, posInfBits
	}
}

// bothRows2 is sweepPair2's middle phase, where rows i and i+1 advance
// together from column j; x1, x2 and y1 are as in sweepPair. row is
// r[j-1:h1+1], and bx and by hold b's samples j-2 onwards, so step k
// computes cell (i, j-1+k) against sample j-2+k and cell (i+1, j-2+k)
// against sample j-3+k, storing the second over row[k-1] once the first
// has read it as its diagonal. The loop is a function of its own so that
// nothing sweepPair2 keeps for its last phase is live across it: inlined
// there, it held y1 on the stack and reloaded four values every step.
func bothRows2(row, bx, by []float64, a1x, a1y, a2x, a2y float64, x1, x2, y1 uint64) (uint64, uint64, uint64) {
	bx, by = bx[:len(row)], by[:len(row)]
	for k := 1; k < len(row); k++ {
		t := min(math.Float64bits(row[k]), math.Float64bits(row[k-1]))
		x := math.Float64bits(math.Float64frombits(min(t, x1)) + math.Sqrt(sqDist2(a1x, a1y, bx[k], by[k])))
		y := math.Float64frombits(min(x1, x2, y1)) + math.Sqrt(sqDist2(a2x, a2y, bx[k-1], by[k-1]))
		row[k-1] = y
		x2, x1, y1 = x1, x, math.Float64bits(y)
	}
	return x1, x2, y1
}
