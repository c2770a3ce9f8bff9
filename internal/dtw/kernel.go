package dtw

import "math"

// The banded kernel behind DTW, Constrained and ConstrainedWindow. On
// every input it takes — rectangular series of finite samples — it
// returns the float64 bits scalarDTW returns, because each cell is
// computed with the same operations in the same order:
//
//   - the sample distance sums the squared differences over dimensions
//     in order, starting from 0, and takes math.Sqrt of the sum;
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
// call holds the running row, the squared distances and b in
// dimension-major order. Rows are swept in pairs, row i+1 one column
// behind row i, so the loop carries two independent min-then-add chains
// rather than one.

// posInfBits is math.Float64bits(math.Inf(1)).
const posInfBits = 0x7ff0000000000000

// regular reports whether every sample of s has d values, all finite.
func regular(s Series, d int) bool {
	for _, sample := range s {
		if len(sample) != d {
			return false
		}
		for _, v := range sample {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// bandDTW is dtwWindow for rectangular, non-empty series of finite
// samples; w is already widened (< 0 for unconstrained). Table indices
// are 1-based as in scalarDTW: cell (i, j) aligns a[i-1] with b[j-1].
func bandDTW(a, b Series, w int) float64 {
	n, m, d := len(a), len(b), len(a[0])
	// One buffer per call, on the stack when it fits (series of up to
	// about 200 two-dimensional samples), so a call leaves no garbage.
	// r is the running row: row i-1 on entry to a pair, +Inf outside
	// its band. sq1 and sq2 take the squared distances of the rows being
	// swept; bt is b with dimension k of sample j at k*m+j.
	var stack [1024]float64
	buf := stack[:]
	if need := 3*(m+1) + m*d; need <= len(stack) {
		buf = stack[:need]
	} else {
		buf = make([]float64, need)
	}
	r, sq1, sq2, bt := buf[:m+1], buf[m+1:2*(m+1)], buf[2*(m+1):3*(m+1)], buf[3*(m+1):]
	for j, sample := range b {
		for k, v := range sample {
			bt[k*m+j] = v
		}
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
	clear(s1)
	clear(s2)
	for k, v1 := range a1 {
		v2 := a2[k]
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
