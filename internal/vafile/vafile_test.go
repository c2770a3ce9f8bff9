package vafile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// trueWeightedL1 is the reference distance the bounds must bracket.
func trueWeightedL1(weights, q, v []float64) float64 {
	s := 0.0
	for d := range q {
		w := 1.0
		if weights != nil {
			w = weights[d]
		}
		s += w * math.Abs(q[d]-v[d])
	}
	return s
}

func randBlock(rng *rand.Rand, rows, dims int) []float64 {
	block := make([]float64, rows*dims)
	for i := range block {
		block[i] = rng.NormFloat64()
	}
	return block
}

// checkBounds builds boundaries over block, encodes every row, and
// asserts lower <= true weighted L1 <= upper for every row under the
// given query and weights. It is the core invariant the two-phase scan
// rests on.
func checkBounds(t *testing.T, block []float64, rows, dims int, q, w []float64) {
	t.Helper()
	b, err := BuildBoundaries(block, rows, dims)
	if err != nil {
		t.Fatal(err)
	}
	codes := b.EncodeBlock(block, rows)
	var tbl Tables
	if !b.QueryTables(&tbl, q, w) {
		t.Fatalf("QueryTables rejected a finite query (dims=%d)", dims)
	}
	for r := 0; r < rows; r++ {
		row := block[r*dims : (r+1)*dims]
		rc := codes[r*dims : (r+1)*dims]
		dist := trueWeightedL1(w, q, row)
		lb, ub := tbl.RowLower(rc), tbl.RowUpper(rc)
		if lb > dist || dist > ub {
			t.Fatalf("row %d (dims=%d): bounds [%g, %g] do not bracket %g", r, dims, lb, ub, dist)
		}
	}
}

func TestBoundsBracketDistanceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		rows := 5 + rng.Intn(200)
		dims := 1 + rng.Intn(12)
		block := randBlock(rng, rows, dims)
		q := randBlock(rng, 1, dims)
		w := make([]float64, dims)
		for d := range w {
			w[d] = rng.Float64() * 3
		}
		w[rng.Intn(dims)] = 0 // sparse weights are the common case
		checkBounds(t, block, rows, dims, q, w)
		checkBounds(t, block, rows, dims, q, nil)
	}
}

func TestBoundsDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := []float64{0.3, -2, 7}
	w := []float64{0, 1.5, 2}

	t.Run("constantDimensions", func(t *testing.T) {
		// Every cell collapses to a point in dims 0 and 2.
		block := make([]float64, 30*3)
		for r := 0; r < 30; r++ {
			block[r*3] = 5
			block[r*3+1] = rng.NormFloat64()
			block[r*3+2] = -1
		}
		checkBounds(t, block, 30, 3, q, w)
	})
	t.Run("duplicateRows", func(t *testing.T) {
		row := []float64{1, 2, 3}
		block := make([]float64, 0, 20*3)
		for r := 0; r < 20; r++ {
			block = append(block, row...)
		}
		checkBounds(t, block, 20, 3, q, w)
	})
	t.Run("zeroWeights", func(t *testing.T) {
		block := randBlock(rng, 50, 3)
		checkBounds(t, block, 50, 3, q, []float64{0, 0, 0})
	})
	t.Run("singleRow", func(t *testing.T) {
		checkBounds(t, []float64{1, 2, 3}, 1, 3, q, w)
	})
	t.Run("queryOutsideDataRange", func(t *testing.T) {
		block := randBlock(rng, 60, 3)
		checkBounds(t, block, 60, 3, []float64{100, -100, 50}, w)
	})
}

func TestBoundsProperty(t *testing.T) {
	// quick.Check over seeds: random shape, random query/weights — the
	// bracket must hold for every row.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(120)
		dims := 1 + rng.Intn(8)
		block := randBlock(rng, rows, dims)
		if rng.Intn(4) == 0 { // inject duplicates
			copy(block[:dims], block[(rows-1)*dims:])
		}
		b, err := BuildBoundaries(block, rows, dims)
		if err != nil {
			return false
		}
		q := randBlock(rng, 1, dims)
		var w []float64
		if rng.Intn(2) == 0 {
			w = make([]float64, dims)
			for d := range w {
				w[d] = rng.Float64() * 2
			}
		}
		var tbl Tables
		if !b.QueryTables(&tbl, q, w) {
			return false
		}
		codes := b.EncodeBlock(block, rows)
		for r := 0; r < rows; r++ {
			dist := trueWeightedL1(w, q, block[r*dims:(r+1)*dims])
			rc := codes[r*dims : (r+1)*dims]
			if tbl.RowLower(rc) > dist || dist > tbl.RowUpper(rc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBuildBoundariesValidation(t *testing.T) {
	good := []float64{1, 2, 3, 4}
	for _, c := range []struct {
		name       string
		block      []float64
		rows, dims int
	}{
		{"zeroRows", nil, 0, 2},
		{"zeroDims", nil, 2, 0},
		{"lengthMismatch", good, 3, 2},
		{"nan", []float64{1, math.NaN(), 3, 4}, 2, 2},
		{"inf", []float64{1, math.Inf(1), 3, 4}, 2, 2},
	} {
		if _, err := BuildBoundaries(c.block, c.rows, c.dims); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestFromFlatRoundTripAndValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	block := randBlock(rng, 40, 3)
	b, err := BuildBoundaries(block, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromFlat(b.Flat(), b.Dims())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dims() != 3 || len(got.Flat()) != 3*(cells+1) {
		t.Fatalf("round trip: dims=%d grid=%d", got.Dims(), len(got.Flat()))
	}
	// Round-tripped boundaries must encode identically.
	rowCodes := make([]uint8, 3)
	wantCodes := make([]uint8, 3)
	for r := 0; r < 40; r++ {
		row := block[r*3 : (r+1)*3]
		b.Encode(row, wantCodes)
		got.Encode(row, rowCodes)
		for d := range rowCodes {
			if rowCodes[d] != wantCodes[d] {
				t.Fatalf("row %d dim %d: code %d != %d after round trip", r, d, rowCodes[d], wantCodes[d])
			}
		}
	}

	if _, err := FromFlat(b.Flat()[:5], 3); err == nil {
		t.Error("short grid: no error")
	}
	if _, err := FromFlat(b.Flat(), 0); err == nil {
		t.Error("dims=0: no error")
	}
	bad := append([]float64(nil), b.Flat()...)
	bad[1] = math.NaN()
	if _, err := FromFlat(bad, 3); err == nil {
		t.Error("NaN grid: no error")
	}
	bad2 := append([]float64(nil), b.Flat()...)
	bad2[2], bad2[3] = bad2[3]+1, bad2[2] // break monotonicity
	if _, err := FromFlat(bad2, 3); err == nil {
		t.Error("decreasing grid: no error")
	}
}

func TestEncodeReportsOutOfRange(t *testing.T) {
	block := []float64{0, 0, 1, 1, 2, 2, 3, 3}
	b, err := BuildBoundaries(block, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint8, 2)
	if !b.Encode([]float64{1.5, 2.5}, dst) {
		t.Error("in-range row reported out of range")
	}
	if b.Encode([]float64{-1, 1}, dst) {
		t.Error("below-range row reported in range")
	}
	if b.Encode([]float64{1, 9}, dst) {
		t.Error("above-range row reported in range")
	}
	if b.Encode([]float64{math.NaN(), 1}, dst) {
		t.Error("NaN row reported in range")
	}
}

func TestQueryTablesRejectsInvalid(t *testing.T) {
	block := []float64{0, 1, 2, 3}
	b, err := BuildBoundaries(block, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q, w []float64
	}{
		{"wrongQueryDims", []float64{1}, nil},
		{"wrongWeightDims", []float64{1, 2}, []float64{1}},
		{"nanQuery", []float64{math.NaN(), 0}, nil},
		{"infQuery", []float64{math.Inf(-1), 0}, nil},
		{"negativeWeight", []float64{1, 2}, []float64{-1, 1}},
		{"nanWeight", []float64{1, 2}, []float64{math.NaN(), 1}},
	} {
		var tbl Tables
		if b.QueryTables(&tbl, c.q, c.w) {
			t.Errorf("%s: accepted", c.name)
		}
	}
	var tbl Tables
	if ok := b.QueryTables(&tbl, []float64{1, 2}, nil); !ok || tbl.Dims() != 2 {
		t.Errorf("valid query rejected (ok=%v dims=%d)", ok, tbl.Dims())
	}
}

func TestCellOfMonotone(t *testing.T) {
	block := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	b, err := BuildBoundaries(block, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, v := range block {
		c := b.cellOf(0, v)
		if c < prev {
			t.Fatalf("cellOf(%g) = %d < previous %d", v, c, prev)
		}
		prev = c
	}
	if b.cellOf(0, 0) != 0 || b.cellOf(0, 7) != cells-1 {
		t.Errorf("extremes: %d, %d", b.cellOf(0, 0), b.cellOf(0, 7))
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameTables reports whether two tables hold the same entries, bit for
// bit, and the same width and slack.
func sameTables(a, b *Tables) bool {
	return a.dims == b.dims && a.mrel == b.mrel && a.inv == b.inv &&
		sameBits(a.lb, b.lb) && sameBits(a.ub, b.ub) && sameBits(a.box, b.box)
}

// TestQueryTablesReuse writes a run of queries into one reused Tables
// and holds each to fresh tables bit for bit, so no entry a previous
// query wrote survives: the query's cell moves from the bottom of the
// grid to the top in every dimension (each split table's zero half
// changes sides) and back, the width shrinks, grows within the reused
// buffers and grows past them, and the weights include zero and -0.
func TestQueryTablesReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grids := map[int]*Boundaries{}
	for _, dims := range []int{3, 16, 40} {
		b, err := BuildBoundaries(randBlock(rng, 300, dims), 300, dims)
		if err != nil {
			t.Fatal(err)
		}
		grids[dims] = b
	}
	at := func(dims int, v float64) []float64 {
		q := make([]float64, dims)
		for d := range q {
			q[d] = v
		}
		return q
	}
	zeros := func(dims int, z float64) []float64 {
		w := make([]float64, dims)
		for d := range w {
			w[d] = rng.Float64() * 2
			if d%3 == 0 {
				w[d] = z
			}
		}
		return w
	}
	negZero := math.Copysign(0, -1)
	var reused Tables
	for i, c := range []struct {
		dims int
		q, w []float64
	}{
		{16, at(16, -100), zeros(16, 0)},
		{16, at(16, 100), zeros(16, negZero)},
		{16, randBlock(rng, 1, 16), nil},
		{3, at(3, -100), zeros(3, negZero)},
		{16, at(16, -100), zeros(16, negZero)},
		{40, at(40, 100), zeros(40, 0)},
		{16, randBlock(rng, 1, 16), zeros(16, 0)},
	} {
		var fresh Tables
		if !grids[c.dims].QueryTables(&fresh, c.q, c.w) || !grids[c.dims].QueryTables(&reused, c.q, c.w) {
			t.Fatalf("query %d: a finite query was rejected", i)
		}
		if !sameTables(&reused, &fresh) {
			t.Fatalf("query %d (dims=%d): tables written into a reused buffer differ from fresh ones", i, c.dims)
		}
	}
}
