package vafile

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"qse/internal/par"
)

// referenceGrid is BuildBoundaries' grid as it was built before the
// radix sort: each column sorted with sort.Float64s, which leaves the
// order of -0 and +0 to the sort's internals.
func referenceGrid(block []float64, rows, dims int) []float64 {
	flat := make([]float64, dims*(cells+1))
	par.For(dims, 4, func(lo, hi int) {
		column := make([]float64, rows)
		for d := lo; d < hi; d++ {
			for r := 0; r < rows; r++ {
				column[r] = block[r*dims+d]
			}
			sort.Float64s(column)
			bd := flat[d*(cells+1) : (d+1)*(cells+1)]
			for c := 0; c <= cells; c++ {
				bd[c] = column[c*(rows-1)/cells]
			}
		}
	})
	return flat
}

// totalOrderGrid is referenceGrid with -0 sorted below +0: the grid
// BuildBoundaries documents.
func totalOrderGrid(block []float64, rows, dims int) []float64 {
	flat := make([]float64, dims*(cells+1))
	column := make([]float64, rows)
	for d := 0; d < dims; d++ {
		for r := 0; r < rows; r++ {
			column[r] = block[r*dims+d]
		}
		sort.Slice(column, func(i, j int) bool {
			a, b := column[i], column[j]
			return a < b || (a == b && math.Signbit(a) && !math.Signbit(b))
		})
		bd := flat[d*(cells+1) : (d+1)*(cells+1)]
		for c := 0; c <= cells; c++ {
			bd[c] = column[c*(rows-1)/cells]
		}
	}
	return flat
}

// TestGridMatchesFullSort builds grids over columns with duplicates, a
// constant column, negatives, magnitudes from subnormal to huge, one-row
// blocks and a column holding both -0 and +0, and requires every
// boundary's bits to equal a full sort's. The mixed-zero column is
// compared with the -0-below-+0 order alone; the other columns must also
// match sort.Float64s.
func TestGridMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	negZero := math.Copysign(0, -1)
	columns := []struct {
		name      string
		value     func(r int) float64
		mixedZero bool
	}{
		{"duplicates", func(int) float64 { return float64(rng.Intn(7)) / 8 }, false},
		{"constant", func(int) float64 { return -2.5 }, false},
		{"negatives", func(int) float64 { return -math.Abs(rng.NormFloat64()) * 1e3 }, false},
		{"mixed signs", func(int) float64 { return rng.NormFloat64() }, false},
		{"magnitudes", func(int) float64 {
			return []float64{5e-324, -5e-324, 1e-300, -1e300, 1e300, math.MaxFloat64, -math.MaxFloat64, 0}[rng.Intn(8)]
		}, false},
		{"negative zero only", func(int) float64 {
			if rng.Intn(2) == 0 {
				return negZero
			}
			return []float64{-2, -1, 1, 2}[rng.Intn(4)]
		}, false},
		{"both zeros", func(int) float64 {
			switch rng.Intn(4) {
			case 0:
				return negZero
			case 1:
				return 0
			}
			return rng.NormFloat64()
		}, true},
	}
	dims := len(columns)
	for _, rows := range []int{1, 2, 3, 255, 256, 257, 1000, 5000} {
		block := make([]float64, rows*dims)
		for r := 0; r < rows; r++ {
			for d, c := range columns {
				block[r*dims+d] = c.value(r)
			}
		}
		b, err := BuildBoundaries(block, rows, dims)
		if err != nil {
			t.Fatal(err)
		}
		total, ref := totalOrderGrid(block, rows, dims), referenceGrid(block, rows, dims)
		for d, c := range columns {
			for i := d * (cells + 1); i < (d+1)*(cells+1); i++ {
				got := math.Float64bits(b.Flat()[i])
				if got != math.Float64bits(total[i]) || (!c.mixedZero && got != math.Float64bits(ref[i])) {
					t.Fatalf("%d rows, %s column: boundary %d = %v (%#x), -0-below-+0 sort %v, sort.Float64s %v",
						rows, c.name, i-d*(cells+1), b.Flat()[i], got, total[i], ref[i])
				}
			}
		}
	}
}

// TestRadixSortOrdersKeys sorts random keys, including runs that share
// every byte but one, and compares with the sort package.
func TestRadixSortOrdersKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 17, 1000} {
		for _, mask := range []uint64{^uint64(0), 0xff, 0xff00_0000_0000_0000, 0} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64()&mask | 0x0123_4567_89ab_cdef&^mask
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			radixSort(keys, make([]uint64, n))
			for i := range keys {
				if keys[i] != want[i] {
					t.Fatalf("n=%d mask=%#x: key %d = %#x, want %#x", n, mask, i, keys[i], want[i])
				}
			}
		}
	}
}

var gridSink *Boundaries

// BenchmarkBuildBoundaries builds the grid of a 200,000 × 64 block
// (vector-scan's shadowed base holds 200,000 rows), the radix sort
// against the sort.Float64s grid it replaced.
func BenchmarkBuildBoundaries(b *testing.B) {
	const rows, dims = 200000, 64
	rng := rand.New(rand.NewSource(1))
	block := make([]float64, rows*dims)
	for i := range block {
		// Half the coordinates are distances (non-negative), half
		// pivot projections of either sign.
		if v := rng.NormFloat64() * 3; i%2 == 0 {
			block[i] = math.Abs(v)
		} else {
			block[i] = v
		}
	}
	b.Run("radix", func(b *testing.B) {
		for b.Loop() {
			var err error
			if gridSink, err = BuildBoundaries(block, rows, dims); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		for b.Loop() {
			referenceGrid(block, rows, dims)
		}
	})
}
