package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEditDistance cross-checks the rolling-array implementation against a
// simple full-matrix reference and the classic metric properties.
func FuzzEditDistance(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("ACGTACGT", "ACGT")
	f.Add("aaaa", "aaaa")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 200 || len(b) > 200 {
			t.Skip()
		}
		got := EditDistance(a, b)
		want := editDistanceRef(a, b)
		if got != want {
			t.Fatalf("EditDistance(%q,%q) = %d, reference = %d", a, b, got, want)
		}
		if sym := EditDistance(b, a); sym != got {
			t.Fatalf("asymmetric: %d vs %d", got, sym)
		}
		if got < abs(len(a)-len(b)) {
			t.Fatalf("below length-difference bound")
		}
		if got > maxInt(len(a), len(b)) {
			t.Fatalf("above max-length bound")
		}
	})
}

// FuzzWeightedL1x4 holds each of the four-row kernel's outputs to
// WeightedL1Unchecked on its row, bit for bit. raw is read as
// little-endian float64 bits — so the mutator reaches NaNs, infinities,
// signed zeros and subnormals — laid out as weights, query and four rows
// of len(raw)/48 values each. The seeds are x4Cases.
func FuzzWeightedL1x4(f *testing.F) {
	for _, c := range x4Cases() {
		f.Add(encodeX4(c))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 48
		if n > 256 {
			t.Skip()
		}
		vec := func(i int) []float64 {
			v := make([]float64, n)
			for j := range v {
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*n+j)*8:]))
			}
			return v
		}
		checkX4(t, x4Case{w: vec(0), q: vec(1), rows: [4][]float64{vec(2), vec(3), vec(4), vec(5)}})
	})
}

// encodeX4 is FuzzWeightedL1x4's byte layout of c.
func encodeX4(c x4Case) []byte {
	var raw []byte
	for _, v := range [][]float64{c.w, c.q, c.rows[0], c.rows[1], c.rows[2], c.rows[3]} {
		for _, x := range v {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
	}
	return raw
}

// editDistanceRef is the textbook full-matrix implementation.
func editDistanceRef(a, b string) int {
	m := make([][]int, len(a)+1)
	for i := range m {
		m[i] = make([]int, len(b)+1)
		m[i][0] = i
	}
	for j := 0; j <= len(b); j++ {
		m[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m[i][j] = min3(m[i-1][j]+1, m[i][j-1]+1, m[i-1][j-1]+cost)
		}
	}
	return m[len(a)][len(b)]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
