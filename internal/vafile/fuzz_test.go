package vafile

import (
	"math"
	"testing"
)

// FuzzBounds fuzzes the bracket property the two-phase scan rests on:
// for any block, query, and weight vector decoded from raw bytes,
// RowLower and RowLowerBounded <= true weighted L1 <= RowUpper for every
// in-range row.
// Bytes map to values via (b-128)/16 so the fuzzer explores negative
// values, duplicates, and constant dimensions without a structured
// generator.
func FuzzBounds(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2))
	f.Add([]byte{128, 128, 128, 128, 128, 128}, uint8(1))
	f.Add([]byte{0, 255, 0, 255, 7, 7, 7, 7, 200, 13}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, dRaw uint8) {
		dims := 1 + int(dRaw%4)
		// The first two rows' worth of bytes become query + weights; the
		// rest is the block.
		if len(raw) < 3*dims {
			t.Skip()
		}
		val := func(b byte) float64 { return (float64(b) - 128) / 16 }
		q := make([]float64, dims)
		w := make([]float64, dims)
		for d := 0; d < dims; d++ {
			q[d] = val(raw[d])
			w[d] = math.Abs(val(raw[dims+d])) // weights must be non-negative
		}
		body := raw[2*dims:]
		rows := len(body) / dims
		if rows == 0 || rows > 256 {
			t.Skip()
		}
		block := make([]float64, rows*dims)
		for i := range block {
			block[i] = val(body[i])
		}

		b, err := BuildBoundaries(block, rows, dims)
		if err != nil {
			t.Fatalf("finite block rejected: %v", err)
		}
		rt, err := FromFlat(b.Flat(), dims)
		if err != nil {
			t.Fatalf("own grid rejected by FromFlat: %v", err)
		}
		tbl, ok := b.QueryTables(q, w)
		if !ok {
			t.Fatalf("finite query/weights rejected")
		}
		codes := make([]uint8, dims)
		rtCodes := make([]uint8, dims)
		for r := 0; r < rows; r++ {
			row := block[r*dims : (r+1)*dims]
			if !b.Encode(row, codes) {
				t.Fatalf("row %d from the build block reported out of range", r)
			}
			if !rt.Encode(row, rtCodes) {
				t.Fatalf("row %d out of range after grid round trip", r)
			}
			for d := range codes {
				if codes[d] != rtCodes[d] {
					t.Fatalf("row %d dim %d: code %d != %d after round trip", r, d, codes[d], rtCodes[d])
				}
			}
			dist := trueWeightedL1(w, q, row)
			lb, ub := tbl.RowLower(codes), tbl.RowUpper(codes)
			if lb > dist || dist > ub {
				t.Fatalf("row %d: bounds [%g, %g] do not bracket %g (dims=%d)", r, lb, ub, dist, dims)
			}
			if lb < 0 || ub < lb {
				t.Fatalf("row %d: malformed bounds [%g, %g]", r, lb, ub)
			}
			// The screen's reassociated kernel must bound the row too.
			if lbb, within := tbl.RowLowerBounded(codes, math.Inf(1)); !within || lbb > dist {
				t.Fatalf("row %d: RowLowerBounded (%g, %v) vs true %g", r, lbb, within, dist)
			}
		}
	})
}
