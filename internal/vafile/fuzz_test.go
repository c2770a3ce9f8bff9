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
		var tbl Tables
		if !b.QueryTables(&tbl, q, w) {
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

// FuzzBoxBound fuzzes the skip rule of the seeded screen's walk: for any
// grid, query (inside the grid or far outside it), weights (zero and -0
// included), member rows and bound decoded from raw bytes, a box whose
// BoxLower exceeds BoxStop(bound) holds no member row that
// RowLowerBounded admits against bound. BoxLower must also match the
// sequential sum of each dimension's smallest lower-bound entry over the
// box's code range, within the reordering slack, so a box bound that
// lost its pruning power fails too; it must never exceed the bound of a
// box around a run of the members, which it holds as a node of the
// walk's tree holds its children, nor be -0, whose bits would misorder
// the walk's keys; and the tables must come out the same, bit for bit,
// when written over another query's. Bytes map to values as in
// FuzzBounds.
func FuzzBoxBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(1), uint8(0), uint8(3), uint8(2), false, false)
	f.Fuzz(func(t *testing.T, raw []byte, dRaw, memLo, memN, boundSel uint8, far, negZero bool) {
		dims := 1 + int(dRaw)%64
		if len(raw) < 3*dims {
			t.Skip()
		}
		val := func(b byte) float64 { return (float64(b) - 128) / 16 }
		q := make([]float64, dims)
		w := make([]float64, dims)
		for d := 0; d < dims; d++ {
			q[d] = val(raw[d])
			if far {
				q[d] += 100 // outside every grid the bytes can build
			}
			w[d] = math.Abs(val(raw[dims+d]))
			if w[d] == 0 && negZero {
				w[d] = math.Copysign(0, -1)
			}
		}
		body := raw[2*dims:]
		rows := len(body) / dims
		if rows > 256 {
			rows = 256
		}
		block := make([]float64, rows*dims)
		for i := range block {
			block[i] = val(body[i])
		}
		b, err := BuildBoundaries(block, rows, dims)
		if err != nil {
			t.Fatalf("finite block rejected: %v", err)
		}
		var tbl Tables
		if !b.QueryTables(&tbl, q, w) {
			t.Fatalf("finite query/weights rejected")
		}
		// The same tables written over another query's: 100 - q lies
		// above the grid when q is inside it, and inside it when q is
		// far above.
		other := make([]float64, dims)
		for d := range other {
			other[d] = 100 - q[d]
		}
		var reused Tables
		if !b.QueryTables(&reused, other, nil) || !b.QueryTables(&reused, q, w) || !sameTables(&reused, &tbl) {
			t.Fatalf("dims=%d: tables written over another query's differ from fresh ones", dims)
		}
		codes := b.EncodeBlock(block, rows)
		lo := int(memLo) % rows
		n := 1 + int(memN)%(rows-lo)
		members := codes[lo*dims : (lo+n)*dims]
		box := make([]uint8, 2*dims)
		Box(members, dims, box)
		s := tbl.BoxLower(box)

		// The sequential reference: each dimension's smallest entry over
		// [lo, hi], the range every member's code lies in.
		ref := 0.0
		for d := 0; d < dims; d++ {
			m := math.Inf(1)
			for c := int(box[d]); c <= int(box[dims+d]); c++ {
				m = math.Min(m, tbl.lb[d*cells+c])
			}
			ref += m
		}
		mrel, _ := tbl.Slack()
		if math.Abs(s-ref) > 2*mrel*ref {
			t.Fatalf("dims=%d: BoxLower %v, sequential minimum %v", dims, s, ref)
		}
		if math.Signbit(s) {
			t.Fatalf("dims=%d: BoxLower %v has its sign bit set", dims, s)
		}

		// A child: the box of a run of the members, held in the box
		// around them all.
		cLo := int(raw[len(raw)-1]) % n
		cN := 1 + int(raw[len(raw)-2])%(n-cLo)
		child := make([]uint8, 2*dims)
		Box(members[cLo*dims:(cLo+cN)*dims], dims, child)
		if cs := tbl.BoxLower(child); s > cs {
			t.Fatalf("dims=%d: the members' box bound %v exceeds the bound %v of rows [%d, %d) of them", dims, s, cs, cLo, cLo+cN)
		}

		// Bounds in half-slack steps below the box sum, across the skip
		// threshold two slacks down (a one-row box sums the same terms as
		// its row, so a rule with less slack drops a row within the
		// bound), and one far below it.
		k := int(boundSel) % 8
		bound := s * (1 - float64(k)*mrel/2)
		if k == 7 {
			bound = s / 2
		}
		if boundSel >= 128 {
			bound = math.Nextafter(bound, 0)
		}
		if !(s > tbl.BoxStop(bound)) {
			return
		}
		for r := 0; r < n; r++ {
			row := members[r*dims : (r+1)*dims]
			if lb, within := tbl.RowLowerBounded(row, bound); within {
				t.Fatalf("dims=%d: box sum %v > BoxStop(%v) = %v, yet member %d is within (lb %v)",
					dims, s, bound, tbl.BoxStop(bound), r, lb)
			}
		}
	})
}
