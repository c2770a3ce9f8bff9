package retrieval

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"qse/internal/stats"
	"qse/internal/vafile"
)

// TestPackedKernelBounds property-tests the row kernels the screen runs
// over shadow rows, at awkward dimensionalities (a width that is not a
// multiple of 8 leaves a tail loop; one below 16 never reaches the
// sixteen-code exit check): the lower and upper bounds must bracket the
// true weighted L1 distance, and the bounded variant must agree with the
// unbounded one whenever it completes.
func TestPackedKernelBounds(t *testing.T) {
	rng := stats.NewRand(99)
	for _, dims := range []int{1, 3, 7, 16, 33, 64} {
		const rows = 64
		block := make([]float64, rows*dims)
		for i := range block {
			block[i] = rng.NormFloat64() * 3
		}
		b, err := vafile.BuildBoundaries(block, rows, dims)
		if err != nil {
			t.Fatal(err)
		}
		codes := b.EncodeBlock(block, rows)
		for qi := 0; qi < 8; qi++ {
			qvec := make([]float64, dims)
			weights := make([]float64, dims)
			for d := range qvec {
				qvec[d] = rng.NormFloat64() * 3
				weights[d] = rng.Float64() * 2
			}
			if qi%2 == 0 {
				weights = nil
			}
			var tbl vafile.Tables
			if !b.QueryTables(&tbl, qvec, weights) {
				t.Fatalf("dims=%d: tables rejected a finite query", dims)
			}
			for r := 0; r < rows; r++ {
				row := codes[r*dims : (r+1)*dims]
				truth := 0.0
				for d := 0; d < dims; d++ {
					w := 1.0
					if weights != nil {
						w = weights[d]
					}
					truth += w * math.Abs(qvec[d]-block[r*dims+d])
				}
				lb, ub := tbl.RowLower(row), tbl.RowUpper(row)
				if !(lb <= truth && truth <= ub) {
					t.Fatalf("dims=%d row=%d: bounds [%g, %g] miss true distance %g", dims, r, lb, ub, truth)
				}
				// RowLowerBounded may round differently from RowLower (it
				// reassociates and discounts), but it must stay a valid
				// lower bound, complete whenever the bound is reachable,
				// and be deterministic about its own verdict.
				lbb, within := tbl.RowLowerBounded(row, math.Inf(1))
				if !within || lbb > truth {
					t.Fatalf("dims=%d row=%d: unbounded RowLowerBounded (%g, %v) vs true %g", dims, r, lbb, within, truth)
				}
				if got, within := tbl.RowLowerBounded(row, ub); !within || got != lbb {
					t.Fatalf("dims=%d row=%d: RowLowerBounded at ub (%g, %v) != (%g, true)", dims, r, got, within, lbb)
				}
				if lbb > 0 {
					if _, within := tbl.RowLowerBounded(row, lbb/2); within {
						t.Fatalf("dims=%d row=%d: RowLowerBounded claimed within at bound %g < lb %g", dims, r, lbb/2, lbb)
					}
				}
			}
		}
	}
}

// TestSearchBatchQuantizedIdentity pins the batch path's exactness end
// to end: on a churned shadowed head (tombstones in both segments,
// out-of-range delta rows), SearchBatch must return exactly the
// per-query Search results and non-timing stats, and exactly the exact
// head's results. The shadow is built below the build gate, so the query
// gate alone decides: p = 1 screens at both sizes, p = 40 only on the
// partitioned head (it needs 128·40 base rows), p past the live rows
// never — and each query's stats must say which ran. Also pins the
// serial/batched boundary (a 1-query batch takes the per-query path) and
// the parallel threshold (the big head exceeds minParallelScan). The
// narrower widths older versions wrote (1, 2 and 4 bits) are reopened
// through QuantizeFromParts: below the build gate the head is dormant,
// and every query must take the exact scan through the same identities.
func TestSearchBatchQuantizedIdentity(t *testing.T) {
	for name, n := range map[string]int{"small": 300, "partitioned": minParallelScan*2 + 133} {
		t.Run(name, func(t *testing.T) {
			head := churnHead(t, seedBase(t, n, identityEmbedder{}), n)
			t.Run("bits8", func(t *testing.T) {
				checkBatchIdentity(t, head, mustShadow(t, head), n, true)
			})
			for _, bits := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("bits%d", bits), func(t *testing.T) {
					// The stale section's grid and packed codes, shaped as
					// the older writer laid them out; they are never read.
					grid := make([]float64, seedDims*(1<<bits+1))
					codes := make([]uint8, head.base.Size()*seedDims*bits/8)
					legacy, err := head.QuantizeFromParts(bits, grid, codes)
					if err != nil {
						t.Fatal(err)
					}
					if legacy.QuantBits() != 8 || legacy.ShadowBytes() != 0 {
						t.Fatalf("reopened %d-bit section: %d bits, %d shadow bytes, want a dormant 8-bit state",
							bits, legacy.QuantBits(), legacy.ShadowBytes())
					}
					checkBatchIdentity(t, head, legacy, n, false)
				})
			}
		})
	}
}

// checkBatchIdentity runs TestSearchBatchQuantizedIdentity's identities
// on quant, a quantized copy of the exact head (n base rows). shadowed
// says whether quant carries a shadow the seeded screen can run on.
func checkBatchIdentity(t *testing.T, head, quant *Segmented[[]float64], n int, shadowed bool) {
	t.Helper()
	seedable := n - quant.baseDead.popcount()
	queries := append(clusteredDB(5, 5), clusteredDB(4, 123)...)
	screened := 0
	for _, p := range []int{1, 40, n + 50} {
		k := min(10, p)
		wantScreen := shadowed && seedGate(n, min(p, quant.Live()), seedable)
		batchRes, batchStats, err := segSearchBatch(quant, queries, k, p)
		if err != nil {
			t.Fatal(err)
		}
		exactRes, _, err := segSearchBatch(head, queries, k, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			res, st, err := segSearch(quant, q, k, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, batchRes[i]) {
				t.Fatalf("p=%d query %d: batch diverges from serial quantized:\n  %v\n  %v", p, i, batchRes[i], res)
			}
			if !reflect.DeepEqual(batchRes[i], exactRes[i]) {
				t.Fatalf("p=%d query %d: batch diverges from exact:\n  %v\n  %v", p, i, batchRes[i], exactRes[i])
			}
			if got, want := batchStats[i].WithoutTiming(), st.WithoutTiming(); !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d query %d: batch stats diverge: %+v vs %+v", p, i, got, want)
			}
			if ran := batchStats[i].Timing.BoundScannedRows > 0; ran != wantScreen || (st.Timing.BoundScannedRows > 0) != wantScreen {
				t.Fatalf("p=%d query %d: screened = %v, gate says %v", p, i, ran, wantScreen)
			}
			if wantScreen {
				screened++
			}
			one, _, err := segSearchBatch(quant, queries[i:i+1], k, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one[0], res) {
				t.Fatalf("p=%d query %d: single-query batch diverges from Search", p, i)
			}
		}
	}
	if shadowed && screened == 0 {
		t.Fatal("no query took the seeded screen")
	}
}

// TestSearchBatchQuantizedErrors: a wrong-width query inside a batch
// must produce the same deterministic first-error as the per-query path,
// and healthy queries before it must not mask it.
func TestSearchBatchQuantizedErrors(t *testing.T) {
	base, err := BuildIndex(testDB(60), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewSegmentedWithMeta(base, nil).Quantize()
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{{0.5, 0.5}, {1, 2, 3}, {0.1}}
	_, _, batchErr := segSearchBatch(quant, queries, 3, 10)
	_, _, serialErr := segSearchBatch(NewSegmentedWithMeta(base, nil), queries, 3, 10)
	if batchErr == nil || serialErr == nil || batchErr.Error() != serialErr.Error() {
		t.Fatalf("batched error %q, per-query error %q", batchErr, serialErr)
	}
}

// TestSearchBatchQuantizedDrained: a batch against a head with zero live
// rows (pEff = 0, no screen at all) must answer like the exact path —
// empty results, no panic.
func TestSearchBatchQuantizedDrained(t *testing.T) {
	head := mustShadow(t, seedBase(t, 20, identityEmbedder{}))
	var err error
	for pos := 0; pos < head.Total(); pos++ {
		if head, err = head.Remove(pos); err != nil {
			t.Fatal(err)
		}
	}
	queries := clusteredDB(2, 5)
	res, sts, err := segSearchBatch(head, queries, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if len(res[i]) != 0 || sts[i].RefineDistances != 0 {
			t.Fatalf("drained batch query %d returned %v (stats %+v)", i, res[i], sts[i])
		}
	}
}

// TestQuantizePackedLayout pins the storage contract the persistence
// layer depends on: a shadow is one code byte per dimension per row (bn
// x dims bytes, each row exactly vafile's Encode, delta rows appended
// the same way), and Quantize builds it only for a base that clears the
// gate — below it the state is 8-bit and dormant, with no grid and no
// codes, even as delta rows arrive.
func TestQuantizePackedLayout(t *testing.T) {
	const n = 50
	seg := seedBase(t, n, identityEmbedder{})
	q := mustShadow(t, seg)
	if got := len(q.BaseShadow()); got != n*seedDims {
		t.Fatalf("base shadow %d bytes, want %d", got, n*seedDims)
	}
	grid, err := vafile.FromFlat(q.QuantBounds(), seedDims)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint8, seedDims)
	for r := 0; r < n; r++ {
		grid.Encode(vectorAt(seg, r), want)
		if got := q.BaseShadow()[r*seedDims : (r+1)*seedDims]; !reflect.DeepEqual(want, got) {
			t.Fatalf("row %d: shadow codes %v != encoded %v", r, got, want)
		}
	}
	x := clusteredDB(1, 6)[0]
	if q, _, err = addObject(q, x); err != nil {
		t.Fatal(err)
	}
	grid.Encode(x, want)
	if got, bytes := q.quant.deltaShadow[:seedDims], wantShadowBytes(t, q); q.ShadowBytes() != bytes || !reflect.DeepEqual(want, got) {
		t.Fatalf("delta row: %d shadow bytes, codes %v, want %d and %v", q.ShadowBytes(), got, bytes, want)
	}

	dormant, err := seg.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if dormant, _, err = addObject(dormant, x); err != nil {
		t.Fatal(err)
	}
	if dormant.QuantBits() != 8 || dormant.ShadowBytes() != 0 || dormant.QuantBounds() != nil || dormant.BaseShadow() != nil {
		t.Fatalf("below the gate: %d bits, %d shadow bytes, want a dormant 8-bit state", dormant.QuantBits(), dormant.ShadowBytes())
	}

	big := seedBase(t, shadowMinRows, identityEmbedder{})
	built, err := big.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if bytes := wantShadowBytes(t, built); !reflect.DeepEqual(built.BaseShadow(), mustShadow(t, big).BaseShadow()) || built.ShadowBytes() != bytes {
		t.Fatalf("at the gate Quantize built %d shadow bytes, want the full %d", built.ShadowBytes(), bytes)
	}
}

// wantShadowBytes is the resident size ShadowBytes must report for a
// shadowed s: every row's codes, 4 bytes a base row for the cluster
// order's map back to positions, 4 bytes a block for its first position
// plus the last block's end, 2·d + 16 bytes a tree node for its box,
// block range and children, and 4 bytes a root. It also checks the
// counts: each leaf of the two k-means levels (at most kmeansK²) is a
// root and ends in at most one partial block, and a root over B blocks
// has 2B - 1 nodes.
func wantShadowBytes(t testing.TB, s *Segmented[[]float64]) int {
	t.Helper()
	bn, d, blocks, roots := s.BaseSize(), s.Dims(), len(s.quant.starts)-1, len(s.quant.roots)
	if full := (bn + blockRows - 1) / blockRows; blocks < full || blocks > full+kmeansK*kmeansK {
		t.Fatalf("%d base rows in %d blocks", bn, blocks)
	}
	if roots < 1 || roots > kmeansK*kmeansK || len(s.quant.nodes) != 2*blocks-roots {
		t.Fatalf("%d blocks under %d roots in %d nodes", blocks, roots, len(s.quant.nodes))
	}
	return s.Total()*d + 4*bn + 4*blocks + 4 + len(s.quant.nodes)*(2*d+16) + 4*roots
}

// checkTree holds qs's cluster tree to its contract: the roots tile the
// blocks exactly once, in order, and reach every node exactly once;
// every internal node's children follow it, and its block range is the
// concatenation of theirs; every block node's box holds each code of
// its rows and each of its edges is some row's code; and every internal
// node's box is the min and max of its children's.
func checkTree(t *testing.T, name string, qs *quantState, dims int) {
	t.Helper()
	blocks := len(qs.starts) - 1
	reached := make([]int, len(qs.nodes))
	var visit func(n int32)
	visit = func(n int32) {
		reached[n]++
		nd := qs.nodes[n]
		if nd.hi-nd.lo == 1 {
			return
		}
		l, r := qs.nodes[nd.kids[0]], qs.nodes[nd.kids[1]]
		if nd.kids[0] <= n || nd.kids[1] <= n || l.lo != nd.lo || l.hi != r.lo || r.hi != nd.hi || l.hi <= l.lo || r.hi <= r.lo {
			t.Fatalf("%s: node %d [%d, %d) has children %d [%d, %d) and %d [%d, %d)",
				name, n, nd.lo, nd.hi, nd.kids[0], l.lo, l.hi, nd.kids[1], r.lo, r.hi)
		}
		lb, rb, box := qs.box(int(nd.kids[0])), qs.box(int(nd.kids[1])), qs.box(int(n))
		for j := 0; j < dims; j++ {
			if box[j] != min(lb[j], rb[j]) || box[dims+j] != max(lb[dims+j], rb[dims+j]) {
				t.Fatalf("%s: node %d dim %d: box [%d, %d] is not its children's [%d, %d] and [%d, %d]",
					name, n, j, box[j], box[dims+j], lb[j], lb[dims+j], rb[j], rb[dims+j])
			}
		}
		visit(nd.kids[0])
		visit(nd.kids[1])
	}
	next := int32(0)
	for _, r := range qs.roots {
		if nd := qs.nodes[r]; nd.lo != next || nd.hi <= nd.lo {
			t.Fatalf("%s: root %d covers blocks [%d, %d), want it to start at %d", name, r, nd.lo, nd.hi, next)
		}
		next = qs.nodes[r].hi
		visit(r)
	}
	if int(next) != blocks {
		t.Fatalf("%s: the roots cover %d of %d blocks", name, next, blocks)
	}
	for n, c := range reached {
		if c != 1 {
			t.Fatalf("%s: node %d reached %d times from the roots", name, n, c)
		}
	}
	for n, nd := range qs.nodes {
		if nd.hi-nd.lo != 1 {
			continue
		}
		lo, hi := int(qs.starts[nd.lo]), int(qs.starts[nd.hi])
		if hi <= lo || hi-lo > blockRows {
			t.Fatalf("%s: block %d holds %d rows", name, nd.lo, hi-lo)
		}
		box := qs.box(n)
		for j := 0; j < dims; j++ {
			atLo, atHi := false, false
			for i := lo; i < hi; i++ {
				c := qs.baseShadow[i*dims+j]
				if c < box[j] || c > box[dims+j] {
					t.Fatalf("%s: block %d dim %d: code %d outside its box [%d, %d]", name, nd.lo, j, c, box[j], box[dims+j])
				}
				atLo = atLo || c == box[j]
				atHi = atHi || c == box[dims+j]
			}
			if !atLo || !atHi {
				t.Fatalf("%s: block %d dim %d: box [%d, %d] is not attained by its rows", name, nd.lo, j, box[j], box[dims+j])
			}
		}
	}
}

// TestClusterOrder pins the derived layout the walk reads. A shadow
// built by withShadow and one restored by QuantizeFromParts from the
// first one's grid and BaseShadow are checked as built, after delta adds
// and removes, and after a compaction re-quantizes: the order is a
// permutation of the base rows, the blocks cover it in runs of at most
// blockRows, the cluster tree over them keeps its contract (checkTree),
// the held codes are the row-order codes permuted, BaseShadow returns
// the row-order codes byte for byte, and ShadowBytes counts it all. A
// second build and the restore give the same order, tree and boxes, and
// delta adds share them. A dormant or dequantized state holds none.
func TestClusterOrder(t *testing.T) {
	for _, dims := range []int{shadowMinDims, seedDims} {
		t.Run(fmt.Sprintf("dims=%d", dims), func(t *testing.T) {
			db := clusteredDB(shadowMinRows, 31)
			for i := range db {
				db[i] = db[i][:dims]
			}
			base, err := BuildIndex(db, l2, identityEmbedder{})
			if err != nil {
				t.Fatal(err)
			}
			built := mustShadow(t, NewSegmentedWithMeta(base, nil))
			restored, err := NewSegmentedWithMeta(base, nil).QuantizeFromParts(vafile.Bits, built.QuantBounds(), built.BaseShadow())
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*Segmented[[]float64]{"second build": mustShadow(t, NewSegmentedWithMeta(base, nil)), "restored": restored} {
				if !reflect.DeepEqual(s.quant.order, built.quant.order) || !reflect.DeepEqual(s.quant.starts, built.quant.starts) ||
					!reflect.DeepEqual(s.quant.nodes, built.quant.nodes) || !reflect.DeepEqual(s.quant.roots, built.quant.roots) ||
					!bytes.Equal(s.quant.boxes, built.quant.boxes) {
					t.Fatalf("%s: the cluster order or tree differs from the first build's", name)
				}
			}
			check := func(name string, s *Segmented[[]float64]) {
				t.Helper()
				qs, bn := s.quant, s.BaseSize()
				rowCodes := qs.bounds.EncodeBlock(s.base.flat, bn)
				if !bytes.Equal(s.BaseShadow(), rowCodes) {
					t.Fatalf("%s: BaseShadow differs from the row-order codes", name)
				}
				seen := make([]bool, bn)
				for i, r := range qs.order {
					if r < 0 || int(r) >= bn || seen[r] {
						t.Fatalf("%s: cluster position %d maps to row %d twice or out of range", name, i, r)
					}
					seen[r] = true
					if !bytes.Equal(qs.baseShadow[i*dims:(i+1)*dims], rowCodes[int(r)*dims:(int(r)+1)*dims]) {
						t.Fatalf("%s: cluster position %d does not hold row %d's codes", name, i, r)
					}
				}
				if len(qs.order) != bn || qs.starts[0] != 0 || int(qs.starts[len(qs.starts)-1]) != bn {
					t.Fatalf("%s: %d order entries, blocks span [%d, %d), want %d rows", name, len(qs.order), qs.starts[0], qs.starts[len(qs.starts)-1], bn)
				}
				checkTree(t, name, qs, dims)
				if want := wantShadowBytes(t, s); s.ShadowBytes() != want {
					t.Fatalf("%s: %d shadow bytes, want %d", name, s.ShadowBytes(), want)
				}
			}
			for name, s := range map[string]*Segmented[[]float64]{"built": built, "restored": restored} {
				check(name, s)
				grown := s
				for i, x := range clusteredDB(40, 33) {
					if i%5 == 0 {
						x[i%dims] = 100 // outside the base's range
					}
					if grown, _, err = addObject(grown, x[:dims]); err != nil {
						t.Fatal(err)
					}
				}
				for pos := 0; pos < 200; pos += 20 {
					if grown, err = grown.Remove(pos); err != nil {
						t.Fatal(err)
					}
				}
				check(name+" after adds", grown)
				if &grown.quant.order[0] != &s.quant.order[0] || &grown.quant.baseShadow[0] != &s.quant.baseShadow[0] ||
					&grown.quant.nodes[0] != &s.quant.nodes[0] || &grown.quant.boxes[0] != &s.quant.boxes[0] {
					t.Fatalf("%s: delta adds copied the base shadow", name)
				}
				compacted, err := NewSegmentedWithMeta(grown.Compact(), nil).Quantize()
				if err != nil {
					t.Fatal(err)
				}
				check(name+" compacted", compacted)
			}
			if built.Dequantize().quant != nil {
				t.Fatal("a dequantized state keeps its shadow")
			}
			short, err := BuildIndex(db[:shadowMinRows-1], l2, identityEmbedder{})
			if err != nil {
				t.Fatal(err)
			}
			dormant, err := NewSegmentedWithMeta(short, nil).Quantize()
			if err != nil || dormant.quant == nil || dormant.quant.order != nil || dormant.quant.nodes != nil || dormant.BaseShadow() != nil {
				t.Fatalf("below the gate: err %v, want a dormant state without an order", err)
			}
		})
	}
}

// TestQuantizeFromPartsLegacyUnpacked: a section persisted at a narrower
// width by an older writer — a legacy unpacked 4-bit shadow, a packed
// 4-bit one, a 3-bit one, a 1-bit one without a grid — is not repacked
// or refused: its grid and codes are ignored, and the shadow is rebuilt
// at 8 bits (identical to a fresh Quantize) when the base clears the
// gate, or left dormant below it. An 8-bit section is validated, then
// kept above the gate and dropped below it; widths outside 1..8 are
// rejected.
func TestQuantizeFromPartsLegacyUnpacked(t *testing.T) {
	big := seedBase(t, shadowMinRows, identityEmbedder{})
	small := seedBase(t, 80, identityEmbedder{})
	fresh, err := big.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		bits   int
		grid   []float64
		shadow []uint8
	}{
		{"unpacked4", 4, make([]float64, seedDims*17), make([]uint8, shadowMinRows*seedDims)},
		{"packed4", 4, make([]float64, seedDims*17), make([]uint8, shadowMinRows*seedDims/2)},
		{"bits3", 3, make([]float64, seedDims*9), []uint8{0xff}},
		{"bits1", 1, nil, nil},
	} {
		opened, err := big.QuantizeFromParts(c.bits, c.grid, c.shadow)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if opened.QuantBits() != 8 || !reflect.DeepEqual(opened.BaseShadow(), fresh.BaseShadow()) ||
			!reflect.DeepEqual(opened.QuantBounds(), fresh.QuantBounds()) {
			t.Fatalf("%s: reopened at %d bits without the rebuilt 8-bit shadow", c.name, opened.QuantBits())
		}
		below, err := small.QuantizeFromParts(c.bits, c.grid, c.shadow)
		if err != nil || below.QuantBits() != 8 || below.ShadowBytes() != 0 {
			t.Fatalf("%s below the gate: err %v, want a dormant 8-bit state", c.name, err)
		}
	}

	kept, err := big.QuantizeFromParts(8, fresh.QuantBounds(), fresh.BaseShadow())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept.BaseShadow(), fresh.BaseShadow()) {
		t.Fatal("an 8-bit section's shadow was not kept")
	}
	q := clusteredDB(1, 5)[0]
	var clk FilterClock
	want, _ := filterLiveMatch(big, q, nil, 7, false, nil, nil, nil, nil)
	if got, _ := filterLiveMatch(kept, q, nil, 7, false, &clk, nil, nil, nil); !reflect.DeepEqual(want, got) {
		t.Fatalf("reopened 8-bit head diverges: %v vs %v", got, want)
	}
	var tm Timing
	clk.AddTo(&tm)
	if tm.BoundScannedRows == 0 {
		t.Fatal("the reopened 8-bit head did not screen")
	}
	smallShadow := mustShadow(t, small)
	if below, err := small.QuantizeFromParts(8, smallShadow.QuantBounds(), smallShadow.BaseShadow()); err != nil || below.ShadowBytes() != 0 {
		t.Fatalf("an 8-bit section below the gate: err %v, %d shadow bytes, want dormant", err, below.ShadowBytes())
	}
	for name, shadow := range map[string][]uint8{"truncated": fresh.BaseShadow()[:10], "small-truncated": smallShadow.BaseShadow()[:10]} {
		src, grid := big, fresh.QuantBounds()
		if name == "small-truncated" {
			src, grid = small, smallShadow.QuantBounds()
		}
		if _, err := src.QuantizeFromParts(8, grid, shadow); err == nil {
			t.Fatalf("%s 8-bit shadow accepted", name)
		}
	}
	bad := append([]float64(nil), fresh.QuantBounds()...)
	bad[1] = math.NaN()
	if _, err := big.QuantizeFromParts(8, bad, fresh.BaseShadow()); err == nil {
		t.Fatal("non-finite 8-bit grid accepted")
	}
	for _, bits := range []int{0, 9} {
		if _, err := big.QuantizeFromParts(bits, fresh.QuantBounds(), fresh.BaseShadow()); err == nil {
			t.Fatalf("width %d accepted", bits)
		}
	}
}
