package retrieval

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"qse/internal/meta"
	"qse/internal/metrics"
	"qse/internal/space"
	"qse/internal/stats"
	"qse/internal/vafile"
)

// seedDims is the width of the seeded-screen test vectors, past the
// build gate's shadowMinDims.
const seedDims = 24

// clusteredDB draws n seedDims-wide rows around eight centres, so a query
// near one centre has a tight top p and most blocks' boxes exceed it —
// the shape in which the seeded screen's walk skips blocks.
func clusteredDB(n int, seed int64) [][]float64 {
	rng := stats.NewRand(seed)
	centres := make([][]float64, 8)
	for i := range centres {
		centres[i] = make([]float64, seedDims)
		for d := range centres[i] {
			centres[i][d] = rng.Float64() * 10
		}
	}
	db := make([][]float64, n)
	for i := range db {
		c := centres[rng.Intn(len(centres))]
		db[i] = make([]float64, seedDims)
		for d := range db[i] {
			db[i][d] = c[d] + rng.NormFloat64()*0.4
		}
	}
	return db
}

// seedWeights is a fixed non-uniform weight vector with one zero weight.
func seedWeights() []float64 {
	w := make([]float64, seedDims)
	for d := range w {
		w[d] = 1 / float64(1+d%5)
	}
	w[3] = 0
	return w
}

// weightedEmbedder is the identity embedding whose every query carries
// seedWeights — the Weighter path at seedDims.
type weightedEmbedder struct{}

func (weightedEmbedder) Embed(x []float64) []float64      { return append([]float64(nil), x...) }
func (weightedEmbedder) EmbedCost() int                   { return 0 }
func (weightedEmbedder) QueryWeights([]float64) []float64 { return seedWeights() }

// mustShadow builds s's shadow whatever its size: tests below the gate
// screen through it by calling the screen directly.
func mustShadow(t testing.TB, s *Segmented[[]float64]) *Segmented[[]float64] {
	t.Helper()
	q, err := s.withShadow()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// screenRun is one phase 1 + phase 2 pass of the seeded screen over s,
// called directly whatever the gate says, with p clamped to the
// matching-live population and nil weights read as the index's ones
// vector like the filter phase: the merged candidates,
// phase 1's verdict (nil when the screen declined), the bound-scan
// counters, and the clamped p.
type screenRun struct {
	res []space.Neighbor
	pr  *boundPrune
	tm  Timing
	p   int
}

func runScreen(s *Segmented[[]float64], qvec, weights []float64, p int, parallel bool, rs rowSet) screenRun {
	p = min(p, rs.baseSel+rs.deltaSel)
	if p <= 0 {
		return screenRun{}
	}
	if weights == nil {
		weights = s.base.ones
	}
	var clk FilterClock
	pr := s.screen(qvec, weights, p, parallel, &clk, viewOf(s, rs))
	out := screenRun{pr: pr, p: p}
	if pr != nil {
		out.res = positions(mergeTopP(s.scanCandidateChunks(qvec, weights, p, pr, idTables{}, &clk), p))
	}
	clk.AddTo(&out.tm)
	return out
}

// viewOf is the shadow view of s under rs, whatever the gate says.
func viewOf(s *Segmented[[]float64], rs rowSet) *shadowView {
	return &shadowView{quantState: s.quant, bn: s.BaseSize(), stride: s.Dims(), rowSet: rs}
}

// keepRows is the row set of a filtered scan that selects exactly the
// rows keep holds.
func keepRows(s *Segmented[[]float64], keep func(pos int) bool) rowSet {
	bn, dn := s.BaseSize(), s.DeltaLen()
	rs := rowSet{baseSkip: make(bitmap, (bn+63)/64), deltaSkip: make(bitmap, (dn+63)/64)}
	for pos := 0; pos < bn+dn; pos++ {
		switch {
		case keep(pos) && pos < bn:
			rs.baseSel++
		case keep(pos):
			rs.deltaSel++
		case pos < bn:
			rs.baseSkip[pos>>6] |= 1 << (uint(pos) & 63)
		default:
			rs.deltaSkip[(pos-bn)>>6] |= 1 << (uint(pos-bn) & 63)
		}
	}
	return rs
}

// matching is keep for pred: the live rows of s matching it.
func matching(s *Segmented[[]float64], pred *meta.Predicate) func(pos int) bool {
	return func(pos int) bool { return s.Alive(pos) && pred.Match(s.Metadata(pos)) }
}

// referenceTopP is the paper's filter step by brute force: every live
// (and, under a filter, matching) row's exact filter distance, sorted by
// (distance, position), cut at p.
func referenceTopP(s *Segmented[[]float64], qvec, weights []float64, p int, keep func(pos int) bool) []space.Neighbor {
	var all []space.Neighbor
	for pos := 0; pos < s.Total(); pos++ {
		if !keep(pos) {
			continue
		}
		d := metrics.L1(qvec, vectorAt(s, pos))
		if weights != nil {
			d = metrics.WeightedL1Unchecked(weights, qvec, vectorAt(s, pos))
		}
		all = append(all, space.Neighbor{Index: pos, Distance: d})
	}
	space.SortNeighbors(all)
	if len(all) > p {
		all = all[:p]
	}
	if len(all) == 0 {
		return nil
	}
	return all
}

// referenceTau is tau by brute force: the p-th smallest upper bound over
// every live (matching) row with valid bounds — base rows and in-range
// delta rows — or +Inf when fewer exist.
func referenceTau(s *Segmented[[]float64], qvec, weights []float64, p int, keep func(pos int) bool) float64 {
	var tbl vafile.Tables
	if !s.quant.bounds.QueryTables(&tbl, qvec, weights) {
		return math.NaN()
	}
	d, bn, base := s.Dims(), s.BaseSize(), s.BaseShadow()
	var ubs []float64
	for pos := 0; pos < s.Total(); pos++ {
		if !keep(pos) {
			continue
		}
		if pos < bn {
			ubs = append(ubs, tbl.RowUpper(base[pos*d:(pos+1)*d]))
		} else if j := pos - bn; !s.quant.deltaUnsafe[j] {
			ubs = append(ubs, tbl.RowUpper(s.quant.deltaShadow[j*d:(j+1)*d]))
		}
	}
	if len(ubs) < p {
		return math.Inf(1)
	}
	sort.Float64s(ubs)
	return ubs[p-1]
}

// referenceExact counts the rows phase 2 must evaluate at tau: every
// live (matching) unsafe delta row, and every other one whose full-row
// lower bound is within tau. Rows the screen dropped or skipped have
// lower bounds above a threshold >= tau, so they are not counted either
// way.
func referenceExact(s *Segmented[[]float64], qvec, weights []float64, tau float64, keep func(pos int) bool) int64 {
	var tbl vafile.Tables
	s.quant.bounds.QueryTables(&tbl, qvec, weights)
	d, bn, base := s.Dims(), s.BaseSize(), s.BaseShadow()
	var n int64
	for pos := 0; pos < s.Total(); pos++ {
		if !keep(pos) {
			continue
		}
		var within bool
		switch j := pos - bn; {
		case pos < bn:
			_, within = tbl.RowLowerBounded(base[pos*d:(pos+1)*d], tau)
		case s.quant.deltaUnsafe[j]:
			within = true
		default:
			_, within = tbl.RowLowerBounded(s.quant.deltaShadow[j*d:(j+1)*d], tau)
		}
		if within {
			n++
		}
	}
	return n
}

// assertSeededMatches runs the seeded screen directly on one input: on
// the rows keep holds as a filtered scan's row set, or, for a nil keep,
// on the live rows as an unfiltered scan's (the tombstones). The
// screen must run whenever p > 0, and then return the reference top p,
// the reference tau (the one the paper's bound argument defines,
// whatever order the rows are screened in), scan every live matching
// row, visit no more rows than it scans, and evaluate exactly the rows
// whose lower bounds are within tau.
func assertSeededMatches(t *testing.T, s *Segmented[[]float64], qvec, weights []float64, p int, parallel bool, keep func(pos int) bool) screenRun {
	t.Helper()
	rs := s.selectRows(nil, nil)
	if keep == nil {
		keep = s.Alive
	} else {
		rs = keepRows(s, keep)
	}
	live := 0
	for pos := 0; pos < s.Total(); pos++ {
		if keep(pos) {
			live++
		}
	}
	run := runScreen(s, qvec, weights, p, parallel, rs)
	if ran := run.pr != nil; ran != (run.p > 0) {
		t.Fatalf("p=%d: screen ran = %v", run.p, ran)
	}
	if run.pr == nil {
		return run
	}
	if want := referenceTopP(s, qvec, weights, run.p, keep); !reflect.DeepEqual(run.res, want) {
		t.Fatalf("p=%d: seeded screen diverges from the reference\n  got  %v\n  want %v", run.p, run.res, want)
	}
	if tau := referenceTau(s, qvec, weights, run.p, keep); run.pr.tau != tau {
		t.Fatalf("p=%d: tau %v, reference %v", run.p, run.pr.tau, tau)
	}
	if run.tm.BoundScannedRows != int64(live) {
		t.Fatalf("p=%d: scanned %d rows, want the %d live matching rows", run.p, run.tm.BoundScannedRows, live)
	}
	if want := referenceExact(s, qvec, weights, run.pr.tau, keep); run.tm.BoundExactRows != want || want < int64(run.p) {
		t.Fatalf("p=%d: evaluated %d rows exactly, reference %d", run.p, run.tm.BoundExactRows, want)
	}
	// Every evaluated row but an unsafe delta row had its codes summed.
	if v := run.tm.BoundVisitedRows; v > run.tm.BoundScannedRows || v < run.tm.BoundExactRows-int64(unsafeLive(s, keep)) {
		t.Fatalf("p=%d: visited %d rows of %d scanned, %d evaluated", run.p, v, run.tm.BoundScannedRows, run.tm.BoundExactRows)
	}
	return run
}

// unsafeLive counts the live (matching) unsafe delta rows, which phase 2
// evaluates without their codes ever being summed.
func unsafeLive(s *Segmented[[]float64], keep func(pos int) bool) int {
	n := 0
	for j, u := range s.quant.deltaUnsafe {
		if u && keep(s.BaseSize()+j) {
			n++
		}
	}
	return n
}

// churnHead adds n/10+40 clustered delta rows (every seventh with a
// value far outside the base's range, so unsafe where a shadow exists),
// then tombstones about n/8 rows, with metadata on every added row. The
// same seed replays the same script on any head of the same shape.
func churnHead(t testing.TB, head *Segmented[[]float64], n int) *Segmented[[]float64] {
	t.Helper()
	rng := stats.NewRand(9)
	extra := clusteredDB(n/10+40, 6)
	var err error
	for i, x := range extra {
		if i%7 == 0 {
			x[i%len(x)] = 100
		}
		if head, _, err = head.AddWithVectorMeta(x, head.Base().embedder.Embed(x), testMeta(n+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/8; i++ {
		pos := rng.Intn(head.Total())
		if head.Alive(pos) {
			if head, err = head.Remove(pos); err != nil {
				t.Fatal(err)
			}
		}
	}
	return head
}

// seedBase builds an n-row clustered base with metadata on every row.
func seedBase(t testing.TB, n int, em Embedder[[]float64]) *Segmented[[]float64] {
	t.Helper()
	base, err := BuildIndex(clusteredDB(n, 5), l2, em)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]meta.Map, n)
	for i := range rows {
		rows[i] = testMeta(i)
	}
	return NewSegmentedWithMeta(base, meta.NewBlock(rows))
}

// seedHead builds a shadowed head of n base rows, whatever the gate
// says, then churns it: tombstones in both segments, delta rows (some
// outside the base's boundary range, so unsafe), and metadata on every
// row.
func seedHead(t *testing.T, n int) *Segmented[[]float64] {
	t.Helper()
	head := churnHead(t, mustShadow(t, seedBase(t, n, identityEmbedder{})), n)
	unsafe := 0
	for _, u := range head.quant.deltaUnsafe {
		if u {
			unsafe++
		}
	}
	if head.Tombstones() == 0 || unsafe == 0 {
		t.Fatalf("seed head has %d tombstones and %d unsafe delta rows, want both > 0", head.Tombstones(), unsafe)
	}
	return head
}

// oneTree returns a copy of s whose cluster tree is one balanced binary
// tree over its blocks, each node's box the min and max of its
// children's. The walk's contract holds on any such tree, and a base
// below the gate cuts its leaves into single blocks, so this is how a
// test below the gate makes every walk descend several levels.
func oneTree(s *Segmented[[]float64]) *Segmented[[]float64] {
	qs := *s.quant
	d := s.Dims()
	qs.nodes, qs.boxes = nil, nil
	var build func(lo, hi int32) int32
	build = func(lo, hi int32) int32 {
		n := int32(len(qs.nodes))
		qs.nodes = append(qs.nodes, treeNode{lo: lo, hi: hi})
		qs.boxes = append(qs.boxes, make([]uint8, 2*d)...)
		if hi-lo == 1 {
			vafile.Box(qs.baseShadow[int(qs.starts[lo])*d:int(qs.starts[hi])*d], d, qs.box(int(n)))
			return n
		}
		l, r := build(lo, (lo+hi)/2), build((lo+hi)/2, hi)
		qs.nodes[n].kids = [2]int32{l, r}
		box, lb, rb := qs.box(int(n)), qs.box(int(l)), qs.box(int(r))
		for j := 0; j < d; j++ {
			box[j], box[d+j] = min(lb[j], rb[j]), max(lb[d+j], rb[d+j])
		}
		return n
	}
	qs.roots = []int32{build(0, int32(len(qs.starts)-1))}
	out := *s
	out.quant = &qs
	return &out
}

// TestSeededScreenMatchesUnseeded pins the seeded screen's contract
// below the gate, serial and partitioned: on a churned head, for the
// unweighted and the weighted distance, unfiltered and filtered, with p
// from 1 to more than the live rows and under a filter matching fewer
// than p rows, the screen returns the reference top p with the tau and
// row counts a screen of every row in position order would give
// (assertSeededMatches). Unfiltered, its candidate lists must also be
// shorter than the rows it scanned, or the walk never pruned anything.
// Each head is walked twice: down its own cluster tree, whose leaves
// are single blocks at these sizes, and down oneTree's, where the walk
// must descend through internal nodes and leave some unpriced.
func TestSeededScreenMatchesUnseeded(t *testing.T) {
	preds := map[string]*meta.Predicate{
		"unfiltered": nil,
		"bucket3":    mustFilter(t, `{"field":"bucket","eq":3}`),
		"sparse":     mustFilter(t, `{"and":[{"field":"bucket","eq":4},{"field":"tag","eq":"b"}]}`),
	}
	for name, n := range map[string]int{"serial": 600, "partitioned": minParallelScan*2 + 133} {
		t.Run(name, func(t *testing.T) {
			head := seedHead(t, n)
			tree := oneTree(head)
			queries := clusteredDB(6, 5) // the base's first six rows
			var priced, treeRuns int
			for wname, weights := range map[string][]float64{"unweighted": nil, "weighted": seedWeights()} {
				for pname, pred := range preds {
					var keep func(int) bool
					if pred != nil {
						keep = matching(head, pred)
					}
					var cands, scanned, ran int
					for _, q := range queries {
						for _, p := range []int{1, 20, 150, head.Live() + 10} {
							run := assertSeededMatches(t, head, q, weights, p, n > minParallelScan, keep)
							if run.pr != nil {
								ran++
								cands += len(run.pr.cands)
								scanned += int(run.tm.BoundScannedRows)
							}
							if run = assertSeededMatches(t, tree, q, weights, p, n > minParallelScan, keep); run.pr != nil {
								priced += run.pr.priced
								treeRuns++
							}
						}
					}
					if ran == 0 {
						t.Fatalf("%s/%s: the screen never ran", wname, pname)
					}
					if pname == "unfiltered" && cands >= scanned {
						t.Fatalf("%s: the seeded screen kept %d candidates of %d scanned rows", wname, cands, scanned)
					}
				}
			}
			// oneTree has one root: a walk that stops at its children prices
			// 3 boxes, one that prices everything all the nodes.
			if nodes := len(tree.quant.nodes); priced <= 3*treeRuns || priced >= treeRuns*nodes {
				t.Fatalf("the walks down one tree of %d nodes priced %d boxes in %d runs: it never descended, or never skipped", nodes, priced, treeRuns)
			}
			// p = Live()+10 exceeds every matching set; the serial head's
			// sparse filter also matches fewer rows than p = 150.
			if m := len(matchingLive(head, preds["sparse"])); name == "serial" && m >= 150 {
				t.Fatalf("the sparse filter matches %d rows, want fewer than p = 150", m)
			}
		})
	}
}

// TestSeededScreenSkipsDeadAndNonMatching removes (or filters out) the
// rows nearest the query, so every one of them would tighten the walk's
// bound below any live matching row's: letting a single one into the
// heap drops rows that define tau, and this test fails.
func TestSeededScreenSkipsDeadAndNonMatching(t *testing.T) {
	db := clusteredDB(3000, 11)
	base, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	q := db[17]
	order := referenceTopP(NewSegmentedWithMeta(base, nil), q, nil, 60, func(int) bool { return true })
	rows := make([]meta.Map, len(db))
	for i := range rows {
		rows[i] = meta.Map{"near": meta.BoolValue(false)}
	}
	for _, nb := range order {
		rows[nb.Index] = meta.Map{"near": meta.BoolValue(true)}
	}
	head := mustShadow(t, NewSegmentedWithMeta(base, meta.NewBlock(rows)))
	far, err := meta.CompileFilter([]byte(`{"field":"near","eq":false}`), map[string]meta.Kind{"near": meta.KindBool})
	if err != nil {
		t.Fatal(err)
	}
	dead := head
	for _, nb := range order {
		if dead, err = dead.Remove(nb.Index); err != nil {
			t.Fatal(err)
		}
	}
	for _, weights := range [][]float64{nil, seedWeights()} {
		for _, p := range []int{1, 5, 40} {
			assertSeededMatches(t, dead, q, weights, p, false, nil)
			assertSeededMatches(t, head, q, weights, p, false, matching(head, far))
		}
	}
}

// TestSeededScreenAtGate drives the seeded screen through the production
// entry point: a base segment exactly at the build gate, searched at the
// largest p the query gate admits and just past it, must answer like the
// exact scan — through the screen at the first, through the exact scan
// at the second.
func TestSeededScreenAtGate(t *testing.T) {
	db := clusteredDB(shadowMinRows, 13)
	base, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewSegmentedWithMeta(base, nil)
	quant, err := exact.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if want := wantShadowBytes(t, quant); quant.ShadowBytes() != want {
		t.Fatalf("a base at the gate carries %d shadow bytes, want %d", quant.ShadowBytes(), want)
	}
	for _, p := range []int{10, shadowMinRows / seedBaseRowsPerP, shadowMinRows/seedBaseRowsPerP + 1} {
		for qi, q := range clusteredDB(3, 13) {
			for _, weights := range [][]float64{nil, seedWeights()} {
				want, _ := filterLiveMatch(exact, q, weights, p, true, nil, nil, nil, nil)
				var clk FilterClock
				if got, _ := filterLiveMatch(quant, q, weights, p, true, &clk, nil, nil, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("p=%d query %d: quantized scan diverges from exact", p, qi)
				}
				var tm Timing
				clk.AddTo(&tm)
				if screened := tm.BoundScannedRows > 0; screened != (p <= shadowMinRows/seedBaseRowsPerP) {
					t.Fatalf("p=%d query %d: screened = %v (%d rows)", p, qi, screened, tm.BoundScannedRows)
				}
			}
		}
	}
}

// TestGate pins the one gate both halves of the policy share: the build
// decision on (rows, dims), the query decision on (rows, p, seedable
// rows), and that FilterLiveMatch, unfiltered and filtered, reaches the
// screen exactly when both hold.
func TestGate(t *testing.T) {
	for _, c := range []struct {
		rows, dims int
		want       bool
	}{
		{shadowMinRows, shadowMinDims, true},
		{shadowMinRows - 1, shadowMinDims, false},
		{shadowMinRows, shadowMinDims - 1, false},
		{200000, 64, true},
		{5000, 32, false},
		{0, 32, false},
	} {
		if got := shadowGate(c.rows, c.dims); got != c.want {
			t.Errorf("shadowGate(%d, %d) = %v, want %v", c.rows, c.dims, got, c.want)
		}
	}
	for _, c := range []struct {
		bn, p, seedable int
		want            bool
	}{
		{25600, 200, 200, true},
		{25599, 200, 25599, false},
		{200000, 200, 199, false},
		{200000, 200, 200, true},
		{16384, 128, 16384, true},
		{16384, 129, 16384, false},
		{5000, 1, 5000, true},
	} {
		if got := seedGate(c.bn, c.p, c.seedable); got != c.want {
			t.Errorf("seedGate(%d, %d, %d) = %v, want %v", c.bn, c.p, c.seedable, got, c.want)
		}
	}

	// Through the entry points: a base at the build gate, 41 of whose
	// rows match the filter, plus 60 matching delta rows — so under the
	// filter the seedable rows, and not the base's length, bind first.
	const n = shadowMinRows
	rows := make([]meta.Map, n)
	for i := range rows {
		rows[i] = meta.Map{"rare": meta.BoolValue(i%400 == 0)}
	}
	base, err := BuildIndex(clusteredDB(n, 5), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	exactHead := NewSegmentedWithMeta(base, meta.NewBlock(rows))
	for _, x := range clusteredDB(60, 6) {
		if exactHead, _, err = exactHead.AddWithVectorMeta(x, x, meta.Map{"rare": meta.BoolValue(true)}); err != nil {
			t.Fatal(err)
		}
	}
	for pos := 1; pos < 40; pos++ {
		if exactHead, err = exactHead.Remove(pos); err != nil {
			t.Fatal(err)
		}
	}
	quant, err := exactHead.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if quant.ShadowBytes() == 0 {
		t.Fatal("no shadow at the build gate")
	}
	short, err := BuildIndex(clusteredDB(n-1, 5), l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	if dormant, err := NewSegmentedWithMeta(short, nil).Quantize(); err != nil || dormant.ShadowBytes() != 0 || dormant.QuantBits() != 8 {
		t.Fatalf("one row below the build gate: err %v, want a dormant 8-bit state", err)
	}
	pred, err := meta.CompileFilter([]byte(`{"field":"rare","eq":true}`), map[string]meta.Kind{"rare": meta.KindBool})
	if err != nil {
		t.Fatal(err)
	}
	seedable, matched := 0, 0
	for _, pos := range matchingLive(quant, pred) {
		if pos < n {
			seedable++
		}
		matched++
	}
	liveBase := n - quant.baseDead.popcount()
	q := clusteredDB(1, 5)[0]
	for _, p := range []int{1, seedable, seedable + 1, matched, n / seedBaseRowsPerP, n/seedBaseRowsPerP + 1} {
		for _, filtered := range []bool{false, true} {
			var clk FilterClock
			f, gate := pred, seedGate(n, min(p, matched), seedable)
			if !filtered {
				f, gate = nil, seedGate(n, p, liveBase)
			}
			want, _ := filterLiveMatch(exactHead, q, nil, p, true, nil, f, nil, nil)
			got, _ := filterLiveMatch(quant, q, nil, p, true, &clk, f, nil, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d filtered=%v: quantized diverges from exact", p, filtered)
			}
			var tm Timing
			clk.AddTo(&tm)
			if screened := tm.BoundScannedRows > 0; screened != gate {
				t.Fatalf("p=%d filtered=%v: screened = %v, gate = %v", p, filtered, screened, gate)
			}
		}
	}
	if seedable == 0 || seedable >= matched {
		t.Fatalf("the filter leaves %d seedable of %d matching rows", seedable, matched)
	}
}

// FuzzSeededScreen builds a small shadowed head from raw bytes — width
// 16 to 24, base rows, delta rows (some outside the base's range),
// tombstones, a match bitset, weights and a query — and checks the
// seeded screen against the brute-force references
// (assertSeededMatches). Bytes map to values via (b-128)/16, so
// duplicates, ties and constant dimensions are common.
func FuzzSeededScreen(f *testing.F) {
	f.Add([]byte("seeded screen: boxes, walk, tau, tombstones, deltas and filters all in one"), uint8(0), uint8(5), uint8(3), false)
	f.Add([]byte{200, 13, 7, 7, 7, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 99, 98, 97, 96, 95}, uint8(8), uint8(1), uint8(40), true)
	f.Fuzz(func(t *testing.T, raw []byte, dimsRaw, pRaw, churn uint8, filtered bool) {
		dims := 16 + int(dimsRaw%9)
		if len(raw) < 4 {
			t.Skip()
		}
		val := func(i int) float64 { return (float64(raw[i%len(raw)]) - 128) / 16 }
		// Rows cycle through raw, each offset by a prime so they differ.
		rows := 8 + len(raw)%120
		db := make([][]float64, rows)
		for r := range db {
			db[r] = make([]float64, dims)
			for d := range db[r] {
				db[r][d] = val(r*31 + d*7 + r*d)
			}
		}
		nBase := rows - rows/4
		base, err := BuildIndex(db[:nBase], l2, identityEmbedder{})
		if err != nil {
			t.Fatal(err)
		}
		head := mustShadow(t, NewSegmentedWithMeta(base, nil))
		for r, x := range db[nBase:] {
			if r%3 == 0 {
				x[r%dims] = 64 // outside the base's range
			}
			if head, _, err = addObject(head, x); err != nil {
				t.Fatal(err)
			}
		}
		for pos := 0; pos < head.Total(); pos++ {
			if (raw[pos%len(raw)]+churn)%5 == 0 && head.Live() > 1 {
				if head, err = head.Remove(pos); err != nil {
					t.Fatal(err)
				}
			}
		}
		qvec := make([]float64, dims)
		weights := make([]float64, dims)
		for d := range qvec {
			qvec[d] = val(d * 5)
			weights[d] = math.Abs(val(d*11 + 3))
		}
		if raw[0]%2 == 0 {
			weights = nil
		}
		var keep func(int) bool
		if filtered {
			keep = func(pos int) bool { return head.Alive(pos) && raw[(pos*13)%len(raw)]%3 != 0 }
		}
		p := 1 + int(pRaw)%(head.Total()+5)
		assertSeededMatches(t, head, qvec, weights, p, false, keep)
	})
}

// TestSeededScreenIsDeterministic runs the partitioned seeded screen
// under several worker counts, down the head's own cluster tree and
// down oneTree's: phase 1's verdict must not depend on how many workers
// walked the tree, or in what order they took its nodes.
func TestSeededScreenIsDeterministic(t *testing.T) {
	head := seedHead(t, minParallelScan*3+77)
	q := clusteredDB(1, 5)[0]
	for name, s := range map[string]*Segmented[[]float64]{"own tree": head, "one tree": oneTree(head)} {
		var want screenRun
		for i, procs := range []int{1, 2, 3, 8} {
			var got screenRun
			withGOMAXPROCS(procs, func() {
				got = runScreen(s, q, seedWeights(), 64, true, s.selectRows(nil, nil))
			})
			if got.pr == nil {
				t.Fatalf("%s, GOMAXPROCS=%d: the screen did not run", name, procs)
			}
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got.res, want.res) || got.pr.tau != want.pr.tau || got.tm.BoundExactRows != want.tm.BoundExactRows {
				t.Fatalf("%s, GOMAXPROCS=%d: seeded screen differs from GOMAXPROCS=1", name, procs)
			}
		}
		if want.tm.BoundScannedRows != int64(head.Live()) {
			t.Fatalf("%s: scanned %d rows, want the %d live rows", name, want.tm.BoundScannedRows, head.Live())
		}
	}
}

// benchSink keeps the benchmarked scans' results live.
var benchSink []ranked

// BenchmarkSeededScreen measures the gate's crossover: phase 1 plus
// phase 2 of the seeded screen (called directly, below the gate too)
// against the exact scan (FilterLiveMatch on the unshadowed head) on the same
// queries, interleaved per iteration — alternating which side goes
// first — so host drift hits both sides, partitioned as a single search
// runs it. The rows are a 32-wide mixture around 64 centres and every
// query carries random weights, like the served benchmark's vectors.
// seeded/exact < 1 means the screen is faster; the gate opens at
// 16,384 rows and 128·p. exactFrac is the seeded side's share of
// screened rows evaluated exactly, visitedFrac its share whose codes the
// walk summed, and pricedFrac the boxes it priced per query over the
// cluster tree's nodes: on this clustered data the walk skips most of
// the tree, which iid Gaussian rows never let it do.
func BenchmarkSeededScreen(b *testing.B) {
	const dims, centres = 32, 64
	rng := stats.NewRand(21)
	ctr := make([][]float64, centres)
	for i := range ctr {
		ctr[i] = make([]float64, dims)
		for d := range ctr[i] {
			ctr[i][d] = rng.NormFloat64() * 4
		}
	}
	draw := func(n int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			c := ctr[rng.Intn(centres)]
			rows[i] = make([]float64, dims)
			for d := range rows[i] {
				rows[i][d] = c[d] + rng.NormFloat64()
			}
		}
		return rows
	}
	queries := draw(64)
	weights := make([][]float64, len(queries))
	for i := range weights {
		weights[i] = make([]float64, dims)
		for d := range weights[i] {
			weights[i][d] = rng.Float64()
		}
	}
	for _, n := range []int{5000, 10000, shadowMinRows, 25000, 50000, 200000} {
		base, err := BuildIndex(draw(n), l2, identityEmbedder{})
		if err != nil {
			b.Fatal(err)
		}
		exact := NewSegmentedWithMeta(base, nil)
		s := mustShadow(b, exact)
		v := viewOf(s, s.selectRows(nil, nil))
		for _, p := range []int{100, 200} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
				var took [2]time.Duration
				var clk FilterClock
				priced := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q, w := queries[i%len(queries)], weights[i%len(queries)]
					for k := 0; k < 2; k++ {
						seeded := (i+k)%2 == 1
						t0 := time.Now()
						if seeded {
							pr := s.screen(q, w, p, true, &clk, v)
							priced += pr.priced
							benchSink = mergeTopP(s.scanCandidateChunks(q, w, p, pr, idTables{}, &clk), p)
							took[1] += time.Since(t0)
						} else {
							benchSink, _ = exact.filter(q, w, p, true, nil, nil, idTables{})
							took[0] += time.Since(t0)
						}
					}
				}
				b.ReportMetric(float64(took[0].Nanoseconds())/float64(b.N), "exact-ns/op")
				b.ReportMetric(float64(took[1].Nanoseconds())/float64(b.N), "seeded-ns/op")
				b.ReportMetric(float64(took[1])/float64(took[0]), "seeded/exact")
				var tm Timing
				clk.AddTo(&tm)
				b.ReportMetric(float64(tm.BoundExactRows)/float64(tm.BoundScannedRows), "exactFrac")
				b.ReportMetric(float64(tm.BoundVisitedRows)/float64(tm.BoundScannedRows), "visitedFrac")
				b.ReportMetric(float64(priced)/float64(b.N*len(s.quant.nodes)), "pricedFrac")
			})
		}
	}
}
