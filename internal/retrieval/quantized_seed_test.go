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
)

// seedDims is the width of the seeded-screen test vectors: the seeded
// screen needs at least vafile.HeadDims dimensions.
const seedDims = 24

// clusteredDB draws n seedDims-wide rows around eight centres, so a query
// near one centre has a tight top p and most rows' heads exceed it — the
// shape in which the seeded screen's first pass drops rows.
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

// screenRun is one phase 1 + phase 2 pass over s, seeded or not, with
// p clamped to the matching-live population like FilterLiveMatch: the
// merged candidates, phase 1's verdict, and the bound-scan counters.
type screenRun struct {
	res []space.Neighbor
	pr  *boundPrune
	tm  Timing
}

func runScreen(s *Segmented[[]float64], qvec, weights []float64, p int, parallel bool, matchBase, matchDelta bitmap, useMatch, seeded bool) screenRun {
	limit := s.Live()
	if useMatch {
		limit = matchBase.popcount() + matchDelta.popcount()
	}
	p = min(p, limit)
	if p <= 0 {
		return screenRun{}
	}
	var clk FilterClock
	pr := s.screen(qvec, weights, p, parallel, &clk, s.shadowView(matchBase, matchDelta, useMatch), seeded)
	out := screenRun{pr: pr, res: mergeTopP(s.scanCandidateChunks(qvec, weights, p, parallel, pr, &clk), p)}
	clk.AddTo(&out.tm)
	return out
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
		d := metrics.L1(qvec, s.Vector(pos))
		if weights != nil {
			d = metrics.WeightedL1Unchecked(weights, qvec, s.Vector(pos))
		}
		all = append(all, space.Neighbor{Index: pos, Distance: d})
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	if len(all) > p {
		all = all[:p]
	}
	if len(all) == 0 {
		return nil
	}
	return all
}

// assertSeededMatches runs the seeded and the unseeded screen on one
// input and fails unless both return the reference top p, the same tau,
// and the same scanned and exactly evaluated row counts. It returns the
// two candidate-list lengths.
func assertSeededMatches(t *testing.T, s *Segmented[[]float64], qvec, weights []float64, p int, parallel bool, matchBase, matchDelta bitmap, useMatch bool) (seededCands, unseededCands int) {
	t.Helper()
	keep := s.Alive
	if useMatch {
		bn := s.BaseSize()
		keep = func(pos int) bool {
			if pos < bn {
				return matchBase.get(pos)
			}
			return matchDelta.get(pos - bn)
		}
	}
	want := referenceTopP(s, qvec, weights, p, keep)
	un := runScreen(s, qvec, weights, p, parallel, matchBase, matchDelta, useMatch, false)
	se := runScreen(s, qvec, weights, p, parallel, matchBase, matchDelta, useMatch, true)
	if !reflect.DeepEqual(un.res, want) {
		t.Fatalf("p=%d: unseeded screen diverges from the reference\n  got  %v\n  want %v", p, un.res, want)
	}
	if !reflect.DeepEqual(se.res, want) {
		t.Fatalf("p=%d: seeded screen diverges from the reference\n  got  %v\n  want %v", p, se.res, want)
	}
	if (un.pr == nil) != (se.pr == nil) {
		t.Fatalf("p=%d: one screen fell back to the exact scan and the other did not", p)
	}
	if un.pr == nil {
		return 0, 0
	}
	if un.pr.tau != se.pr.tau {
		t.Fatalf("p=%d: tau %v seeded, %v unseeded", p, se.pr.tau, un.pr.tau)
	}
	if se.tm.BoundScannedRows != un.tm.BoundScannedRows || se.tm.BoundExactRows != un.tm.BoundExactRows {
		t.Fatalf("p=%d: seeded screen scanned/evaluated %d/%d rows, unseeded %d/%d", p,
			se.tm.BoundScannedRows, se.tm.BoundExactRows, un.tm.BoundScannedRows, un.tm.BoundExactRows)
	}
	return len(se.pr.cands), len(un.pr.cands)
}

// seedHead builds a quantized head below the seeded screen's size gate:
// tombstones in both segments, delta rows (some outside the base's
// boundary range, so unsafe), and metadata on every row.
func seedHead(t *testing.T, n int) *Segmented[[]float64] {
	t.Helper()
	db := clusteredDB(n, 5)
	base, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]meta.Map, n)
	for i := range rows {
		rows[i] = testMeta(i)
	}
	head, err := NewSegmentedWithMeta(base, meta.NewBlock(rows)).Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	extra := clusteredDB(n/10+40, 6)
	for i, x := range extra {
		if i%7 == 0 {
			x[i%seedDims] = 100 // outside the base's range: an unsafe delta row
		}
		if head, _, err = head.AddWithVectorMeta(x, x, testMeta(n+i)); err != nil {
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

// TestSeededScreenMatchesUnseeded pins the seeded screen's contract
// below its size gate, serial and partitioned: on a churned head, for
// the unweighted and the weighted distance, unfiltered and filtered,
// with p from 1 to more than the live rows and under a filter matching
// fewer than p rows, the seeded screen returns the reference top p and
// the unseeded screen's tau and row counts. Unfiltered, its candidate
// lists must also be shorter in all, or the seed never pruned anything.
func TestSeededScreenMatchesUnseeded(t *testing.T) {
	preds := map[string]*meta.Predicate{
		"unfiltered": nil,
		"bucket3":    mustFilter(t, `{"field":"bucket","eq":3}`),
		"sparse":     mustFilter(t, `{"and":[{"field":"bucket","eq":4},{"field":"tag","eq":"b"}]}`),
	}
	for name, n := range map[string]int{"serial": 600, "partitioned": minParallelScan*2 + 133} {
		t.Run(name, func(t *testing.T) {
			head := seedHead(t, n)
			queries := clusteredDB(6, 5) // the base's first six rows
			for wname, weights := range map[string][]float64{"unweighted": nil, "weighted": seedWeights()} {
				for pname, pred := range preds {
					var mb, md bitmap
					if pred != nil {
						mb, md, _ = head.matchBits(pred, meta.PlanInline)
					}
					seededCands, unseededCands := 0, 0
					for _, q := range queries {
						for _, p := range []int{1, 20, 150, head.Live() + 10} {
							sc, uc := assertSeededMatches(t, head, q, weights, p, n > minParallelScan, mb, md, pred != nil)
							seededCands += sc
							unseededCands += uc
						}
					}
					if pname == "unfiltered" && seededCands >= unseededCands {
						t.Fatalf("%s: the seeded screen kept %d candidates in all, the unseeded %d", wname, seededCands, unseededCands)
					}
				}
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
// rows nearest the query, so every one of them would make a tighter seed
// than any live matching row: letting a single one into the seed drops
// rows that define tau, and this test fails.
func TestSeededScreenSkipsDeadAndNonMatching(t *testing.T) {
	db := clusteredDB(3000, 11)
	base, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	q := db[17]
	order := referenceTopP(NewSegmented(base), q, nil, 60, func(int) bool { return true })
	rows := make([]meta.Map, len(db))
	for i := range rows {
		rows[i] = meta.Map{"near": meta.BoolValue(false)}
	}
	for _, nb := range order {
		rows[nb.Index] = meta.Map{"near": meta.BoolValue(true)}
	}
	head, err := NewSegmentedWithMeta(base, meta.NewBlock(rows)).Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	far, err := meta.CompileFilter([]byte(`{"field":"near","eq":false}`), map[string]meta.Kind{"near": meta.KindBool})
	if err != nil {
		t.Fatal(err)
	}
	mb, md, _ := head.matchBits(far, meta.PlanInline)
	dead := head
	for _, nb := range order {
		if dead, err = dead.Remove(nb.Index); err != nil {
			t.Fatal(err)
		}
	}
	for _, weights := range [][]float64{nil, seedWeights()} {
		for _, p := range []int{1, 5, 40} {
			assertSeededMatches(t, dead, q, weights, p, false, nil, nil, false)
			assertSeededMatches(t, head, q, weights, p, false, mb, md, true)
		}
	}
}

// TestSeededScreenAtGate drives the seeded screen through the production
// entry point: a base segment exactly at the size gate, searched at the
// largest p the gate admits and just past it, must answer like the exact
// scan.
func TestSeededScreenAtGate(t *testing.T) {
	db := clusteredDB(seedMinBase, 13)
	base, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewSegmented(base)
	quant, err := exact.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{10, seedMinBase / seedBaseRowsPerP, seedMinBase/seedBaseRowsPerP + 1} {
		for qi, q := range clusteredDB(3, 13) {
			for _, weights := range [][]float64{nil, seedWeights()} {
				want := exact.FilterLive(q, weights, p, true, nil)
				if got := quant.FilterLive(q, weights, p, true, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("p=%d query %d: seeded scan diverges from exact", p, qi)
				}
			}
		}
	}
}

// FuzzSeededScreen builds a small quantized head from raw bytes — width
// 16 to 24, base rows, delta rows (some outside the base's range),
// tombstones, a match bitset, weights and a query — and checks the
// seeded screen against the unseeded screen and the brute-force
// reference (assertSeededMatches). Bytes map to values via (b-128)/16,
// so duplicates, ties and constant dimensions are common.
func FuzzSeededScreen(f *testing.F) {
	f.Add([]byte("seeded screen: heads, seed, tau, tombstones, deltas and filters all in one"), uint8(0), uint8(5), uint8(3), false)
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
		head, err := NewSegmented(base).Quantize(8)
		if err != nil {
			t.Fatal(err)
		}
		for r, x := range db[nBase:] {
			if r%3 == 0 {
				x[r%dims] = 64 // outside the base's range
			}
			if head, _, err = head.Add(x); err != nil {
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
		var mb, md bitmap
		if filtered {
			bn, dn := head.BaseSize(), head.DeltaLen()
			mb, md = make(bitmap, (bn+63)/64), make(bitmap, (dn+63)/64)
			for pos := 0; pos < head.Total(); pos++ {
				if !head.Alive(pos) || raw[(pos*13)%len(raw)]%3 == 0 {
					continue
				}
				if pos < bn {
					mb[pos>>6] |= 1 << (uint(pos) & 63)
				} else {
					md[(pos-bn)>>6] |= 1 << (uint(pos-bn) & 63)
				}
			}
		}
		p := 1 + int(pRaw)%(head.Total()+5)
		assertSeededMatches(t, head, qvec, weights, p, false, mb, md, filtered)
	})
}

// TestSeededScreenIsDeterministic runs the partitioned seeded screen
// under several worker counts: phase 1's verdict must not depend on how
// the rows were partitioned.
func TestSeededScreenIsDeterministic(t *testing.T) {
	head := seedHead(t, minParallelScan*3+77)
	q := clusteredDB(1, 5)[0]
	var want screenRun
	for i, procs := range []int{1, 2, 3, 8} {
		var got screenRun
		withGOMAXPROCS(procs, func() {
			got = runScreen(head, q, seedWeights(), 64, true, nil, nil, false, true)
		})
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.res, want.res) || got.pr.tau != want.pr.tau || got.tm.BoundExactRows != want.tm.BoundExactRows {
			t.Fatalf("GOMAXPROCS=%d: seeded screen differs from GOMAXPROCS=1", procs)
		}
	}
	if want.tm.BoundScannedRows != int64(head.Live()) {
		t.Fatalf("scanned %d rows, want the %d live rows", want.tm.BoundScannedRows, head.Live())
	}
}

// BenchmarkSeededScreen times phase 1 seeded and unseeded on the same
// queries, interleaved per iteration so host drift hits both sides,
// partitioned as a single search runs it, at p = 200 and sizes on both
// sides of the size gate (which opens at 128·p = 25,600 rows here). Two
// data shapes bracket the trade: clustered 24-wide rows, where most
// heads already exceed tau, and iid Gaussian 64-wide rows, where a head
// holds a quarter of a row's distance and almost never does.
// seeded/unseeded < 1 means the seeded screen is faster.
func BenchmarkSeededScreen(b *testing.B) {
	const p = 200
	for _, shape := range []string{"clustered", "gaussian"} {
		for _, n := range []int{10000, 50000, 200000} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				var db, queries [][]float64
				if shape == "clustered" {
					db, queries = clusteredDB(n, 21), clusteredDB(16, 21)
				} else {
					rng := stats.NewRand(21)
					db = make([][]float64, n+16)
					for i := range db {
						db[i] = make([]float64, 64)
						for d := range db[i] {
							db[i][d] = rng.NormFloat64()
						}
					}
					db, queries = db[:n], db[n:]
				}
				base, err := BuildIndex(db, l2, identityEmbedder{})
				if err != nil {
					b.Fatal(err)
				}
				s, err := NewSegmented(base).Quantize(8)
				if err != nil {
					b.Fatal(err)
				}
				v := s.shadowView(nil, nil, false)
				var took [2]time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					for k := 0; k < 2; k++ {
						seeded := (i+k)%2 == 1 // alternate which side goes first
						t0 := time.Now()
						s.screen(q, nil, p, true, nil, v, seeded)
						if seeded {
							took[1] += time.Since(t0)
						} else {
							took[0] += time.Since(t0)
						}
					}
				}
				b.ReportMetric(float64(took[0].Nanoseconds())/float64(b.N), "unseeded-ns/op")
				b.ReportMetric(float64(took[1].Nanoseconds())/float64(b.N), "seeded-ns/op")
				b.ReportMetric(float64(took[1])/float64(took[0]), "seeded/unseeded")
			})
		}
	}
}
