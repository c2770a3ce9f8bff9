package retrieval

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"qse/internal/core"
	"qse/internal/metrics"
	"qse/internal/space"
	"qse/internal/stats"
)

func l2(a, b []float64) float64 { return metrics.L2(a, b) }

// identityEmbedder embeds 2D points as themselves: the filter ordering
// under L1 then closely tracks the true L2 ordering, making expected
// behavior easy to reason about.
type identityEmbedder struct{}

func (identityEmbedder) Embed(x []float64) []float64 { return append([]float64(nil), x...) }
func (identityEmbedder) EmbedCost() int              { return 0 }

// skewEmbedder duplicates the first coordinate, and its QueryWeights zero
// out the junk dimension — exercising the Weighter path.
type skewEmbedder struct{}

func (skewEmbedder) Embed(x []float64) []float64 {
	return []float64{x[0], x[1], 1000 * x[0]}
}
func (skewEmbedder) EmbedCost() int { return 2 }
func (skewEmbedder) QueryWeights(qvec []float64) []float64 {
	return []float64{1, 1, 0}
}

func testDB(n int) [][]float64 {
	rng := stats.NewRand(3)
	db := make([][]float64, n)
	for i := range db {
		db[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return db
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := BuildIndex(nil, l2, identityEmbedder{}); err == nil {
		t.Error("empty db should error")
	}
	if _, err := BuildIndex[[]float64](testDB(3), l2, nil); err == nil {
		t.Error("nil embedder should error")
	}
}

func TestSearchExactWithFullP(t *testing.T) {
	db := testDB(100)
	ix, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, 0.5}
	// p = full database: refine step is brute force, results must be exact.
	got, st, err := ix.Search(q, 5, len(db))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ix.BruteForce(q, 5)
	for i := range want {
		if got[i].Index != want[i].Index {
			t.Fatalf("full-p search differs from brute force at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if st.RefineDistances != len(db) || st.EmbedDistances != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Total() != len(db) {
		t.Errorf("Total = %d", st.Total())
	}
}

func TestSearchSmallPStillGood(t *testing.T) {
	db := testDB(200)
	ix, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.3, 0.7}
	got, st, err := ix.Search(q, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ix.BruteForce(q, 1)
	// The identity embedding's L1 filter is faithful enough that the true
	// NN is always within the top 10.
	if got[0].Index != want[0].Index {
		t.Errorf("NN = %d, want %d", got[0].Index, want[0].Index)
	}
	if st.RefineDistances != 10 {
		t.Errorf("refine distances = %d", st.RefineDistances)
	}
}

func TestSearchParamValidation(t *testing.T) {
	db := testDB(20)
	ix, _ := BuildIndex(db, l2, identityEmbedder{})
	q := []float64{0, 0}
	if _, _, err := ix.Search(q, 0, 5); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := ix.Search(q, 5, 3); err == nil {
		t.Error("p < k should error")
	}
	// p beyond db size is clamped, not an error.
	if _, st, err := ix.Search(q, 2, 1000); err != nil || st.RefineDistances != 20 {
		t.Errorf("oversized p: err=%v stats=%+v", err, st)
	}
}

func TestSearchUsesQueryWeights(t *testing.T) {
	// Without weights the junk third coordinate would dominate the filter;
	// the Weighter must neutralize it.
	db := testDB(150)
	ix, err := BuildIndex(db, l2, skewEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.5, 0.5}
	got, st, err := ix.Search(q, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ix.BruteForce(q, 1)
	if got[0].Index != want[0].Index {
		t.Errorf("weighted search missed NN: %d vs %d", got[0].Index, want[0].Index)
	}
	if st.EmbedDistances != 2 {
		t.Errorf("embed distances = %d", st.EmbedDistances)
	}
}

// filterTopP is an index's filter phase alone: its p best rows under
// the filter distance, in ascending (distance, position) order.
func filterTopP(ix *Index[[]float64], qvec, weights []float64, p int) []space.Neighbor {
	top, _ := filterLiveMatch(NewSegmentedWithMeta(ix, nil), qvec, weights, p, true, nil, nil, nil, nil)
	return top
}

func TestFilterTopPOrdering(t *testing.T) {
	db := testDB(50)
	ix, _ := BuildIndex(db, l2, identityEmbedder{})
	q := []float64{0.1, 0.9}
	top := filterTopP(ix, q, nil, 10)
	if len(top) != 10 {
		t.Fatalf("len = %d", len(top))
	}
	if !sort.SliceIsSorted(top, func(i, j int) bool {
		if top[i].Distance != top[j].Distance {
			return top[i].Distance < top[j].Distance
		}
		return top[i].Index < top[j].Index
	}) {
		t.Error("FilterTopP not sorted")
	}
	// Must match a full sort's head.
	all := filterTopP(ix, q, nil, len(db))
	for i := range top {
		if top[i] != all[i] {
			t.Fatalf("heap selection differs from full sort at %d", i)
		}
	}
}

func TestFilterTopPEdge(t *testing.T) {
	db := testDB(5)
	ix, _ := BuildIndex(db, l2, identityEmbedder{})
	if got := filterTopP(ix, []float64{0, 0}, nil, 0); got != nil {
		t.Error("p=0 should return nil")
	}
	if got := filterTopP(ix, []float64{0, 0}, nil, 100); len(got) != 5 {
		t.Errorf("p>n should clamp: %d", len(got))
	}
}

func TestFilterWeightedMatchesMetrics(t *testing.T) {
	db := testDB(30)
	ix, _ := BuildIndex(db, l2, identityEmbedder{})
	q := []float64{0.4, 0.6}
	w := []float64{2, 0.5}
	top := filterTopP(ix, q, w, len(db))
	for _, n := range top {
		want := metrics.WeightedL1(w, q, db[n.Index])
		if math.Abs(n.Distance-want) > 1e-12 {
			t.Fatalf("weighted distance mismatch: %v vs %v", n.Distance, want)
		}
	}
}

func TestAddRemove(t *testing.T) {
	db := testDB(10)
	ix, _ := BuildIndex(db, l2, identityEmbedder{})
	if err := ix.Add([]float64{0.42, 0.42}); err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 11 {
		t.Fatalf("size = %d", ix.Size())
	}
	if err := ix.Add([]float64{1, 2, 3}); err == nil {
		t.Error("adding an object that embeds to the wrong dims should error, not panic")
	}
	if ix.Size() != 11 {
		t.Fatalf("failed Add must leave the index unchanged, size = %d", ix.Size())
	}
	got, _, err := ix.Search([]float64{0.42, 0.42}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Index != 10 || got[0].Distance != 0 {
		t.Errorf("added object not retrievable: %+v", got[0])
	}
	if err := ix.Remove(10); err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 10 {
		t.Errorf("size after remove = %d", ix.Size())
	}
	if err := ix.Remove(99); err == nil {
		t.Error("bad remove index should error")
	}
}

// End-to-end with a real trained model: exercising the full pipeline the
// way the experiments do, and checking the cost accounting invariant
// Total = EmbedCost + p.
func TestEndToEndWithTrainedModel(t *testing.T) {
	rng := stats.NewRand(77)
	centers := [][]float64{{0.2, 0.2}, {0.8, 0.2}, {0.5, 0.8}, {0.1, 0.9}, {0.9, 0.9}}
	var db [][]float64
	for i := 0; i < 300; i++ {
		c := centers[i%len(centers)]
		db = append(db, []float64{c[0] + rng.NormFloat64()*0.06, c[1] + rng.NormFloat64()*0.06})
	}
	opts := core.DefaultOptions()
	opts.Rounds = 20
	opts.NumCandidates = 30
	opts.NumTraining = 60
	opts.NumTriples = 1200
	opts.EmbeddingsPerRound = 30
	opts.IntervalsPerEmbedding = 5
	opts.Seed = 5
	model, _, err := core.Train(db, l2, opts)
	if err != nil {
		t.Fatal(err)
	}

	exact := space.NewCounter(l2)
	ix, err := BuildIndex(db, exact.Distance, model)
	if err != nil {
		t.Fatal(err)
	}
	exact.Reset()

	q := []float64{0.22, 0.18}
	res, st, err := ix.Search(q, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	// Only the refine step touches the index's counted oracle (the model
	// embeds with its own), so the counter must equal RefineDistances.
	if exact.Count() != int64(st.RefineDistances) {
		t.Errorf("counted %d exact distances, stats say %d", exact.Count(), st.RefineDistances)
	}
	if st.EmbedDistances != model.EmbedCost() {
		t.Errorf("embed distances %d != model cost %d", st.EmbedDistances, model.EmbedCost())
	}
	// Results must be genuinely close to the query.
	for _, r := range res {
		if r.Distance > 0.3 {
			t.Errorf("retrieved a far object: %+v", r)
		}
	}
}

// bigTestDB is large enough (> the parallel-scan threshold) that the filter
// phase takes the partitioned path when GOMAXPROCS allows.
func bigTestDB(n int) [][]float64 {
	rng := stats.NewRand(9)
	db := make([][]float64, n)
	for i := range db {
		db[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return db
}

func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestFilterTopPShardedMatchesSerial pins the tentpole invariant: the
// partitioned scan (per-shard bounded heaps merged in shard order) returns
// byte-identical results to the serial scan for any worker count, including
// in the presence of distance ties (the coordinates below collide often).
func TestFilterTopPShardedMatchesSerial(t *testing.T) {
	rng := stats.NewRand(31)
	db := make([][]float64, 6000)
	for i := range db {
		// Quantized coordinates force many exact distance ties, so the
		// (distance, index) tie-break is genuinely exercised.
		db[i] = []float64{float64(rng.Intn(20)) / 20, float64(rng.Intn(20)) / 20}
	}
	ix, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.31, 0.62}
	w := []float64{1.5, 0.5}
	for _, p := range []int{1, 7, 200, 6000} {
		var serial, sharded []space.Neighbor
		withGOMAXPROCS(1, func() { serial = filterTopP(ix, q, w, p) })
		withGOMAXPROCS(8, func() { sharded = filterTopP(ix, q, w, p) })
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("p=%d: sharded scan differs from serial", p)
		}
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	db := bigTestDB(5000)
	ix, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	queries := db[100:140]
	run := func() ([][]space.Neighbor, []Stats) {
		batch, stats, err := ix.SearchBatch(queries, 3, 25)
		if err != nil {
			t.Fatal(err)
		}
		// Per-stage timing is wall-clock noise, not part of the
		// determinism contract.
		for i := range stats {
			stats[i] = stats[i].WithoutTiming()
		}
		return batch, stats
	}
	var batch1, batch8 [][]space.Neighbor
	var stats1, stats8 []Stats
	withGOMAXPROCS(1, func() { batch1, stats1 = run() })
	withGOMAXPROCS(8, func() { batch8, stats8 = run() })
	if !reflect.DeepEqual(batch1, batch8) || !reflect.DeepEqual(stats1, stats8) {
		t.Error("SearchBatch differs across GOMAXPROCS")
	}
	for qi, q := range queries {
		res, st, err := ix.Search(q, 3, 25)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, batch8[qi]) || st.WithoutTiming() != stats8[qi] {
			t.Fatalf("query %d: batch result differs from sequential Search", qi)
		}
	}
}

// mismatchEmbedder returns vectors whose length depends on the object,
// which BuildIndex must reject.
type mismatchEmbedder struct{}

func (mismatchEmbedder) Embed(x []float64) []float64 {
	if x[0] > 0.5 {
		return []float64{x[0], x[1], 0}
	}
	return []float64{x[0], x[1]}
}
func (mismatchEmbedder) EmbedCost() int { return 0 }

func TestBuildIndexRejectsInconsistentDims(t *testing.T) {
	db := testDB(200)
	if _, err := BuildIndex(db, l2, mismatchEmbedder{}); err == nil {
		t.Error("inconsistent embedding dims should error")
	}
}

// TestAddRemoveDoesNotLeakStorage covers the Remove capacity watermark:
// grow-then-shrink churn must not strand vector storage proportional to the
// high-water mark.
func TestAddRemoveDoesNotLeakStorage(t *testing.T) {
	db := testDB(10)
	ix, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 5000; i++ {
			if err := ix.Add([]float64{float64(i), float64(cycle)}); err != nil {
				t.Fatal(err)
			}
		}
		for ix.Size() > 10 {
			if err := ix.Remove(ix.Size() - 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ix.Size() != 10 {
		t.Fatalf("size = %d", ix.Size())
	}
	if got := cap(ix.flat); got > shrinkFactor*len(ix.flat) {
		t.Errorf("flat storage leak: cap %d for len %d after churn", got, len(ix.flat))
	}
	if got := cap(ix.db); got > shrinkFactor*len(ix.db) {
		t.Errorf("db storage leak: cap %d for len %d after churn", got, len(ix.db))
	}
	// The index must still answer correctly after all that churn.
	got, _, err := ix.Search(db[3], 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Index != 3 || got[0].Distance != 0 {
		t.Errorf("post-churn search broken: %+v", got[0])
	}
}

// TestVectorsViewsFlatStorage checks the embedded vectors Flat exposes:
// one dims-wide row per object, in database order, each the object's
// embedding.
func TestVectorsViewsFlatStorage(t *testing.T) {
	db := testDB(40)
	ix, err := BuildIndex(db, l2, identityEmbedder{})
	if err != nil {
		t.Fatal(err)
	}
	flat, dims := ix.Flat()
	if dims != ix.Dims() || len(flat) != len(db)*dims {
		t.Fatalf("flat block of %d values at %d dims, want %d rows of %d", len(flat), dims, len(db), ix.Dims())
	}
	for i, x := range db {
		for j := range x {
			if flat[i*dims+j] != x[j] {
				t.Fatalf("row %d differs from embedding", i)
			}
		}
	}
}
