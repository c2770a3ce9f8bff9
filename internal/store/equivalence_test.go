package store

// The equivalence harness: a randomized operation-sequence generator
// drives a store and the reference model (refmodel_test.go) with the
// same operations and asserts, after every step, that the store answers
// exactly as the paper's filter-and-refine does over the model's map —
// the same search results and stats, the same live-ID set, the same
// First object, the same metadata records, the same generation and
// allocator state, and the same filter-compile errors — and that the
// segment accounting balances. It is the executable form of the
// determinism argument in DESIGN.md §8: if every shard's scan ranks on
// the (distance, ID) total order and the scatter-gather merge keeps it,
// then no interleaving of add/remove/update/upsert/search/compact/save/
// reopen can make a store of any shard count answer differently from
// the definition.
//
// The harness runs for S ∈ {1, 2, 7} (1 is the one-shard store, 2 the
// smallest real scatter, 7 leaves some shards empty at this store size —
// covering empty-shard search, save, and reopen), with quantization on
// and off, for several seeds. Some adds and upserts copy a live object,
// and some searches ask for such an object with k = p = 1, so the
// tie-breaks of the filter scan, the merge and the refine decide
// results; an upserted twin's row sits after rows of higher IDs. CI runs
// it with distinct QSE_EQ_SEED values and the whole package under -race.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qse/internal/core"
	"qse/internal/meta"
	"qse/internal/retrieval"
)

// eqBaseSeed lets CI run the harness with distinct randomized schedules
// without touching the code: QSE_EQ_SEED=n shifts every subtest's seed.
func eqBaseSeed(t testing.TB) int64 {
	env := os.Getenv("QSE_EQ_SEED")
	if env == "" {
		return 1
	}
	n, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("QSE_EQ_SEED=%q: %v", env, err)
	}
	return n
}

func TestShardedEquivalence(t *testing.T) {
	model, db := fixture(t, 48)
	base := eqBaseSeed(t)
	for _, shards := range []int{1, 2, 7} {
		for off := int64(0); off < 3; off++ {
			shards, seed := shards, base+off
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				runEquivalence(t, model, db, shards, seed, 0, eqShallow)
			})
		}
	}
}

// TestQuantizedEquivalence is the same randomized harness with
// quantization on: every add/remove/upsert/compact/save/reopen
// interleaving must keep results equal to the model's (which never
// quantizes), and reopens additionally prove the quantization setting
// survives the bundle round trip. The fixture's 48-row stores sit far
// below the gate (DESIGN §16), so their shadows stay dormant — the
// harness asserts ShadowBytes == 0 throughout — and this is the dormant
// state's check; TestGatedStoreMatchesExact runs the seeded screen
// through a store. Each seed drives its own schedule across the shard
// counts. The widths older versions also built (1, 2 and 4 bits) keep a
// seed each: SetQuantization must refuse them before any shard changes,
// and the store must then run the whole schedule unquantized, reopens
// included.
func TestQuantizedEquivalence(t *testing.T) {
	model, db := fixture(t, 48)
	base := eqBaseSeed(t)
	for wi, bits := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 7} {
			bits, shards, seed := bits, shards, base+int64(wi)
			t.Run(fmt.Sprintf("bits=%d/shards=%d/seed=%d", bits, shards, seed), func(t *testing.T) {
				t.Parallel()
				runEquivalence(t, model, db, shards, seed, bits, eqShallow)
			})
		}
	}
	for si := int64(0); si < 4; si++ {
		for _, shards := range []int{1, 2, 7} {
			shards, seed := shards, base+si
			t.Run(fmt.Sprintf("bits=8/shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				runEquivalence(t, model, db, shards, seed, 8, eqShallow)
			})
		}
	}
}

// TestDeepDeltaEquivalence runs the harness on eqDeep, whose deltas
// span words: each shard's delta metadata block passes 128 rows, two
// 64-row words, under filtered single and batched searches, a Save/Open
// replays it once it has, and compaction folds it at 192. eqShallow's
// deltas compact at 8 rows and never fill one word.
func TestDeepDeltaEquivalence(t *testing.T) {
	model, db := fixture(t, 48)
	base := eqBaseSeed(t)
	for _, shards := range []int{1, 2} {
		for off := int64(0); off < 2; off++ {
			shards, seed := shards, base+off
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				for i, d := range runEquivalence(t, model, db, shards, seed, 0, eqDeep) {
					if d <= eqDeep.replayPast {
						t.Errorf("shard %d's delta peaked at %d rows, want more than %d", i, d, eqDeep.replayPast)
					}
				}
			})
		}
	}
}

// TestScatterAtAnyWorkerCount runs one search schedule over a 4-shard
// store at fewer workers than shards and at more. At 2 workers the
// scatter alone covers every worker, so each shard's scan runs serially
// on its scatter goroutine; at 8 each shard's scan also partitions,
// every shard holding more than the 4,096 rows a partitioned scan
// needs. Single searches and batches, plain and filtered, must equal the
// reference model's answers and stats on both sides of the rule.
func TestScatterAtAnyWorkerCount(t *testing.T) {
	const shards, n = 4, 18000
	model, _ := fixture(t, 48)
	rng := rand.New(rand.NewSource(eqBaseSeed(t)))
	obj := func() []float64 {
		return []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
	}
	db := make([][]float64, n)
	for i := range db {
		db[i] = obj()
	}
	st, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(model, db)
	// Rows with metadata and tombstones in the bases (the first round
	// is compacted in) and in the deltas.
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			x, md := obj(), meta.Map{"bucket": meta.IntValue(int64(rng.Intn(10)))}
			want, _ := ref.add(x, maps.Clone(md))
			if got, err := st.AddMeta(x, md); err != nil || got != want {
				t.Fatalf("add = (%d, %v), want %d", got, err, want)
			}
		}
		live := ref.liveIDs()
		for i := 0; i < 200; i++ {
			if id := live[rng.Intn(len(live))]; ref.remove(id) {
				if err := st.Remove(id); err != nil {
					t.Fatalf("remove(%d): %v", id, err)
				}
			}
		}
		if round == 0 {
			st.Compact()
		}
	}
	for i, sh := range st.shards {
		if s := sh.Stats(); s.BaseSize < 4096 || s.DeltaSize == 0 || s.Tombstones == 0 {
			t.Fatalf("shard %d: %d base rows, %d delta rows, %d tombstones", i, s.BaseSize, s.DeltaSize, s.Tombstones)
		}
	}
	preds := []*meta.Predicate{nil}
	for _, raw := range []string{`{"field":"bucket","lt":5}`, `{"field":"bucket","exists":false}`} {
		pred, err := st.CompileFilter([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, pred)
	}
	queries := make([][]float64, 6)
	for i := range queries {
		queries[i] = obj()
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{2, 8} {
		runtime.GOMAXPROCS(workers)
		for pi, pred := range preds {
			for _, kp := range [][2]int{{1, 1}, {5, 40}, {10, 300}} {
				k, p := kp[0], kp[1]
				what := fmt.Sprintf("workers=%d pred %d k=%d p=%d", workers, pi, k, p)
				batch, bst, err := st.SearchBatchFiltered(queries, k, p, pred)
				if err != nil {
					t.Fatalf("%s: batch: %v", what, err)
				}
				for qi, q := range queries {
					want, wst, _ := ref.search(q, k, p, pred)
					got, gst, err := st.SearchFiltered(q, k, p, pred)
					if err != nil || !reflect.DeepEqual(got, want) || gst.WithoutTiming() != wst {
						t.Fatalf("%s query %d: search = %v %+v (err %v)\n model %v %+v", what, qi, got, gst.WithoutTiming(), err, want, wst)
					}
					if !reflect.DeepEqual(batch[qi], want) || bst[qi].WithoutTiming() != wst {
						t.Fatalf("%s query %d: batch = %v %+v\n model %v %+v", what, qi, batch[qi], bst[qi].WithoutTiming(), want, wst)
					}
				}
			}
		}
	}
}

// eqPolicy compacts early enough that test-sized runs actually cross the
// thresholds, on a schedule that differs per shard (their base sizes
// differ) — which is the point: physical layout must never leak into
// answers.
var eqPolicy = CompactionPolicy{MinDelta: 8, DeltaFrac: 0.1, MinDead: 8, DeadFrac: 0.2}

// eqSchedule shapes one harness run: its compaction policy, its step
// count, the rows each add step writes, whether a step may compact on
// demand, and the delta size (0 for none) past which one shard's delta
// forces a Save/Open, once.
type eqSchedule struct {
	policy     CompactionPolicy
	steps      int
	burst      int
	compact    bool
	replayPast int
}

var (
	eqShallow = eqSchedule{policy: eqPolicy, steps: 130, burst: 1, compact: true}
	eqDeep    = eqSchedule{
		policy: CompactionPolicy{MinDelta: 192, MinDead: 1 << 20, DeadFrac: 1},
		steps:  200, burst: 8, replayPast: 128,
	}
)

// eqFilters are the predicates the harness compiles after every step,
// over the fields randMeta writes plus "ghost", which only refused
// writes ever carry: it must stay unknown.
var eqFilters = []string{
	`{"field":"bucket","eq":%d}`,
	`{"field":"bucket","le":%d}`,
	`{"field":"tag","in":["a","c"]}`,
	`{"and":[{"field":"bucket","ge":%d},{"field":"tag","ne":"b"}]}`,
	`{"field":"score","lt":0.%d}`,
	`{"field":"hot","eq":true}`,
	`{"field":"bucket","exists":false}`,
	`{"field":"ghost","eq":%d}`,
}

// runEquivalence drives a store with the given shard count and the
// reference model through the same randomized schedule, shaped by
// sched, and returns each shard's largest delta. quantBits = 8 turns
// quantization on; any other nonzero width must be refused, leaving the
// store exact.
func runEquivalence(t *testing.T, model *core.Model[[]float64], db [][]float64, shards int, seed int64, quantBits int, sched eqSchedule) []int {
	st, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
	if err != nil {
		t.Fatalf("building the store: %v", err)
	}
	ref := newRefModel(model, db)
	st.SetCompactionPolicy(sched.policy)
	// Enabling quantization is a mutation (the persisted base must gain
	// its shadow), so it bumps each shard's generation once; genOffset
	// keeps the generation comparison exact until the next reopen.
	genOffset := uint64(0)
	switch err := st.SetQuantization(quantBits); {
	case quantBits == 0:
	case quantBits == 8:
		if err != nil {
			t.Fatalf("quantizing: %v", err)
		}
		genOffset = uint64(shards)
	case err == nil:
		t.Fatalf("SetQuantization(%d) accepted", quantBits)
	default:
		// A refused width is no mutation: every shard keeps its
		// generation and stays unquantized, and reopens must find the
		// setting off.
		for i, sh := range st.shards {
			if ss := sh.Stats(); ss.QuantBits != 0 || ss.Generation != 0 {
				t.Fatalf("refused width %d changed shard %d: QuantBits %d, generation %d", quantBits, i, ss.QuantBits, ss.Generation)
			}
		}
		quantBits = 0
	}
	if s := st.Stats(); s.QuantBits != quantBits || s.ShadowBytes != 0 || s.Generation != genOffset {
		t.Fatalf("after SetQuantization: QuantBits %d, %d shadow bytes, generation %d; want %d, 0, %d",
			s.QuantBits, s.ShadowBytes, s.Generation, quantBits, genOffset)
	}

	rng := rand.New(rand.NewSource(seed))
	// One layout path: repeated saves land on the same v3 layout, so the
	// harness exercises the incremental machinery (clean skips,
	// delta-frame appends, post-compaction base rewrites) rather than
	// only fresh full writes.
	path := filepath.Join(t.TempDir(), "eq.bundle")
	randObj := func() []float64 {
		return []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
	}
	// randMeta draws a typed metadata record from a small fixed field
	// vocabulary (or nil): the same fields recur across rows, so the
	// randomized predicates actually select non-trivial subsets.
	randMeta := func() meta.Map {
		m := meta.Map{}
		if rng.Float64() < 0.35 {
			return nil
		}
		if rng.Float64() < 0.8 {
			m["bucket"] = meta.IntValue(int64(rng.Intn(10)))
		}
		if rng.Float64() < 0.6 {
			m["tag"] = meta.StringValue(string(rune('a' + rng.Intn(3))))
		}
		if rng.Float64() < 0.4 {
			m["score"] = meta.FloatValue(rng.Float64())
		}
		if rng.Float64() < 0.3 {
			m["hot"] = meta.BoolValue(rng.Intn(2) == 0)
		}
		if len(m) == 0 {
			return nil
		}
		return m
	}
	// ghostMeta is a record every write must refuse once "bucket" is
	// registered: its "bucket" has the wrong kind, and its "ghost" must
	// not be registered by the refusal.
	ghostMeta := func() meta.Map {
		return meta.Map{"bucket": meta.StringValue("x"), "ghost": meta.IntValue(1)}
	}
	unknownID := func() uint64 { return 1<<40 + uint64(rng.Intn(1000)) }
	wantUnknown := func(step int, op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrUnknownID) {
			t.Fatalf("step %d: %s of an unknown id: %v, want ErrUnknownID", step, op, err)
		}
	}

	// reopen replaces st with the store Open reads back from path.
	reopen := func(step int) {
		t.Helper()
		if st, err = Open(path, l1, Gob[[]float64]()); err != nil {
			t.Fatalf("step %d: reopen: %v", step, err)
		}
		if len(st.shards) != shards {
			t.Fatalf("step %d: reopened with %d shards, want %d", step, len(st.shards), shards)
		}
		if s := st.Stats(); s.QuantBits != quantBits || s.ShadowBytes != 0 {
			t.Fatalf("step %d: reopened store reports QuantBits %d with %d shadow bytes, want %d with none",
				step, s.QuantBits, s.ShadowBytes, quantBits)
		}
		// Generations restart at zero on open, which also absorbs
		// the one-time SetQuantization bump.
		ref.gen, genOffset = 0, 0
		st.SetCompactionPolicy(sched.policy)
	}
	peak := make([]int, shards)
	replayed := false

	for step := 0; step < sched.steps; step++ {
		live := ref.liveIDs()
		switch r := rng.Float64(); {
		case r < 0.27: // add, usually with metadata; some copy a live object
			for range sched.burst {
				x := randObj()
				if len(live) > 0 && rng.Intn(4) == 0 {
					x = slices.Clone(ref.rows[live[rng.Intn(len(live))]].obj)
				}
				md := randMeta()
				if _, typed := ref.kinds["bucket"]; typed && rng.Intn(8) == 0 {
					md = ghostMeta()
				}
				want, ok := ref.add(x, maps.Clone(md))
				got, err := st.AddMeta(x, maps.Clone(md))
				var te *meta.TypeError
				if ok && (err != nil || got != want) || !ok && !errors.As(err, &te) {
					t.Fatalf("step %d: add(%v) = (%d, %v), model (%d, accepted %v)", step, md, got, err, want, ok)
				}
			}
		case r < 0.40 && len(live) > 0: // remove a live id
			id := live[rng.Intn(len(live))]
			ref.remove(id)
			if err := st.Remove(id); err != nil {
				t.Fatalf("step %d: remove(%d): %v", step, id, err)
			}
		case r < 0.45: // remove an unknown id
			wantUnknown(step, "remove", st.Remove(unknownID()))
		case r < 0.54 && len(live) > 0: // upsert: same id, a new object
			// (some copy a live one) whose record (often nil) atomically
			// replaces the old one
			id := live[rng.Intn(len(live))]
			x, md := randObj(), randMeta()
			if rng.Intn(3) == 0 {
				x = slices.Clone(ref.rows[live[rng.Intn(len(live))]].obj)
			}
			ref.upsert(id, x, maps.Clone(md))
			if err := st.UpsertMeta(id, x, maps.Clone(md)); err != nil {
				t.Fatalf("step %d: upsert(%d): %v", step, id, err)
			}
		case r < 0.57: // upsert an unknown id, with a record it must not register
			wantUnknown(step, "upsert", st.UpsertMeta(unknownID(), randObj(), ghostMeta()))
		case r < 0.62 && len(live) > 0: // update: replace an object, new id
			id := live[rng.Intn(len(live))]
			x := randObj()
			ref.remove(id)
			want, _ := ref.add(x, nil)
			if err := st.Remove(id); err != nil {
				t.Fatalf("step %d: update remove(%d): %v", step, id, err)
			}
			if got, err := st.Add(x); err != nil || got != want {
				t.Fatalf("step %d: update add = (%d, %v), want %d", step, got, err, want)
			}
		case r < 0.70 && sched.compact:
			st.Compact()
		case r < 0.76: // incremental save of whatever is dirty; half the
			// time also reopen and continue on the reopened store (the
			// save-without-reopen arm leaves dirty frames for a later
			// step's reopen to recover)
			if err := st.Save(path); err != nil {
				t.Fatalf("step %d: save: %v", step, err)
			}
			if rng.Intn(2) == 0 {
				reopen(step)
			}
		default: // invalid searches: the store refuses with retrieval's text
			for _, kp := range [][2]int{{0, 10}, {5, 2}} {
				_, _, err := st.SearchFiltered(randObj(), kp[0], kp[1], nil)
				if want := retrieval.CheckKP(kp[0], kp[1]); err == nil || err.Error() != want.Error() {
					t.Fatalf("step %d: k=%d p=%d: error %v, want %v", step, kp[0], kp[1], err, want)
				}
			}
		}
		for i, sh := range st.shards {
			peak[i] = max(peak[i], sh.Stats().DeltaSize)
		}
		if sched.replayPast > 0 && !replayed && slices.Max(peak) > sched.replayPast {
			if err := st.Save(path); err != nil {
				t.Fatalf("step %d: save: %v", step, err)
			}
			reopen(step)
			replayed = true
		}
		assertMatchesModel(t, st, ref, rng, step, genOffset)
	}

	// Drain to empty, checking the tail end of the ID space (and the
	// empty-store contract) too.
	for _, id := range ref.liveIDs() {
		ref.remove(id)
		if err := st.Remove(id); err != nil {
			t.Fatalf("drain remove(%d): %v", id, err)
		}
	}
	assertMatchesModel(t, st, ref, rng, -1, genOffset)
	return peak
}

// assertMatchesModel is the per-step oracle: stats, live IDs, First,
// metadata, searches (single and batched, plain and filtered) and
// filter-compile errors must all equal the reference model's, and the
// aggregate stats must be the sum of the per-shard rows.
func assertMatchesModel(t *testing.T, st *Store[[]float64], ref *refModel, rng *rand.Rand, step int, genOffset uint64) {
	t.Helper()
	live := ref.liveIDs()
	s := st.Stats()
	if s.Size != len(live) || s.Dims != ref.model.Dims() || s.Generation != ref.gen+genOffset || s.NextID != ref.next {
		t.Fatalf("step %d: stats %+v; model has %d live, dims %d, generation %d+%d, next id %d",
			step, s, len(live), ref.model.Dims(), ref.gen, genOffset, ref.next)
	}
	if s.BaseSize+s.DeltaSize-s.Tombstones != s.Size {
		t.Fatalf("step %d: segment accounting: base %d + delta %d - tombstones %d != size %d",
			step, s.BaseSize, s.DeltaSize, s.Tombstones, s.Size)
	}
	// The aggregate must be exactly the sum of the per-shard rows, which
	// a one-shard store omits.
	detail := st.ShardStats()
	if (detail == nil) != (len(st.shards) == 1) {
		t.Fatalf("step %d: %d shards report %d ShardStats rows", step, len(st.shards), len(detail))
	}
	if detail != nil {
		var sum Stats
		for _, sh := range detail {
			sum.Size += sh.Size
			sum.Generation += sh.Generation
			sum.BaseSize += sh.BaseSize
			sum.DeltaSize += sh.DeltaSize
			sum.Tombstones += sh.Tombstones
			sum.Compactions += sh.Compactions
		}
		if sum.Size != s.Size || sum.Generation != s.Generation || sum.BaseSize != s.BaseSize ||
			sum.DeltaSize != s.DeltaSize || sum.Tombstones != s.Tombstones || sum.Compactions != s.Compactions {
			t.Fatalf("step %d: shard detail does not sum to aggregate:\n sum %+v\n agg %+v", step, sum, s)
		}
	}

	// Live-ID sets are compared sorted: an upsert legitimately moves an
	// ID to the end of its shard's delta.
	var got []uint64
	for _, sh := range st.shards {
		got = append(got, sh.cur.Load().liveIDs()...)
	}
	slices.Sort(got)
	if !slices.Equal(got, live) {
		t.Fatalf("step %d: live ids\n store %v\n model %v", step, got, live)
	}
	wf, wok := ref.first()
	if gf, gok := st.First(); gok != wok || !reflect.DeepEqual(gf, wf) {
		t.Fatalf("step %d: First = (%v, %v), model (%v, %v)", step, gf, gok, wf, wok)
	}
	for i := 0; i < 3 && len(live) > 0; i++ {
		id := live[rng.Intn(len(live))]
		if md, ok := st.Metadata(id); !ok || !reflect.DeepEqual(md, ref.rows[id].md) {
			t.Fatalf("step %d: Metadata(%d) = (%v, %v), model %v", step, id, md, ok, ref.rows[id].md)
		}
	}

	q := func() []float64 {
		return []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
	}
	check := func(what string, query []float64, k, p int, pred *meta.Predicate) {
		t.Helper()
		want, wst, _ := ref.search(query, k, p, pred)
		got, gst, err := st.SearchFiltered(query, k, p, pred)
		if err != nil || !reflect.DeepEqual(got, want) || gst.WithoutTiming() != wst {
			t.Fatalf("step %d: %s search(k=%d, p=%d) = %v %+v (err %v)\n model %v %+v",
				step, what, k, p, got, gst.WithoutTiming(), err, want, wst)
		}
	}
	// A few regular queries, one with p covering the whole store
	// (degenerating to an exact scan), and a query for a twinned object
	// at k = p = 1, which only the tie-breaks decide.
	for i := 0; i < 3; i++ {
		k := 1 + rng.Intn(5)
		p := k + rng.Intn(25)
		if i == 2 {
			p = k + len(live)
		}
		check("plain", q(), k, p, nil)
	}
	if x, ok := ref.twin(); ok {
		check("twin", x, 1, 1, nil)
	}
	batch := [][]float64{q(), q(), q()}
	checkBatch := func(what string, pred *meta.Predicate) {
		t.Helper()
		got, gst, err := st.SearchBatchFiltered(batch, 2, 9, pred)
		if err != nil {
			t.Fatalf("step %d: %s batch: %v", step, what, err)
		}
		for j, query := range batch {
			want, wst, _ := ref.search(query, 2, 9, pred)
			if !reflect.DeepEqual(got[j], want) || gst[j].WithoutTiming() != wst {
				t.Fatalf("step %d: %s batch query %d = %v %+v\n model %v %+v", step, what, j, got[j], gst[j].WithoutTiming(), want, wst)
			}
		}
	}
	checkBatch("plain", nil)

	// Filters compile against both kind tables alike — including the
	// error for a field nothing has registered — and filtered searches,
	// single and batched, equal the model's.
	for i := 0; i < 2; i++ {
		raw := eqFilters[rng.Intn(len(eqFilters))]
		if strings.Contains(raw, "%") {
			raw = fmt.Sprintf(raw, rng.Intn(10))
		}
		pred, err := st.CompileFilter([]byte(raw))
		_, werr := meta.CompileFilter([]byte(raw), ref.kinds)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("step %d: compile(%s) = %v, model %v", step, raw, err, werr)
		}
		if err != nil {
			continue
		}
		k := 1 + rng.Intn(4)
		check("filtered "+raw, q(), k, k+rng.Intn(20), pred)
		checkBatch("filtered "+raw, pred)
	}
}
