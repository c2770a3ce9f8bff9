package store

// The cross-layer equivalence harness: a randomized operation-sequence
// generator drives a sharded store and an unsharded reference store with
// the same operations and asserts, after every step, that the two are
// observationally identical — bit-identical search results and stats,
// the same live-ID set, the same First object, the same generation and
// allocator state — and that both satisfy the segment-accounting
// invariants. It is the executable form of the determinism argument in
// DESIGN.md §8: if position order equals ID order and the scatter-gather
// merge reproduces the global (distance, ID) total order, then no
// interleaving of add/remove/update/search/compact/save/reopen can make
// a sharded store answer differently from an unsharded one.
//
// The harness runs for S ∈ {1, 2, 7} (1 exercises the single-shard
// wrapping, 2 the smallest real scatter, 7 leaves some shards empty at
// this store size — covering empty-shard search, save, and reopen) and
// for several seeds. CI runs it with distinct QSE_EQ_SEED values and the
// whole package under -race.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"qse/internal/core"
	"qse/internal/meta"
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
				runEquivalence(t, model, db, shards, seed, 0)
			})
		}
	}
}

// TestQuantizedEquivalence is the same randomized harness with
// quantization on for the sharded side against an exact (unquantized)
// reference: every add/remove/upsert/compact/save/reopen interleaving
// must keep results bit-identical, and reopens additionally prove the
// quantization setting survives the bundle round trip. The fixture's
// 48-row stores sit far below the gate (DESIGN §16), so their shadows
// stay dormant — the harness asserts ShadowBytes == 0 throughout — and
// this is the dormant state's equivalence check; TestGatedStoreMatchesExact
// runs the seeded screen through a store. Each seed drives its own
// schedule across the shard counts. The widths older versions also
// built (1, 2 and 4 bits) keep a seed each: SetQuantization must refuse
// them before any shard changes, and the store must then run the whole
// schedule exact and unquantized, reopens included.
func TestQuantizedEquivalence(t *testing.T) {
	model, db := fixture(t, 48)
	base := eqBaseSeed(t)
	for wi, bits := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 7} {
			bits, shards, seed := bits, shards, base+int64(wi)
			t.Run(fmt.Sprintf("bits=%d/shards=%d/seed=%d", bits, shards, seed), func(t *testing.T) {
				t.Parallel()
				runEquivalence(t, model, db, shards, seed, bits)
			})
		}
	}
	for si := int64(0); si < 4; si++ {
		for _, shards := range []int{1, 2, 7} {
			shards, seed := shards, base+si
			t.Run(fmt.Sprintf("bits=8/shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				t.Parallel()
				runEquivalence(t, model, db, shards, seed, 8)
			})
		}
	}
}

// eqPolicy compacts early enough that test-sized runs actually cross the
// thresholds — on different schedules for the reference store and each
// shard (their base sizes differ), which is exactly the point: physical
// layout must never leak into answers.
var eqPolicy = CompactionPolicy{MinDelta: 8, DeltaFrac: 0.1, MinDead: 8, DeadFrac: 0.2}

// runEquivalence drives the reference and sharded stores through the
// same randomized schedule. quantBits = 8 turns quantization on for the
// sharded side only — the reference stays exact, so every search
// comparison doubles as a quantized-vs-exact bit-identity check. Any
// other nonzero width must be refused, leaving both sides exact.
func runEquivalence(t *testing.T, model *core.Model[[]float64], db [][]float64, shards int, seed int64, quantBits int) {
	ref, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reference store: %v", err)
	}
	shd, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
	if err != nil {
		t.Fatalf("sharded store: %v", err)
	}
	ref.SetCompactionPolicy(eqPolicy)
	shd.SetCompactionPolicy(eqPolicy)
	// Enabling quantization is a mutation (the persisted base must gain
	// its shadow), so it bumps each shard's generation once; genOffset
	// keeps the stats comparison exact.
	genOffset := uint64(0)
	switch quantBits {
	case 0:
	case 8:
		if err := shd.SetQuantization(quantBits); err != nil {
			t.Fatalf("quantizing sharded store: %v", err)
		}
		genOffset = uint64(shards)
		if sb := shd.Stats().ShadowBytes; sb != 0 {
			t.Fatalf("a %d-row store below the gate carries %d shadow bytes", len(db), sb)
		}
	default:
		// A refused width is no mutation: every shard keeps its
		// generation and stays unquantized, and reopens must find the
		// setting off.
		if err := shd.SetQuantization(quantBits); err == nil {
			t.Fatalf("SetQuantization(%d) accepted", quantBits)
		}
		for i, st := range shd.ShardStats() {
			if st.QuantBits != 0 || st.Generation != 0 {
				t.Fatalf("refused width %d changed shard %d: QuantBits %d, generation %d", quantBits, i, st.QuantBits, st.Generation)
			}
		}
		quantBits = 0
	}

	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	// Fixed per-store layout paths: repeated saves land on the same v3
	// layout, so the harness exercises the incremental machinery (clean
	// skips, delta-frame appends, post-compaction base rewrites) rather
	// than only fresh full writes.
	refPath := filepath.Join(dir, "ref.bundle")
	shdPath := filepath.Join(dir, "shd.bundle")
	live := []uint64{}
	for i := range db {
		live = append(live, uint64(i))
	}
	randObj := func() []float64 {
		return []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
	}
	// randMeta draws a typed metadata record from a small fixed field
	// vocabulary (or nil): the same fields recur across rows, so the
	// randomized predicates below actually select non-trivial subsets.
	randMeta := func() meta.Map {
		if rng.Float64() < 0.35 {
			return nil
		}
		m := meta.Map{}
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

	for step := 0; step < 130; step++ {
		switch r := rng.Float64(); {
		case r < 0.27: // add, usually with metadata
			x := randObj()
			md := randMeta()
			rid, rerr := ref.AddMeta(x, md.Clone())
			sid, serr := shd.AddMeta(x, md.Clone())
			if rerr != nil || serr != nil {
				t.Fatalf("step %d: add errs ref=%v shd=%v", step, rerr, serr)
			}
			if rid != sid {
				t.Fatalf("step %d: add ids diverge: ref %d, sharded %d", step, rid, sid)
			}
			live = append(live, rid)
		case r < 0.40 && len(live) > 0: // remove a live id
			k := rng.Intn(len(live))
			id := live[k]
			rerr := ref.Remove(id)
			serr := shd.Remove(id)
			if rerr != nil || serr != nil {
				t.Fatalf("step %d: remove(%d) errs ref=%v shd=%v", step, id, rerr, serr)
			}
			live = slices.Delete(live, k, k+1)
		case r < 0.45: // remove an unknown id: both must refuse identically
			id := uint64(1)<<40 + uint64(rng.Intn(1000))
			rerr := ref.Remove(id)
			serr := shd.Remove(id)
			if !errors.Is(rerr, ErrUnknownID) || !errors.Is(serr, ErrUnknownID) {
				t.Fatalf("step %d: unknown remove errs ref=%v shd=%v", step, rerr, serr)
			}
		case r < 0.54 && len(live) > 0: // upsert: replace in place, same id;
			// the new record (often nil) atomically replaces the old one
			id := live[rng.Intn(len(live))]
			x := randObj()
			md := randMeta()
			rerr := ref.UpsertMeta(id, x, md.Clone())
			serr := shd.UpsertMeta(id, x, md.Clone())
			if rerr != nil || serr != nil {
				t.Fatalf("step %d: upsert(%d) errs ref=%v shd=%v", step, id, rerr, serr)
			}
		case r < 0.57: // upsert an unknown id: both must refuse identically
			id := uint64(1)<<40 + uint64(rng.Intn(1000))
			rerr := ref.Upsert(id, randObj())
			serr := shd.Upsert(id, randObj())
			if !errors.Is(rerr, ErrUnknownID) || !errors.Is(serr, ErrUnknownID) {
				t.Fatalf("step %d: unknown upsert errs ref=%v shd=%v", step, rerr, serr)
			}
		case r < 0.62 && len(live) > 0: // update: replace an object, new id
			k := rng.Intn(len(live))
			id := live[k]
			x := randObj()
			if err := ref.Remove(id); err != nil {
				t.Fatalf("step %d: update remove ref: %v", step, err)
			}
			if err := shd.Remove(id); err != nil {
				t.Fatalf("step %d: update remove shd: %v", step, err)
			}
			rid, rerr := ref.Add(x)
			sid, serr := shd.Add(x)
			if rerr != nil || serr != nil || rid != sid {
				t.Fatalf("step %d: update add ref=(%d,%v) shd=(%d,%v)", step, rid, rerr, sid, serr)
			}
			live[k] = rid
		case r < 0.70: // explicit compaction (possibly of only one side)
			if rng.Intn(2) == 0 {
				ref.Compact()
			}
			shd.Compact()
		case r < 0.76: // incremental save of whatever is dirty; half the
			// time, also reopen both stores from the layouts and continue
			// on the reopened pair (the save-without-reopen arm leaves
			// dirty frames for a later step's reopen to recover)
			if err := ref.Save(refPath); err != nil {
				t.Fatalf("step %d: ref save: %v", step, err)
			}
			if err := shd.Save(shdPath); err != nil {
				t.Fatalf("step %d: sharded save: %v", step, err)
			}
			if rng.Intn(2) == 0 {
				if ref, err = Open(refPath, l1, Gob[[]float64]()); err != nil {
					t.Fatalf("step %d: ref reopen: %v", step, err)
				}
				if shd, err = OpenSharded(shdPath, l1, Gob[[]float64]()); err != nil {
					t.Fatalf("step %d: sharded reopen: %v", step, err)
				}
				if got := len(shd.shards); got != shards {
					t.Fatalf("step %d: reopened with %d shards, want %d", step, got, shards)
				}
				if st := shd.Stats(); st.QuantBits != quantBits || st.ShadowBytes != 0 {
					t.Fatalf("step %d: reopened store reports QuantBits %d with %d shadow bytes, want %d with none (setting not persisted, or a shadow below the gate?)",
						step, st.QuantBits, st.ShadowBytes, quantBits)
				}
				// Generation restarts at zero on open for both sides, which
				// also absorbs the one-time SetQuantization bump.
				genOffset = 0
				ref.SetCompactionPolicy(eqPolicy)
				shd.SetCompactionPolicy(eqPolicy)
			}
		default: // invalid searches: both must refuse with identical text
			for _, kp := range [][2]int{{0, 10}, {5, 2}} {
				q := randObj()
				_, _, rerr := ref.Search(q, kp[0], kp[1])
				_, _, serr := shd.Search(q, kp[0], kp[1])
				if rerr == nil || serr == nil || rerr.Error() != serr.Error() {
					t.Fatalf("step %d: k=%d p=%d error contract diverges: ref %v, sharded %v",
						step, kp[0], kp[1], rerr, serr)
				}
			}
		}
		assertEquivalent(t, ref, shd, rng, step, genOffset)
	}

	// Drain to empty through both stores, checking the tail end of the
	// ID space (and the empty-store contract) stays equivalent too.
	for _, id := range live {
		if err := ref.Remove(id); err != nil {
			t.Fatalf("drain ref remove(%d): %v", id, err)
		}
		if err := shd.Remove(id); err != nil {
			t.Fatalf("drain shd remove(%d): %v", id, err)
		}
	}
	assertEquivalent(t, ref, shd, rng, -1, genOffset)
	if n := shd.Size(); n != 0 {
		t.Fatalf("drained sharded store holds %d objects", n)
	}
	if _, ok := shd.First(); ok {
		t.Fatal("drained sharded store still reports a First object")
	}
}

// assertEquivalent is the per-step oracle: searches (single and batch),
// live-ID sets, First, and stats invariants must all agree between the
// reference store and the sharded store.
func assertEquivalent(t *testing.T, ref *Store[[]float64], shd *Sharded[[]float64], rng *rand.Rand, step int, genOffset uint64) {
	t.Helper()

	rst, sst := ref.Stats(), shd.Stats()
	if rst.Size != sst.Size || rst.Dims != sst.Dims || rst.Generation+genOffset != sst.Generation || rst.NextID != sst.NextID {
		t.Fatalf("step %d: stats diverge (genOffset %d):\n ref %+v\n shd %+v", step, genOffset, rst, sst)
	}
	for name, st := range map[string]Stats{"ref": rst, "sharded": sst} {
		if st.BaseSize+st.DeltaSize-st.Tombstones != st.Size {
			t.Fatalf("step %d: %s segment accounting: base %d + delta %d - tombstones %d != size %d",
				step, name, st.BaseSize, st.DeltaSize, st.Tombstones, st.Size)
		}
	}
	// The aggregate must be exactly the sum of the per-shard rows.
	var sum Stats
	detail := shd.ShardStats()
	for _, sh := range detail {
		sum.Size += sh.Size
		sum.Generation += sh.Generation
		sum.BaseSize += sh.BaseSize
		sum.DeltaSize += sh.DeltaSize
		sum.Tombstones += sh.Tombstones
		sum.Compactions += sh.Compactions
	}
	if sum.Size != sst.Size || sum.Generation != sst.Generation || sum.BaseSize != sst.BaseSize ||
		sum.DeltaSize != sst.DeltaSize || sum.Tombstones != sst.Tombstones || sum.Compactions != sst.Compactions {
		t.Fatalf("step %d: shard detail does not sum to aggregate:\n sum %+v\n agg %+v", step, sum, sst)
	}

	// Identical live-ID sets. (Position order is compared after sorting:
	// an upsert legitimately moves an ID to the end of its store's delta,
	// and the two layouts' deltas differ by construction.)
	refIDs := ref.cur.Load().liveIDs()
	slices.Sort(refIDs)
	var shdIDs []uint64
	for _, sh := range shd.shards {
		shdIDs = append(shdIDs, sh.cur.Load().liveIDs()...)
	}
	slices.Sort(shdIDs)
	if !slices.Equal(refIDs, shdIDs) {
		t.Fatalf("step %d: live ids diverge:\n ref %v\n shd %v", step, refIDs, shdIDs)
	}

	// Same First object (the lowest live ID everywhere).
	rf, rok := ref.First()
	sf, sok := shd.First()
	if rok != sok || !reflect.DeepEqual(rf, sf) {
		t.Fatalf("step %d: First diverges: ref (%v,%v) shd (%v,%v)", step, rf, rok, sf, sok)
	}

	// Bit-identical searches: a few regular queries, plus one with p
	// covering the whole store (degenerates to an exact scan).
	q := func() []float64 {
		return []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
	}
	for i := 0; i < 3; i++ {
		k := 1 + rng.Intn(5)
		p := k + rng.Intn(25)
		if i == 2 {
			p = k + ref.Size() // full scan
		}
		query := q()
		want, wst, werr := ref.Search(query, k, p)
		got, gst, gerr := shd.Search(query, k, p)
		if werr != nil || gerr != nil {
			t.Fatalf("step %d: search errs ref=%v shd=%v", step, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: search(k=%d,p=%d) diverges:\n ref %v\n shd %v", step, k, p, want, got)
		}
		if gst.WithoutTiming() != wst.WithoutTiming() {
			t.Fatalf("step %d: search stats diverge: ref %+v shd %+v", step, wst, gst)
		}
	}
	batch := [][]float64{q(), q(), q()}
	want, wst, werr := ref.SearchBatch(batch, 2, 9)
	got, gst, gerr := shd.SearchBatch(batch, 2, 9)
	if werr != nil || gerr != nil {
		t.Fatalf("step %d: batch errs ref=%v shd=%v", step, werr, gerr)
	}
	for i := range gst {
		gst[i], wst[i] = gst[i].WithoutTiming(), wst[i].WithoutTiming()
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gst, wst) {
		t.Fatalf("step %d: batch diverges:\n ref %v %v\n shd %v %v", step, want, wst, got, gst)
	}

	// Per-ID metadata must agree (a few random live IDs per step).
	for i := 0; i < 3 && len(refIDs) > 0; i++ {
		id := refIDs[rng.Intn(len(refIDs))]
		rm, rok := ref.Metadata(id)
		sm, sok := shd.Metadata(id)
		if rok != sok || !reflect.DeepEqual(rm, sm) {
			t.Fatalf("step %d: metadata(%d) diverges: ref (%v,%v) shd (%v,%v)", step, id, rm, rok, sm, sok)
		}
	}

	// Bit-identical filtered searches under randomized predicates. Both
	// registries saw the same writes, so compilation must agree too —
	// including the error for a field nothing has registered yet.
	filters := []string{
		fmt.Sprintf(`{"field":"bucket","eq":%d}`, rng.Intn(10)),
		fmt.Sprintf(`{"field":"bucket","le":%d}`, rng.Intn(10)),
		`{"field":"tag","in":["a","c"]}`,
		fmt.Sprintf(`{"and":[{"field":"bucket","ge":%d},{"field":"tag","ne":"b"}]}`, rng.Intn(5)),
		fmt.Sprintf(`{"field":"score","lt":%g}`, rng.Float64()),
		`{"field":"hot","eq":true}`,
		`{"field":"bucket","exists":false}`,
	}
	for i := 0; i < 2; i++ {
		raw := filters[rng.Intn(len(filters))]
		rpred, rerr := ref.CompileFilter([]byte(raw))
		spred, serr := shd.CompileFilter([]byte(raw))
		if (rerr == nil) != (serr == nil) || (rerr != nil && rerr.Error() != serr.Error()) {
			t.Fatalf("step %d: compile(%s) diverges: ref %v shd %v", step, raw, rerr, serr)
		}
		if rerr != nil {
			continue
		}
		k := 1 + rng.Intn(4)
		p := k + rng.Intn(20)
		query := q()
		want, wst, werr := ref.SearchFiltered(query, k, p, rpred)
		got, gst, gerr := shd.SearchFiltered(query, k, p, spred)
		if werr != nil || gerr != nil {
			t.Fatalf("step %d: filtered search errs ref=%v shd=%v", step, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: filtered search(%s,k=%d,p=%d) diverges:\n ref %v\n shd %v", step, raw, k, p, want, got)
		}
		if gst.WithoutTiming() != wst.WithoutTiming() {
			t.Fatalf("step %d: filtered stats diverge: ref %+v shd %+v", step, wst, gst)
		}
		fwant, _, werr2 := ref.SearchBatchFiltered(batch, 2, 9, rpred)
		fgot, _, gerr2 := shd.SearchBatchFiltered(batch, 2, 9, spred)
		if werr2 != nil || gerr2 != nil {
			t.Fatalf("step %d: filtered batch errs ref=%v shd=%v", step, werr2, gerr2)
		}
		if !reflect.DeepEqual(fgot, fwant) {
			t.Fatalf("step %d: filtered batch diverges:\n ref %v\n shd %v", step, fwant, fgot)
		}
	}
}
