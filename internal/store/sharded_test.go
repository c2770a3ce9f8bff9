package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"qse/internal/fsio"
)

func newSharded(t testing.TB, n, shards int) *Store[[]float64] {
	t.Helper()
	model, db := fixture(t, n)
	s, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return s
}

// TestShardOf pins the routing function: deterministic, in-range, and
// reasonably balanced over sequential IDs (the allocation pattern every
// store produces).
func TestShardOf(t *testing.T) {
	const shards, n = 8, 10000
	counts := make([]int, shards)
	for id := uint64(0); id < n; id++ {
		sh := shardOf(id, shards)
		if sh < 0 || sh >= shards {
			t.Fatalf("shardOf(%d, %d) = %d, out of range", id, shards, sh)
		}
		if sh != shardOf(id, shards) {
			t.Fatalf("shardOf(%d) not deterministic", id)
		}
		counts[sh]++
	}
	mean := n / shards
	for sh, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("shard %d holds %d of %d sequential ids (mean %d): badly balanced %v", sh, c, n, mean, counts)
		}
	}
	if shardOf(42, 1) != 0 {
		t.Fatal("single-shard routing must be the identity")
	}
}

func TestNewShardedValidation(t *testing.T) {
	model, db := fixture(t, 40)
	codec := Gob[[]float64]()
	if _, err := NewSharded[[]float64](nil, db, l1, codec, 2); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewSharded(model, db, l1, nil, 2); err == nil {
		t.Fatal("nil codec accepted")
	}
	if _, err := NewSharded(model, db, l1, codec, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewSharded(model, db, l1, codec, maxShards+1); err == nil {
		t.Fatal("absurd shard count accepted")
	}
	if _, err := NewSharded(model, nil, l1, codec, 2); err == nil {
		t.Fatal("empty database accepted")
	}
}

// TestShardedSaveOpenRoundTrip checks the v3 layout: Save writes a
// manifest (model once) plus base and delta section files per shard,
// and Open restores a store with the saved shard count and
// bit-identical answers.
func TestShardedSaveOpenRoundTrip(t *testing.T) {
	s := newSharded(t, 60, 4)
	// Mutate so the saved state is not just the build output.
	if _, err := s.Add([]float64{3, -3, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(10); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	bases, deltas := shardSectionFiles(path, 4)
	for _, f := range append(append([]string{}, bases...), deltas...) {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Fatalf("section file %s missing or empty: %v", f, err)
		}
	}

	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(r.shards) != 4 {
		t.Fatalf("reopened %d shards, want 4", len(r.shards))
	}
	if r.Size() != s.Size() || r.Stats().NextID != s.Stats().NextID {
		t.Fatalf("reopened store %+v, want %+v", r.Stats(), s.Stats())
	}
	for qi, q := range queries(20, 7) {
		want, wst, err := s.SearchFiltered(q, 5, 20, nil)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		got, gst, err := r.SearchFiltered(q, 5, 20, nil)
		if err != nil {
			t.Fatalf("reopened query %d: %v", qi, err)
		}
		if !reflect.DeepEqual(got, want) || gst.WithoutTiming() != wst.WithoutTiming() {
			t.Fatalf("query %d: reopened results differ:\n got %v %+v\nwant %v %+v", qi, got, gst, want, wst)
		}
	}
}

// TestSingleShardAndV1Compat pins the one-shard contract: New and
// NewSharded(…, 1) build the same store, whose layout reopens with the
// same answers. (TestLegacyVersionsRefused covers the v1 bundle's
// refusal.)
func TestSingleShardAndV1Compat(t *testing.T) {
	model, db := fixture(t, 40)
	plain, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewSharded(model, db, l1, Gob[[]float64](), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "one.bundle")
	if err := one.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("Open on S=1 save: %v", err)
	}
	if len(r.shards) != 1 || r.Stats().Shards != 1 {
		t.Fatalf("S=1 layout reopened with %d shards", len(r.shards))
	}
	for qi, q := range queries(15, 3) {
		want, wst, err := plain.SearchFiltered(q, 4, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]*Store[[]float64]{"NewSharded(1)": one, "reopened": r} {
			got, gst, err := st.SearchFiltered(q, 4, 16, nil)
			if err != nil || !reflect.DeepEqual(got, want) || gst.WithoutTiming() != wst.WithoutTiming() {
				t.Fatalf("query %d: %s answers %v (err %v), New answers %v", qi, name, got, err, want)
			}
		}
	}
}

// TestV3LayoutErrorPaths covers damage to a 3-shard v3 layout whose
// files are each intact: two shards' base and delta files swapped on
// disk (the ID-routing check must catch it — objects would otherwise be
// unreachable by Get/Remove while still appearing in searches), and a
// missing base section (the open must fail, never serve a subset of the
// data).
func TestV3LayoutErrorPaths(t *testing.T) {
	s := newSharded(t, 60, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bundle")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// A delta frame per shard, so the swap moves live delta rows too.
	for i := 0; i < 6; i++ {
		if _, err := s.Add([]float64{float64(i), -1, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	bases, deltas := shardSectionFiles(path, 3)
	swap := func(a, b string) {
		t.Helper()
		a, b = filepath.Join(dir, a), filepath.Join(dir, b)
		tmp := filepath.Join(dir, "swap.tmp")
		for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
			if err := os.Rename(mv[0], mv[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	swapShards := func() {
		swap(bases[0], bases[1])
		swap(deltas[0], deltas[1])
	}
	swapShards()
	if _, err := Open(path, l1, Gob[[]float64]()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped shard files: err %v, want ErrCorrupt", err)
	}
	swapShards()
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("restored layout must open: %v", err)
	}
	if r.Size() != 66 {
		t.Fatalf("restored layout holds %d objects, want 66", r.Size())
	}
	if err := os.Remove(filepath.Join(dir, bases[2])); err != nil {
		t.Fatal(err)
	}
	if r, err := Open(path, l1, Gob[[]float64]()); err == nil {
		t.Fatalf("layout with a missing base section opened with %d objects", r.Size())
	}
}

// TestShardedStaleManifestAllocator pins the crash-consistency guard: a
// manifest whose NextID is stale (the normal state, since delta-only
// saves never rewrite the manifest) must not cause the allocator to
// re-issue an ID a shard already holds.
func TestShardedStaleManifestAllocator(t *testing.T) {
	s := newSharded(t, 40, 3)
	path := filepath.Join(t.TempDir(), "v3.bundle")
	// The manifest is written once; later incremental saves advance only
	// the sections.
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	var lastID uint64
	for i := 0; i < 10; i++ {
		id, err := s.Add([]float64{float64(i), 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
	}
	// The adds reach the layout through an incremental save: the manifest
	// keeps its original (now stale) NextID.
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	_, payload, err := readEnvelope(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if man, err := decodeManifestV3(path, payload); err != nil || man.NextID != 40 {
		t.Fatalf("manifest NextID after a delta-only save: %v (err %v), want the stale 40", man, err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("stale-manifest layout must open: %v", err)
	}
	if next := r.Stats().NextID; next != lastID+1 {
		t.Fatalf("allocator resumed at %d, want %d (max over shard sections)", next, lastID+1)
	}
	id, err := r.Add([]float64{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if id != lastID+1 {
		t.Fatalf("post-reopen Add issued %d, want %d", id, lastID+1)
	}
}

// TestShardedConcurrentMutation is the -race stress test for the shard
// fan-out: concurrent writers (whose inserts land on different shards),
// scatter-gather readers, a background compactor, and a generation
// sampler all race; afterwards every surviving write must be readable
// with its exact contents, every removal must have stuck, and the
// aggregate counters must balance — no lost updates, no torn reads, no
// generation regression.
func TestShardedConcurrentMutation(t *testing.T) {
	const initial, writers, addsPerWriter = 64, 4, 60
	model, db := fixture(t, initial)
	s, err := NewSharded(model, db, l1, Gob[[]float64](), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Compact aggressively so folds race the readers and writers hard.
	s.SetCompactionPolicy(CompactionPolicy{MinDelta: 8, DeltaFrac: 0, MinDead: 8, DeadFrac: 0})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: scatter-gather single and batch searches.
	qs := queries(16, 11)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := s.SearchFiltered(qs[(i+r)%len(qs)], 3, 12, nil)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for j := 1; j < len(res); j++ {
					if res[j].Distance < res[j-1].Distance {
						t.Errorf("reader %d: unsorted results %v", r, res)
						return
					}
				}
				if i%9 == 0 {
					if _, _, err := s.SearchBatchFiltered(qs[:4], 2, 8, nil); err != nil {
						t.Errorf("reader %d batch: %v", r, err)
						return
					}
				}
			}
		}(r)
	}

	// Generation sampler: the total mutation count must never regress.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := s.Generation()
			if g < last {
				t.Errorf("generation regressed: %d after %d", g, last)
				return
			}
			last = g
		}
	}()

	// Background compactor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Compact()
			}
		}
	}()

	// Writers: concurrent adds (each with distinct, recognizable
	// contents) and removals of the writer's own objects. IDs are drawn
	// from the shared allocator, so concurrent writers land on distinct
	// shards far more often than not.
	type outcome struct {
		kept    map[uint64][]float64
		removed []uint64
	}
	outcomes := make([]outcome, writers)
	var removals atomic.Int64
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			kept := map[uint64][]float64{}
			var removed []uint64
			for i := 0; i < addsPerWriter; i++ {
				x := []float64{float64(w), float64(i), rng.NormFloat64()}
				id, err := s.Add(x)
				if err != nil {
					t.Errorf("writer %d: add: %v", w, err)
					return
				}
				kept[id] = x
				if len(kept) > 2 && rng.Intn(3) == 0 {
					for victim := range kept {
						if err := s.Remove(victim); err != nil {
							t.Errorf("writer %d: remove(%d): %v", w, victim, err)
							return
						}
						delete(kept, victim)
						removed = append(removed, victim)
						removals.Add(1)
						break
					}
				}
			}
			outcomes[w] = outcome{kept: kept, removed: removed}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// No lost updates, no resurrections, exact contents.
	keptTotal := 0
	for w, out := range outcomes {
		keptTotal += len(out.kept)
		for id, want := range out.kept {
			got, ok := s.Get(id)
			if !ok {
				t.Fatalf("writer %d: id %d lost", w, id)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("writer %d: id %d holds %v, want %v", w, id, got, want)
			}
		}
		for _, id := range out.removed {
			if _, ok := s.Get(id); ok {
				t.Fatalf("writer %d: removed id %d resurfaced", w, id)
			}
		}
	}
	st := s.Stats()
	if want := initial + keptTotal; st.Size != want {
		t.Fatalf("final size %d, want %d", st.Size, want)
	}
	if want := uint64(initial + writers*addsPerWriter); st.NextID != want {
		t.Fatalf("final NextID %d, want %d", st.NextID, want)
	}
	if want := uint64(writers*addsPerWriter) + uint64(removals.Load()); st.Generation != want {
		t.Fatalf("final generation %d, want %d", st.Generation, want)
	}
	// Every live ID must sit in the shard its hash routes to.
	for i, sh := range s.shards {
		for _, id := range sh.cur.Load().liveIDs() {
			if got := shardOf(id, len(s.shards)); got != i {
				t.Fatalf("id %d stored in shard %d, routes to %d", id, i, got)
			}
		}
	}

	// The final state must survive a save/reopen with identical answers.
	path := filepath.Join(t.TempDir(), "stress.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("final save: %v", err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopening stress layout: %v", err)
	}
	for qi, q := range qs[:4] {
		want, _, _ := s.SearchFiltered(q, 5, 20, nil)
		got, _, err := r.SearchFiltered(q, 5, 20, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reopened %v != live %v (err %v)", qi, got, want, err)
		}
	}
}

// TestShardedFirst pins First across shards: always the lowest live ID,
// through front-heavy removals.
func TestShardedFirst(t *testing.T) {
	s := newSharded(t, 40, 4)
	for id := uint64(0); id < 40; id++ {
		x, ok := s.First()
		if !ok {
			t.Fatalf("First empty with %d objects live", s.Size())
		}
		want, wok := s.Get(id)
		if !wok || !reflect.DeepEqual(x, want) {
			t.Fatalf("First != object %d: got %v want %v (ok %v)", id, x, want, wok)
		}
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.First(); ok {
		t.Fatal("First on a drained sharded store should report empty")
	}
	id, err := s.Add([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x, ok := s.First(); !ok || x[0] != 1 {
		t.Fatalf("First after refill: %v %v, want the new object (id %d)", x, ok, id)
	}
}

// TestShardedSearchValidation mirrors the single-store contract: bad
// parameters are errors, small-k clamping and the empty-store answer are
// not.
func TestShardedSearchValidation(t *testing.T) {
	s := newSharded(t, 40, 3)
	if _, _, err := s.SearchFiltered([]float64{1, 2, 3}, 0, 10, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := s.SearchFiltered([]float64{1, 2, 3}, 5, 4, nil); err == nil {
		t.Fatal("p<k accepted")
	}
	if _, _, err := s.SearchBatchFiltered(queries(2, 5), 0, 10, nil); err == nil {
		t.Fatal("batch k=0 accepted")
	}
	res, _, err := s.SearchFiltered([]float64{1, 2, 3}, 80, 200, nil)
	if err != nil {
		t.Fatalf("oversized k: %v", err)
	}
	if len(res) != 40 {
		t.Fatalf("k>size returned %d results, want 40", len(res))
	}
	var deleted uint64 = 7
	if err := s.Remove(deleted); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(deleted); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double remove: %v, want ErrUnknownID", err)
	}
	if _, ok := s.Get(deleted); ok {
		t.Fatal("removed id still resolves")
	}
}

func TestShardedStatsShape(t *testing.T) {
	s := newSharded(t, 50, 5)
	st := s.Stats()
	if st.Shards != 5 {
		t.Fatalf("Shards = %d, want 5", st.Shards)
	}
	detail := s.ShardStats()
	if len(detail) != 5 {
		t.Fatalf("ShardStats returned %d rows, want 5", len(detail))
	}
	size := 0
	for _, row := range detail {
		size += row.Size
	}
	if size != st.Size || st.Size != 50 {
		t.Fatalf("shard sizes sum to %d, aggregate %d, want 50", size, st.Size)
	}
	// A one-shard store reports no shard detail (the server uses this to
	// omit the JSON field).
	one := newStore(t, 40)
	if one.ShardStats() != nil {
		t.Fatal("a one-shard Store must report nil ShardStats")
	}
	if one.Stats().Shards != 1 {
		t.Fatalf("one-shard Store Shards = %d, want 1", one.Stats().Shards)
	}
	_ = fmt.Sprintf("%v", st)
}
