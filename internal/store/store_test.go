package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"qse/internal/core"
)

// l1 is the exact distance for the test fixture: cheap, deterministic,
// safe for concurrent use.
func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// fixture trains a small model over clustered vectors and returns the
// database with it.
func fixture(t testing.TB, n int) (*core.Model[[]float64], [][]float64) {
	t.Helper()
	return fixtureWith(t, n, l1)
}

// fixtureWith is fixture with the model's oracle supplied: dist must
// agree with l1, since the stores built over it refine with l1.
func fixtureWith(t testing.TB, n int, dist func(a, b []float64) float64) (*core.Model[[]float64], [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := make([][]float64, n)
	for i := range db {
		c := float64(i % 7)
		db[i] = []float64{c + rng.NormFloat64()*0.2, -c + rng.NormFloat64()*0.2, rng.NormFloat64()}
	}
	opts := core.DefaultOptions()
	opts.Rounds = 8
	opts.NumCandidates = 20
	opts.NumTraining = 40
	opts.NumTriples = 400
	opts.K1 = 3
	opts.Seed = 1
	model, _, err := core.Train(db, dist, opts)
	if err != nil {
		t.Fatalf("training fixture: %v", err)
	}
	return model, db
}

func queries(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
	}
	return qs
}

func newStore(t testing.TB, n int) *Store[[]float64] {
	t.Helper()
	model, db := fixture(t, n)
	s, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestBundleRoundTrip is the acceptance criterion: a saved bundle reopens
// in a fresh store with bit-identical search results and no re-embedding.
func TestBundleRoundTrip(t *testing.T) {
	s := newStore(t, 80)
	path := filepath.Join(t.TempDir(), "ix.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if r.Size() != s.Size() || r.Dims() != s.Dims() {
		t.Fatalf("reopened store is %dx%d, want %dx%d", r.Size(), r.Dims(), s.Size(), s.Dims())
	}
	for qi, q := range queries(25, 7) {
		want, wst, err := s.Search(q, 5, 20)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		got, gst, err := r.Search(q, 5, 20)
		if err != nil {
			t.Fatalf("reopened query %d: %v", qi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reopened results differ:\n got %v\nwant %v", qi, got, want)
		}
		if gst.WithoutTiming() != wst.WithoutTiming() {
			t.Fatalf("query %d: stats differ: got %+v want %+v", qi, gst, wst)
		}
	}
	// Batch answers must match single-query answers on the reopened store.
	qs := queries(8, 9)
	batch, _, err := r.SearchBatch(qs, 3, 12)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	for i, q := range qs {
		single, _, _ := r.Search(q, 3, 12)
		if !reflect.DeepEqual(batch[i], single) {
			t.Fatalf("batch query %d differs from single search", i)
		}
	}
}

// TestBundleSurvivesMutation saves after Add/Remove churn and checks the
// stable-ID table and ID allocator travel with the bundle.
func TestBundleSurvivesMutation(t *testing.T) {
	s := newStore(t, 60)
	added, err := s.Add([]float64{3.5, -3.5, 0})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if added != 60 {
		t.Fatalf("first added ID = %d, want 60", added)
	}
	for _, id := range []uint64{0, 30, 59} {
		if err := s.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
	}
	if err := s.Remove(30); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double Remove: got %v, want ErrUnknownID", err)
	}
	path := filepath.Join(t.TempDir(), "ix.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if r.Size() != s.Size() {
		t.Fatalf("reopened size %d, want %d", r.Size(), s.Size())
	}
	if _, ok := r.Get(30); ok {
		t.Fatal("removed ID 30 resurfaced after reopen")
	}
	if got, ok := r.Get(added); !ok || got[0] != 3.5 {
		t.Fatalf("added object lost across reopen: %v %v", got, ok)
	}
	if next := r.Stats().NextID; next != 61 {
		t.Fatalf("reopened NextID = %d, want 61", next)
	}
	if id, err := r.Add([]float64{1, 1, 1}); err != nil || id != 61 {
		t.Fatalf("post-reopen Add got ID %d (err %v), want 61", id, err)
	}
	// Mirror the post-reopen Add into the original store so both hold the
	// same contents, then searches must agree exactly.
	q := []float64{3.5, -3.5, 0}
	if _, err := s.Add([]float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	want, _, _ := s.Search(q, 4, 16)
	got, _, _ := r.Search(q, 4, 16)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-mutation search differs:\n got %v\nwant %v", got, want)
	}
}

// TestBundleErrorPaths covers truncation, corruption, foreign files, and
// version skew.
func TestBundleErrorPaths(t *testing.T) {
	s := newStore(t, 40)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, raw []byte, want error) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, l1, Gob[[]float64]()); !errors.Is(err, want) {
			t.Fatalf("%s: got error %v, want %v", name, err, want)
		}
	}

	check("foreign", []byte("PNG\x0d\x0a not ours at all"), ErrNotBundle)
	check("empty", nil, ErrNotBundle)
	check("truncated-header", data[:10], ErrCorrupt)
	check("truncated-body", data[:len(data)/2], ErrCorrupt)

	flipped := append([]byte(nil), data...)
	flipped[headerLen+50] ^= 0xff
	check("bitflip", flipped, ErrCorrupt)

	shorn := append([]byte(nil), data[:len(data)-1]...)
	check("shorn-crc", shorn, ErrCorrupt)

	// A future-version file is only reported as version skew when it is
	// otherwise intact, so re-seal the checksum after patching the field.
	future := append([]byte(nil), data...)
	future[6], future[7] = 0xff, 0x7f
	binary.LittleEndian.PutUint32(future[len(future)-crcLen:],
		crc32.Checksum(future[:len(future)-crcLen], crcTable))
	check("future-version", future, ErrVersion)

	// A bit-flipped version byte without a matching checksum is damage,
	// not skew.
	vflip := append([]byte(nil), data...)
	vflip[6] ^= 0xff
	check("version-bitflip", vflip, ErrCorrupt)

	if _, err := Open(filepath.Join(dir, "does-not-exist"), l1, Gob[[]float64]()); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
}

// TestAtomicSaveLeavesNoTemp checks Save publishes via rename and cleans
// up: after a save the directory holds exactly the layout's files —
// manifest, base section, delta log — and no temporaries, even after an
// incremental re-save.
func TestAtomicSaveLeavesNoTemp(t *testing.T) {
	s := newStore(t, 40)
	dir := t.TempDir()
	if err := s.Save(filepath.Join(dir, "ix.bundle")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := s.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filepath.Join(dir, "ix.bundle")); err != nil {
		t.Fatalf("incremental Save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"ix.bundle":                        true,
		"ix.bundle.shard-000-of-001.base":  true,
		"ix.bundle.shard-000-of-001.delta": true,
	}
	names := []string{}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(entries) != len(want) {
		t.Fatalf("directory holds %v, want exactly the three layout files", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected file %s in %v", n, names)
		}
	}
}

// TestStableIDsUnderRemoval pins the shift-on-remove behavior the HTTP
// layer depends on: positions move, IDs do not.
func TestStableIDsUnderRemoval(t *testing.T) {
	s := newStore(t, 50)
	before, ok := s.Get(49)
	if !ok {
		t.Fatal("Get(49) missing")
	}
	if err := s.Remove(10); err != nil {
		t.Fatal(err)
	}
	after, ok := s.Get(49)
	if !ok {
		t.Fatal("ID 49 vanished after removing ID 10")
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("ID 49 resolves to a different object after an unrelated Remove")
	}
	res, _, err := s.Search(after, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 49 {
		t.Fatalf("self-search returned %v, want ID 49 first", res)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation %d after one mutation, want 1", g)
	}
}

// TestConcurrentSearchAndMutate is the -race stress test: lock-free reads
// against copy-on-write snapshots while a mutator churns and a snapshotter
// saves. Every observed result set must be internally consistent (sorted,
// IDs valid at some point in time), and the run must be free of data races
// and torn reads by construction.
func TestConcurrentSearchAndMutate(t *testing.T) {
	s := newStore(t, 80)
	dir := t.TempDir()
	qs := queries(16, 11)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: single searches and batches.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(i+r)%len(qs)]
				res, _, err := s.Search(q, 3, 12)
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
				if i%7 == 0 {
					if _, _, err := s.SearchBatch(qs[:4], 2, 8); err != nil {
						t.Errorf("reader %d batch: %v", r, err)
						return
					}
				}
			}
		}(r)
	}

	// Snapshotter: periodic saves while everything churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Save(filepath.Join(dir, "stress.bundle")); err != nil {
				t.Errorf("snapshotter: %v", err)
				return
			}
		}
	}()

	// Background compactor: folds segments while readers, the snapshotter
	// and the mutator all race it.
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

	// Mutator: interleaved adds and removes on the main test goroutine.
	rng := rand.New(rand.NewSource(5))
	live := []uint64{}
	for i := 0; i < 60; i++ {
		id, err := s.Add([]float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()})
		if err != nil {
			t.Fatalf("mutator add: %v", err)
		}
		live = append(live, id)
		if len(live) > 3 && rng.Intn(2) == 0 {
			k := rng.Intn(len(live))
			if err := s.Remove(live[k]); err != nil {
				t.Errorf("mutator remove: %v", err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Save(filepath.Join(dir, "stress.bundle")); err != nil {
		t.Fatalf("final save: %v", err)
	}

	// The final bundle must reopen cleanly and agree with the live store.
	r, err := Open(filepath.Join(dir, "stress.bundle"), l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopening stress bundle: %v", err)
	}
	if r.Size() == 0 {
		t.Fatal("stress bundle is empty")
	}
}

// TestFirstLiveTracking is the regression test for O(1) First: the
// snapshot's incrementally tracked firstLive must equal a brute-force
// scan after every interleaving of removes (front-heavy on purpose —
// exactly the pattern that made the scanning First O(n)), adds, and
// compactions, and First must always return the lowest live ID's object.
func TestFirstLiveTracking(t *testing.T) {
	s := newStore(t, 60)
	s.SetCompactionPolicy(lazy)

	assertFirst := func(stage string) {
		t.Helper()
		snap := s.cur.Load()
		want := snap.seg.Total()
		for pos := 0; pos < snap.seg.Total(); pos++ {
			if snap.seg.Alive(pos) {
				want = pos
				break
			}
		}
		if snap.firstLive != want {
			t.Fatalf("%s: firstLive = %d, brute-force scan says %d", stage, snap.firstLive, want)
		}
		ids := snap.liveIDs()
		x, id, ok := s.firstLive()
		if len(ids) == 0 {
			if ok {
				t.Fatalf("%s: store drained but First reports id %d", stage, id)
			}
			return
		}
		if !ok || id != ids[0] {
			t.Fatalf("%s: First id = %d (ok %v), want lowest live id %d", stage, id, ok, ids[0])
		}
		if want, wok := s.Get(id); !wok || !reflect.DeepEqual(x, want) {
			t.Fatalf("%s: First object does not match Get(%d)", stage, id)
		}
	}
	assertFirst("fresh")

	// Tombstone the whole front of the base, one row at a time: each
	// remove hits pos == firstLive and must advance it past the dead
	// prefix without ever disagreeing with the scan.
	for id := uint64(0); id < 25; id++ {
		if err := s.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
		assertFirst(fmt.Sprintf("front-remove %d", id))
	}
	// Adds never move firstLive; interleave them with scattered removes.
	rng := rand.New(rand.NewSource(9))
	live := []uint64{}
	for id := uint64(25); id < 60; id++ {
		live = append(live, id)
	}
	for i := 0; i < 40; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			id, err := s.Add([]float64{rng.Float64(), rng.Float64(), rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			k := rng.Intn(len(live))
			if err := s.Remove(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		assertFirst(fmt.Sprintf("churn %d", i))
		if i%13 == 0 {
			s.Compact()
			assertFirst(fmt.Sprintf("compact %d", i))
		}
	}
	// Drain to empty (First must report empty), then refill (First must
	// come back as the new lowest ID).
	for _, id := range live {
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
		assertFirst("drain")
	}
	if _, ok := s.First(); ok {
		t.Fatal("First on a drained store should report empty")
	}
	if _, err := s.Add([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	assertFirst("refill")
	s.Compact()
	assertFirst("refill-compacted")
}

// aggressive compacts on every mutation — the segmented store then
// behaves exactly like the old clone-per-mutation design.
var aggressive = CompactionPolicy{MinDelta: 1, DeltaFrac: 0, MinDead: 1, DeadFrac: 0}

// lazy never compacts within test-sized workloads.
var lazy = CompactionPolicy{MinDelta: 1 << 30, DeltaFrac: 1, MinDead: 1 << 30, DeadFrac: 1}

// TestCompactionEquivalence is the tentpole acceptance check at the store
// layer: the same mutation script applied to a compact-every-time store
// and a never-compact store yields bit-identical search results (IDs and
// distances), and explicitly compacting the lazy store afterwards changes
// nothing.
func TestCompactionEquivalence(t *testing.T) {
	model, db := fixture(t, 60)
	mk := func(pol CompactionPolicy) *Store[[]float64] {
		s, err := New(model, db, l1, Gob[[]float64]())
		if err != nil {
			t.Fatal(err)
		}
		s.SetCompactionPolicy(pol)
		return s
	}
	eager, never := mk(aggressive), mk(lazy)

	for _, s := range []*Store[[]float64]{eager, never} {
		rng := rand.New(rand.NewSource(17))
		live := []uint64{}
		for i := 0; i < 120; i++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				id, err := s.Add([]float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			} else {
				k := rng.Intn(len(live))
				if err := s.Remove(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			}
		}
	}

	est, nst := eager.Stats(), never.Stats()
	if est.Size != nst.Size || est.Generation != nst.Generation || est.NextID != nst.NextID {
		t.Fatalf("stores diverged: %+v vs %+v", est, nst)
	}
	if est.DeltaSize != 0 || est.Tombstones != 0 || est.Compactions == 0 {
		t.Fatalf("aggressive store not compacted: %+v", est)
	}
	if nst.DeltaSize == 0 || nst.Tombstones == 0 || nst.Compactions != 0 {
		t.Fatalf("lazy store compacted unexpectedly: %+v", nst)
	}
	if got, want := nst.BaseSize+nst.DeltaSize-nst.Tombstones, nst.Size; got != want {
		t.Fatalf("segment accounting: base+delta-tombstones = %d, size = %d", got, want)
	}

	compare := func(stage string) {
		t.Helper()
		for qi, q := range queries(30, 23) {
			want, wst, err := eager.Search(q, 5, 25)
			if err != nil {
				t.Fatalf("%s query %d: %v", stage, qi, err)
			}
			got, gst, err := never.Search(q, 5, 25)
			if err != nil {
				t.Fatalf("%s query %d: %v", stage, qi, err)
			}
			if !reflect.DeepEqual(got, want) || gst.WithoutTiming() != wst.WithoutTiming() {
				t.Fatalf("%s query %d: segmented %v != compacted %v", stage, qi, got, want)
			}
		}
		qs := queries(6, 29)
		wb, _, err := eager.SearchBatch(qs, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		gb, _, err := never.SearchBatch(qs, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gb, wb) {
			t.Fatalf("%s: batch results diverge", stage)
		}
	}
	compare("segmented-vs-compacted")

	if !never.Compact() {
		t.Fatal("lazy store had nothing to compact")
	}
	if never.Compact() {
		t.Fatal("second Compact should be a no-op")
	}
	nst = never.Stats()
	if nst.DeltaSize != 0 || nst.Tombstones != 0 || nst.Compactions != 1 {
		t.Fatalf("explicit compaction did not fold: %+v", nst)
	}
	compare("both-compacted")

	// Both stores must also round-trip through bundles identically: Save
	// compacts on the way out, so the lazy store's bundle equals the
	// eager one's state.
	dir := t.TempDir()
	for name, s := range map[string]*Store[[]float64]{"eager": eager, "never": never} {
		path := filepath.Join(dir, name+".bundle")
		if err := s.Save(path); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		r, err := Open(path, l1, Gob[[]float64]())
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		for qi, q := range queries(10, 31) {
			want, _, _ := s.Search(q, 5, 25)
			got, _, err := r.Search(q, 5, 25)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: reopened %v != live %v (err %v)", name, qi, got, want, err)
			}
		}
	}
}

// TestThresholdCompaction checks the mutation path actually fires the
// policy: crossing the delta threshold folds the delta into the base.
func TestThresholdCompaction(t *testing.T) {
	s := newStore(t, 40)
	s.SetCompactionPolicy(CompactionPolicy{MinDelta: 10, DeltaFrac: 0, MinDead: 1 << 30, DeadFrac: 1})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		if _, err := s.Add([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions != 2 {
		t.Fatalf("25 adds at MinDelta=10: %d compactions, want 2 (stats %+v)", st.Compactions, st)
	}
	if st.DeltaSize != 5 || st.BaseSize != 60 || st.Size != 65 {
		t.Fatalf("post-compaction layout %+v, want base 60 + delta 5", st)
	}
}

// TestDrainedStore pins the empty-store contract end to end: a store
// whose every object has been removed keeps answering searches (with
// zero results, not an error), survives a bundle round-trip, and accepts
// new objects afterwards.
func TestDrainedStore(t *testing.T) {
	s := newStore(t, 40)
	for id := uint64(0); id < 40; id++ {
		if err := s.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
	}
	if s.Size() != 0 {
		t.Fatalf("size %d after draining", s.Size())
	}
	if _, ok := s.First(); ok {
		t.Fatal("First on a drained store should report empty")
	}
	res, st, err := s.Search([]float64{1, -1, 0}, 5, 20)
	if err != nil {
		t.Fatalf("search on drained store: %v", err)
	}
	if len(res) != 0 || st.RefineDistances != 0 {
		t.Fatalf("drained search: %v (stats %+v), want empty", res, st)
	}
	if _, _, err := s.SearchBatch(queries(3, 5), 2, 8); err != nil {
		t.Fatalf("batch search on drained store: %v", err)
	}

	path := filepath.Join(t.TempDir(), "drained.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("saving drained store: %v", err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopening drained bundle: %v", err)
	}
	if r.Size() != 0 || r.Dims() != s.Dims() {
		t.Fatalf("reopened drained store: size %d dims %d", r.Size(), r.Dims())
	}
	if res, _, err := r.Search([]float64{1, -1, 0}, 5, 20); err != nil || len(res) != 0 {
		t.Fatalf("reopened drained search: %v, %v", res, err)
	}
	id, err := r.Add([]float64{2, -2, 0})
	if err != nil {
		t.Fatalf("Add after drain: %v", err)
	}
	if id != 40 {
		t.Fatalf("post-drain Add got ID %d, want 40 (allocator must survive draining)", id)
	}
	if res, _, err := r.Search([]float64{2, -2, 0}, 1, 4); err != nil || len(res) != 1 || res[0].ID != 40 {
		t.Fatalf("post-drain search: %v, %v", res, err)
	}
}
