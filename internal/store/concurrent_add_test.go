package store

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentAddsEmbedInParallel pins that AddMeta embeds before it
// takes the store's mutex. Once armed, the model's oracle holds every
// call until two calls are in flight at once. Embedding is serial within
// one add, so two calls in flight means two adds embedding at the same
// time, which cannot happen while an add embeds under the mutex: there
// the first call waits out the timeout.
func TestConcurrentAddsEmbedInParallel(t *testing.T) {
	var (
		armed    atomic.Bool
		timedOut atomic.Bool
		inFlight atomic.Int32
		both     = make(chan struct{})
		once     sync.Once
	)
	gated := func(a, b []float64) float64 {
		if armed.Load() {
			if inFlight.Add(1) >= 2 {
				once.Do(func() { close(both) })
			}
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				timedOut.Store(true)
				armed.Store(false)
			}
			inFlight.Add(-1)
		}
		return l1(a, b)
	}
	model, db := fixtureWith(t, 60, gated)
	s, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	armed.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.AddMeta([]float64{float64(i), -float64(i), 0.5}, nil); err != nil {
				t.Errorf("add %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if timedOut.Load() {
		t.Fatal("the two adds never embedded at the same time: AddMeta embeds while holding the store mutex")
	}
	if got := s.Size(); got != len(db)+2 {
		t.Fatalf("size %d after two adds, want %d", got, len(db)+2)
	}
}

// TestConcurrentAddsMatchModel pins the insert order that rests on the
// shard mutex alone: four goroutines add to a one-shard store while
// searches run, so IDs can reach the delta out of order, and every third
// object is one all four writers add, so twins race each other in. The model is built from the IDs the
// adds returned. Searches (including each twin at k = p = 1, which only
// the tie-breaks decide), First and Get must then equal the model's, on
// the live store and after a save and reopen.
func TestConcurrentAddsMatchModel(t *testing.T) {
	const writers, adds = 4, 40
	model, db := fixture(t, 48)
	s, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompactionPolicy(CompactionPolicy{MinDelta: 24, MinDead: 1 << 30})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	qs := queries(8, 3)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.SearchFiltered(qs[(i+r)%len(qs)], 3, 12, nil); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	added := make([]map[uint64][]float64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			added[w] = map[uint64][]float64{}
			for i := 0; i < adds; i++ {
				x := []float64{float64(w), float64(i), 0.5}
				if i%3 == 0 {
					x[0] = -1
				}
				id, err := s.Add(x)
				if err != nil {
					t.Errorf("writer %d: add: %v", w, err)
					return
				}
				added[w][id] = x
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	ref := newRefModel(model, db)
	for _, m := range added {
		for id, x := range m {
			if _, dup := ref.rows[id]; dup {
				t.Fatalf("id %d returned twice", id)
			}
			ref.rows[id] = refRow{obj: x, vec: model.Embed(x)}
		}
	}
	ref.next += writers * adds
	if len(ref.rows) != int(ref.next) {
		t.Fatalf("%d distinct ids for %d objects", len(ref.rows), ref.next)
	}
	if _, ok := ref.twin(); !ok {
		t.Fatal("no twins were added")
	}

	check := func(st *Store[[]float64], what string) {
		t.Helper()
		if n := st.Stats().NextID; n != ref.next {
			t.Fatalf("%s: NextID %d, model %d", what, n, ref.next)
		}
		wf, _ := ref.first()
		if gf, ok := st.First(); !ok || !reflect.DeepEqual(gf, wf) {
			t.Fatalf("%s: First = %v, model %v", what, gf, wf)
		}
		for id, r := range ref.rows {
			if x, ok := st.Get(id); !ok || !reflect.DeepEqual(x, r.obj) {
				t.Fatalf("%s: Get(%d) = %v, model %v", what, id, x, r.obj)
			}
		}
		probes := append([][]float64{}, qs...)
		seen := map[string]bool{}
		for _, id := range ref.liveIDs() {
			if x := ref.rows[id].obj; seen[fmt.Sprint(x)] {
				probes = append(probes, x)
			} else {
				seen[fmt.Sprint(x)] = true
			}
		}
		for _, q := range probes {
			for _, kp := range [][2]int{{1, 1}, {3, 12}, {5, 60}} {
				want, _, _ := ref.search(q, kp[0], kp[1], nil)
				got, _, err := st.SearchFiltered(q, kp[0], kp[1], nil)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: search(%v, k=%d, p=%d) = %v (err %v), model %v", what, q, kp[0], kp[1], got, err, want)
				}
			}
		}
	}
	check(s, "live")
	path := filepath.Join(t.TempDir(), "adds.bundle")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	check(r, "reopened")
}
