package store

import (
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
