package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1001} {
		hits := make([]int32, n)
		For(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForSerialFallback(t *testing.T) {
	var calls int32
	For(10, 100, func(lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo != 0 || hi != 10 {
			t.Errorf("serial fallback got (%d,%d), want (0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("serial fallback called f %d times", calls)
	}
}

func TestShardsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 999} {
		hits := make([]int32, n)
		shards := Shards(0, n, 0, func(s, lo, hi int) {
			if lo >= hi {
				t.Errorf("n=%d: empty shard %d [%d,%d)", n, s, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		if shards < 1 || shards > Workers() {
			t.Fatalf("n=%d: shards = %d, workers = %d", n, shards, Workers())
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestShardsEmpty(t *testing.T) {
	if got := Shards(0, 0, 0, func(s, lo, hi int) { t.Error("f called for n=0") }); got != 0 {
		t.Errorf("Shards(0) = %d", got)
	}
}

func TestWorkersMatchesGOMAXPROCS(t *testing.T) {
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d, GOMAXPROCS = %d", Workers(), runtime.GOMAXPROCS(0))
	}
}

// TestShardsManyWorkers pins a worker count above the test box's core count
// so the parallel path is exercised even on single-CPU machines.
func TestShardsManyWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	const n = 1000
	hits := make([]int32, n)
	shards := Shards(0, n, 0, func(s, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if shards != 8 {
		t.Fatalf("shards = %d, want 8", shards)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// BenchmarkParScaling is the host fact behind the store's rule against
// partitions nested under a full shard scatter: it times a fixed
// latency-bound floating-point loop — 64 chunks, each one dependency
// chain of multiply-adds, like a one-row weighted-L1 sum — on one
// goroutine and split by ForWorkers over Workers() goroutines, each
// iteration timing both, and reports the speedup (one's time over all
// of theirs). A speedup near 1 means the extra goroutines added no
// capacity; a host with every worker idle reads about Workers().
func BenchmarkParScaling(b *testing.B) {
	const chunks, steps = 64, 20000
	out := make([]float64, chunks)
	work := func(lo, hi int) {
		for c := lo; c < hi; c++ {
			x := float64(c)
			for i := 0; i < steps; i++ {
				x = x*0.999999 + 1e-9
			}
			out[c] = x
		}
	}
	var one, all time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		ForWorkers(1, chunks, 1, work)
		one += time.Since(t0)
		t0 = time.Now()
		ForWorkers(Workers(), chunks, 1, work)
		all += time.Since(t0)
	}
	b.ReportMetric(float64(one)/float64(all), "speedup")
	b.ReportMetric(float64(Workers()), "workers")
}
