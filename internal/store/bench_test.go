package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"qse/internal/core"
)

// benchFixture trains a small model on a sample of the database (the
// model price is independent of n) and returns it with an n-object db, so
// the benchmarks isolate store-layer mutation cost from training cost.
func benchFixture(b *testing.B, n int) (*core.Model[[]float64], [][]float64) {
	b.Helper()
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
	model, _, err := core.Train(db[:min(n, 200)], l1, opts)
	if err != nil {
		b.Fatalf("training fixture: %v", err)
	}
	return model, db
}

// BenchmarkStoreAdd measures one mutation under the default compaction
// policy at growing n. The acceptance criterion for the segmented store
// is that this stays roughly flat in n — the clone-based design it
// replaced was O(n) per Add (measured 119µs at n=2k, 1.69ms at n=20k on
// the CI container).
func BenchmarkStoreAdd(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			model, db := benchFixture(b, n)
			s, err := New(model, db, l1, Gob[[]float64]())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Add([]float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedStoreAdd measures one mutation through the sharded
// front (embed outside the locks, allocation-ordered shard insert) —
// the per-op cost should match the unsharded BenchmarkStoreAdd, since
// sharding buys contention, not single-threaded speed.
func BenchmarkShardedStoreAdd(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			model, db := benchFixture(b, 20000)
			s, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Add([]float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedSearch measures the scatter-gather read path against
// the single-store baseline at the same p budget: single searches (at 4
// shards on a host of fewer than 4 workers, each shard scans serially
// on its scatter goroutine; at 1 shard the scan partitions) and, per
// shard count, a 32-query batch (each query scans every shard serially;
// ns/op covers the batch).
func BenchmarkShardedSearch(b *testing.B) {
	model, db := benchFixture(b, 20000)
	rng := rand.New(rand.NewSource(10))
	batch := make([][]float64, 32)
	for i := range batch {
		batch[i] = []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
	}
	for _, shards := range []int{1, 4, 8} {
		s, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			q := []float64{3.5, -3.5, 0}
			for i := 0; i < b.N; i++ {
				if _, _, err := s.SearchFiltered(q, 10, 200, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("shards=%d-batch32", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.SearchBatchFiltered(batch, 10, 200, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSaveDirty measures the incremental snapshot path the v3
// layout exists for: an S=8 store with exactly one dirty shard (one add
// since the previous save) against the worst case of a fresh full
// layout write. The dirty save appends one delta frame to one file —
// cost proportional to the delta, not to n·S — so the gap between the
// two sub-benchmarks is the point of the format.
func BenchmarkSaveDirty(b *testing.B) {
	model, db := benchFixture(b, 20000)
	s, err := NewSharded(model, db, l1, Gob[[]float64](), 8)
	if err != nil {
		b.Fatal(err)
	}
	s.SetCompactionPolicy(CompactionPolicy{MinDelta: 1 << 30, DeltaFrac: 1, MinDead: 1 << 30, DeadFrac: 1})
	rng := rand.New(rand.NewSource(9))

	b.Run("full-first-save", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			// A fresh path each iteration forces the full layout write.
			if err := s.Save(filepath.Join(dir, fmt.Sprintf("full-%d.bundle", i))); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("one-dirty-shard", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "inc.bundle")
		if err := s.Save(path); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := s.Add([]float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := s.Save(path); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("clean", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "clean.bundle")
		if err := s.Save(path); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Save(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRemove measures tombstoning throughput (the store is
// refilled outside the timed sections whenever it drains).
func BenchmarkStoreRemove(b *testing.B) {
	model, db := benchFixture(b, 20000)
	s, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		b.Fatal(err)
	}
	next := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Size() == 0 {
			b.StopTimer()
			for j := 0; j < 20000; j++ {
				if _, err := s.Add(db[j]); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		for {
			if err := s.Remove(next); err == nil {
				next++
				break
			}
			next++
		}
	}
}
