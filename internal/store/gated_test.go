package store

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"qse/internal/core"
	"qse/internal/embed"
	"qse/internal/fsio"
	"qse/internal/meta"
)

// gateRows is the seeded screen's build gate (DESIGN §16): a shard's
// base segment gets a shadow only with at least this many rows and 16
// embedded dimensions. The store never tests sizes itself; this test
// only sizes its data past the gate.
const gateRows = 16384

// gatedDB draws n 8-dimensional points around 16 centres.
func gatedDB(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centres := make([][]float64, 16)
	for i := range centres {
		centres[i] = make([]float64, 8)
		for d := range centres[i] {
			centres[i][d] = rng.Float64() * 10
		}
	}
	db := make([][]float64, n)
	for i := range db {
		c := centres[rng.Intn(len(centres))]
		db[i] = make([]float64, 8)
		for d := range db[i] {
			db[i][d] = c[d] + rng.NormFloat64()*0.5
		}
	}
	return db
}

// gatedModel hand-assembles a query-sensitive model that embeds to 24
// dimensions — wider than the seeded screen's 16-dimension minimum,
// which the trained fixture (8 rounds, at most 8 dimensions) never
// reaches. Coordinate i is the L1 distance to database row i; every
// coordinate carries a global weight, and a second rule adds weight when
// the query's coordinate falls in [8, 14], so weights differ per query.
func gatedModel(t testing.TB, db [][]float64) *core.Model[[]float64] {
	t.Helper()
	snap := &core.Snapshot{Mode: core.QuerySensitive, FormatVersion: 1}
	for i := 0; i < 24; i++ {
		def := embed.Def{Kind: embed.KindReference, A: i, Scale: 1}
		snap.CandidateIdx = append(snap.CandidateIdx, i)
		snap.Rules = append(snap.Rules,
			core.Rule{Def: def, Lo: math.Inf(-1), Hi: math.Inf(1), Alpha: 1 + float64(i%3)},
			core.Rule{Def: def, Lo: 8, Hi: 14, Alpha: 0.5})
	}
	m, err := core.Restore(snap, db, l1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims() != 24 {
		t.Fatalf("model embeds to %d dims, want 24", m.Dims())
	}
	return m
}

// TestGatedStoreMatchesExact runs the seeded screen through the store:
// a one-shard Store with a base past the gate, and a 2-shard Store whose
// every shard's base is past it, each driven in lockstep with an exact twin
// (quantization off) through adds, upserts, removes, out-of-range delta
// rows (whose codes give no bounds), filtered and unfiltered searches,
// save/reopen, a forced compaction, and a reopen from a base section
// recorded at 3 bits. After each step every search must equal the
// twin's, and the quantized side must have screened: unfiltered, every
// live row of every shard; filtered, at least one row.
func TestGatedStoreMatchesExact(t *testing.T) {
	for _, c := range []struct {
		name         string
		shards, rows int
	}{
		{"store", 1, gateRows + 1500},
		{"sharded", 2, 2*gateRows + 2500},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := gatedDB(c.rows, 1)
			model := gatedModel(t, db)
			build := func() *Store[[]float64] {
				t.Helper()
				b, err := NewSharded(model, db, l1, Gob[[]float64](), c.shards)
				if err != nil {
					t.Fatal(err)
				}
				// Compaction only when the test forces it, so the delta
				// rows stay in the delta.
				b.SetCompactionPolicy(CompactionPolicy{MinDelta: 1 << 30, MinDead: 1 << 30})
				return b
			}
			quant, exact := build(), build()
			if err := quant.SetQuantization(8); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			queries := gatedDB(4, 3)
			var ids []uint64
			both := func(step string, f func(b *Store[[]float64]) error) {
				t.Helper()
				for _, b := range []*Store[[]float64]{quant, exact} {
					if err := f(b); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
				}
			}
			addRows := func(step string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					x := gatedDB(1, rng.Int63())[0]
					if i%9 == 0 {
						x[i%8] = 1e4 // embeds far outside the base's range
					}
					md := meta.Map{"bucket": meta.IntValue(int64(rng.Intn(10)))}
					var id uint64
					both(step, func(b *Store[[]float64]) (err error) {
						got, err := b.AddMeta(x, md)
						if id != 0 && got != id {
							return fmt.Errorf("twins assigned IDs %d and %d", id, got)
						}
						id = got
						return err
					})
					ids = append(ids, id)
				}
			}
			churn := func(step string) {
				t.Helper()
				addRows(step, 200)
				for i := 0; i < 60; i++ {
					j := rng.Intn(len(ids))
					x := gatedDB(1, rng.Int63())[0]
					md := meta.Map{"bucket": meta.IntValue(int64(rng.Intn(10)))}
					both(step, func(b *Store[[]float64]) error { return b.UpsertMeta(ids[j], x, md) })
				}
				for i := 0; i < 80; i++ {
					j := rng.Intn(len(ids))
					id := ids[j]
					ids = append(ids[:j], ids[j+1:]...)
					both(step, func(b *Store[[]float64]) error { return b.Remove(id) })
				}
				for i := 0; i < 40; i++ {
					id := uint64(rng.Intn(c.rows))
					if _, ok := exact.Get(id); ok {
						both(step, func(b *Store[[]float64]) error { return b.Remove(id) })
					}
				}
			}
			check := func(step string) {
				t.Helper()
				for _, sh := range shardStats(quant) {
					if sh.BaseSize < gateRows || sh.ShadowBytes == 0 || sh.QuantBits != 8 {
						t.Fatalf("%s: a shard has %d base rows, %d shadow bytes at %d bits — not past the gate",
							step, sh.BaseSize, sh.ShadowBytes, sh.QuantBits)
					}
				}
				pred, err := quant.CompileFilter([]byte(`{"field":"bucket","lt":5}`))
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					for _, filter := range []*meta.Predicate{nil, pred} {
						want, _, err := exact.SearchFiltered(q, 10, 100, filter)
						if err != nil {
							t.Fatal(err)
						}
						got, st, err := quant.SearchFiltered(q, 10, 100, filter)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: query %d filtered=%v diverges from the exact twin:\n  quantized %v\n  exact     %v",
								step, qi, filter != nil, got, want)
						}
						scanned := st.Timing.BoundScannedRows
						if filter == nil && scanned != int64(quant.Size()) || scanned == 0 {
							t.Fatalf("%s: query %d filtered=%v screened %d rows of %d live", step, qi, filter != nil, scanned, quant.Size())
						}
					}
				}
			}
			dir := t.TempDir()
			reopen := func(step string) {
				t.Helper()
				qPath, ePath := filepath.Join(dir, "q.bundle"), filepath.Join(dir, "e.bundle")
				if err := quant.Save(qPath); err != nil {
					t.Fatal(err)
				}
				if err := exact.Save(ePath); err != nil {
					t.Fatal(err)
				}
				var err error
				if quant, err = Open(qPath, l1, Gob[[]float64]()); err != nil {
					t.Fatalf("%s: reopening: %v", step, err)
				}
				if exact, err = Open(ePath, l1, Gob[[]float64]()); err != nil {
					t.Fatalf("%s: reopening the twin: %v", step, err)
				}
				for _, b := range []*Store[[]float64]{quant, exact} {
					b.SetCompactionPolicy(CompactionPolicy{MinDelta: 1 << 30, MinDead: 1 << 30})
				}
			}

			// Metadata reaches the base through a compaction.
			addRows("seed metadata", 1500)
			both("compact", func(b *Store[[]float64]) error { b.Compact(); return nil })
			check("metadata base")
			churn("churn")
			check("churned")
			reopen("reopen")
			check("reopened")
			churn("churn again")
			both("forced compaction", func(b *Store[[]float64]) error {
				if !b.Compact() {
					return fmt.Errorf("nothing to compact")
				}
				return nil
			})
			check("compacted")
			churn("churn after compaction")
			check("churned after compaction")

			// A base section recorded at 3 bits reopens with its shadow
			// rebuilt at 8.
			qPath := filepath.Join(dir, "q.bundle")
			if err := quant.Save(qPath); err != nil {
				t.Fatal(err)
			}
			bases, _ := shardSectionFiles(qPath, c.shards)
			for _, name := range bases {
				p := filepath.Join(dir, name)
				body, err := readBaseSection(fsio.OS(), p)
				if err != nil {
					t.Fatal(err)
				}
				body.QuantBits = 3
				if _, err := writeBaseSection(fsio.OS(), p, body); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if quant, err = Open(qPath, l1, Gob[[]float64]()); err != nil {
				t.Fatalf("reopening 3-bit sections: %v", err)
			}
			check("3-bit sections")
		})
	}
}

// shardStats returns each shard's statistics: the store's own for a
// one-shard Store.
func shardStats(b *Store[[]float64]) []Stats {
	if sh := b.ShardStats(); sh != nil {
		return sh
	}
	return []Stats{b.Stats()}
}
