package qse

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestPublicStoreRoundTrip drives the public Store API end to end: a
// store built from a trained model answers exactly like the plain Index,
// and a saved bundle reopens with bit-identical results.
func TestPublicStoreRoundTrip(t *testing.T) {
	db := testDB(3, 120)
	model, err := Train(db, l2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	index, err := NewIndex(model, db, l2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(model, db, l2, GobCodec[[]float64]())
	if err != nil {
		t.Fatal(err)
	}

	queries := testDB(9, 12)
	for qi, q := range queries {
		fromIndex, ist, err := index.Search(q, 4, 20)
		if err != nil {
			t.Fatal(err)
		}
		fromStore, sst, err := st.Search(q, 4, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(fromIndex) != len(fromStore) {
			t.Fatalf("query %d: %d vs %d results", qi, len(fromIndex), len(fromStore))
		}
		// A fresh store's IDs coincide with database positions.
		for i := range fromIndex {
			if uint64(fromIndex[i].Index) != fromStore[i].ID || fromIndex[i].Distance != fromStore[i].Distance {
				t.Fatalf("query %d result %d: index %+v vs store %+v", qi, i, fromIndex[i], fromStore[i])
			}
		}
		if ist != sst {
			t.Fatalf("query %d stats differ: %+v vs %+v", qi, ist, sst)
		}
	}

	path := filepath.Join(t.TempDir(), "public.bundle")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(path, l2, GobCodec[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want, _, _ := st.Search(q, 4, 20)
		got, _, err := reopened.Search(q, 4, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reopened store differs:\n got %v\nwant %v", qi, got, want)
		}
	}
	batch, _, err := reopened.SearchBatch(queries, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		single, _, _ := reopened.Search(q, 4, 20)
		if !reflect.DeepEqual(batch[qi], single) {
			t.Fatalf("batch query %d differs from single search", qi)
		}
	}

	// Stable IDs across mutation: remove an early object, later IDs keep
	// resolving to the same objects.
	obj, ok := reopened.Get(100)
	if !ok {
		t.Fatal("Get(100) missing")
	}
	if err := reopened.Remove(5); err != nil {
		t.Fatal(err)
	}
	after, ok := reopened.Get(100)
	if !ok || !reflect.DeepEqual(obj, after) {
		t.Fatal("ID 100 changed identity after removing ID 5")
	}
	id, err := reopened.Add([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 120 {
		t.Fatalf("Add assigned ID %d, want 120", id)
	}
	stats := reopened.Stats()
	if stats.Size != 120 || stats.Generation != 2 || stats.NextID != 121 {
		t.Fatalf("stats %+v, want size 120, generation 2, next 121", stats)
	}
}

// TestPublicShardedStore drives the WithShards option through the public
// API: identical answers to the unsharded store, per-shard stats, and a
// sharded-layout bundle that OpenStore reads back transparently.
func TestPublicShardedStore(t *testing.T) {
	db := testDB(5, 130)
	model, err := Train(db, l2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewStore(model, db, l2, GobCodec[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewStore(model, db, l2, GobCodec[[]float64](), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(model, db, l2, GobCodec[[]float64](), WithShards(0)); err == nil {
		t.Fatal("WithShards(0) must error, not silently build an unsharded store")
	}
	if _, err := NewStore(model, db, l2, GobCodec[[]float64](), WithShards(-2)); err == nil {
		t.Fatal("WithShards(-2) must error")
	}
	if got := sharded.Stats().Shards; got != 4 {
		t.Fatalf("Stats().Shards = %d, want 4", got)
	}
	if detail := sharded.ShardStats(); len(detail) != 4 {
		t.Fatalf("ShardStats has %d rows, want 4", len(detail))
	} else if plain.ShardStats() != nil {
		t.Fatal("unsharded store should report no shard detail")
	}

	queries := testDB(11, 10)
	for qi, q := range queries {
		want, wst, err := plain.Search(q, 4, 20)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, err := sharded.Search(q, 4, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || gst != wst {
			t.Fatalf("query %d: sharded %v %+v != plain %v %+v", qi, got, gst, want, wst)
		}
	}

	// Mutate, persist the sharded layout, reopen through the same
	// OpenStore call an unsharded bundle uses.
	id, err := sharded.Add([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if id != 130 {
		t.Fatalf("Add assigned ID %d, want 130", id)
	}
	if err := sharded.Remove(7); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.bundle")
	if err := sharded.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(path, l2, GobCodec[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Stats().Shards; got != 4 {
		t.Fatalf("reopened Shards = %d, want 4", got)
	}
	for qi, q := range queries {
		want, _, _ := sharded.Search(q, 4, 20)
		got, _, err := reopened.Search(q, 4, 20)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reopened sharded store differs (err %v)", qi, err)
		}
	}
	if _, ok := reopened.Get(7); ok {
		t.Fatal("removed ID 7 resurfaced after sharded reopen")
	}
	if next, err := reopened.Add([]float64{0.1, 0.9}); err != nil || next != 131 {
		t.Fatalf("post-reopen Add: id %d err %v, want 131", next, err)
	}
}

// TestIndexRemove covers the newly exposed Index.Remove: order-preserving
// shift, size accounting, and range errors.
func TestIndexRemove(t *testing.T) {
	db := testDB(4, 100)
	model, err := Train(db, l2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	index, err := NewIndex(model, db, l2)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.Remove(100); err == nil {
		t.Fatal("Remove past the end should fail")
	}
	if err := index.Remove(-1); err == nil {
		t.Fatal("Remove(-1) should fail")
	}
	target := db[50]
	if err := index.Remove(0); err != nil {
		t.Fatal(err)
	}
	if index.Size() != 99 {
		t.Fatalf("size %d after Remove, want 99", index.Size())
	}
	// The object formerly at position 50 now sits at 49 and is still its
	// own nearest neighbor.
	res, _, err := index.Search(target, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Index != 49 || res[0].Distance != 0 {
		t.Fatalf("post-remove self-search: %+v", res)
	}
}

// TestPublicStoreMetadata drives the metadata half of the public Store
// API. README's snippet (AddWithMetadata, CompileFilter, SearchFiltered)
// finds the object it added, and Metadata returns its ts as int64. An
// UpsertWithMetadata replaces the record wholesale, a nil record clears
// it, and a string ts is refused once ts is pinned to int.
func TestPublicStoreMetadata(t *testing.T) {
	db := testDB(3, 120)
	model, err := Train(db, l2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(model, db, l2, GobCodec[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	obj := testDB(5, 1)[0]
	id, err := st.AddWithMetadata(obj, map[string]any{"tenant": "acme", "ts": 1700000000})
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.CompileFilter([]byte(
		`{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","ge":1600000000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := st.SearchFiltered(obj, 10, 200, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != id || results[0].Distance != 0 {
		t.Fatalf("README filter found %v, want only object %d at distance 0", results, id)
	}
	if md, ok := st.Metadata(id); !ok || !reflect.DeepEqual(md, map[string]any{"tenant": "acme", "ts": int64(1700000000)}) {
		t.Fatalf("Metadata(%d) = %#v, %v", id, md, ok)
	}

	if err := st.UpsertWithMetadata(id, obj, map[string]any{"ts": 1800000000}); err != nil {
		t.Fatal(err)
	}
	if md, ok := st.Metadata(id); !ok || !reflect.DeepEqual(md, map[string]any{"ts": int64(1800000000)}) {
		t.Fatalf("after the upsert Metadata(%d) = %#v, %v, want the new record alone", id, md, ok)
	}
	if results, _, err = st.SearchFiltered(obj, 10, 200, f); err != nil || len(results) != 0 {
		t.Fatalf("the upserted record lost its tenant, yet the filter found %v (err %v)", results, err)
	}

	if err := st.UpsertWithMetadata(id, obj, nil); err != nil {
		t.Fatal(err)
	}
	if md, ok := st.Metadata(id); !ok || md != nil {
		t.Fatalf("after a nil upsert Metadata(%d) = %#v, %v, want no record", id, md, ok)
	}

	if _, err := st.AddWithMetadata(obj, map[string]any{"ts": "noon"}); err == nil {
		t.Fatal(`{"ts": "noon"} accepted after an int ts`)
	}
	if err := st.UpsertWithMetadata(id, obj, map[string]any{"ts": "noon"}); err == nil {
		t.Fatal(`an upsert of {"ts": "noon"} accepted after an int ts`)
	}
	if md, _ := st.Metadata(id); md != nil {
		t.Fatalf("a refused upsert changed the record to %#v", md)
	}
}
