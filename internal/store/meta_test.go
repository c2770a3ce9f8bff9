package store

// Store-level metadata and filtered-search tests: the upsert-replaces
// regression (an upsert must atomically replace the whole metadata
// record, never merge stale fields), the refused-upsert regression (an
// upsert of an unknown ID must register none of its fields), the
// metadata lifecycle (clone independence, type pinning, removal), a
// brute-force reference check for filtered search, and persistence
// round-trips through the v3 layout (including an incremental save that
// grows the field registry after the manifest was first written).

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"qse/internal/fsio"
	"qse/internal/meta"
)

// eachLayout runs fn once against a one-shard store and once against a
// 3-shard store, both seeded with the same fixture.
func eachLayout(t *testing.T, n int, fn func(t *testing.T, s *Store[[]float64])) {
	t.Run("store", func(t *testing.T) { fn(t, newStore(t, n)) })
	t.Run("sharded", func(t *testing.T) { fn(t, newSharded(t, n, 3)) })
}

// TestUpsertReplacesMetadata pins the satellite regression: an upsert
// replaces the object's metadata record wholesale. No field from the
// previous record may survive, and a nil record clears metadata
// entirely — on both layouts.
func TestUpsertReplacesMetadata(t *testing.T) {
	eachLayout(t, 40, func(t *testing.T, s *Store[[]float64]) {
		id, err := s.AddMeta([]float64{1, 2, 3}, meta.Map{
			"tenant": meta.StringValue("acme"),
			"ts":     meta.IntValue(100),
		})
		if err != nil {
			t.Fatalf("AddMeta: %v", err)
		}

		// Replace with a record that drops "tenant": the old field must
		// not linger.
		if err := s.UpsertMeta(id, []float64{1, 2, 4}, meta.Map{"ts": meta.IntValue(200)}); err != nil {
			t.Fatalf("UpsertMeta: %v", err)
		}
		md, ok := s.Metadata(id)
		if !ok {
			t.Fatalf("Metadata(%d): not found", id)
		}
		want := meta.Map{"ts": meta.IntValue(200)}
		if !reflect.DeepEqual(md, want) {
			t.Fatalf("metadata after upsert = %v, want %v (stale field merged?)", md, want)
		}

		// A nil record clears metadata; the plain Upsert is the same call.
		if err := s.UpsertMeta(id, []float64{1, 2, 5}, nil); err != nil {
			t.Fatalf("UpsertMeta(nil): %v", err)
		}
		if md, ok := s.Metadata(id); !ok || md != nil {
			t.Fatalf("metadata after nil upsert = (%v,%v), want (nil,true)", md, ok)
		}

		if err := s.UpsertMeta(id, []float64{1, 2, 6}, meta.Map{"ts": meta.IntValue(300)}); err != nil {
			t.Fatalf("UpsertMeta: %v", err)
		}
		if err := s.Upsert(id, []float64{1, 2, 7}); err != nil {
			t.Fatalf("Upsert: %v", err)
		}
		if md, ok := s.Metadata(id); !ok || md != nil {
			t.Fatalf("metadata after plain Upsert = (%v,%v), want (nil,true): Upsert must behave as UpsertMeta(id,x,nil)", md, ok)
		}
	})
}

// TestRefusedUpsertRegistersNothing pins the satellite regression: an
// upsert of an unknown ID is refused (the HTTP layer answers 404) and
// must register none of its record's fields. A field pinned by such a
// refusal would make a filter on it compile, would refuse a later write
// giving the field another kind, and would survive a save and reopen.
func TestRefusedUpsertRegistersNothing(t *testing.T) {
	eachLayout(t, 40, func(t *testing.T, s *Store[[]float64]) {
		ghost := `{"field":"ghost","eq":1}`
		if err := s.UpsertMeta(1<<40, []float64{1, 2, 3}, meta.Map{"ghost": meta.IntValue(1)}); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("UpsertMeta of an unknown id: %v, want ErrUnknownID", err)
		}
		check := func(stage string, s *Store[[]float64]) {
			t.Helper()
			if _, err := s.CompileFilter([]byte(ghost)); err == nil {
				t.Fatalf("%s: a filter on the refused upsert's field compiles", stage)
			}
		}
		check("after the refusal", s)
		path := filepath.Join(t.TempDir(), "ghost.bundle")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path, l1, Gob[[]float64]())
		if err != nil {
			t.Fatal(err)
		}
		check("after save and reopen", r)
		for stage, st := range map[string]*Store[[]float64]{"live": s, "reopened": r} {
			if _, err := st.AddMeta([]float64{0, 1, 2}, meta.Map{"ghost": meta.StringValue("a string")}); err != nil {
				t.Fatalf("%s: AddMeta giving the field its first kind: %v", stage, err)
			}
			if _, err := st.CompileFilter([]byte(`{"field":"ghost","eq":"a string"}`)); err != nil {
				t.Fatalf("%s: the field did not take its first real write's kind: %v", stage, err)
			}
		}
	})
}

// TestMetadataLifecycle covers the accessor contract: returned records
// are independent clones, field kinds are pinned at first write, and a
// removed object's metadata is gone.
func TestMetadataLifecycle(t *testing.T) {
	eachLayout(t, 40, func(t *testing.T, s *Store[[]float64]) {
		id, err := s.AddMeta([]float64{2, -1, 0}, meta.Map{"bucket": meta.IntValue(7)})
		if err != nil {
			t.Fatalf("AddMeta: %v", err)
		}

		// Mutating the returned record must not leak into the store.
		md, _ := s.Metadata(id)
		md["bucket"] = meta.IntValue(999)
		md["rogue"] = meta.BoolValue(true)
		md2, _ := s.Metadata(id)
		if md2["bucket"].Int != 7 || len(md2) != 1 {
			t.Fatalf("store record mutated through the returned clone: %v", md2)
		}

		// "bucket" is pinned to int at first write: a string write is a
		// *meta.TypeError and registers nothing.
		_, err = s.AddMeta([]float64{0, 0, 1}, meta.Map{"bucket": meta.StringValue("x")})
		var te *meta.TypeError
		if !errors.As(err, &te) {
			t.Fatalf("conflicting kind: got %v, want *meta.TypeError", err)
		}

		if err := s.Remove(id); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if _, ok := s.Metadata(id); ok {
			t.Fatalf("Metadata(%d) after Remove: still present", id)
		}
	})
}

// TestSearchFilteredReference checks filtered search against a
// brute-force oracle: with p covering the whole store, the result must
// be the exact k nearest neighbors among matching objects only, and a
// filter matching nothing yields empty results without error.
func TestSearchFilteredReference(t *testing.T) {
	eachLayout(t, 40, func(t *testing.T, s *Store[[]float64]) {
		rng := rand.New(rand.NewSource(11))
		type rec struct {
			id uint64
			x  []float64
			b  int64
		}
		var recs []rec
		for i := 0; i < 60; i++ {
			x := []float64{rng.Float64() * 7, -rng.Float64() * 7, rng.NormFloat64()}
			b := int64(i % 5)
			id, err := s.AddMeta(x, meta.Map{"bucket": meta.IntValue(b)})
			if err != nil {
				t.Fatalf("AddMeta: %v", err)
			}
			recs = append(recs, rec{id, x, b})
		}

		pred, err := s.CompileFilter([]byte(`{"field":"bucket","eq":3}`))
		if err != nil {
			t.Fatalf("CompileFilter: %v", err)
		}
		q := []float64{1.5, -2.5, 0.3}
		got, _, err := s.SearchFiltered(q, 5, s.Size()+10, pred)
		if err != nil {
			t.Fatalf("SearchFiltered: %v", err)
		}

		// Brute force over matching objects (the seeded fixture objects
		// carry no metadata, so "bucket"==3 selects only our recs).
		var want []Result
		for _, r := range recs {
			if r.b == 3 {
				want = append(want, Result{ID: r.id, Distance: l1(q, r.x)})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Distance != want[j].Distance {
				return want[i].Distance < want[j].Distance
			}
			return want[i].ID < want[j].ID
		})
		if len(want) > 5 {
			want = want[:5]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filtered search != brute force:\n got  %v\n want %v", got, want)
		}
		for _, r := range got {
			md, _ := s.Metadata(r.ID)
			if md["bucket"].Int != 3 {
				t.Fatalf("result %d fails the filter: %v", r.ID, md)
			}
		}

		// A filter matching nothing is empty, not an error — the scan is
		// filtered below top-p, so there is no candidate set to starve.
		none, _, err := s.SearchFiltered(q, 5, s.Size()+10, mustCompile(t, s, `{"field":"bucket","eq":99}`))
		if err != nil || len(none) != 0 {
			t.Fatalf("zero-match filter: got (%v,%v), want empty and nil error", none, err)
		}
	})
}

func mustCompile(t *testing.T, s *Store[[]float64], raw string) *meta.Predicate {
	t.Helper()
	pred, err := s.CompileFilter([]byte(raw))
	if err != nil {
		t.Fatalf("CompileFilter(%s): %v", raw, err)
	}
	return pred
}

// TestMetadataPersistenceV3 round-trips metadata through the v3 layout,
// including an incremental save that introduces a new field after the
// manifest was first written — the registry-version bump must force a
// manifest rewrite so the new field's kind survives reopen.
func TestMetadataPersistenceV3(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.qse")

	s := newStore(t, 40)
	var ids []uint64
	for i := 0; i < 20; i++ {
		id, err := s.AddMeta([]float64{float64(i), 1, -1}, meta.Map{
			"bucket": meta.IntValue(int64(i % 4)),
			"tag":    meta.StringValue(string(rune('a' + i%3))),
		})
		if err != nil {
			t.Fatalf("AddMeta: %v", err)
		}
		ids = append(ids, id)
	}
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Grow the registry after the first save: "score" exists only in the
	// delta frames appended by the second (incremental) save, and its
	// kind only in the rewritten manifest.
	for i := 0; i < 5; i++ {
		id, err := s.AddMeta([]float64{float64(i), -3, 2}, meta.Map{
			"bucket": meta.IntValue(int64(i % 4)),
			"score":  meta.FloatValue(float64(i) / 5),
		})
		if err != nil {
			t.Fatalf("AddMeta: %v", err)
		}
		ids = append(ids, id)
	}
	if err := s.Save(path); err != nil {
		t.Fatalf("incremental Save: %v", err)
	}

	r, err := Open[[]float64](path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, id := range ids {
		want, wok := s.Metadata(id)
		got, gok := r.Metadata(id)
		if wok != gok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Metadata(%d) after reopen = (%v,%v), want (%v,%v)", id, got, gok, want, wok)
		}
	}

	// Filters on both the pre-save and post-save fields compile against
	// the reopened registry and return identical results.
	for _, raw := range []string{
		`{"field":"bucket","eq":2}`,
		`{"and":[{"field":"tag","ne":"b"},{"field":"bucket","le":1}]}`,
		`{"field":"score","ge":0.4}`,
	} {
		q := []float64{3, -1, 0.5}
		want, _, err := s.SearchFiltered(q, 6, s.Size(), mustCompile(t, s, raw))
		if err != nil {
			t.Fatalf("SearchFiltered(%s): %v", raw, err)
		}
		got, _, err := r.SearchFiltered(q, 6, r.Size(), mustCompile(t, r, raw))
		if err != nil {
			t.Fatalf("reopened SearchFiltered(%s): %v", raw, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %s diverges after reopen:\n got  %v\n want %v", raw, got, want)
		}
	}
}

// TestMetadataPersistenceShardedV3 is the 3-shard counterpart: metadata
// written through the front survives a layout save and Open.
func TestMetadataPersistenceShardedV3(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta-sharded.qse")

	s := newSharded(t, 40, 3)
	var ids []uint64
	for i := 0; i < 25; i++ {
		md := meta.Map{"bucket": meta.IntValue(int64(i % 6))}
		if i%4 == 0 {
			md["hot"] = meta.BoolValue(true)
		}
		id, err := s.AddMeta([]float64{float64(i % 7), 2, -2}, md)
		if err != nil {
			t.Fatalf("AddMeta: %v", err)
		}
		ids = append(ids, id)
	}
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r, err := Open[[]float64](path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, id := range ids {
		want, _ := s.Metadata(id)
		got, gok := r.Metadata(id)
		if !gok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Metadata(%d) after reopen = (%v,%v), want (%v,true)", id, got, gok, want)
		}
	}
	raw := `{"and":[{"field":"bucket","ge":2},{"field":"hot","exists":false}]}`
	q := []float64{2, 1, -1}
	want, _, err := s.SearchFiltered(q, 8, s.Size(), mustCompile(t, s, raw))
	if err != nil {
		t.Fatalf("SearchFiltered: %v", err)
	}
	got, _, err := r.SearchFiltered(q, 8, r.Size(), mustCompile(t, r, raw))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered search diverges after reopen:\n got  %v (err %v)\n want %v", got, err, want)
	}
}

// TestMetadataKindConflictCorrupt pins the open-time kind check. Every
// row a store saves passed the registry, so a saved value whose kind
// differs from its field's, or is invalid, is damage: the open fails as
// ErrCorrupt instead of reading the value back as its column's kind. It
// covers a base section, a delta frame, and two shards that disagree on
// a field the manifest does not list.
func TestMetadataKindConflictCorrupt(t *testing.T) {
	codec := Gob[[]float64]()
	// saveV3 writes a layout whose "bucket" rows sit both in the base
	// sections (compacted) and in delta frames, and checks that the
	// untouched layout opens.
	saveV3 := func(t *testing.T, shards int) (path string, bases, deltas []string) {
		path = filepath.Join(t.TempDir(), "kinds.qse")
		s := newSharded(t, 40, shards)
		for round := 0; round < 2; round++ {
			for i := 0; i < 12; i++ {
				if _, err := s.AddMeta([]float64{float64(i), 1, -1}, meta.Map{"bucket": meta.IntValue(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if round == 0 {
				s.Compact()
			}
		}
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, l1, codec); err != nil {
			t.Fatalf("opening the intact layout: %v", err)
		}
		bases, deltas = shardSectionFiles(path, shards)
		for i := range bases {
			bases[i] = filepath.Join(filepath.Dir(path), bases[i])
			deltas[i] = filepath.Join(filepath.Dir(path), deltas[i])
		}
		return path, bases, deltas
	}
	// retype sets "bucket" to v in the first record of rows, or in all
	// of them.
	retype := func(rows []meta.Map, v meta.Value, all bool) {
		for _, m := range rows {
			if m != nil {
				m["bucket"] = v
				if !all {
					return
				}
			}
		}
	}
	retypeBase := func(t *testing.T, file string, v meta.Value, all bool) uint64 {
		t.Helper()
		body, err := readBaseSection(fsio.OS(), file)
		if err != nil {
			t.Fatal(err)
		}
		retype(body.Meta, v, all)
		if _, err := writeBaseSection(fsio.OS(), file, body); err != nil {
			t.Fatal(err)
		}
		return body.Tag
	}
	retypeDelta := func(t *testing.T, file string, tag uint64, v meta.Value, all bool) {
		t.Helper()
		frames, _, ok, err := readDeltaLog(fsio.OS(), file, tag)
		if err != nil || !ok || len(frames) == 0 {
			t.Fatalf("reading %s: %d frames, ok %v, err %v", file, len(frames), ok, err)
		}
		for _, f := range frames {
			retype(f.Meta, v, all)
		}
		if _, err := writeDeltaLog(fsio.OS(), file, tag, frames...); err != nil {
			t.Fatal(err)
		}
	}
	wantCorrupt := func(t *testing.T, path string) {
		t.Helper()
		if _, err := Open(path, l1, codec); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open = %v, want ErrCorrupt", err)
		}
	}

	for _, bad := range []struct {
		name string
		v    meta.Value
	}{{"float", meta.FloatValue(2.5)}, {"invalid", meta.Value{}}} {
		t.Run("v3-base-"+bad.name, func(t *testing.T) {
			path, bases, _ := saveV3(t, 1)
			retypeBase(t, bases[0], bad.v, false)
			wantCorrupt(t, path)
		})
		t.Run("v3-delta-"+bad.name, func(t *testing.T) {
			path, bases, deltas := saveV3(t, 1)
			body, err := readBaseSection(fsio.OS(), bases[0])
			if err != nil {
				t.Fatal(err)
			}
			retypeDelta(t, deltas[0], body.Tag, bad.v, false)
			wantCorrupt(t, path)
		})
	}

	t.Run("v3-across-shards", func(t *testing.T) {
		// The manifest forgets the field's kind, and shard 1 holds floats
		// throughout: each shard agrees with itself, not with shard 0.
		path, bases, deltas := saveV3(t, 2)
		tag := retypeBase(t, bases[1], meta.FloatValue(2.5), true)
		retypeDelta(t, deltas[1], tag, meta.FloatValue(2.5), true)
		_, payload, err := readEnvelope(fsio.OS(), path)
		if err != nil {
			t.Fatal(err)
		}
		man, err := decodeManifestV3(path, payload)
		if err != nil {
			t.Fatal(err)
		}
		man.MetaKinds = nil
		if _, err := writeManifestV3(fsio.OS(), path, man); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, path)
	})
}
