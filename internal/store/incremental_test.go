package store

// Tests for bundle format v3: incremental dirty-shard saves, delta-log
// crash recovery, upsert semantics, and the store-owned background
// lifecycle. The equivalence harness (equivalence_test.go) additionally
// drives upserts and incremental save/reopen steps against the reference
// model.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"qse/internal/fsio"
)

// fileState snapshots the bytes of every file in a layout directory.
func fileState(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// changedFiles returns the names whose contents differ between two
// snapshots (including files that appeared or vanished).
func changedFiles(before, after map[string][]byte) []string {
	var changed []string
	for name, data := range after {
		if old, ok := before[name]; !ok || !reflect.DeepEqual(old, data) {
			changed = append(changed, name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			changed = append(changed, name+" (deleted)")
		}
	}
	return changed
}

// TestIncrementalSaveRewritesOnlyDirtyDelta is the tentpole acceptance
// check: on an S-shard store with one dirty shard, Save must rewrite
// only that shard's delta log — no base section, no other shard's
// files, and not the manifest.
func TestIncrementalSaveRewritesOnlyDirtyDelta(t *testing.T) {
	const shards = 8
	model, db := fixture(t, 64)
	s, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the mutation-path compactor out of the way so the dirty state
	// stays in the delta.
	s.SetCompactionPolicy(lazy)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("initial save: %v", err)
	}
	before := fileState(t, dir)
	if want := 1 + 2*shards; len(before) != want {
		t.Fatalf("layout holds %d files, want %d (manifest + 2 per shard)", len(before), want)
	}

	// A totally clean save must write nothing at all.
	if err := s.Save(path); err != nil {
		t.Fatalf("clean save: %v", err)
	}
	if changed := changedFiles(before, fileState(t, dir)); len(changed) != 0 {
		t.Fatalf("clean save changed files: %v", changed)
	}

	// One add dirties exactly one shard; the re-save must append to that
	// shard's delta log only.
	id, err := s.Add([]float64{4.5, -4.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dirty := shardOf(id, shards)
	if err := s.Save(path); err != nil {
		t.Fatalf("dirty save: %v", err)
	}
	after := fileState(t, dir)
	_, deltas := shardSectionFiles(path, shards)
	changed := changedFiles(before, after)
	if len(changed) != 1 || changed[0] != deltas[dirty] {
		t.Fatalf("dirty save changed %v, want exactly [%s]", changed, deltas[dirty])
	}
	if len(after[deltas[dirty]]) <= len(before[deltas[dirty]]) {
		t.Fatal("dirty shard's delta log did not grow")
	}

	// A remove in another shard behaves the same way (tombstones travel
	// in the delta log too).
	victim := uint64(0)
	if err := s.Remove(victim); err != nil {
		t.Fatal(err)
	}
	before = after
	if err := s.Save(path); err != nil {
		t.Fatalf("tombstone save: %v", err)
	}
	after = fileState(t, dir)
	changed = changedFiles(before, after)
	if len(changed) != 1 || changed[0] != deltas[shardOf(victim, shards)] {
		t.Fatalf("tombstone save changed %v, want exactly [%s]", changed, deltas[shardOf(victim, shards)])
	}

	// Compaction alone does not dirty a shard — it changes the physical
	// layout, not the contents, and the sections on disk still describe
	// the same state — so a post-compaction save with no new mutations
	// writes nothing.
	s.Compact()
	before = after
	if err := s.Save(path); err != nil {
		t.Fatalf("post-compaction save: %v", err)
	}
	if changed := changedFiles(before, fileState(t, dir)); len(changed) != 0 {
		t.Fatalf("post-compaction save with no mutations changed %v", changed)
	}

	// The next real mutation in a compacted shard forces that shard's
	// base section (and a fresh delta log) to be rewritten — the on-disk
	// base no longer matches — while the manifest still stays put.
	// Removing the object added above mutates shard `dirty`, whose
	// delta was just folded into a new base.
	if err := s.Remove(id); err != nil {
		t.Fatal(err)
	}
	bases, _ := shardSectionFiles(path, shards)
	if err := s.Save(path); err != nil {
		t.Fatalf("post-compaction dirty save: %v", err)
	}
	changed = changedFiles(before, fileState(t, dir))
	wantChanged := map[string]bool{bases[dirty]: true, deltas[dirty]: true}
	if len(changed) != 2 || !wantChanged[changed[0]] || !wantChanged[changed[1]] {
		t.Fatalf("post-compaction dirty save changed %v, want exactly %s and %s", changed, bases[dirty], deltas[dirty])
	}

	// The final layout reopens bit-identically.
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for qi, q := range queries(10, 3) {
		want, _, _ := s.SearchFiltered(q, 4, 16, nil)
		got, _, err := r.SearchFiltered(q, 4, 16, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reopened %v != live %v (err %v)", qi, got, want, err)
		}
	}
}

// TestRenamedBundleSaveRewritesManifest pins the copy/rename contract:
// a manifest copied to a new name still points at the sections of the
// bundle it came from, so the first save after opening the copy must
// rewrite the whole layout under the new name — manifest included.
// Seeding the incremental-save mark from a non-canonical manifest used
// to suppress that rewrite: the save wrote fresh sections the manifest
// never named, and every post-copy mutation silently vanished at the
// next open. The original bundle's files must never be touched — they
// still back the original.
func TestRenamedBundleSaveRewritesManifest(t *testing.T) {
	model, db := fixture(t, 40)
	s, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompactionPolicy(lazy)
	dir := t.TempDir()
	orig := filepath.Join(dir, "a.bundle")
	if err := s.Save(orig); err != nil {
		t.Fatal(err)
	}
	// A delta row and a tombstone make the copy carry all three section
	// shapes the reopened store must keep intact across its own saves.
	if _, err := s.Add([]float64{1.25, -1.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(orig); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		copied := "b" + e.Name()[1:] // a.bundle* -> b.bundle*
		if err := os.WriteFile(filepath.Join(dir, copied), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	origState := fileState(t, dir)

	copyPath := filepath.Join(dir, "b.bundle")
	c, err := Open(copyPath, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("opening the copied bundle: %v", err)
	}
	// Two different mutations that each must survive the copy's save: a
	// quantization change (base rewrite) and a fresh row (delta).
	if err := c.SetQuantization(8); err != nil {
		t.Fatal(err)
	}
	id, err := c.Add([]float64{2.5, -0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(copyPath); err != nil {
		t.Fatalf("saving the copied bundle: %v", err)
	}

	r, err := Open(copyPath, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopening the copied bundle: %v", err)
	}
	if got := r.Stats().QuantBits; got != 8 {
		t.Fatalf("reopened copy has quantize bits %d, want 8 (manifest not rewritten under the new name?)", got)
	}
	if _, ok := r.Get(id); !ok {
		t.Fatalf("object %d added to the copy is gone after save + reopen", id)
	}
	for qi, q := range queries(6, 3) {
		want, _, _ := c.SearchFiltered(q, 3, 12, nil)
		got, _, err := r.SearchFiltered(q, 3, 12, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: reopened copy %v != live copy %v (err %v)", qi, got, want, err)
		}
	}

	// The original bundle's files are byte-identical: a copy may share
	// sections with the bundle it came from, so its saves must never
	// write through the old names.
	after := fileState(t, dir)
	for name, data := range origState {
		if name[0] != 'a' {
			continue
		}
		if !reflect.DeepEqual(after[name], data) {
			t.Fatalf("saving the copy modified the original's file %s", name)
		}
	}
}

// TestDeltaLogCrashRecovery pins the recovery contract: whatever
// happens to the delta log — truncation mid-frame, bit rot, a stale tag
// from a crash between section writes, or outright deletion — the store
// reopens at the last durable base+delta prefix. Only base-section
// damage is unrecoverable corruption.
func TestDeltaLogCrashRecovery(t *testing.T) {
	model, db := fixture(t, 40)
	mk := func() *Store[[]float64] {
		s, err := New(model, db, l1, Gob[[]float64]())
		if err != nil {
			t.Fatal(err)
		}
		s.SetCompactionPolicy(lazy)
		return s
	}

	// Build a layout with two delta frames: frame 1 = adds {40,41},
	// frame 2 = add {42} + tombstone of 0.
	s := mk()
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bundle")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{10, -10, 1}, {11, -11, 1}} {
		if _, err := s.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	frame1Size := len(fileState(t, dir)["ix.bundle.shard-000-of-001.delta"])
	if _, err := s.Add([]float64{12, -12, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	deltaName := "ix.bundle.shard-000-of-001.delta"
	baseName := "ix.bundle.shard-000-of-001.base"
	full := fileState(t, dir)[deltaName]
	if len(full) <= frame1Size {
		t.Fatalf("second save did not append a frame (%d <= %d)", len(full), frame1Size)
	}

	deltaPath := filepath.Join(dir, deltaName)
	restore := func() {
		if err := os.WriteFile(deltaPath, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func(stage string) *Store[[]float64] {
		t.Helper()
		r, err := Open(path, l1, Gob[[]float64]())
		if err != nil {
			t.Fatalf("%s: reopen failed: %v", stage, err)
		}
		return r
	}
	expect := func(stage string, r *Store[[]float64], size int, has42, removed0 bool) {
		t.Helper()
		if r.Size() != size {
			t.Fatalf("%s: size %d, want %d", stage, r.Size(), size)
		}
		if _, ok := r.Get(42); ok != has42 {
			t.Fatalf("%s: Get(42) = %v, want %v", stage, ok, has42)
		}
		if _, ok := r.Get(0); ok == removed0 {
			t.Fatalf("%s: Get(0) present=%v, want removed=%v", stage, ok, removed0)
		}
	}

	// Intact: both frames apply.
	expect("intact", open("intact"), 42, true, true)

	// Truncated mid-frame-2: recover at frame 1 (adds 40,41 present; the
	// frame-2 add and tombstone gone).
	if err := os.WriteFile(deltaPath, full[:frame1Size+7], 0o644); err != nil {
		t.Fatal(err)
	}
	expect("torn tail", open("torn tail"), 42, false, false)

	// Bit rot inside frame 2: same recovery point.
	restore()
	rotted := append([]byte(nil), full...)
	rotted[frame1Size+10] ^= 0xff
	if err := os.WriteFile(deltaPath, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	expect("bit rot", open("bit rot"), 42, false, false)

	// Bit rot inside frame 1: recover at the base alone.
	rotted = append([]byte(nil), full...)
	rotted[deltaHeaderLen+10] ^= 0xff
	if err := os.WriteFile(deltaPath, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	expect("first-frame rot", open("first-frame rot"), 40, false, false)

	// Damaged header / wrong tag / deleted log: base alone, never an
	// error — a crash between a base rewrite and its fresh delta log
	// leaves exactly a stale-tag log, and the new base is always a state
	// at least as new as anything the old log described.
	rotted = append([]byte(nil), full...)
	rotted[2] ^= 0xff
	if err := os.WriteFile(deltaPath, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	expect("damaged header", open("damaged header"), 40, false, false)

	if err := os.Remove(deltaPath); err != nil {
		t.Fatal(err)
	}
	expect("missing log", open("missing log"), 40, false, false)

	// A recovered store must be fully usable: mutate and save forward.
	restore()
	r := open("resume")
	if id, err := r.Add([]float64{13, -13, 1}); err != nil || id != 43 {
		t.Fatalf("post-recovery Add: id %d err %v, want 43", id, err)
	}
	if err := r.Save(path); err != nil {
		t.Fatalf("post-recovery save: %v", err)
	}
	expect("resumed", open("resumed"), 43, true, true)

	// Base-section damage is not recoverable: it must surface loudly.
	basePath := filepath.Join(dir, baseName)
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), baseData...)
	flipped[headerLen+30] ^= 0xff
	if err := os.WriteFile(basePath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, l1, Gob[[]float64]()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt base section: err %v, want ErrCorrupt", err)
	}
}

// TestUpsertStore pins upsert semantics on one and three shards: the ID is
// preserved, exactly one generation is spent, the replacement is
// searchable and Get-able, unknown IDs and wrong-width objects are
// rejected without mutating, and the state survives compaction and a
// save/reopen (including First, whose lowest-ID contract upsert
// stresses hardest).
func TestUpsertStore(t *testing.T) {
	model, db := fixture(t, 48)
	plain, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	shd, err := NewSharded(model, db, l1, Gob[[]float64](), 3)
	if err != nil {
		t.Fatal(err)
	}
	plain.SetCompactionPolicy(lazy)
	shd.SetCompactionPolicy(lazy)

	for name, st := range map[string]*Store[[]float64]{"plain": plain, "sharded": shd} {
		gen := st.Generation()
		replacement := []float64{99, -99, 9}
		if err := st.Upsert(0, replacement); err != nil {
			t.Fatalf("%s: upsert: %v", name, err)
		}
		if g := st.Generation(); g != gen+1 {
			t.Fatalf("%s: upsert spent %d generations, want 1", name, g-gen)
		}
		if st.Size() != 48 {
			t.Fatalf("%s: size changed to %d on upsert", name, st.Size())
		}
		if x, ok := st.Get(0); !ok || !reflect.DeepEqual(x, replacement) {
			t.Fatalf("%s: Get(0) after upsert: %v %v", name, x, ok)
		}
		// ID 0 is still the lowest live ID; First must return the new
		// object even though it now sits at the end of the delta.
		if x, ok := st.First(); !ok || !reflect.DeepEqual(x, replacement) {
			t.Fatalf("%s: First after upsert of lowest ID: %v %v", name, x, ok)
		}
		// The replacement is searchable at distance 0, under its old ID.
		res, _, err := st.SearchFiltered(replacement, 1, 8, nil)
		if err != nil || len(res) != 1 || res[0].ID != 0 || res[0].Distance != 0 {
			t.Fatalf("%s: self-search after upsert: %v (err %v)", name, res, err)
		}

		// An unknown ID is rejected without mutating anything. (Embedding
		// -width validation cannot fire for []float64 — every slice embeds
		// to the model's width — so the HTTP layer's decoder-based shape
		// test covers that rejection path.)
		if err := st.Upsert(424242, []float64{1, 2, 3}); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("%s: unknown upsert: %v, want ErrUnknownID", name, err)
		}
		if x, ok := st.Get(0); !ok || !reflect.DeepEqual(x, replacement) {
			t.Fatalf("%s: failed upserts disturbed ID 0: %v %v", name, x, ok)
		}
		// NextID must not move: upsert allocates nothing.
		if n := st.Stats().NextID; n != 48 {
			t.Fatalf("%s: NextID %d after upserts, want 48", name, n)
		}

		// Compaction folds the delta in position order, and answers must
		// not change.
		before, _, _ := st.SearchFiltered([]float64{3, -3, 0}, 5, 24, nil)
		if !st.Compact() {
			t.Fatalf("%s: nothing to compact after upsert", name)
		}
		after, _, err := st.SearchFiltered([]float64{3, -3, 0}, 5, 24, nil)
		if err != nil || !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: compaction changed answers:\n before %v\n after %v", name, before, after)
		}
		if x, ok := st.Get(0); !ok || !reflect.DeepEqual(x, replacement) {
			t.Fatalf("%s: compaction lost the upserted object", name)
		}

		// Upsert again (post-compaction), then save/reopen with the delta
		// still dirty: the upserted row must travel through the delta log.
		replacement2 := []float64{77, -77, 7}
		if err := st.Upsert(5, replacement2); err != nil {
			t.Fatalf("%s: second upsert: %v", name, err)
		}
		path := filepath.Join(t.TempDir(), name+".bundle")
		if err := st.Save(path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		r, err := Open(path, l1, Gob[[]float64]())
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if x, ok := r.Get(5); !ok || !reflect.DeepEqual(x, replacement2) {
			t.Fatalf("%s: reopened Get(5): %v %v", name, x, ok)
		}
		want, _, _ := st.SearchFiltered([]float64{3, -3, 0}, 5, 24, nil)
		got, _, err := r.SearchFiltered([]float64{3, -3, 0}, 5, 24, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reopened answers differ (err %v):\n got %v\nwant %v", name, err, got, want)
		}
	}
}

// TestBaseSectionIDs pins the base section's ID check: IDs need not
// ascend — a store that upserts, compacts, saves and reopens holds its
// upserted rows last, and answers as it did before the save — but a
// repeated ID is ErrCorrupt, also when the delta log tombstones one of
// its rows, which no check past the section's would catch.
func TestBaseSectionIDs(t *testing.T) {
	model, db := fixture(t, 48)
	st, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Upsert(3, []float64{3, -3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := st.Upsert(0, slices.Clone(db[40])); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	basePath := func(path string) string {
		bases, _ := shardSectionFiles(path, 1)
		return filepath.Join(filepath.Dir(path), bases[0])
	}
	path := filepath.Join(t.TempDir(), "s.bundle")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	body, err := readBaseSection(fsio.OS(), basePath(path))
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSorted(body.IDs) {
		t.Fatalf("base ids %v ascend after an upsert and a compaction", body.IDs)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	probes := append(queries(6, 8), db[40], []float64{3, -3, 0})
	for _, q := range probes {
		for _, kp := range [][2]int{{1, 1}, {4, 16}} {
			want, _, _ := st.SearchFiltered(q, kp[0], kp[1], nil)
			got, _, err := r.SearchFiltered(q, kp[0], kp[1], nil)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("search(%v, k=%d, p=%d): reopened %v (err %v), before the save %v", q, kp[0], kp[1], got, err, want)
			}
		}
	}
	for _, id := range []uint64{0, 3, 40} {
		want, _ := st.Get(id)
		if got, ok := r.Get(id); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened Get(%d) = %v, before the save %v", id, got, want)
		}
	}

	for _, tombstoned := range []bool{false, true} {
		st, err := New(model, db, l1, Gob[[]float64]())
		if err != nil {
			t.Fatal(err)
		}
		if tombstoned {
			if err := st.Remove(1); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "dup.bundle")
		if err := st.Save(path); err != nil {
			t.Fatal(err)
		}
		body, err := readBaseSection(fsio.OS(), basePath(path))
		if err != nil {
			t.Fatal(err)
		}
		body.IDs[1] = body.IDs[0]
		if _, err := writeBaseSection(fsio.OS(), basePath(path), body); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, l1, Gob[[]float64]()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tombstoned=%v: a base with a repeated id opened: %v, want ErrCorrupt", tombstoned, err)
		}
	}
}

// TestLifecycle drives Start/Close end to end: the background snapshot
// loop persists dirty state without being asked, the compactor folds a
// shard once the measured delta-scan share crosses the threshold, and
// Close writes the final snapshot. Short intervals keep the test fast.
func TestLifecycle(t *testing.T) {
	model, db := fixture(t, 48)
	s, err := NewSharded(model, db, l1, Gob[[]float64](), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompactionPolicy(lazy)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.bundle")

	if err := s.Start(Lifecycle{
		SnapshotPath:     path,
		SnapshotInterval: 20 * time.Millisecond,
		CompactInterval:  20 * time.Millisecond,
		CompactShare:     0.01,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(Lifecycle{}); err == nil {
		t.Fatal("second Start accepted")
	}

	// Dirty the store; the snapshot loop must persist it without help.
	if _, err := s.Add([]float64{8, -8, 0.5}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r, err := Open(path, l1, Gob[[]float64]()); err == nil && r.Size() == 49 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background snapshot never persisted the add")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drive query traffic over the dirty store: the measured delta-scan
	// share exceeds the threshold, so the compactor must fold without an
	// explicit Compact call.
	deadline = time.Now().Add(5 * time.Second)
	for s.Stats().DeltaSize != 0 {
		if _, _, err := s.SearchFiltered([]float64{3, -3, 0}, 3, 12, nil); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("share-driven compactor never folded (stats %+v)", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("no compaction recorded")
	}

	// Close writes the final snapshot of whatever is still dirty.
	if _, err := s.Add([]float64{9, -9, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 50 {
		t.Fatalf("final snapshot size %d, want 50", r.Size())
	}
	// The metrics the new scheduling policy is observed through.
	st := s.Stats()
	if st.LastSnapshotBytes <= 0 || st.LastSnapshotNanos <= 0 {
		t.Fatalf("snapshot metrics not recorded: %+v", st)
	}
	if st.LastCompactionNanos <= 0 {
		t.Fatalf("compaction duration not recorded: %+v", st)
	}

	// A restarted lifecycle keeps working (Start after Close).
	if err := s.Start(Lifecycle{SnapshotPath: path, SnapshotInterval: -1, CompactInterval: -1}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSampleOnDrainedStore pins the drained-store serve ergonomics: a
// store emptied by removals still yields a representative object (from
// the bundled model's candidates), so a serving process can infer the
// query shape with no flag and no failure mode.
func TestSampleOnDrainedStore(t *testing.T) {
	s := newStore(t, 40)
	if x, ok := s.Sample(); !ok || len(x) != 3 {
		t.Fatalf("Sample on a live store: %v %v", x, ok)
	}
	for id := uint64(0); id < 40; id++ {
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.First(); ok {
		t.Fatal("First on a drained store should report empty")
	}
	x, ok := s.Sample()
	if !ok || len(x) != 3 {
		t.Fatalf("Sample on a drained store: %v %v (want a model candidate)", x, ok)
	}

	// The same contract must hold across a save/reopen — the candidates
	// travel in the manifest — and for the sharded front.
	path := filepath.Join(t.TempDir(), "drained.bundle")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	if x, ok := r.Sample(); !ok || len(x) != 3 {
		t.Fatalf("Sample on a reopened drained store: %v %v", x, ok)
	}
}
