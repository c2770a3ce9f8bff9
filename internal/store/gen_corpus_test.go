package store

// Corpus generator for the fuzz targets. The fuzz bodies must stay cheap
// — training a model inside FuzzXxx setup makes every instrumented
// worker restart pay seconds before its first exec — so the "expensive"
// seeds (real v3 sections, a real serving fixture) are built here once
// and committed under testdata. Regenerate after a format change with:
//
//	QSE_GEN_CORPUS=1 go test ./internal/store -run TestGenerateFuzzCorpus
//
// The generator writes v3 seeds only. The committed v1 bundle and v2
// manifest seeds (valid-v1-bundle, valid-manifest, valid-shard-bundle,
// truncated-v1, bitflipped-v1) came from earlier builds' writers, which
// are gone; they stay in the corpus as inputs Open must refuse. The
// generator also commits a small intact v3 layout under testdata/v3fixture
// — the fuzz body copies its manifest and base section next to fuzzed
// delta bytes, driving the mutator straight into the delta-log recovery
// path — and refreshes internal/server's fixture bundle, so both
// packages' fuzz inputs come from one place and cannot drift apart.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeCorpusEntry writes one seed in the native Go fuzzing corpus
// encoding (a "go test fuzz v1" header plus one Go-syntax argument line
// per fuzz parameter).
func writeCorpusEntry(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("QSE_GEN_CORPUS") == "" {
		t.Skip("corpus generator; run with QSE_GEN_CORPUS=1 after format changes")
	}
	model, db := fixture(t, 40)
	dir := t.TempDir()

	// A 3-shard v3 layout with real delta frames: save, mutate (add +
	// remove + upsert), save again — the delta logs then hold two frames
	// and the tombstone bitmaps are non-trivial.
	shd, err := NewSharded(model, db, l1, Gob[[]float64](), 3)
	if err != nil {
		t.Fatal(err)
	}
	v3Path := filepath.Join(dir, "v3.bundle")
	if err := shd.Save(v3Path); err != nil {
		t.Fatal(err)
	}
	if _, err := shd.Add([]float64{9, -9, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := shd.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := shd.Upsert(2, []float64{8, -8, 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := shd.Save(v3Path); err != nil {
		t.Fatal(err)
	}
	v3Man, err := os.ReadFile(v3Path)
	if err != nil {
		t.Fatal(err)
	}
	v3Bases, v3Deltas := shardSectionFiles(v3Path, 3)
	v3Base0, err := os.ReadFile(filepath.Join(dir, v3Bases[0]))
	if err != nil {
		t.Fatal(err)
	}
	v3Delta0, err := os.ReadFile(filepath.Join(dir, v3Deltas[0]))
	if err != nil {
		t.Fatal(err)
	}

	corpus := filepath.Join("testdata", "fuzz", "FuzzBundleOpen")
	writeCorpusEntry(t, corpus, "valid-v3-manifest", v3Man)
	writeCorpusEntry(t, corpus, "valid-v3-base", v3Base0)
	writeCorpusEntry(t, corpus, "valid-v3-delta", v3Delta0)
	writeCorpusEntry(t, corpus, "truncated-v3-delta", v3Delta0[:len(v3Delta0)*2/3])

	// The intact single-shard v3 fixture the fuzz body rebuilds layouts
	// from: manifest + base + delta committed as raw files (not corpus
	// entries). Single-shard, so the fuzzed file stands in for the one
	// delta log.
	single, err := New(model, db, l1, Gob[[]float64]())
	if err != nil {
		t.Fatal(err)
	}
	fixPath := filepath.Join(dir, "fix.bundle")
	if err := single.Save(fixPath); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Add([]float64{7, -7, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := single.Save(fixPath); err != nil {
		t.Fatal(err)
	}
	fixDir := filepath.Join("testdata", "v3fixture")
	if err := os.MkdirAll(fixDir, 0o755); err != nil {
		t.Fatal(err)
	}
	fixBases, fixDeltas := shardSectionFiles(fixPath, 1)
	for _, f := range []struct{ src, dst string }{
		{fixPath, "manifest"},
		{filepath.Join(dir, fixBases[0]), "base"},
		{filepath.Join(dir, fixDeltas[0]), "delta"},
	} {
		data, err := os.ReadFile(f.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fixDir, f.dst), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The serving layer's fixture: the 3-shard layout above, over the
	// same 3-dim vector space internal/server's decodeVec validates
	// against, opened by FuzzSearchBody instead of training a model per
	// fuzz worker — sharded so that adversarial HTTP bodies genuinely
	// drive the scatter-gather path.
	serverData := filepath.Join("..", "server", "testdata")
	if err := os.MkdirAll(serverData, 0o755); err != nil {
		t.Fatal(err)
	}
	serverBundle := filepath.Join(serverData, "fuzz-store.bundle")
	if err := shd.Save(serverBundle); err != nil {
		t.Fatal(err)
	}
	r, err := Open(serverBundle, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopening the generated server fixture: %v", err)
	}
	if len(r.shards) != 3 {
		t.Fatalf("server fixture reopened with %d shards, want 3", len(r.shards))
	}
}
