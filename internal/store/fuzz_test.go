package store

// Native fuzz targets for the durable layer: whatever bytes land on disk
// — truncated snapshots, bit rot, files from other programs, adversarial
// manifests, bundles of the formats earlier builds wrote — Open must
// return an error, never panic, never loop, never serve garbage as if it
// were intact. The targets attack both layers of the format: the raw
// file (envelope checks) and a validly sealed envelope around arbitrary
// payload bytes (gob decoding and the cross-field validators behind the
// CRC).
//
// Seed corpora live in testdata/fuzz/FuzzBundleOpen: real v3 sections
// and damaged variants (see gen_corpus_test.go), plus real v1 bundles
// and v2 manifests from earlier builds, kept as inputs Open must refuse.
// Plain `go test` runs all of them as regression inputs and `go test
// -fuzz` mutates from them. CI runs a short -fuzztime smoke on every
// push.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"qse/internal/fsio"
)

// fuzzDist tolerates objects of any decoded length: a mutated bundle may
// legally decode to objects of the "wrong" shape — that is the codec
// user's domain, not the store's — and the store must stay panic-free
// while serving them.
func fuzzDist(a, b []float64) float64 {
	n := min(len(a), len(b))
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s + math.Abs(float64(len(a)-len(b)))
}

// seal wraps payload in a well-formed envelope (valid magic, length, and
// CRC) of the given format version, driving the fuzzer straight past the
// integrity checks into the decoder and validators.
func seal(version uint16, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+crcLen)
	buf = append(buf, bundleMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// v3Fixture loads the committed intact single-shard v3 layout (see
// gen_corpus_test.go): manifest, base section, delta log. Reading three
// small files per worker restart is cheap, unlike training a model.
func v3Fixture(f *testing.F) (manifest, base, delta []byte) {
	f.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "v3fixture", name))
		if err != nil {
			f.Fatalf("reading v3 fixture %s (regenerate with QSE_GEN_CORPUS=1): %v", name, err)
		}
		return data
	}
	return read("manifest"), read("base"), read("delta")
}

func FuzzBundleOpen(f *testing.F) {
	// Real artifacts (v3 manifests, base sections and delta logs, the v1
	// and v2 files of earlier builds, and damaged variants) live in the
	// committed corpus under testdata/fuzz/FuzzBundleOpen — see
	// gen_corpus_test.go. The setup here stays cheap on purpose: every
	// instrumented fuzz worker re-runs it, so training a model here would
	// stall the exec rate to nothing. These inline seeds cover the
	// structural envelope space the committed artifacts don't.
	f.Add(seal(1, []byte("gob?")))                  // valid envelope of the v1 era, junk payload
	f.Add(seal(2, []byte{0}))                       // valid envelope of the v2 era, junk manifest
	f.Add(seal(manifestV3Version, []byte{1, 2}))    // valid envelope, junk v3 manifest
	f.Add(seal(baseSectionVersion, []byte("base"))) // valid envelope, junk base section
	f.Add(seal(7, nil))                             // future version
	f.Add([]byte(bundleMagic))                      // magic only
	f.Add([]byte(deltaMagic))                       // delta-log magic only
	f.Add([]byte{})                                 // empty file

	fixMan, fixBase, fixDelta := v3Fixture(f)
	f.Add(fixDelta) // the intact delta log itself, ready for mutation

	codec := Gob[[]float64]()
	f.Fuzz(func(t *testing.T, data []byte) {
		tdir := t.TempDir()
		// Attack the whole-file surfaces: the bytes as the layout file
		// itself, and as the payload of the manifest envelope (CRC fixed
		// up, so the decoder and the validators behind it run every
		// time) and of the legacy envelopes, which must be refused
		// whatever they hold.
		cases := [][]byte{
			data,
			seal(1, data),
			seal(2, data),
			seal(manifestV3Version, data),
		}
		for ci, raw := range cases {
			path := filepath.Join(tdir, "fuzz.bundle")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			// Any outcome but a panic is acceptable; a store that does
			// open must actually be servable.
			st, err := Open(path, fuzzDist, codec)
			switch {
			case (ci == 1 || ci == 2) && !errors.Is(err, ErrVersion):
				t.Fatalf("case %d: a sealed legacy envelope opened with %v, want ErrVersion", ci, err)
			case err == nil:
				exercise(t, ci, st)
			}
		}

		// Attack the delta-log recovery path: an intact v3 manifest and
		// base section with the fuzzed bytes standing in for the delta
		// log. Opening must recover to some durable prefix (and serve
		// from it) or reject loudly — never panic, never loop.
		path := filepath.Join(tdir, "fix.bundle")
		bases, deltas := shardSectionFiles(path, 1)
		for name, content := range map[string][]byte{
			path:                           fixMan,
			filepath.Join(tdir, bases[0]):  fixBase,
			filepath.Join(tdir, deltas[0]): data,
		} {
			if err := os.WriteFile(name, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if st, err := Open(path, fuzzDist, codec); err == nil {
			if st.Size() < 40 {
				// The committed base holds 40 objects; recovery may drop
				// delta rows but can never lose base rows.
				t.Fatalf("fuzzed delta log shrank the store below its base: %d", st.Size())
			}
			exercise(t, 4, st)
		}
	})
}

// exercise drives a store that opened successfully: a fuzz input that
// passes every check must yield a store whose basic operations hold up.
func exercise(t *testing.T, ci int, b *Store[[]float64]) {
	t.Helper()
	st := b.Stats()
	if st.Size < 0 || st.BaseSize+st.DeltaSize-st.Tombstones != st.Size {
		t.Fatalf("case %d: inconsistent stats from opened fuzz bundle: %+v", ci, st)
	}
	if _, _, err := b.SearchFiltered([]float64{1, -1, 0}, 3, 12, nil); err != nil {
		t.Fatalf("case %d: search on opened fuzz bundle: %v", ci, err)
	}
	b.First()
	b.Get(0)
}

// TestSealRoundTrip guards the fuzz harness itself: seal must produce
// envelopes the reader accepts, or the fuzz targets silently stop
// reaching the decoder.
func TestSealRoundTrip(t *testing.T) {
	version, payload, err := readEnvelopeBytes(t, seal(manifestV3Version, []byte("hello")))
	if err != nil {
		t.Fatalf("sealed envelope rejected: %v", err)
	}
	if version != manifestV3Version || !bytes.Equal(payload, []byte("hello")) {
		t.Fatalf("seal round-trip: version %d payload %q", version, payload)
	}
}

func readEnvelopeBytes(t *testing.T, data []byte) (uint16, []byte, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seal.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return readEnvelope(fsio.OS(), path)
}

// TestLegacyVersionsRefused pins the one-format contract: sealed
// envelopes of versions 1 and 2 — the single-file bundle and the
// manifest of per-shard bundles earlier builds wrote — fail Open with
// ErrVersion, whatever their payload, and the message names the file's
// version and the one this build reads. The committed real v1 and v2
// artifacts are refused the same way.
func TestLegacyVersionsRefused(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"sealed-v1":          seal(1, []byte("payload")),
		"sealed-v2":          seal(2, nil),
		"valid-v1-bundle":    corpusSeed(t, "valid-v1-bundle"),
		"valid-manifest":     corpusSeed(t, "valid-manifest"),
		"valid-shard-bundle": corpusSeed(t, "valid-shard-bundle"),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		version, _, err := readEnvelope(fsio.OS(), path)
		if err != nil || version > 2 {
			t.Fatalf("%s: envelope version %d (err %v), want a legacy version", name, version, err)
		}
		_, err = Open(path, l1, Gob[[]float64]())
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: Open = %v, want ErrVersion", name, err)
		}
		if want := "has version " + strconv.Itoa(int(version)) + ", this build reads 3"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not say %q", name, err, want)
		}
	}
}

// corpusSeed returns the bytes of one committed FuzzBundleOpen seed,
// decoded from the native fuzzing corpus encoding (see writeCorpusEntry).
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBundleOpen", name))
	if err != nil {
		t.Fatal(err)
	}
	arg, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("corpus seed %s: unexpected encoding", name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(arg, ")\n"))
	if err != nil {
		t.Fatalf("corpus seed %s: %v", name, err)
	}
	return []byte(data)
}
