package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qse/internal/fsio"
)

// The committed fixtures under testdata/quantfixture were written by the
// PR-9 bundle writer — before the packed sub-byte layout existed — via a
// one-off generator since deleted: fixture(t, 40) → New →
// SetQuantization(bits) → Save → Add{1.5,-1.5,0.25} →
// Add{99,-99,42} (outside the boundary range: an unsafe delta row) →
// Remove(3) → Save. bits8/ carries an 8-bit shadow; bits4/ carries the
// legacy unpacked one-byte-per-dimension 4-bit shadow. Today both open
// as quantization on at 8 bits, with the shadow dormant: their 40 rows
// sit below the gate (DESIGN §16). Regenerating them with the current
// writer would defeat the test — do not.

// copyFixture copies one committed fixture directory into a temp dir so
// the test can Save over it without touching the repository.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "quantfixture", name)
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dst, "fix.bundle")
}

// assertExactMatch checks that the quantized store answers a spread of
// queries bit-identically to the same store with quantization disabled.
func assertExactMatch(t *testing.T, st *Store[[]float64], label string) {
	t.Helper()
	for qi, q := range queries(6, 99) {
		got, _, err := st.SearchFiltered(q, 5, 20, nil)
		if err != nil {
			t.Fatalf("%s: query %d: %v", label, qi, err)
		}
		want, _, err := st.exactTwin(t).SearchFiltered(q, 5, 20, nil)
		if err != nil {
			t.Fatalf("%s: query %d exact: %v", label, qi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d diverges from exact:\n  quantized %v\n  exact     %v", label, qi, got, want)
		}
	}
}

// exactTwin reopens the store's current on-disk form with quantization
// turned off, so comparisons never share in-memory state.
func (s *Store[T]) exactTwin(t *testing.T) *Store[T] {
	t.Helper()
	path := filepath.Join(t.TempDir(), "twin.bundle")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	twin, err := Open[T](path, s.dist, s.codec)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.SetQuantization(0); err != nil {
		t.Fatal(err)
	}
	return twin
}

// TestQuantBundleCompat pins the on-disk compatibility story: PR-9 era
// bundles — 8-bit shadows and legacy unpacked 4-bit shadows — open with
// quantization on at 8 bits, their shadows dormant below the gate (a
// shadow is derived from the base vectors, so dropping one loses
// nothing), answer bit-identically to the exact scan, and keep that
// through a save. Turning quantization off must force a base rewrite.
func TestQuantBundleCompat(t *testing.T) {
	for _, name := range []string{"bits4", "bits8"} {
		t.Run(name, func(t *testing.T) {
			path := copyFixture(t, name)
			st, err := Open(path, l1, Gob[[]float64]())
			if err != nil {
				t.Fatalf("opening legacy %s bundle: %v", name, err)
			}
			stats := st.Stats()
			if stats.QuantBits != 8 || stats.ShadowBytes != 0 {
				t.Fatalf("reopened at %d bits with %d shadow bytes, want 8 and a dormant shadow", stats.QuantBits, stats.ShadowBytes)
			}
			if stats.Size != 41 { // Remove(3) tombstoned one of the 42
				t.Fatalf("fixture live size %d, want 41", stats.Size)
			}
			assertExactMatch(t, st, name)

			// Saving the reopened store must round-trip the setting.
			if err := st.Save(path); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path, l1, Gob[[]float64]())
			if err != nil {
				t.Fatalf("reopening the resaved bundle: %v", err)
			}
			if got := re.Stats(); got.QuantBits != 8 || got.ShadowBytes != 0 {
				t.Fatalf("resaved bundle reopened at %d bits with %d shadow bytes, want 8 and 0", got.QuantBits, got.ShadowBytes)
			}
			assertExactMatch(t, re, name+"/resaved")

			// Turning quantization off is a real mutation: the next save
			// must rewrite the base section, and the reopened store must
			// carry the setting.
			base := path + ".shard-000-of-001.base"
			before, err := os.ReadFile(base)
			if err != nil {
				t.Fatal(err)
			}
			if err := re.SetQuantization(0); err != nil {
				t.Fatal(err)
			}
			if err := re.Save(path); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(base)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(before, after) {
				t.Fatal("base section unchanged after SetQuantization(0)+Save")
			}
			sw, err := Open(path, l1, Gob[[]float64]())
			if err != nil {
				t.Fatal(err)
			}
			if got := sw.Stats().QuantBits; got != 0 {
				t.Fatalf("width after switch save %d, want 0", got)
			}
			assertExactMatch(t, sw, name+"/switched")
		})
	}
}

// TestQuantBundleNarrowWidth opens a base section recorded at 3 bits —
// a width older writers used — which must answer like its exact twin,
// and a section recording a width past 8, which must fail as
// ErrCorrupt.
func TestQuantBundleNarrowWidth(t *testing.T) {
	path := copyFixture(t, "bits4")
	basePath := path + ".shard-000-of-001.base"
	rewrite := func(bits int) {
		t.Helper()
		body, err := readBaseSection(fsio.OS(), basePath)
		if err != nil {
			t.Fatal(err)
		}
		body.QuantBits = bits
		if _, err := writeBaseSection(fsio.OS(), basePath, body); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(3)
	st, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("opening a 3-bit section: %v", err)
	}
	if got := st.Stats(); got.QuantBits != 8 || got.ShadowBytes != 0 || got.Size != 41 {
		t.Fatalf("3-bit section opened at %d bits, %d shadow bytes, %d rows; want 8, 0, 41", got.QuantBits, got.ShadowBytes, got.Size)
	}
	assertExactMatch(t, st, "bits3")
	rewrite(9)
	if _, err := Open(path, l1, Gob[[]float64]()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a 9-bit section opened with %v, want ErrCorrupt", err)
	}
}
