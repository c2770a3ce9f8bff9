package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"qse/internal/core"
	"qse/internal/fsio"
)

// matrixLazy keeps every in-memory compaction trigger out of the way so
// the fault matrix controls exactly when the save path rewrites a base.
var matrixLazy = CompactionPolicy{
	MinDelta: 1 << 30, DeltaFrac: 1, MinDead: 1 << 30, DeadFrac: 1,
}

// faultRig is one store under test with its filesystem seam exposed.
type faultRig struct {
	b  *Store[[]float64]
	ff *fsio.FaultFS
}

func newFaultRig(t *testing.T, model *core.Model[[]float64], db [][]float64, shards int) faultRig {
	t.Helper()
	ff := fsio.NewFault(fsio.OS())
	s, err := NewSharded(model, db, l1, Gob[[]float64](), shards)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	s.SetCompactionPolicy(matrixLazy)
	s.setFS(ff)
	return faultRig{b: s, ff: ff}
}

// TestFaultMatrixSavePath is the adversarial durability proof: for every
// store shape (single, sharded), every save shape (first full write,
// incremental delta append, post-compaction rewrite), every I/O
// operation the save performs, and every failure mode (clean syscall
// error, short write, crash, torn-write crash), it injects the failure
// at exactly that operation and asserts:
//
//   - the save surfaces the injected error (nothing is swallowed),
//   - the lineage on disk still opens at a durable prefix — either the
//     state before the save or, when the failed operation landed after
//     the bytes were already durable, the state after it — and answers
//     queries,
//   - non-crash failures leave no stray temp files (crash failures may:
//     the cleanup "died" too, which is why temp names are never reused),
//   - after the fault heals, retrying the same save converges to the
//     exact target state.
//
// Operation ordinals are discovered by a counted clean pass per
// scenario, so the matrix automatically covers call sites added later.
func TestFaultMatrixSavePath(t *testing.T) {
	model, db := fixture(t, 48)
	qs := queries(4, 7)

	kinds := []struct {
		name   string
		shards int
	}{
		{"single", 1},
		{"sharded3", 3},
	}
	scenarios := []string{"first", "append", "rewrite"}
	modes := []struct {
		name  string
		want  error
		crash bool
		arm   func(ff *fsio.FaultFS, n int)
	}{
		{"fail", syscall.ENOSPC, false, func(ff *fsio.FaultFS, n int) { ff.FailOp(n, syscall.ENOSPC) }},
		{"short", syscall.EIO, false, func(ff *fsio.FaultFS, n int) { ff.ShortWriteOp(n, syscall.EIO) }},
		{"crash", fsio.ErrCrashed, true, func(ff *fsio.FaultFS, n int) { ff.CrashAt(n) }},
		{"torn", fsio.ErrCrashed, true, func(ff *fsio.FaultFS, n int) { ff.TornCrashAt(n) }},
	}

	for _, kind := range kinds {
		for _, sc := range scenarios {
			t.Run(kind.name+"/"+sc, func(t *testing.T) {
				// prep drives the rig to the scenario's pre-state; the next
				// Save is the injection target. Returns the pre-state size
				// and the ID whose presence distinguishes pre from post.
				prep := func(t *testing.T, rig faultRig, path string) (sizeA int, addID uint64, hasAdd bool) {
					t.Helper()
					switch sc {
					case "first":
						return len(db), 0, false
					case "append":
						if err := rig.b.Save(path); err != nil {
							t.Fatalf("prep save: %v", err)
						}
						id, err := rig.b.Add(qs[1])
						if err != nil {
							t.Fatalf("prep add: %v", err)
						}
						return len(db), id, true
					case "rewrite":
						if err := rig.b.Save(path); err != nil {
							t.Fatalf("prep save: %v", err)
						}
						id, err := rig.b.Add(qs[1])
						if err != nil {
							t.Fatalf("prep add: %v", err)
						}
						if !rig.b.Compact() {
							t.Fatal("prep compact: nothing folded")
						}
						return len(db), id, true
					}
					panic("unknown scenario")
				}

				// Counted clean pass: how many I/O ops does this save make?
				countDir := t.TempDir()
				rig := newFaultRig(t, model, db, kind.shards)
				path := filepath.Join(countDir, "m.bundle")
				_, _, _ = prep(t, rig, path)
				rig.ff.Reset()
				if err := rig.b.Save(path); err != nil {
					t.Fatalf("counting save: %v", err)
				}
				total := rig.ff.Ops()
				if total == 0 {
					t.Fatal("target save performed no I/O; matrix would be empty")
				}

				for n := 1; n <= total; n++ {
					for _, mode := range modes {
						tag := fmt.Sprintf("op %d/%d mode %s", n, total, mode.name)
						dir := t.TempDir()
						rig := newFaultRig(t, model, db, kind.shards)
						path := filepath.Join(dir, "m.bundle")
						sizeA, addID, hasAdd := prep(t, rig, path)
						sizeB := sizeA
						if hasAdd {
							sizeB++
						}

						rig.ff.Reset()
						mode.arm(rig.ff, n)
						err := rig.b.Save(path)
						if err == nil {
							t.Fatalf("%s: save succeeded with fault armed", tag)
						}
						if !errors.Is(err, mode.want) {
							t.Fatalf("%s: save error = %v, want %v", tag, err, mode.want)
						}

						// The lineage must reopen at a durable prefix.
						re, oerr := Open[[]float64](path, l1, Gob[[]float64]())
						if sc == "first" {
							// The manifest is the last thing a first save
							// writes, so a failure anywhere leaves no bundle.
							if !errors.Is(oerr, fs.ErrNotExist) {
								t.Fatalf("%s: open after failed first save = %v, want not-exist", tag, oerr)
							}
						} else {
							if oerr != nil {
								t.Fatalf("%s: reopen: %v", tag, oerr)
							}
							var wantAdded bool
							switch re.Size() {
							case sizeA:
								wantAdded = false
							case sizeB:
								wantAdded = true
							default:
								t.Fatalf("%s: reopened size %d, want %d or %d", tag, re.Size(), sizeA, sizeB)
							}
							if _, ok := re.Get(addID); ok != wantAdded {
								t.Fatalf("%s: reopened Get(%d) = %v at size %d", tag, addID, ok, re.Size())
							}
							if _, _, err := re.SearchFiltered(qs[0], 3, 16, nil); err != nil {
								t.Fatalf("%s: reopened search: %v", tag, err)
							}
						}

						if mode.crash {
							continue
						}
						// Clean failures must not leak temp files…
						if strays, _ := filepath.Glob(filepath.Join(dir, ".bundle-*")); len(strays) != 0 {
							t.Fatalf("%s: stray temp files %v", tag, strays)
						}
						// …and must be retryable: heal, save again, converge.
						rig.ff.Heal()
						if err := rig.b.Save(path); err != nil {
							t.Fatalf("%s: save after heal: %v", tag, err)
						}
						re2, oerr := Open[[]float64](path, l1, Gob[[]float64]())
						if oerr != nil {
							t.Fatalf("%s: reopen after heal: %v", tag, oerr)
						}
						if re2.Size() != sizeB {
							t.Fatalf("%s: size after heal = %d, want %d", tag, re2.Size(), sizeB)
						}
						if hasAdd {
							if _, ok := re2.Get(addID); !ok {
								t.Fatalf("%s: Get(%d) lost after healed retry", tag, addID)
							}
						}
					}
				}
			})
		}
	}
}

// TestLifecycleRetryAndDegrade drives the background snapshot loop into
// sustained failure and back: the health surface must count failures,
// keep the last error, flip degraded after DegradeAfter consecutive
// misses — all while the store keeps serving reads and writes — and
// clear everything on the first success after the fault heals.
func TestLifecycleRetryAndDegrade(t *testing.T) {
	s := newStore(t, 48)
	ff := fsio.NewFault(fsio.OS())
	s.setFS(ff)
	var failing atomic.Bool
	failing.Store(true)
	ff.Hook(func(op fsio.Op) error {
		if failing.Load() {
			return syscall.ENOSPC
		}
		return nil
	})

	dir := t.TempDir()
	err := s.Start(Lifecycle{
		SnapshotPath:     filepath.Join(dir, "h.bundle"),
		SnapshotInterval: 5 * time.Millisecond,
		CompactInterval:  -1,
		SnapshotRetries:  1,
		RetryBackoff:     time.Millisecond,
		DegradeAfter:     3,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	waitFor := func(what string, cond func(Stats) bool) Stats {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := s.Stats()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats = %+v", what, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	st := waitFor("degraded persistence", func(st Stats) bool { return st.DegradedPersistence })
	if st.SnapshotFailures < 3 {
		t.Fatalf("degraded with only %d failures, want >= DegradeAfter", st.SnapshotFailures)
	}
	if st.LastSnapshotError == "" {
		t.Fatal("degraded but LastSnapshotError empty")
	}

	// Degraded means loudly unhealthy, not down: reads and writes work.
	if _, _, err := s.SearchFiltered(queries(1, 3)[0], 3, 16, nil); err != nil {
		t.Fatalf("search while degraded: %v", err)
	}
	id, err := s.Add([]float64{1, 2, 3})
	if err != nil {
		t.Fatalf("add while degraded: %v", err)
	}

	failing.Store(false)
	st = waitFor("health restored", func(st Stats) bool {
		return !st.DegradedPersistence && st.LastSnapshotOKUnix > 0 && st.LastSnapshotError == ""
	})
	if st.SnapshotFailures == 0 {
		t.Fatal("failure count was reset; it should be cumulative")
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := Open[[]float64](filepath.Join(dir, "h.bundle"), l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, ok := re.Get(id); !ok {
		t.Fatalf("object %d added during the outage was lost", id)
	}
}

// TestCloseSurfacesFinalSnapshotError: a final snapshot that cannot be
// written must make Close fail, so callers (qse-serve) can exit
// non-zero instead of silently dropping the last mutations.
func TestCloseSurfacesFinalSnapshotError(t *testing.T) {
	s := newStore(t, 48)
	ff := fsio.NewFault(fsio.OS())
	s.setFS(ff)
	ff.Hook(func(op fsio.Op) error { return syscall.ENOSPC })

	err := s.Start(Lifecycle{
		SnapshotPath:     filepath.Join(t.TempDir(), "c.bundle"),
		SnapshotInterval: -1,
		CompactInterval:  -1,
		SnapshotRetries:  -1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := s.Add([]float64{1, 2, 3}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close = %v, want the final-snapshot ENOSPC", err)
	}
}

// TestLogBoundCompactionTrigger: a shard mutated forever below the
// in-memory compaction thresholds must still fold its delta log once it
// crosses MaxLogFrames, bounding worst-case reopen/replay; with the
// bound disabled the log grows one frame per save.
func TestLogBoundCompactionTrigger(t *testing.T) {
	bounded := matrixLazy
	bounded.MaxLogFrames = 4
	s := newStore(t, 48)
	s.SetCompactionPolicy(bounded)
	path := filepath.Join(t.TempDir(), "log.bundle")
	if err := s.Save(path); err != nil {
		t.Fatalf("initial save: %v", err)
	}

	qs := queries(40, 9)
	var ids []uint64
	for i := 0; i < 40; i++ {
		id, err := s.Add(qs[i])
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		ids = append(ids, id)
		if err := s.Save(path); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if got := s.shards[0].saved.frames; got > bounded.MaxLogFrames {
			t.Fatalf("save %d: %d durable frames, bound is %d", i, got, bounded.MaxLogFrames)
		}
	}
	if c := s.Stats().Compactions; c == 0 {
		t.Fatal("40 saves under MaxLogFrames=4 triggered no compaction")
	}
	re, err := Open[[]float64](path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Size() != 48+40 {
		t.Fatalf("reopened size = %d, want %d", re.Size(), 48+40)
	}
	for _, id := range ids {
		if _, ok := re.Get(id); !ok {
			t.Fatalf("object %d missing after log-bound folds", id)
		}
	}

	// Control: MaxLogFrames < 0 disables the bound; the log just grows.
	unbounded := matrixLazy
	unbounded.MaxLogFrames = -1
	unbounded.MaxLogBytes = -1
	s2 := newStore(t, 48)
	s2.SetCompactionPolicy(unbounded)
	path2 := filepath.Join(t.TempDir(), "log2.bundle")
	if err := s2.Save(path2); err != nil {
		t.Fatalf("control save: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s2.Add(qs[i]); err != nil {
			t.Fatalf("control add: %v", err)
		}
		if err := s2.Save(path2); err != nil {
			t.Fatalf("control save %d: %v", i, err)
		}
	}
	if got := s2.shards[0].saved.frames; got != 11 {
		t.Fatalf("unbounded log has %d frames after 11 saves, want 11", got)
	}
	if c := s2.Stats().Compactions; c != 0 {
		t.Fatalf("unbounded control compacted %d times", c)
	}
}

// TestFaultStressConvergence (run with -race in CI) hammers a store with
// concurrent searches, adds, and upserts while the snapshot loop fights
// intermittent injected I/O failures; after the fault heals, the store
// must converge to healthy and the final bundle must hold every update.
func TestFaultStressConvergence(t *testing.T) {
	s := newStore(t, 64)
	ff := fsio.NewFault(fsio.OS())
	s.setFS(ff)
	var opN atomic.Uint64
	var failing atomic.Bool
	failing.Store(true)
	ff.Hook(func(op fsio.Op) error {
		if failing.Load() && opN.Add(1)%5 == 0 {
			return syscall.EIO
		}
		return nil
	})

	dir := t.TempDir()
	path := filepath.Join(dir, "stress.bundle")
	err := s.Start(Lifecycle{
		SnapshotPath:     path,
		SnapshotInterval: 3 * time.Millisecond,
		CompactInterval:  -1,
		SnapshotRetries:  1,
		RetryBackoff:     time.Millisecond,
		DegradeAfter:     2,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	const workers, iters = 4, 40
	added := make([][]uint64, workers)
	qs := queries(workers*iters, 11)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := qs[w*iters+i]
				switch i % 3 {
				case 0, 1:
					id, err := s.Add(v)
					if err != nil {
						t.Errorf("worker %d add: %v", w, err)
						return
					}
					added[w] = append(added[w], id)
				case 2:
					if len(added[w]) > 0 {
						id := added[w][len(added[w])-1]
						if err := s.Upsert(id, []float64{v[0] + 100, v[1], v[2]}); err != nil {
							t.Errorf("worker %d upsert: %v", w, err)
							return
						}
					}
				}
				if _, _, err := s.SearchFiltered(v, 3, 16, nil); err != nil {
					t.Errorf("worker %d search: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	failing.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if !st.DegradedPersistence && st.LastSnapshotError == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never converged to healthy; stats = %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close after heal: %v", err)
	}
	re, err := Open[[]float64](path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Size() != s.Size() {
		t.Fatalf("reopened size = %d, live store had %d", re.Size(), s.Size())
	}
	for w := range added {
		for _, id := range added[w] {
			want, ok := s.Get(id)
			if !ok {
				t.Fatalf("live store lost id %d", id)
			}
			got, ok := re.Get(id)
			if !ok {
				t.Fatalf("reopened bundle lost id %d", id)
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("id %d: reopened %v, want %v", id, got, want)
				}
			}
		}
	}
}
