// Sharded store: S independent segmented stores behind one Store-shaped
// front, so mutations to different shards never contend and a compaction
// pause is 1/S the size of the store-wide one. Objects are routed by a
// fixed hash of their stable ID — an object never migrates between
// shards — and every shard is a complete, self-sufficient Store with its
// own mutex, copy-on-write snapshot chain, segmented index, and
// compaction schedule.
//
// Search is scatter-gather, and the gather is constructed to be
// bit-identical to an unsharded search over the same contents (DESIGN.md
// §8 gives the full argument; the equivalence harness in
// equivalence_test.go checks it operation by operation):
//
//   - The query is embedded once; the same qvec/weights go to every
//     shard, so filter distances are computed by the same kernels on the
//     same float64 inputs as in one big store.
//   - Each shard returns its p best live rows under the filter distance.
//     Any member of the global top-p lies in its own shard's top-p, so
//     the union covers the global candidate set.
//   - Within a store, position order equals stable-ID order (bases keep
//     ascending IDs through compaction, deltas append ascending IDs), so
//     the per-shard (distance, position) rankings translate to the global
//     (distance, ID) total order losslessly; merging on it and truncating
//     to p reproduces the unsharded candidate set exactly — same set,
//     same order, same size, so the refine phase pays the same number of
//     exact distances and ranks identically.
//
// Persistence is a version-2 manifest naming S version-1 shard bundles
// (see bundle.go); a plain version-1 bundle opens as S = 1, and an S = 1
// Sharded saves back to plain version 1, so single-shard deployments
// round-trip through the original format unchanged.
package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"qse/internal/core"
	"qse/internal/fsio"
	"qse/internal/meta"
	"qse/internal/par"
	"qse/internal/retrieval"
	"qse/internal/space"
)

// Backend is the store surface the serving layer and CLIs program
// against, satisfied by both Store (one shard, one mutex) and Sharded.
type Backend[T any] interface {
	Search(q T, k, p int) ([]Result, retrieval.Stats, error)
	SearchBatch(queries []T, k, p int) ([][]Result, []retrieval.Stats, error)
	SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]Result, retrieval.Stats, error)
	SearchBatchFiltered(queries []T, k, p int, pred *meta.Predicate) ([][]Result, []retrieval.Stats, error)
	CompileFilter(raw []byte) (*meta.Predicate, error)
	FilterStats() meta.TrackerStats
	Add(x T) (uint64, error)
	AddMeta(x T, md meta.Map) (uint64, error)
	Upsert(id uint64, x T) error
	UpsertMeta(id uint64, x T, md meta.Map) error
	Remove(id uint64) error
	Get(id uint64) (T, bool)
	Metadata(id uint64) (meta.Map, bool)
	First() (T, bool)
	Sample() (T, bool)
	Size() int
	Dims() int
	Generation() uint64
	Stats() Stats
	ShardStats() []Stats
	Save(path string) error
	Compact() bool
	SetCompactionPolicy(CompactionPolicy)
	SetQuantization(bits int) error
	Start(Lifecycle) error
	Close() error
}

var (
	_ Backend[int] = (*Store[int])(nil)
	_ Backend[int] = (*Sharded[int])(nil)
)

// maxShards bounds the shard count: beyond this the per-query merge and
// the per-snapshot file fan-out dominate any lock-contention win.
const maxShards = 1024

// minParallelRefine mirrors the retrieval package's refine threshold: the
// refine loop calls the (typically expensive) exact distance oracle, so
// even small candidate sets amortize a fork-join.
const minParallelRefine = 32

// shardOf routes a stable ID to its shard: the splitmix64 finalizer over
// the ID, reduced mod S. IDs are assigned sequentially, so a plain mod
// would balance too — the mixer additionally decorrelates shard load from
// any structure in the workload's remove pattern (e.g. "delete every
// even-numbered object"), and costs five integer ops. The manifest
// records the routing function by name (shardHashName) so a layout
// written under one hash can never be silently read under another.
func shardOf(id uint64, shards int) int {
	if shards == 1 {
		return 0
	}
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Sharded is a hash-sharded store: the same contract as Store (lock-free
// snapshot reads, serialized mutations, stable IDs, durable bundles),
// with mutations to different shards proceeding in parallel and search
// results bit-identical to a single Store holding the same objects.
//
// Consistency is per shard: one Search observes one immutable snapshot
// per shard, and a batch observes one snapshot set for all its queries,
// but two shards' snapshots may straddle a concurrent mutation — exactly
// the guarantee independent stores can give, and the same one a reader
// racing a mutator gets from a single store across two requests.
type Sharded[T any] struct {
	model  *core.Model[T]
	dist   space.Distance[T]
	codec  Codec[T]
	dims   int
	shards []*Store[T]

	// allocMu orders ID allocation: Add draws the next ID and its shard
	// ticket under it, then releases it before touching the shard — the
	// critical section is a few instructions, and never waits on a shard
	// mutex (a shard stalled in compaction must not convoy Adds bound for
	// other shards through the allocator). Per-shard FIFO is restored by
	// the ticket gate below.
	allocMu sync.Mutex
	// nextID is written under allocMu; atomic so Stats stays lock-free.
	nextID atomic.Uint64
	// gates[i] sequences inserts into shard i in allocation order: Add
	// takes a ticket (under allocMu, so ticket order == ID order) and
	// waits, under the shard mutex, for its turn. Within every shard
	// insertion order therefore equals ID order — the ascending-delta-IDs
	// invariant the snapshot's binary-searched ID table and the
	// position↔ID order isomorphism both stand on — while adds to
	// different shards proceed fully independently. (Upsert bypasses the
	// gate: it draws no new ID and serializes on the shard mutex alone.)
	gates []shardGate

	// mark tracks the manifest this store last wrote; lastSnapNanos and
	// lastSnapBytes describe the most recent whole-layout Save.
	mark          layoutMark
	lastSnapNanos atomic.Int64
	lastSnapBytes atomic.Int64

	// boundRows/boundExact accumulate the shadow-scan counters of
	// scatter-gather queries (the scatter shares one clock across all
	// shards, so the front accounts them; the shards' own pairs stay 0).
	boundRows  atomic.Uint64
	boundExact atomic.Uint64

	// lcMu guards the background lifecycle started by Start.
	lcMu sync.Mutex
	lc   *lifecycle

	// fsys is the filesystem the save path writes through; nil means the
	// real one (fsio.OS()). Tests swap in a fsio.FaultFS via setFS.
	fsys fsio.FS

	// health tracks background-snapshot outcomes for the whole layout
	// (snapshots are whole-layout operations, so health is front-level,
	// not per-shard).
	health snapHealth

	// reg and track are the layout-wide metadata type registry and filter
	// planner, shared by pointer with every shard (see newShardedFront):
	// a field's type is fixed across the whole layout, and selectivity
	// estimates aggregate all shards' traffic.
	reg   *meta.Registry
	track *meta.Tracker
}

// fs returns the filesystem the store persists through.
func (s *Sharded[T]) fs() fsio.FS {
	if s.fsys == nil {
		return fsio.OS()
	}
	return s.fsys
}

// setFS swaps the filesystem under the save path, for the whole layout
// and every shard. Test hook; call before any Save/Start, never
// concurrently with one.
func (s *Sharded[T]) setFS(fsys fsio.FS) {
	s.fsys = fsys
	for _, sh := range s.shards {
		sh.setFS(fsys)
	}
}

// shardGate is a ticket turnstile for one shard. tickets is drawn under
// the Sharded allocMu; serving is guarded by the shard's own mutex, and
// cond uses that mutex as its Locker.
type shardGate struct {
	tickets uint64
	serving uint64
	cond    *sync.Cond
}

// NewSharded builds a store over db hash-partitioned into the given
// number of shards. Objects receive stable IDs 0..len(db)-1 exactly like
// New, and the database is embedded once (len(db) × EmbedCost exact
// distances) regardless of the shard count.
func NewSharded[T any](model *core.Model[T], db []T, dist space.Distance[T], codec Codec[T], shards int) (*Sharded[T], error) {
	if model == nil {
		return nil, fmt.Errorf("store: nil model")
	}
	if codec == nil {
		return nil, fmt.Errorf("store: nil codec")
	}
	if shards < 1 || shards > maxShards {
		return nil, fmt.Errorf("store: shard count %d, want 1..%d", shards, maxShards)
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("store: empty database")
	}
	subDB := make([][]T, shards)
	subIDs := make([][]uint64, shards)
	for i, x := range db {
		sh := shardOf(uint64(i), shards)
		subDB[sh] = append(subDB[sh], x)
		subIDs[sh] = append(subIDs[sh], uint64(i))
	}
	next := uint64(len(db))
	ss := make([]*Store[T], shards)
	for i := range ss {
		st, err := newWithIDs(model, subDB[i], subIDs[i], next, dist, codec)
		if err != nil {
			return nil, fmt.Errorf("store: building shard %d: %w", i, err)
		}
		ss[i] = st
	}
	return newShardedFront(model, dist, codec, ss, next), nil
}

// newShardedFront assembles the Sharded façade over already-built
// shards: the ticket gates are bound to each shard's mutex, the global
// allocator seeded, and one metadata registry/tracker pair shared into
// every shard — shard 0's registry (already seeded from disk on the
// open paths) absorbs the other shards' kinds and becomes the layout's.
// Every constructor funnels through here so a Sharded can never exist
// with uninitialized gates or a split registry.
func newShardedFront[T any](model *core.Model[T], dist space.Distance[T], codec Codec[T], shards []*Store[T], next uint64) *Sharded[T] {
	s := &Sharded[T]{
		model: model, dist: dist, codec: codec,
		dims: shards[0].Dims(), shards: shards,
		gates: make([]shardGate, len(shards)),
	}
	s.reg, s.track = shards[0].reg, shards[0].track
	for i := range s.gates {
		s.gates[i].cond = sync.NewCond(&shards[i].mu)
	}
	for _, sh := range shards[1:] {
		s.reg.Seed(sh.reg.Kinds())
		sh.reg, sh.track = s.reg, s.track
	}
	s.nextID.Store(next)
	return s
}

// fromSingle wraps an already-open Store as a one-shard Sharded.
func fromSingle[T any](st *Store[T]) *Sharded[T] {
	return newShardedFront(st.model, st.dist, st.codec, []*Store[T]{st}, st.nextID.Load())
}

// OpenSharded restores a sharded store from path, whatever its era: a
// version-3 layout restores one shared model instance plus base+delta
// sections per shard (in parallel); a legacy version-2 manifest opens
// all its v1 shard bundles; a plain version-1 bundle opens as a single
// shard — every pre-v3 bundle remains readable, and the next Save
// writes the layout forward as v3. Like Open, no exact distances are
// computed and search answers are bit-identical to the store that saved
// the layout.
func OpenSharded[T any](path string, dist space.Distance[T], codec Codec[T]) (*Sharded[T], error) {
	version, payload, err := readEnvelope(fsio.OS(), path)
	if err != nil {
		return nil, err
	}
	if version == manifestV3Version {
		model, shards, next, canonical, err := openLayoutV3(path, payload, dist, codec)
		if err != nil {
			return nil, err
		}
		s := newShardedFront(model, dist, codec, shards, next)
		// The manifest just read is the one a save to this path would
		// write (its NextID staleness is handled by the open-time resume
		// rule), so seed the mark: the first post-reopen save stays
		// delta-only instead of rewriting the model payload. The registry
		// version covers everything the sections just replayed, so only a
		// genuinely new field forces a manifest rewrite. A renamed or
		// copied manifest (section names not derived from this path) must
		// leave the mark unseeded so the first save rewrites the layout
		// under its own name — see canonicalSections.
		if canonical {
			s.mark.path = path
			s.mark.regVer = s.reg.Version()
		}
		return s, nil
	}
	if version != manifestVersion {
		st, err := Open(path, dist, codec) // rejects versions other than 1 itself
		if err != nil {
			return nil, err
		}
		return fromSingle(st), nil
	}
	man, err := readManifest(fsio.OS(), path)
	if err != nil {
		return nil, err
	}
	if man.Shards > maxShards {
		return nil, fmt.Errorf("%w: %s: manifest declares %d shards, this build caps at %d", ErrCorrupt, path, man.Shards, maxShards)
	}
	dir := filepath.Dir(path)
	shards := make([]*Store[T], man.Shards)
	errs := make([]error, man.Shards)
	par.For(man.Shards, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			shards[i], errs[i] = Open(filepath.Join(dir, man.Files[i]), dist, codec)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("store: opening shard %d of %s: %w", i, path, err)
		}
	}
	// Cross-file consistency: every shard must carry the same model (a
	// same-index shard file restored from a *different* deployment's
	// layout would otherwise serve vectors embedded under another model —
	// individually intact, silently wrong answers), agree on the
	// embedding width, and hold only IDs that route to it — a renamed or
	// mixed-up shard file would otherwise make its objects unreachable
	// (Get/Remove route by hash) while still serving them in search
	// results.
	fp0, err := modelFingerprint(shards[0].model, codec)
	if err != nil {
		return nil, fmt.Errorf("store: %s: fingerprinting shard 0 model: %w", path, err)
	}
	next := man.NextID
	for i, sh := range shards {
		if i > 0 {
			fp, err := modelFingerprint(sh.model, codec)
			if err != nil {
				return nil, fmt.Errorf("store: %s: fingerprinting shard %d model: %w", path, i, err)
			}
			if !bytes.Equal(fp, fp0) {
				return nil, fmt.Errorf("%w: %s: shard %d was written under a different model than shard 0", ErrCorrupt, path, i)
			}
		}
		if sh.Dims() != shards[0].Dims() {
			return nil, fmt.Errorf("%w: %s: shard %d embeds to %d dims, shard 0 to %d", ErrCorrupt, path, i, sh.Dims(), shards[0].Dims())
		}
		for _, id := range sh.cur.Load().liveIDs() {
			if got := shardOf(id, man.Shards); got != i {
				return nil, fmt.Errorf("%w: %s: object id %d found in shard %d but routes to shard %d", ErrCorrupt, path, id, i, got)
			}
		}
		// The allocator resumes past every shard's view of it, so a
		// manifest left stale by a crash between shard snapshots can
		// never cause an ID to be issued twice.
		if n := sh.nextID.Load(); n > next {
			next = n
		}
	}
	return newShardedFront(shards[0].model, dist, codec, shards, next), nil
}

// modelFingerprint serializes what makes a model answer the way it does
// — the rule snapshot and the candidate objects, through the same codec
// the bundles use — so two shard files written under different models
// can be told apart byte for byte, even when their dimensionalities
// coincide.
func modelFingerprint[T any](m *core.Model[T], codec Codec[T]) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(m.SelfSnapshot()); err != nil {
		return nil, err
	}
	for _, c := range m.Candidates() {
		raw, err := codec.Encode(c)
		if err != nil {
			return nil, err
		}
		if err := enc.Encode(raw); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// OpenAuto opens whatever layout lives at path — a version-1 single
// bundle (or a single-shard v3 layout) as a plain Store, any multi-shard
// manifest as a Sharded — so callers that only speak Backend (the
// serving CLI) need not know how a bundle was built.
func OpenAuto[T any](path string, dist space.Distance[T], codec Codec[T]) (Backend[T], error) {
	version, payload, err := readEnvelope(fsio.OS(), path)
	if err != nil {
		return nil, err
	}
	switch version {
	case manifestVersion:
		return OpenSharded(path, dist, codec)
	case manifestV3Version:
		model, shards, next, canonical, err := openLayoutV3(path, payload, dist, codec)
		if err != nil {
			return nil, err
		}
		if len(shards) == 1 {
			st := shards[0]
			st.nextID.Store(next)
			if canonical {
				st.mark.path = path
				st.mark.regVer = st.reg.Version()
			}
			return st, nil
		}
		s := newShardedFront(model, dist, codec, shards, next)
		if canonical {
			s.mark.path = path
			s.mark.regVer = s.reg.Version()
		}
		return s, nil
	}
	return Open(path, dist, codec)
}

// shardFiles names the per-shard bundle files for a manifest at path,
// relative to its directory. The shard count is part of the name, so
// layouts saved with different counts at the same path never collide.
func shardFiles(path string, shards int) []string {
	base := filepath.Base(path)
	files := make([]string, shards)
	for i := range files {
		files[i] = fmt.Sprintf("%s.shard-%03d-of-%03d", base, i, shards)
	}
	return files
}

// Save writes the store as a v3 layout: the base and delta sections of
// every dirty shard first (in parallel, each shard incrementally — a
// clean shard's files are not touched at all, and a dirty shard whose
// base is unchanged only appends a delta frame), the manifest once per
// path. Snapshot cost therefore scales with how much actually changed,
// not with n·S. Like Store.Save it runs against immutable snapshots and
// never blocks searches or mutations; a save racing mutations captures,
// per shard, either the before or the after. saveV2 in this file
// preserves the legacy v2 writer for the compatibility fixtures.
func (s *Sharded[T]) Save(path string) error {
	_, err := s.snapshotTo(path)
	return err
}

// snapshotTo is Save plus a "did anything get written" report for the
// background snapshot loop, recording the duration/bytes metrics.
func (s *Sharded[T]) snapshotTo(path string) (bool, error) {
	t0 := nowNanos()
	written, wrote, err := saveLayoutV3(s.fs(), path, s.model, s.codec, s.shards, &s.nextID, &s.mark)
	if err != nil {
		return false, err
	}
	if wrote {
		s.lastSnapNanos.Store(nowNanos() - t0)
		s.lastSnapBytes.Store(written)
	}
	return wrote, nil
}

// saveV2 writes the store as a legacy version-2 layout (manifest naming
// one self-contained v1 bundle per shard). Retained for the
// read-compatibility tests and the fuzz-corpus generator; production
// saves write the v3 layout.
func (s *Sharded[T]) saveV2(path string) error {
	files := shardFiles(path, len(s.shards))
	dir := filepath.Dir(path)
	errs := make([]error, len(s.shards))
	par.For(len(s.shards), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = s.shards[i].saveV1(filepath.Join(dir, files[i]))
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("store: shard %d snapshot: %w", i, err)
		}
	}
	// Read the allocator after the shard snapshots: it only grows, so the
	// manifest value is >= every ID visible in the files it names.
	return writeManifest(s.fs(), path, &manifestBody{
		Shards: len(s.shards),
		Hash:   shardHashName,
		NextID: s.nextID.Load(),
		Files:  files,
	})
}

// load captures one immutable snapshot per shard — the consistent view a
// whole search (or a whole batch) runs against.
func (s *Sharded[T]) load() []*snapshot[T] {
	snaps := make([]*snapshot[T], len(s.shards))
	for i, sh := range s.shards {
		snaps[i] = sh.cur.Load()
	}
	return snaps
}

// Search scatters the filter phase across all shards in parallel, merges
// the per-shard candidates on the (filter distance, ID) total order, and
// refines the surviving p exactly once — the same exact-distance budget,
// the same results, and the same stats as an unsharded store holding the
// same objects.
func (s *Sharded[T]) Search(q T, k, p int) ([]Result, retrieval.Stats, error) {
	return s.search(s.load(), q, k, p, true, nil)
}

// SearchFiltered is Search restricted to the rows matching pred: the
// compiled predicate goes to every shard, each shard clamps nothing on
// its own, and the global top-p clamps to the total matching-live count
// — results are bit-identical to an unsharded store holding the same
// contents and answering the same filtered query.
func (s *Sharded[T]) SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]Result, retrieval.Stats, error) {
	return s.search(s.load(), q, k, p, true, pred)
}

// SearchBatch pipelines a query batch across the worker pool. The whole
// batch runs against one snapshot set, so every query sees the same store
// version; like the unsharded batch, the error of the lowest-indexed
// failing query fails the batch deterministically.
func (s *Sharded[T]) SearchBatch(queries []T, k, p int) ([][]Result, []retrieval.Stats, error) {
	return s.SearchBatchFiltered(queries, k, p, nil)
}

// SearchBatchFiltered is SearchBatch with every query in the batch
// restricted to the rows matching pred (nil for no restriction).
func (s *Sharded[T]) SearchBatchFiltered(queries []T, k, p int, pred *meta.Predicate) ([][]Result, []retrieval.Stats, error) {
	if err := retrieval.CheckKP(k, p); err != nil {
		return nil, nil, err
	}
	snaps := s.load()
	results := make([][]Result, len(queries))
	stats := make([]retrieval.Stats, len(queries))
	errs := make([]error, len(queries))
	par.For(len(queries), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i], stats[i], errs[i] = s.search(snaps, queries[i], k, p, false, pred)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return results, stats, nil
}

// CompileFilter parses and type-checks a JSON filter tree against the
// layout-wide field-type registry. nil/absent filters compile to nil.
func (s *Sharded[T]) CompileFilter(raw []byte) (*meta.Predicate, error) {
	return meta.CompileFilter(raw, s.reg.Kinds())
}

// FilterStats snapshots the shared filter planner's state.
func (s *Sharded[T]) FilterStats() meta.TrackerStats {
	return s.track.Snapshot()
}

func (s *Sharded[T]) search(snaps []*snapshot[T], q T, k, p int, parallel bool, pred *meta.Predicate) ([]Result, retrieval.Stats, error) {
	// One engine for both layouts: searchSnapshots (store.go) embeds the
	// query once, scatters the same qvec/weights to every shard's filter,
	// merges on the (filter distance, ID) total order, and refines once.
	res, st, err := searchSnapshots(s.model, s.dist, s.dims, snaps, q, k, p, parallel, pred, s.track)
	if err != nil {
		return nil, retrieval.Stats{}, err
	}
	for i, sh := range s.shards {
		sh.noteScan(snaps[i])
	}
	if st.Timing.BoundScannedRows > 0 {
		s.boundRows.Add(uint64(st.Timing.BoundScannedRows))
	}
	if st.Timing.BoundExactRows > 0 {
		s.boundExact.Add(uint64(st.Timing.BoundExactRows))
	}
	return res, st, nil
}

// Add embeds x (outside every lock — concurrent Adds embed in parallel),
// draws the next stable ID, and inserts into the owning shard in
// allocation order (see shardGate). Only Adds landing on the same shard
// serialize for the insert; a shard paused in compaction delays its own
// Adds and nobody else's.
func (s *Sharded[T]) Add(x T) (uint64, error) {
	return s.AddMeta(x, nil)
}

// AddMeta is Add carrying the new object's metadata record (nil for
// none). The record is validated against the layout-wide type registry
// before an ID is drawn, so a rejected record burns nothing and the
// allocator stays in lockstep with an unsharded store fed the same
// operations.
func (s *Sharded[T]) AddMeta(x T, md meta.Map) (uint64, error) {
	if err := s.reg.Register(md); err != nil {
		return 0, err
	}
	v := s.model.Embed(x)
	if len(v) != s.dims {
		// Validated before an ID is drawn, so a rejected object burns
		// nothing and the allocator stays in lockstep with an unsharded
		// store fed the same operations.
		return 0, retrieval.ObjectDimsError(len(v), s.dims)
	}
	s.allocMu.Lock()
	id := s.nextID.Load()
	si := shardOf(id, len(s.shards))
	ticket := s.gates[si].tickets
	s.gates[si].tickets++
	s.nextID.Store(id + 1)
	s.allocMu.Unlock()

	sh, g := s.shards[si], &s.gates[si]
	sh.mu.Lock()
	for g.serving != ticket {
		g.cond.Wait()
	}
	err := sh.addAssignedLocked(x, v, id, md)
	g.serving++
	g.cond.Broadcast()
	sh.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Upsert atomically replaces the object with the given stable ID in its
// shard: tombstone plus delta append under one generation bump, keeping
// the ID (so the replacement routes to the same shard the old object
// lived in). The embedding is computed outside every lock; a
// wrong-width object is rejected before anything is tombstoned.
func (s *Sharded[T]) Upsert(id uint64, x T) error {
	return s.UpsertMeta(id, x, nil)
}

// UpsertMeta is Upsert carrying the replacement's metadata record,
// which atomically replaces the old row's whole record (nil clears it).
// The record is validated against the layout-wide registry before
// anything is tombstoned.
func (s *Sharded[T]) UpsertMeta(id uint64, x T, md meta.Map) error {
	if err := s.reg.Register(md); err != nil {
		return err
	}
	v := s.model.Embed(x)
	if len(v) != s.dims {
		return retrieval.ObjectDimsError(len(v), s.dims)
	}
	return s.shards[shardOf(id, len(s.shards))].upsertEmbedded(id, x, v, md)
}

// Remove tombstones the object with the given stable ID in its shard.
func (s *Sharded[T]) Remove(id uint64) error {
	return s.shards[shardOf(id, len(s.shards))].Remove(id)
}

// Get returns the object with the given stable ID.
func (s *Sharded[T]) Get(id uint64) (T, bool) {
	return s.shards[shardOf(id, len(s.shards))].Get(id)
}

// Metadata returns a copy of the metadata record of the object with the
// given stable ID (nil when it carries none).
func (s *Sharded[T]) Metadata(id uint64) (meta.Map, bool) {
	return s.shards[shardOf(id, len(s.shards))].Metadata(id)
}

// First returns the live stored object with the lowest stable ID — the
// same object an unsharded store's First would return — in O(shards).
func (s *Sharded[T]) First() (T, bool) {
	var best T
	var bestID uint64
	found := false
	for _, sh := range s.shards {
		if x, id, ok := sh.firstLive(); ok && (!found || id < bestID) {
			best, bestID, found = x, id, true
		}
	}
	return best, found
}

// Sample returns a representative object of the store's domain: First
// when any object is live, otherwise one of the shared model's candidate
// objects — so even a fully drained layout can tell a serving process
// what its queries look like.
func (s *Sharded[T]) Sample() (T, bool) {
	if x, ok := s.First(); ok {
		return x, true
	}
	if cands := s.model.Candidates(); len(cands) > 0 {
		return cands[0], true
	}
	var zero T
	return zero, false
}

// Size returns the number of live stored objects across all shards.
func (s *Sharded[T]) Size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Size()
	}
	return n
}

// Dims returns the embedding dimensionality.
func (s *Sharded[T]) Dims() int { return s.dims }

// Generation returns the total mutation count: the sum of the shard
// generations. Each shard's counter is monotone, so the sum is monotone
// too, and it equals the generation of an unsharded store fed the same
// operations.
func (s *Sharded[T]) Generation() uint64 {
	var g uint64
	for _, sh := range s.shards {
		g += sh.Generation()
	}
	return g
}

// Compact folds every shard's delta and tombstones into its base,
// reporting whether any shard had something to fold. Shards compact
// independently — searches keep running throughout, and each shard's
// pause is 1/S of a store-wide compaction.
func (s *Sharded[T]) Compact() bool {
	any := false
	for _, sh := range s.shards {
		if sh.Compact() {
			any = true
		}
	}
	return any
}

// SetCompactionPolicy replaces every shard's compaction thresholds. The
// thresholds see per-shard sizes: a fraction-of-base trigger fires on the
// shard's own base, which is what keeps each shard's mutation cost O(1)
// amortized independently of its siblings.
func (s *Sharded[T]) SetCompactionPolicy(p CompactionPolicy) {
	for _, sh := range s.shards {
		sh.SetCompactionPolicy(p)
	}
}

// SetQuantization turns every shard's shadow block on (8) or off (0)
// (see Store.SetQuantization). Shards quantize independently — each
// applies the gate to its own base and builds boundaries over it — and a
// failing shard stops the sweep, leaving earlier shards quantized;
// results stay exact either way, so a partial application only means
// uneven scan speed.
func (s *Sharded[T]) SetQuantization(bits int) error {
	for i, sh := range s.shards {
		if err := sh.SetQuantization(bits); err != nil {
			return fmt.Errorf("store: quantizing shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates the shard statistics: sizes, segment layouts, and
// compaction counts are summed, Generation is the total mutation count,
// NextID is the global allocator, LastCompactionNanos the worst recent
// shard pause, LastSnapshot* the most recent whole-layout save, and
// DeltaScanShare the measured share over every shard's scan counters.
// The per-shard rows behind the sums are available from ShardStats.
func (s *Sharded[T]) Stats() Stats {
	agg := Stats{
		Dims: s.dims, NextID: s.nextID.Load(), Shards: len(s.shards),
		LastSnapshotNanos: s.lastSnapNanos.Load(),
		LastSnapshotBytes: s.lastSnapBytes.Load(),
	}
	agg.BoundScannedRows = s.boundRows.Load()
	agg.BoundExactRows = s.boundExact.Load()
	var rows, waste uint64
	for i, sh := range s.shards {
		st := sh.Stats()
		agg.Size += st.Size
		agg.Generation += st.Generation
		agg.BaseSize += st.BaseSize
		agg.DeltaSize += st.DeltaSize
		agg.Tombstones += st.Tombstones
		agg.Compactions += st.Compactions
		if st.LastCompactionNanos > agg.LastCompactionNanos {
			agg.LastCompactionNanos = st.LastCompactionNanos
		}
		if i == 0 {
			agg.QuantBits = st.QuantBits
		}
		agg.BoundScannedRows += st.BoundScannedRows
		agg.BoundExactRows += st.BoundExactRows
		agg.ShadowBytes += st.ShadowBytes
		r, w := sh.scanCounters()
		rows += r
		waste += w
	}
	if rows > 0 {
		agg.DeltaScanShare = float64(waste) / float64(rows)
	}
	s.health.fill(&agg)
	return agg
}

// ShardStats returns each shard's own statistics, in shard order. Each
// row is a consistent point-in-time view of its shard; rows of different
// shards may straddle concurrent mutations.
func (s *Sharded[T]) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}
