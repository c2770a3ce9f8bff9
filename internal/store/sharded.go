// The store: S ≥ 1 hash shards behind one Store front, so mutations to
// different shards never contend and a compaction pause is 1/S the size
// of a store-wide one. Objects are routed by a fixed hash of their stable
// ID — an object never migrates between shards — and every shard has its
// own mutex, copy-on-write snapshot chain, segmented index, and
// compaction schedule. S = 1 is the unsharded store: one shard, the same
// code path.
//
// Search runs retrieval's filter-and-refine engine (retrieval.Search)
// over one snapshot per shard, each shard's segmented index with its ID
// tables: the engine embeds the query once, scatters the filter phase
// over the shards, merges their candidates on the (filter distance,
// stable ID) total order and refines the p survivors once, so the answer
// does not depend on S (DESIGN.md §8 gives the argument; the equivalence
// harness in equivalence_test.go checks S ∈ {1, 2, 7} against a
// brute-force reference model, operation by operation). The store takes
// the snapshots and keeps its own accounting: each shard's delta-scan
// share, the filter selectivity tracker and the shadow screen's row
// counters.
//
// Persistence is the version-3 layout (see snapshot.go): one manifest
// plus a base section and a delta log per shard, whatever S is. It is
// the only format this build reads or writes.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qse/internal/core"
	"qse/internal/fsio"
	"qse/internal/meta"
	"qse/internal/retrieval"
	"qse/internal/space"
)

// Backend is the store surface the serving layer programs against: the
// calls the server makes, plus the persistence and tuning calls a
// served-path benchmark makes. *Store implements it; the interface is what
// lets a caller wrap the store (tracing, injected failures) without
// forking it.
type Backend[T any] interface {
	SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]Result, retrieval.Stats, error)
	SearchBatchFiltered(queries []T, k, p int, pred *meta.Predicate) ([][]Result, []retrieval.Stats, error)
	CompileFilter(raw []byte) (*meta.Predicate, error)
	FilterStats() meta.TrackerStats
	AddMeta(x T, md meta.Map) (uint64, error)
	UpsertMeta(id uint64, x T, md meta.Map) error
	Remove(id uint64) error
	Get(id uint64) (T, bool)
	Size() int
	Stats() Stats
	ShardStats() []Stats
	Save(path string) error
	Compact() bool
	SetQuantization(bits int) error
}

var _ Backend[int] = (*Store[int])(nil)

// maxShards bounds the shard count: beyond this the per-query merge and
// the per-snapshot file fan-out dominate any lock-contention win.
const maxShards = 1024

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

// Store serves a trained index over S ≥ 1 hash shards: lock-free
// snapshot reads, serialized mutations per shard, stable IDs, durable
// v3 layouts, and search results that do not depend on S.
//
// Consistency is per shard: one Search observes one immutable snapshot
// per shard, and a batch observes one snapshot set for all its queries,
// but two shards' snapshots may straddle a concurrent mutation — the
// same guarantee a reader racing a mutator gets across two requests.
type Store[T any] struct {
	model  *core.Model[T]
	dist   space.Distance[T]
	codec  Codec[T]
	dims   int
	shards []*shard[T]

	// nextID is the ID the next Add draws, by an atomic add: no lock,
	// and never a wait on a shard (a shard stalled in compaction must not
	// convoy Adds bound for other shards).
	nextID atomic.Uint64

	// mark tracks the manifest this store last wrote; lastSnapNanos and
	// lastSnapBytes describe the most recent Save that wrote anything.
	mark          layoutMark
	lastSnapNanos atomic.Int64
	lastSnapBytes atomic.Int64

	// boundRows/boundVisited/boundExact accumulate the shadow-scan
	// counters behind Stats.BoundScannedRows/BoundVisitedRows/
	// BoundExactRows (the scatter shares one clock across all shards, so
	// the front accounts them).
	boundRows    atomic.Uint64
	boundVisited atomic.Uint64
	boundExact   atomic.Uint64

	// lcMu guards the background lifecycle started by Start.
	lcMu sync.Mutex
	lc   *lifecycle

	// fsys is the filesystem the save path writes through; nil means the
	// real one (fsio.OS()). Tests swap in a fsio.FaultFS via setFS to
	// prove every I/O call site is safe to fail.
	fsys fsio.FS

	// health tracks background-snapshot outcomes: consecutive failures,
	// the last error, the last success time, and the degraded flag the
	// readiness probe reports.
	health snapHealth

	// reg and track are the metadata type registry and the filter
	// selectivity tracker: a field's type is fixed across the whole
	// store, and selectivity observations aggregate all shards' traffic.
	reg   *meta.Registry
	track *meta.Tracker
}

// fs returns the filesystem the store persists through.
func (s *Store[T]) fs() fsio.FS {
	if s.fsys == nil {
		return fsio.OS()
	}
	return s.fsys
}

// setFS swaps the filesystem under the save path. Test hook; call
// before any Save/Start, never concurrently with one.
func (s *Store[T]) setFS(fsys fsio.FS) { s.fsys = fsys }

// New builds a one-shard store over db: NewSharded with S = 1.
func New[T any](model *core.Model[T], db []T, dist space.Distance[T], codec Codec[T]) (*Store[T], error) {
	return NewSharded(model, db, dist, codec, 1)
}

// NewSharded builds a store over db hash-partitioned into the given
// number of shards. Objects receive stable IDs 0..len(db)-1 and the
// database is embedded once (len(db) × EmbedCost exact distances, the
// usual index-build price) whatever the shard count. With one shard the
// index aliases db instead of copying it. The codec is only exercised by
// Save, but is required up front so a store that cannot persist fails at
// construction, not at snapshot time.
func NewSharded[T any](model *core.Model[T], db []T, dist space.Distance[T], codec Codec[T], shards int) (*Store[T], error) {
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
	if shards == 1 {
		subDB[0] = db
		subIDs[0] = make([]uint64, len(db))
		for i := range db {
			subIDs[0][i] = uint64(i)
		}
	} else {
		for i, x := range db {
			sh := shardOf(uint64(i), shards)
			subDB[sh] = append(subDB[sh], x)
			subIDs[sh] = append(subIDs[sh], uint64(i))
		}
	}
	ss := make([]*shard[T], shards)
	for i := range ss {
		sh, err := newShard(model, subDB[i], subIDs[i], dist)
		if err != nil {
			return nil, fmt.Errorf("store: building shard %d: %w", i, err)
		}
		ss[i] = sh
	}
	return newFront(model, dist, codec, ss, uint64(len(db)), meta.NewRegistry()), nil
}

// newFront assembles the Store over already-built shards, seeding the
// allocator at next.
func newFront[T any](model *core.Model[T], dist space.Distance[T], codec Codec[T], shards []*shard[T], next uint64, reg *meta.Registry) *Store[T] {
	s := &Store[T]{
		model: model, dist: dist, codec: codec,
		dims: model.Dims(), shards: shards,
		reg: reg, track: meta.NewTracker(),
	}
	s.nextID.Store(next)
	return s
}

// shardFor returns the shard a stable ID routes to.
func (s *Store[T]) shardFor(id uint64) *shard[T] {
	return s.shards[shardOf(id, len(s.shards))]
}

// Save writes the store as a v3 layout: the base and delta sections of
// every dirty shard first (in parallel, each shard incrementally — a
// clean shard's files are not touched at all, and a dirty shard whose
// base is unchanged only appends a delta frame), the manifest once per
// path. Snapshot cost therefore scales with how much actually changed,
// not with n·S. It runs against immutable snapshots and never blocks
// searches or mutations; a save racing mutations captures, per shard,
// either the before or the after. Concurrent Saves serialize per shard.
func (s *Store[T]) Save(path string) error {
	_, err := s.snapshotTo(path)
	return err
}

// load captures one immutable snapshot per shard as the segments of one
// search (or one whole batch): each shard's segmented index with its ID
// tables, in shard order.
func (s *Store[T]) load() []retrieval.Segment[T] {
	segs := make([]retrieval.Segment[T], len(s.shards))
	for i, sh := range s.shards {
		sn := sh.cur.Load()
		segs[i] = retrieval.Segment[T]{Seg: sn.seg, BaseIDs: sn.baseIDs, DeltaIDs: sn.deltaIDs}
	}
	return segs
}

// SearchFiltered runs a filter-and-refine query over the rows matching
// pred (nil for every live row) through retrieval.Search, with one
// snapshot per shard as its segments: the filter phase scatters across
// all shards in parallel, the per-shard candidates merge on the (filter
// distance, ID) total order, and the surviving p are refined exactly
// once — the same exact-distance budget, results and stats for every
// shard count. The predicate is evaluated below top-p truncation, so the
// p filter-phase survivors are the p best matching live rows and a
// selective filter never starves the candidate set; it must have been
// compiled against this store's registry (see CompileFilter). Results
// carry stable IDs. A store smaller than k — including one drained empty
// by removals — answers with what it has (possibly zero results); that
// is not an error.
func (s *Store[T]) SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]Result, retrieval.Stats, error) {
	segs := s.load()
	res, st, matched, err := retrieval.Search(segs, q, k, p, pred)
	if err != nil {
		return nil, retrieval.Stats{}, err
	}
	s.account(segs, pred, matched, st.Timing)
	return res, st, nil
}

// SearchBatchFiltered pipelines a query batch, every query restricted to
// the rows matching pred (nil for no restriction), across the worker
// pool. The whole batch runs against one snapshot set, so every query
// sees the same store version even under concurrent mutation; the error
// of the lowest-indexed failing query fails the batch deterministically,
// and a failed batch is not accounted.
func (s *Store[T]) SearchBatchFiltered(queries []T, k, p int, pred *meta.Predicate) ([][]Result, []retrieval.Stats, error) {
	segs := s.load()
	res, sts, matched, err := retrieval.SearchBatch(segs, queries, k, p, pred)
	if err != nil {
		return nil, nil, err
	}
	for i, st := range sts {
		s.account(segs, pred, matched[i], st.Timing)
	}
	return res, sts, nil
}

// account charges one search over segs to the store's own counters:
// each shard's delta-scan share, the predicate's observed selectivity
// (matched of the live rows) and the shadow screen's row counters.
func (s *Store[T]) account(segs []retrieval.Segment[T], pred *meta.Predicate, matched int, t retrieval.Timing) {
	live := 0
	for i, sh := range s.shards {
		sh.noteScan(segs[i].Seg)
		live += segs[i].Seg.Live()
	}
	if pred != nil {
		s.track.Observe(pred.Fields(), matched, live)
	}
	if t.BoundScannedRows > 0 {
		s.boundRows.Add(uint64(t.BoundScannedRows))
	}
	if t.BoundVisitedRows > 0 {
		s.boundVisited.Add(uint64(t.BoundVisitedRows))
	}
	if t.BoundExactRows > 0 {
		s.boundExact.Add(uint64(t.BoundExactRows))
	}
}

// CompileFilter parses and type-checks a JSON filter tree against the
// store's field-type registry. nil/absent filters compile to nil.
func (s *Store[T]) CompileFilter(raw []byte) (*meta.Predicate, error) {
	return meta.CompileFilter(raw, s.reg.Kinds())
}

// FilterStats snapshots the per-field observed filter selectivity.
func (s *Store[T]) FilterStats() meta.TrackerStats {
	return s.track.Snapshot()
}

// Add embeds x (outside every lock — concurrent Adds embed in parallel),
// draws the next stable ID, and inserts into the owning shard under its
// mutex. Only Adds landing on the same shard serialize for the insert,
// in whatever order they reach its mutex; a shard paused in compaction
// delays its own Adds and nobody else's. Concurrent searches keep running
// against the previous snapshot until the new one is published.
func (s *Store[T]) Add(x T) (uint64, error) {
	return s.AddMeta(x, nil)
}

// AddMeta is Add carrying the new object's metadata record (nil for
// none). The record is validated against the type registry before an ID
// is drawn: a kind conflict returns a *meta.TypeError, burns no ID and
// leaves the store unchanged. Its values are copied into the shard's
// metadata columns; md itself is not kept.
func (s *Store[T]) AddMeta(x T, md meta.Map) (uint64, error) {
	if err := s.reg.Register(md); err != nil {
		return 0, err
	}
	v := s.model.Embed(x)
	if len(v) != s.dims {
		// Validated before an ID is drawn, so a rejected object burns
		// nothing.
		return 0, retrieval.ObjectDimsError(len(v), s.dims)
	}
	id := s.nextID.Add(1) - 1
	if err := s.shardFor(id).add(x, v, id, md); err != nil {
		return 0, err
	}
	return id, nil
}

// Upsert atomically replaces the object with the given stable ID in its
// shard: tombstone plus delta append under one generation bump, keeping
// the ID (which is what a mutating workload's PUT wants). The embedding
// is computed outside every lock. An unknown ID is ErrUnknownID; an
// object embedding to the wrong width is rejected before anything is
// tombstoned, leaving the store unchanged.
func (s *Store[T]) Upsert(id uint64, x T) error {
	return s.UpsertMeta(id, x, nil)
}

// UpsertMeta is Upsert carrying the replacement's metadata record,
// which atomically replaces the old row's whole record — an upsert
// without metadata clears it; stale fields of the old record are never
// merged in. A refused upsert (unknown ID, wrong width, kind conflict)
// registers none of md's fields.
func (s *Store[T]) UpsertMeta(id uint64, x T, md meta.Map) error {
	v := s.model.Embed(x)
	if len(v) != s.dims {
		return retrieval.ObjectDimsError(len(v), s.dims)
	}
	return s.shardFor(id).upsertEmbedded(id, x, v, md, s.reg)
}

// Remove deletes the object with the given stable ID by tombstoning its
// row in its shard — O(1) apart from one small bitmap copy; the row's
// storage is reclaimed by the next compaction. Other objects keep their
// IDs.
func (s *Store[T]) Remove(id uint64) error {
	return s.shardFor(id).Remove(id)
}

// Get returns the object with the given stable ID.
func (s *Store[T]) Get(id uint64) (T, bool) {
	return s.shardFor(id).Get(id)
}

// Metadata returns a copy of the metadata record of the object with the
// given stable ID (nil when the object carries none); the bool reports
// whether the ID is live.
func (s *Store[T]) Metadata(id uint64) (meta.Map, bool) {
	return s.shardFor(id).Metadata(id)
}

// First returns the live stored object with the lowest stable ID, for
// callers that need a representative sample, by one pass over every
// shard's rows.
func (s *Store[T]) First() (T, bool) {
	var best T
	var bestID uint64
	found := false
	for _, sh := range s.shards {
		snap := sh.cur.Load()
		for pos, total := 0, snap.seg.Total(); pos < total; pos++ {
			if id := snap.idAt(pos); snap.seg.Alive(pos) && (!found || id < bestID) {
				best, bestID, found = snap.seg.Object(pos), id, true
			}
		}
	}
	return best, found
}

// Sample returns a representative object of the store's domain: First
// when any object is live, otherwise one of the model's candidate
// objects — which were drawn from the training database and therefore
// share the stored objects' shape — so even a drained store can tell a
// serving process what its queries look like.
func (s *Store[T]) Sample() (T, bool) {
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
func (s *Store[T]) Size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Size()
	}
	return n
}

// Dims returns the embedding dimensionality.
func (s *Store[T]) Dims() int { return s.dims }

// Generation returns the total mutation count: the sum of the shard
// generations. It starts at 0 when the store is created or opened, and
// each shard's counter is monotone, so the sum is monotone too; equal
// generations mean identical contents.
func (s *Store[T]) Generation() uint64 {
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
func (s *Store[T]) Compact() bool {
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
// amortized independently of its siblings. It does not trigger a
// compaction by itself; the next mutation applies the new policy.
func (s *Store[T]) SetCompactionPolicy(p CompactionPolicy) {
	for _, sh := range s.shards {
		sh.SetCompactionPolicy(p)
	}
}

// SetQuantization turns every shard's shadow block on (8) or off (0);
// any other width is rejected before any shard changes (see
// shard.SetQuantization). Shards quantize independently — each applies
// the gate to its own base and builds boundaries over it — and a failing
// shard stops the sweep, leaving earlier shards quantized; results stay
// exact either way, so a partial application only means uneven scan
// speed.
func (s *Store[T]) SetQuantization(bits int) error {
	for i, sh := range s.shards {
		if err := sh.SetQuantization(bits); err != nil {
			return fmt.Errorf("store: quantizing shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates the shard statistics: sizes, segment layouts, and
// compaction counts are summed, Generation is the total mutation count,
// NextID is the allocator, LastCompactionNanos the worst recent shard
// pause, LastSnapshot* the most recent whole-layout save, and
// DeltaScanShare the measured share over every shard's scan counters.
// The per-shard rows behind the sums are available from ShardStats.
func (s *Store[T]) Stats() Stats {
	agg := Stats{
		Dims: s.dims, NextID: s.nextID.Load(), Shards: len(s.shards),
		LastSnapshotNanos: s.lastSnapNanos.Load(),
		LastSnapshotBytes: s.lastSnapBytes.Load(),
		BoundScannedRows:  s.boundRows.Load(),
		BoundVisitedRows:  s.boundVisited.Load(),
		BoundExactRows:    s.boundExact.Load(),
	}
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

// ShardStats returns each shard's own statistics, in shard order, or nil
// for a one-shard store (whose only row would repeat Stats; the server
// omits the field then). Each row is a consistent point-in-time view of
// its shard; rows of different shards may straddle concurrent mutations.
func (s *Store[T]) ShardStats() []Stats {
	if len(s.shards) == 1 {
		return nil
	}
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}
