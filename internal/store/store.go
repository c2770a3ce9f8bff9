package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qse/internal/core"
	"qse/internal/fsio"
	"qse/internal/meta"
	"qse/internal/par"
	"qse/internal/retrieval"
	"qse/internal/space"
)

// ErrUnknownID is returned by Remove for an ID that is not (or no longer)
// in the store. The HTTP layer maps it to 404.
var ErrUnknownID = errors.New("store: unknown object id")

// Result is one retrieved neighbor, addressed by stable ID rather than by
// database position: positions shift when objects are removed, IDs never
// do, so IDs are the only handle that survives a mutating workload.
type Result struct {
	ID       uint64
	Distance float64
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	// Size is the number of live stored objects; Dims the embedding width.
	Size int
	Dims int
	// Generation counts mutations (Add/Remove) since the store was created
	// or opened; a changed generation means a snapshot is stale. Compaction
	// does not bump it — it changes the physical layout, not the contents.
	Generation uint64
	// NextID is the ID the next Add will receive.
	NextID uint64
	// BaseSize and DeltaSize are the row counts of the two segments
	// (including tombstoned rows); Tombstones is the number of dead rows
	// awaiting compaction. Size = BaseSize + DeltaSize - Tombstones.
	BaseSize   int
	DeltaSize  int
	Tombstones int
	// Compactions counts delta/tombstone fold-ins since the store was
	// created or opened (threshold-triggered and explicit alike).
	Compactions uint64
	// Shards is the number of independent stores behind this one: 1 for a
	// plain Store, S for a Sharded. In an aggregate Stats the segment
	// fields above are sums over the shards.
	Shards int
	// LastCompactionNanos is the wall-clock duration of the most recent
	// compaction (0 until one has run). In an aggregate Stats it is the
	// maximum over the shards — the worst pause a query could have raced.
	LastCompactionNanos int64
	// LastSnapshotNanos and LastSnapshotBytes describe the most recent
	// Save: how long it took and how many bytes it actually wrote. An
	// incremental save of a lightly dirty store writes only the dirty
	// shards' delta frames, so bytes track the delta size, not the store
	// size.
	LastSnapshotNanos int64
	LastSnapshotBytes int64
	// DeltaScanShare is the measured fraction of filter-scan row visits
	// spent on delta rows and tombstones since the last compaction (or
	// open) — the scan degradation the background compactor schedules on.
	// Zero when no searches have run. In an aggregate Stats the shares
	// are combined over all shards' scan counters.
	DeltaScanShare float64
	// SnapshotFailures counts failed snapshot attempts over the store's
	// lifetime; LastSnapshotError is the most recent failure ("" after a
	// success), LastSnapshotOKUnix the Unix time of the last successful
	// snapshot (0 until one succeeds). DegradedPersistence reports the
	// lifecycle's degraded durability state — enough consecutive failures
	// that the configured DegradeAfter threshold tripped. A degraded
	// store keeps serving and accepting writes; the flag is what
	// readiness probes surface.
	SnapshotFailures    uint64
	LastSnapshotError   string
	LastSnapshotOKUnix  int64
	DegradedPersistence bool
	// QuantBits is the shadow-block quantization setting: 8 when
	// quantization is on, 0 when off (see SetQuantization).
	// BoundScannedRows counts rows the seeded screen examined;
	// BoundExactRows the subset the bounds could not exclude, which the
	// scan then evaluated against the exact float64 block — their ratio
	// is the measured prune rate. Both accumulate over the store's
	// lifetime. In an aggregate Stats the counters are summed and
	// QuantBits is the shards' common setting.
	QuantBits        int
	BoundScannedRows uint64
	BoundExactRows   uint64
	// ShadowBytes is the resident size of the shadow block (base plus
	// delta), 0 when quantization is off or dormant — a base below the
	// gate (DESIGN §16) carries no shadow.
	ShadowBytes int64
}

// CompactionPolicy decides when the mutation path folds the delta segment
// and the tombstones back into the base. Both triggers combine a floor
// with a fraction: the delta trigger fires when the delta holds at least
// MinDelta rows AND at least DeltaFrac of the base size; the tombstone
// trigger fires when at least MinDead rows are dead AND they make up at
// least DeadFrac of all rows. Fraction-of-n thresholds are what make
// mutations O(1) amortized: an O(n) compaction is paid for by the Θ(n)
// cheap mutations that had to happen since the previous one.
type CompactionPolicy struct {
	MinDelta  int
	DeltaFrac float64
	MinDead   int
	DeadFrac  float64
	// MaxLogFrames and MaxLogBytes bound the on-disk delta log rather
	// than the in-memory layout: when an incremental save finds the log
	// already at either bound, it folds the shard and rewrites a fresh
	// base + empty log instead of appending forever — bounding the
	// worst-case reopen/replay cost of a shard mutated forever below the
	// in-memory thresholds. Zero means the defaults (512 frames, 256
	// MiB); negative means unbounded.
	MaxLogFrames int
	MaxLogBytes  int64
}

// Default on-disk delta-log bounds (see CompactionPolicy).
const (
	DefaultMaxLogFrames = 512
	DefaultMaxLogBytes  = 256 << 20
)

// logBounds resolves the effective frame and byte bounds.
func (p CompactionPolicy) logBounds() (frames int, bytes int64) {
	frames, bytes = p.MaxLogFrames, p.MaxLogBytes
	if frames == 0 {
		frames = DefaultMaxLogFrames
	} else if frames < 0 {
		frames = math.MaxInt
	}
	if bytes == 0 {
		bytes = DefaultMaxLogBytes
	} else if bytes < 0 {
		bytes = math.MaxInt64
	}
	return frames, bytes
}

// DefaultCompactionPolicy compacts when the delta reaches 1024 rows and
// 1/8 of the base, or when 1024 rows and 1/4 of the store are tombstones.
func DefaultCompactionPolicy() CompactionPolicy {
	return CompactionPolicy{
		MinDelta: 1024, DeltaFrac: 0.125, MinDead: 1024, DeadFrac: 0.25,
		MaxLogFrames: DefaultMaxLogFrames, MaxLogBytes: DefaultMaxLogBytes,
	}
}

// policyView reads the current compaction policy under the mutation
// lock, for callers (the incremental saver) that hold only saveMu.
func (s *Store[T]) policyView() CompactionPolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy
}

// snapshot is one immutable version of the store's state. Readers operate
// on whichever snapshot they loaded for their whole call; mutators never
// modify a published snapshot, they publish a new one. The expensive
// parts are shared between consecutive snapshots: the base segment,
// baseIDs and basePos are reused untouched by every mutation until the
// next compaction, and deltaIDs shares its backing array with its
// predecessor (Add appends one slot past every published prefix, under
// the store's mutation lock).
type snapshot[T any] struct {
	seg *retrieval.Segmented[T]
	// baseIDs maps base position -> stable ID; basePos is its inverse.
	// Both are immutable and rebuilt only by compaction.
	baseIDs []uint64
	basePos map[uint64]int
	// deltaIDs maps delta offset -> stable ID. Add assigns ascending IDs;
	// Upsert re-appends an existing ID, so the slice is sorted only while
	// deltaSorted holds — lookups binary-search it when they can and fall
	// back to a linear scan of the (small, compaction-bounded) delta when
	// they cannot.
	deltaIDs    []uint64
	deltaSorted bool
	// gen is the mutation count that produced this snapshot. It lives
	// inside the snapshot — not in a separate atomic — so contents and
	// generation are always observed together: equal generations really
	// do mean identical contents.
	gen uint64
	// baseVer identifies the base segment: it is replaced exactly when
	// compaction replaces the base, so the incremental saver can tell "the
	// on-disk base section still matches, append a delta frame" from "the
	// base changed, rewrite both sections". Tags are drawn at random (see
	// newBaseTag) rather than counted, so a delta log left stale by a
	// crash between section writes can never collide with a different
	// base that happens to share a counter value. For an opened store the
	// tag resumes from the base section on disk, which is what lets
	// background snapshots stay incremental across process restarts.
	baseVer uint64
	// firstLive is the lowest live global position, or seg.Total() when
	// every row is tombstoned. It is maintained incrementally — Add never
	// lowers it, Remove only advances it when the first live row itself
	// dies — so First costs O(1) instead of rescanning an arbitrarily
	// tombstoned prefix on every call; the advance scans are paid at most
	// once per row across a snapshot chain (amortized O(1) per Remove).
	firstLive int
}

// idAt returns the stable ID of the row at global position pos.
func (sn *snapshot[T]) idAt(pos int) uint64 {
	if bn := len(sn.baseIDs); pos >= bn {
		return sn.deltaIDs[pos-bn]
	}
	return sn.baseIDs[pos]
}

// lookup resolves a stable ID to a live global position. An ID may occur
// more than once across the segments after an Upsert (the old row
// tombstoned, the replacement appended to the delta under the same ID);
// lookup returns the live occurrence if one exists.
func (sn *snapshot[T]) lookup(id uint64) (int, bool) {
	if i, ok := sn.basePos[id]; ok && sn.seg.Alive(i) {
		return i, true
	}
	bn := len(sn.baseIDs)
	if sn.deltaSorted {
		// A sorted delta holds each ID at most once (a second occurrence
		// of the same ID would have broken the strict ascent).
		if j, ok := slices.BinarySearch(sn.deltaIDs, id); ok {
			pos := bn + j
			return pos, sn.seg.Alive(pos)
		}
		return 0, false
	}
	// Upserts made the delta unsorted: scan newest-first so the live
	// replacement shadows its tombstoned predecessors. The delta is
	// bounded by the compaction policy, so this stays small.
	for j := len(sn.deltaIDs) - 1; j >= 0; j-- {
		if sn.deltaIDs[j] == id {
			if pos := bn + j; sn.seg.Alive(pos) {
				return pos, true
			}
		}
	}
	return 0, false
}

// liveIDs returns the stable IDs of the live rows in position order —
// ascending while the position↔ID order isomorphism holds, but possibly
// unsorted after Upserts (which keep an old ID at a new position) until
// the next compaction restores the order.
func (sn *snapshot[T]) liveIDs() []uint64 {
	out := make([]uint64, 0, sn.seg.Live())
	for pos, total := 0, sn.seg.Total(); pos < total; pos++ {
		if sn.seg.Alive(pos) {
			out = append(out, sn.idAt(pos))
		}
	}
	return out
}

// idOrdered reports whether position order equals stable-ID order for
// this snapshot's live rows: the base is always ID-sorted (compaction
// restores the order, see compacted), so the whole snapshot is ordered
// iff the delta is internally sorted and starts past the base's last ID.
// Only Upsert can break this, and only until the next compaction.
func (sn *snapshot[T]) idOrdered() bool {
	return sn.deltaSorted &&
		(len(sn.deltaIDs) == 0 || len(sn.baseIDs) == 0 || sn.deltaIDs[0] > sn.baseIDs[len(sn.baseIDs)-1])
}

// compacted returns the snapshot's contents as a single-segment index
// plus its ID table and metadata block (nil when no row carries
// metadata), reusing the base directly when there is nothing to fold.
// The result is always in ascending-ID order: when Upserts have
// decoupled position order from ID order, the live rows are gathered in
// ID order — re-establishing the isomorphism every fresh base (and every
// saved base section) is built on. It only reads immutable state, so any
// holder of a snapshot may call it without the store lock (Save does).
func (sn *snapshot[T]) compacted() (*retrieval.Index[T], []uint64, *meta.Block) {
	if sn.seg.DeltaLen() == 0 && sn.seg.Tombstones() == 0 {
		return sn.seg.Base(), sn.baseIDs, sn.seg.MetaBlock()
	}
	if sn.idOrdered() {
		ix, blk := sn.seg.CompactSegmented()
		return ix, sn.liveIDs(), blk
	}
	type rowRef struct {
		id  uint64
		pos int
	}
	refs := make([]rowRef, 0, sn.seg.Live())
	for pos, total := 0, sn.seg.Total(); pos < total; pos++ {
		if sn.seg.Alive(pos) {
			refs = append(refs, rowRef{sn.idAt(pos), pos})
		}
	}
	slices.SortFunc(refs, func(a, b rowRef) int {
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	positions := make([]int, len(refs))
	ids := make([]uint64, len(refs))
	for i, r := range refs {
		positions[i] = r.pos
		ids[i] = r.id
	}
	ix, blk, err := sn.seg.GatherSegmented(positions)
	if err != nil {
		// Positions come from the snapshot's own live scan; out-of-range
		// is impossible.
		panic("store: internal: " + err.Error())
	}
	return ix, ids, blk
}

// Store serves a retrieval index under a copy-on-write discipline:
// Search, SearchBatch, Get, Stats and Save are lock-free — they atomically
// load the current snapshot and never block, even while a mutation is in
// flight — and Add/Remove serialize behind a mutex. Mutations are cheap:
// the snapshot is segmented (immutable base + append-only delta +
// tombstones, see retrieval.Segmented), so Add costs O(EmbedCost + dims)
// amortized, Remove one small bitmap copy, and a threshold-triggered
// compaction (see CompactionPolicy) periodically folds the delta and the
// tombstones back into the base — O(n), amortized O(1) per mutation.
type Store[T any] struct {
	model *core.Model[T]
	dist  space.Distance[T]
	codec Codec[T]

	cur atomic.Pointer[snapshot[T]]

	// mu serializes mutations, compaction, and policy changes. nextID is
	// only advanced under mu but is atomic so the lock-free readers (Save,
	// Stats) never touch the lock — a slow Add must not stall a stats
	// probe or a background snapshot.
	mu     sync.Mutex
	nextID atomic.Uint64
	policy CompactionPolicy
	// compactions counts fold-ins; atomic so Stats stays lock-free.
	compactions atomic.Uint64

	// scanRows/scanWaste measure filter-scan work since the last
	// compaction (or open): total rows visible to scans and the subset
	// that is delta rows or tombstones — the extra work a compaction
	// would remove. Two atomic adds per query per shard; the background
	// compactor schedules on their ratio instead of wall clock.
	scanRows  atomic.Uint64
	scanWaste atomic.Uint64
	// lastCompactNanos/lastSnapNanos/lastSnapBytes back the Stats metrics.
	lastCompactNanos atomic.Int64
	lastSnapNanos    atomic.Int64
	lastSnapBytes    atomic.Int64
	// boundRows/boundExact accumulate the shadow-scan counters behind
	// Stats.BoundScannedRows/BoundExactRows. When this store serves as a
	// shard of a Sharded front, the front's own pair accounts the
	// scatter-gather queries instead (the scatter shares one clock across
	// shards, so per-shard attribution does not exist).
	boundRows  atomic.Uint64
	boundExact atomic.Uint64

	// saveMu serializes saves (mutations and searches are never blocked:
	// they use mu and no lock respectively) and guards the incremental
	// bookkeeping below: which base/delta section files describe this
	// store on disk, through which generation, and where the delta log's
	// last durable frame ends.
	saveMu sync.Mutex
	saved  savedShardState
	// mark tracks the manifest this store last wrote (plain stores write
	// a single-shard v3 layout).
	mark layoutMark

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

	// reg is the per-field metadata type registry and track the
	// selectivity tracker behind the filter planner. A plain store owns
	// both; a Sharded front replaces every shard's pair with one shared
	// instance (see newShardedFront), so type checks and selectivity
	// estimates reflect the whole layout.
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

// setFS swaps the filesystem under the save path. Test hook; call before
// any Save/Start, never concurrently with one.
func (s *Store[T]) setFS(fsys fsio.FS) { s.fsys = fsys }

// New builds a store over db: the database is embedded (len(db) ×
// EmbedCost exact distances, the usual index-build price) and objects are
// assigned stable IDs 0..len(db)-1. The codec is only exercised by Save,
// but is required up front so a store that cannot persist fails at
// construction, not at snapshot time.
func New[T any](model *core.Model[T], db []T, dist space.Distance[T], codec Codec[T]) (*Store[T], error) {
	if model == nil {
		return nil, fmt.Errorf("store: nil model")
	}
	if codec == nil {
		return nil, fmt.Errorf("store: nil codec")
	}
	ix, err := retrieval.BuildIndex(db, dist, model)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(db))
	for i := range ids {
		ids[i] = uint64(i)
	}
	s := &Store[T]{model: model, dist: dist, codec: codec, policy: DefaultCompactionPolicy(), reg: meta.NewRegistry(), track: meta.NewTracker()}
	s.nextID.Store(uint64(len(db)))
	s.cur.Store(newBaseSnapshot(ix, ids, 0, newBaseTag(), nil))
	return s, nil
}

// newWithIDs builds a store whose objects carry caller-assigned stable
// IDs, with the ID allocator starting at nextID. ids must be strictly
// ascending and below nextID — the position↔ID order isomorphism every
// layer's determinism argument leans on (see DESIGN.md §8) is established
// here and preserved by every mutation. Unlike New, an empty db is
// accepted (a hash-partitioned shard may simply have no objects yet), in
// which case the index is assembled around the model's dimensionality
// without embedding anything.
func newWithIDs[T any](model *core.Model[T], db []T, ids []uint64, nextID uint64, dist space.Distance[T], codec Codec[T]) (*Store[T], error) {
	if model == nil {
		return nil, fmt.Errorf("store: nil model")
	}
	if codec == nil {
		return nil, fmt.Errorf("store: nil codec")
	}
	if len(ids) != len(db) {
		return nil, fmt.Errorf("store: %d ids for %d objects", len(ids), len(db))
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			return nil, fmt.Errorf("store: object ids not strictly ascending at %d", i)
		}
		if id >= nextID {
			return nil, fmt.Errorf("store: object id %d >= next id %d", id, nextID)
		}
	}
	var ix *retrieval.Index[T]
	var err error
	if len(db) == 0 {
		ix, err = retrieval.FromParts(nil, nil, model.Dims(), dist, model)
	} else {
		ix, err = retrieval.BuildIndex(db, dist, model)
	}
	if err != nil {
		return nil, err
	}
	s := &Store[T]{model: model, dist: dist, codec: codec, policy: DefaultCompactionPolicy(), reg: meta.NewRegistry(), track: meta.NewTracker()}
	s.nextID.Store(nextID)
	s.cur.Store(newBaseSnapshot(ix, ids, 0, newBaseTag(), nil))
	return s, nil
}

// Open restores a single store from path: a current v3 layout with one
// shard (manifest + base section + delta log) or a legacy v1 bundle. No
// exact distances are computed: the embedded vectors travel in the
// files, so opening costs only decode time, and search answers are
// bit-identical to the store that saved it. dist and codec must match
// the ones the layout was saved under (neither is serializable). A v3
// store reopens with its saved base and delta segments intact — no
// compaction happened on the way out — and subsequent Saves to the same
// path continue incrementally.
func Open[T any](path string, dist space.Distance[T], codec Codec[T]) (*Store[T], error) {
	if codec == nil {
		return nil, fmt.Errorf("store: nil codec")
	}
	version, payload, err := readEnvelope(fsio.OS(), path)
	if err != nil {
		return nil, err
	}
	switch version {
	case bundleVersion:
		// Fall through to the v1 decode below.
	case manifestV3Version:
		_, shards, next, canonical, err := openLayoutV3(path, payload, dist, codec)
		if err != nil {
			return nil, err
		}
		if len(shards) != 1 {
			return nil, fmt.Errorf("%w: %s is a %d-shard layout; open it with OpenSharded", ErrVersion, path, len(shards))
		}
		st := shards[0]
		st.nextID.Store(next)
		if canonical {
			st.mark.path = path
			st.mark.regVer = st.reg.Version()
		}
		return st, nil
	case manifestVersion:
		return nil, fmt.Errorf("%w: %s is a sharded manifest (version %d); open it with OpenSharded", ErrVersion, path, version)
	default:
		return nil, fmt.Errorf("%w: %s has version %d, this build reads %d", ErrVersion, path, version, bundleVersion)
	}
	body, err := decodeBundle(path, payload)
	if err != nil {
		return nil, err
	}
	candidates := make([]T, len(body.Candidates))
	for i, raw := range body.Candidates {
		if candidates[i], err = codec.Decode(raw); err != nil {
			return nil, fmt.Errorf("%w: %s: candidate %d: %v", ErrCorrupt, path, i, err)
		}
	}
	model, err := core.Restore(&body.Model, candidates, dist)
	if err != nil {
		return nil, fmt.Errorf("store: %s: restoring model: %w", path, err)
	}
	if model.Dims() != body.Dims {
		return nil, fmt.Errorf("%w: %s: model embeds to %d dims, flat block has %d", ErrCorrupt, path, model.Dims(), body.Dims)
	}
	db := make([]T, len(body.Objects))
	for i, raw := range body.Objects {
		if db[i], err = codec.Decode(raw); err != nil {
			return nil, fmt.Errorf("%w: %s: object %d: %v", ErrCorrupt, path, i, err)
		}
	}
	for i, id := range body.IDs {
		if i > 0 && body.IDs[i-1] >= id {
			return nil, fmt.Errorf("%w: %s: object ids not strictly ascending at %d", ErrCorrupt, path, i)
		}
		if id >= body.NextID {
			return nil, fmt.Errorf("%w: %s: object id %d >= next id %d", ErrCorrupt, path, id, body.NextID)
		}
	}
	ix, err := retrieval.FromParts(db, body.Flat, body.Dims, dist, model)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if len(body.Meta) != 0 && len(body.Meta) != len(body.Objects) {
		return nil, fmt.Errorf("%w: %s: %d metadata records for %d objects", ErrCorrupt, path, len(body.Meta), len(body.Objects))
	}
	s := &Store[T]{model: model, dist: dist, codec: codec, policy: DefaultCompactionPolicy(), reg: meta.NewRegistry(), track: meta.NewTracker()}
	s.reg.Seed(body.MetaKinds)
	s.reg.SeedRows(body.Meta)
	s.nextID.Store(body.NextID)
	s.cur.Store(newBaseSnapshot(ix, body.IDs, 0, newBaseTag(), meta.NewBlock(body.Meta)))
	return s, nil
}

// newBaseSnapshot wraps a single-segment index as a snapshot. Every row
// of a fresh base is live, so firstLive is 0 — which also covers the
// empty store, where 0 == Total(). ids must be ascending (every caller
// constructs or compacts into ID order), so the fresh delta is sorted.
// blk is the base rows' metadata column block (nil when none carries
// metadata), row-aligned with ix.
func newBaseSnapshot[T any](ix *retrieval.Index[T], ids []uint64, gen, baseVer uint64, blk *meta.Block) *snapshot[T] {
	pos := make(map[uint64]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	return &snapshot[T]{seg: retrieval.NewSegmentedWithMeta(ix, blk), baseIDs: ids, basePos: pos, deltaSorted: true, gen: gen, baseVer: baseVer}
}

// Save writes the store's current state to path as a v3 layout (manifest
// + base section + delta log), incrementally: when path was saved before
// by this store and the base segment has not been replaced by a
// compaction since, only a delta frame holding the rows and tombstones
// added since the last save is appended — O(dirty delta), not O(n). It
// runs against one immutable snapshot, never blocks searches or
// mutations, and never observes a torn state — a Save racing an Add
// simply captures either the before or the after. Concurrent Saves
// serialize among themselves. saveV1 in bundle.go preserves the legacy
// single-file writer for the compatibility fixtures.
func (s *Store[T]) Save(path string) error {
	_, err := s.snapshotTo(path)
	return err
}

// saveV1 writes the store's compacted state as a legacy version-1
// single-file bundle. Retained for the read-compatibility tests and the
// fuzz-corpus generator; production saves write the v3 layout.
func (s *Store[T]) saveV1(path string) error {
	// Load the snapshot first: nextID only grows, and Add advances it
	// before publishing the snapshot that uses the new ID, so the pair
	// (snapshot, nextID-read-after) can never under-count.
	snap := s.cur.Load()
	nextID := s.nextID.Load()
	ix, ids, blk := snap.compacted()

	candObjs := s.model.Candidates()
	candidates := make([][]byte, len(candObjs))
	var err error
	for i, c := range candObjs {
		if candidates[i], err = s.codec.Encode(c); err != nil {
			return fmt.Errorf("store: encoding candidate %d: %w", i, err)
		}
	}
	objs := ix.Objects()
	objects := make([][]byte, len(objs))
	for i, x := range objs {
		if objects[i], err = s.codec.Encode(x); err != nil {
			return fmt.Errorf("store: encoding object %d: %w", i, err)
		}
	}
	flat, dims := ix.Flat()
	return writeBundle(s.fs(), path, &bundleBody{
		Model:      *s.model.SelfSnapshot(),
		Candidates: candidates,
		Dims:       dims,
		Flat:       flat,
		Objects:    objects,
		IDs:        ids,
		NextID:     nextID,
		Meta:       blockRows(blk),
		MetaKinds:  s.reg.Kinds(),
	})
}

// blockRows materializes a metadata column block back into row records
// for serialization; nil in, nil out.
func blockRows(blk *meta.Block) []meta.Map {
	if blk == nil {
		return nil
	}
	rows := make([]meta.Map, blk.Rows())
	for i := range rows {
		rows[i] = blk.Row(i)
	}
	return rows
}

// Search runs a filter-and-refine query against the current snapshot,
// through the same candidate-merge engine the sharded store uses (a
// plain store is the one-snapshot case), so the two layouts rank on the
// same (distance, stable ID) total order and cannot drift apart.
// Results carry stable IDs. A store smaller than k — including one
// drained empty by removals — answers with what it has (possibly zero
// results); that is not an error.
func (s *Store[T]) Search(q T, k, p int) ([]Result, retrieval.Stats, error) {
	return s.SearchFiltered(q, k, p, nil)
}

// SearchFiltered is Search restricted to the rows matching pred, with
// the predicate evaluated below top-p truncation: the p filter-phase
// survivors are the p best matching live rows, so a selective filter
// never starves the candidate set. A nil pred is exactly Search. The
// predicate must have been compiled against this store's registry (see
// CompileFilter).
func (s *Store[T]) SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]Result, retrieval.Stats, error) {
	snap := s.cur.Load()
	res, st, err := searchSnapshots(s.model, s.dist, snap.seg.Dims(), []*snapshot[T]{snap}, q, k, p, true, pred, s.track)
	if err != nil {
		return nil, retrieval.Stats{}, err
	}
	s.noteScan(snap)
	s.noteBound(st.Timing)
	return res, st, nil
}

// SearchBatch pipelines a whole query batch across the worker pool. The
// entire batch runs against one snapshot, so every query in it sees the
// same store version even under concurrent mutation; the error of the
// lowest-indexed failing query fails the batch deterministically.
func (s *Store[T]) SearchBatch(queries []T, k, p int) ([][]Result, []retrieval.Stats, error) {
	return s.SearchBatchFiltered(queries, k, p, nil)
}

// SearchBatchFiltered is SearchBatch with every query in the batch
// restricted to the rows matching pred (nil for no restriction).
func (s *Store[T]) SearchBatchFiltered(queries []T, k, p int, pred *meta.Predicate) ([][]Result, []retrieval.Stats, error) {
	if err := retrieval.CheckKP(k, p); err != nil {
		return nil, nil, err
	}
	snap := s.cur.Load()
	snaps := []*snapshot[T]{snap}
	results := make([][]Result, len(queries))
	stats := make([]retrieval.Stats, len(queries))
	errs := make([]error, len(queries))
	par.For(len(queries), 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i], stats[i], errs[i] = searchSnapshots(s.model, s.dist, snap.seg.Dims(), snaps, queries[i], k, p, false, pred, s.track)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		s.noteScan(snap)
		s.noteBound(stats[i].Timing)
	}
	return results, stats, nil
}

// CompileFilter parses and type-checks a JSON filter tree against this
// store's field-type registry. nil/absent filters compile to nil.
func (s *Store[T]) CompileFilter(raw []byte) (*meta.Predicate, error) {
	return meta.CompileFilter(raw, s.reg.Kinds())
}

// FilterStats snapshots the filter planner's state: per-field observed
// selectivity and the inline/bitmap plan counters.
func (s *Store[T]) FilterStats() meta.TrackerStats {
	return s.track.Snapshot()
}

// noteScan accounts one filter scan over the given snapshot toward the
// measured delta-scan share (see Stats.DeltaScanShare).
func (s *Store[T]) noteScan(sn *snapshot[T]) {
	s.scanRows.Add(uint64(sn.seg.Total()))
	s.scanWaste.Add(uint64(sn.seg.DeltaLen() + sn.seg.Tombstones()))
}

// scanCounters returns the cumulative scan-work counters (rows visited,
// rows of it wasted on delta/tombstones) since the last compaction.
func (s *Store[T]) scanCounters() (rows, waste uint64) {
	return s.scanRows.Load(), s.scanWaste.Load()
}

// noteBound accounts one query's shadow-scan counters toward the
// store's lifetime prune-rate statistics. Zero counters (no screen ran)
// add nothing.
func (s *Store[T]) noteBound(t retrieval.Timing) {
	if t.BoundScannedRows > 0 {
		s.boundRows.Add(uint64(t.BoundScannedRows))
	}
	if t.BoundExactRows > 0 {
		s.boundExact.Add(uint64(t.BoundExactRows))
	}
}

// cand is one surviving filter-phase candidate of a scatter-gather
// search: the stable ID (the cross-shard tie-break), the filter distance
// (the cross-shard merge key), and the object itself, captured from the
// same snapshot the filter scan ran on — so the gather phase never has to
// touch the shard again and cannot observe a different store version.
type cand[T any] struct {
	id    uint64
	fdist float64
	obj   T
}

// filterLiveMatch runs the filter phase of one shard against this
// immutable snapshot: the p best live rows matching pred (nil matches
// everything), in ascending (filter distance, stable ID) order, plus
// the count of matching live rows and the evaluation plan actually
// used. Positions order rows exactly like IDs do (see DESIGN.md §8)
// except between an Upsert and the next compaction, so mapping the
// segmented scan's (distance, position) ranking to (distance, ID)
// preserves it bit for bit whenever filter distances are distinct —
// exact float64 ties across distinct rows are the only case where the
// two orders could disagree, and only for upserted rows.
func (sn *snapshot[T]) filterLiveMatch(qvec, weights []float64, p int, parallel bool, clk *retrieval.FilterClock, pred *meta.Predicate, plan meta.Plan) ([]cand[T], int, meta.Plan) {
	ns, matched, used := sn.seg.FilterLiveMatch(qvec, weights, p, parallel, clk, pred, plan)
	out := make([]cand[T], len(ns))
	for i, n := range ns {
		out[i] = cand[T]{id: sn.idAt(n.Index), fdist: n.Distance, obj: sn.seg.Object(n.Index)}
	}
	return out, matched, used
}

// searchSnapshots is the one store-layer search engine: it scatters the
// filter phase across the given snapshots (one for a plain store, one
// per shard for a sharded one), merges the per-snapshot candidates on
// the (filter distance, stable ID) total order, and refines the
// surviving p exactly once on the (exact distance, stable ID) order.
// Both layouts answer through this function, so their results, stats,
// and error contract cannot drift apart.
//
// pred, when non-nil, restricts the filter phase to matching rows: each
// snapshot evaluates the predicate below its own top-p (under the plan
// the tracker picks for its base segment), and the global p clamps to
// the total matching-live count — the filtered analogue of clamping to
// the live count, which keeps the sharded gather bit-identical to the
// unsharded scan over the same contents. track (nil-safe) observes the
// query's selectivity per referenced field and counts plan choices.
func searchSnapshots[T any](model *core.Model[T], dist space.Distance[T], dims int, snaps []*snapshot[T], q T, k, p int, parallel bool, pred *meta.Predicate, track *meta.Tracker) ([]Result, retrieval.Stats, error) {
	// Validation errors are the retrieval package's own, byte for byte:
	// the client-visible error contract must not depend on the layout.
	if err := retrieval.CheckKP(k, p); err != nil {
		return nil, retrieval.Stats{}, err
	}
	var t retrieval.Timing
	t0 := time.Now()
	qvec := model.Embed(q)
	if len(qvec) != dims {
		return nil, retrieval.Stats{}, retrieval.QueryDimsError(len(qvec), dims)
	}
	var weights []float64
	if w, ok := any(model).(retrieval.Weighter); ok {
		weights = w.QueryWeights(qvec)
	}
	t.EmbedNanos = time.Since(t0).Nanoseconds()

	// Scatter: every snapshot filters with the same qvec/weights. One
	// goroutine per shard; large shards fan out further inside
	// FilterLive. One clock serves every shard — its fields are atomic.
	var clk retrieval.FilterClock
	lists := make([][]cand[T], len(snaps))
	matches := make([]int, len(snaps))
	scatter := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var plan meta.Plan
			if pred != nil {
				plan = track.Choose(pred, snaps[i].seg.BaseSize())
			}
			var used meta.Plan
			lists[i], matches[i], used = snaps[i].filterLiveMatch(qvec, weights, p, parallel, &clk, pred, plan)
			if pred != nil {
				track.CountPlan(used)
			}
		}
	}
	if parallel && len(snaps) > 1 {
		par.For(len(snaps), 2, scatter)
	} else {
		scatter(0, len(snaps))
	}
	clk.AddTo(&t)

	// Gather: merge on the (filter distance, ID) total order — no
	// duplicate keys, so the top-p is a unique set in a unique order for
	// any shard count — and truncate to what one big store would refine.
	t0 = time.Now()
	live, matched, n := 0, 0, 0
	for i, sn := range snaps {
		live += sn.seg.Live()
		matched += matches[i]
		n += len(lists[i])
	}
	merged := make([]cand[T], 0, n)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	slices.SortFunc(merged, func(a, b cand[T]) int {
		switch {
		case a.fdist < b.fdist:
			return -1
		case a.fdist > b.fdist:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	// Clamp to the matching-live count (== the live count when pred is
	// nil): exactly the p a single store holding the same contents would
	// refine.
	if p > matched {
		p = matched
	}
	if len(merged) > p {
		merged = merged[:p]
	}
	t.MergeNanos += time.Since(t0).Nanoseconds()
	if pred != nil && track != nil {
		track.Observe(pred.Fields(), matched, live)
	}

	// Refine: one exact distance per surviving candidate, ranked on the
	// (exact distance, ID) total order.
	t0 = time.Now()
	refined := make([]Result, len(merged))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			refined[i] = Result{ID: merged[i].id, Distance: dist(q, merged[i].obj)}
		}
	}
	if parallel {
		par.For(len(merged), minParallelRefine, fill)
	} else {
		fill(0, len(merged))
	}
	slices.SortFunc(refined, func(a, b Result) int {
		switch {
		case a.Distance < b.Distance:
			return -1
		case a.Distance > b.Distance:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	if k > len(refined) {
		k = len(refined)
	}
	t.RefineNanos = time.Since(t0).Nanoseconds()
	return refined[:k], retrieval.Stats{
		EmbedDistances:  model.EmbedCost(),
		RefineDistances: len(merged),
		Timing:          t,
	}, nil
}

// First returns the live stored object with the lowest stable ID, for
// callers that need a representative sample — the serving CLI derives the
// expected query shape from it. It is O(1) while the position↔ID order
// isomorphism holds: the snapshot tracks its lowest live position
// incrementally instead of rescanning a possibly heavily tombstoned
// prefix. After an Upsert (which keeps an old ID at a new position) the
// lowest live position may not hold the lowest live ID, so First scans —
// O(n) only between an upsert and the next compaction.
func (s *Store[T]) First() (T, bool) {
	x, _, ok := s.firstLive()
	return x, ok
}

// firstLive returns the lowest-ID live object together with its ID.
func (s *Store[T]) firstLive() (T, uint64, bool) {
	snap := s.cur.Load()
	if snap.idOrdered() {
		if fl := snap.firstLive; fl < snap.seg.Total() {
			return snap.seg.Object(fl), snap.idAt(fl), true
		}
		var zero T
		return zero, 0, false
	}
	best, bestPos, found := uint64(0), 0, false
	for pos, total := 0, snap.seg.Total(); pos < total; pos++ {
		if snap.seg.Alive(pos) {
			if id := snap.idAt(pos); !found || id < best {
				best, bestPos, found = id, pos, true
			}
		}
	}
	if !found {
		var zero T
		return zero, 0, false
	}
	return snap.seg.Object(bestPos), best, true
}

// Sample returns a representative object of the store's domain: the
// lowest-ID live object when one exists, and otherwise one of the
// model's candidate objects — which were drawn from the training
// database and therefore share the stored objects' shape. Unlike First
// it succeeds even on a store drained empty by removals, which is what
// lets a serving process derive the expected query shape from any
// bundle without an operator-supplied flag.
func (s *Store[T]) Sample() (T, bool) {
	if x, _, ok := s.firstLive(); ok {
		return x, true
	}
	if cands := s.model.Candidates(); len(cands) > 0 {
		return cands[0], true
	}
	var zero T
	return zero, false
}

// Get returns the object with the given stable ID.
func (s *Store[T]) Get(id uint64) (T, bool) {
	snap := s.cur.Load()
	pos, ok := snap.lookup(id)
	if !ok {
		var zero T
		return zero, false
	}
	return snap.seg.Object(pos), true
}

// Metadata returns a copy of the metadata record of the object with the
// given stable ID (nil when the object carries none); the bool reports
// whether the ID is live.
func (s *Store[T]) Metadata(id uint64) (meta.Map, bool) {
	snap := s.cur.Load()
	pos, ok := snap.lookup(id)
	if !ok {
		return nil, false
	}
	return snap.seg.Metadata(pos).Clone(), true
}

// Add embeds and inserts x (EmbedCost exact distances plus an amortized
// O(dims) append to the delta segment) and returns its stable ID.
// Concurrent searches keep running against the previous snapshot until
// the new one is published. An object that embeds to the wrong
// dimensionality is rejected with an error and the store is unchanged.
func (s *Store[T]) Add(x T) (uint64, error) {
	return s.AddMeta(x, nil)
}

// AddMeta is Add carrying the new object's metadata record (nil for
// none). The record is validated against the per-field type registry
// before anything is inserted: a kind conflict returns a *meta.TypeError
// and leaves the store unchanged. md is retained; callers must not
// modify it afterwards.
func (s *Store[T]) AddMeta(x T, md meta.Map) (uint64, error) {
	if err := s.reg.Register(md); err != nil {
		return 0, err
	}
	// Embed before locking: the EmbedCost exact distances are most of an
	// add's work, and concurrent adds must not queue behind each other's.
	v := s.model.Embed(x)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	seg, _, err := old.seg.AddWithVectorMeta(x, v, md)
	if err != nil {
		return 0, err
	}
	id := s.nextID.Add(1) - 1
	s.publishAdd(old, seg, id)
	return id, nil
}

// addAssignedLocked inserts x — already embedded as v, already validated
// against the store's dimensionality and (for md) the type registry —
// under a caller-chosen stable ID. The caller must hold s.mu and must
// assign IDs in strictly ascending order per store (the Sharded
// allocator guarantees both: it hands out globally ascending IDs and
// acquires the owning shard's mutex before releasing the allocation
// lock, so insertion order equals allocation order within every shard).
func (s *Store[T]) addAssignedLocked(x T, v []float64, id uint64, md meta.Map) error {
	if id < s.nextID.Load() {
		return fmt.Errorf("store: assigned id %d below allocator %d", id, s.nextID.Load())
	}
	old := s.cur.Load()
	seg, _, err := old.seg.AddWithVectorMeta(x, v, md)
	if err != nil {
		return err
	}
	s.nextID.Store(id + 1)
	s.publishAdd(old, seg, id)
	return nil
}

// publishAdd publishes the snapshot for one append. Callers hold mu.
// firstLive carries over unchanged: an append never precedes the lowest
// live row, and on an empty store old.firstLive == old Total, which is
// exactly the new row's position.
func (s *Store[T]) publishAdd(old *snapshot[T], seg *retrieval.Segmented[T], id uint64) {
	s.cur.Store(s.maybeCompact(&snapshot[T]{
		seg:     seg,
		baseIDs: old.baseIDs, basePos: old.basePos,
		// Appending to the shared backing is safe: every published
		// snapshot's deltaIDs prefix ends before this slot, and mu
		// serializes the writers.
		deltaIDs:    append(old.deltaIDs, id),
		deltaSorted: old.deltaSorted && (len(old.deltaIDs) == 0 || id > old.deltaIDs[len(old.deltaIDs)-1]),
		gen:         old.gen + 1,
		firstLive:   old.firstLive,
		baseVer:     old.baseVer,
	}))
}

// Upsert atomically replaces the object with the given stable ID: the
// old row is tombstoned and x is appended to the delta under the same
// ID, in one published snapshot and one generation bump — a reader
// observes either the old object or the new one, never neither nor
// both. The ID is preserved (this is what a mutating workload's PUT
// wants); because the replacement lands at the end of the delta, the
// position↔ID order isomorphism is suspended until the next compaction
// folds the rows back into ID order (see compacted). An unknown ID is
// ErrUnknownID; an object embedding to the wrong width is rejected
// before anything is tombstoned, leaving the store unchanged.
func (s *Store[T]) Upsert(id uint64, x T) error {
	return s.UpsertMeta(id, x, nil)
}

// UpsertMeta is Upsert carrying the replacement's metadata record. The
// record atomically replaces the old row's whole record — an upsert
// without metadata clears it; stale fields of the old record are never
// merged in. md is validated against the type registry before anything
// is tombstoned.
func (s *Store[T]) UpsertMeta(id uint64, x T, md meta.Map) error {
	if err := s.reg.Register(md); err != nil {
		return err
	}
	v := s.model.Embed(x)
	return s.upsertEmbedded(id, x, v, md)
}

// upsertEmbedded is UpsertMeta with the embedding already computed and
// the metadata already validated (the sharded store embeds and
// registers outside every lock, then routes by ID).
func (s *Store[T]) upsertEmbedded(id uint64, x T, v []float64, md meta.Map) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	if len(v) != old.seg.Dims() {
		return retrieval.ObjectDimsError(len(v), old.seg.Dims())
	}
	pos, ok := old.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	seg, err := old.seg.Remove(pos)
	if err != nil {
		return err
	}
	seg, _, err = seg.AddWithVectorMeta(x, v, md)
	if err != nil {
		return err
	}
	// The replaced row may have been the first live one; the appended
	// replacement is live at the very end, so the advance always stops.
	fl := old.firstLive
	if pos == fl {
		for fl++; fl < seg.Total() && !seg.Alive(fl); fl++ {
		}
	}
	s.cur.Store(s.maybeCompact(&snapshot[T]{
		seg:     seg,
		baseIDs: old.baseIDs, basePos: old.basePos,
		deltaIDs:    append(old.deltaIDs, id),
		deltaSorted: old.deltaSorted && (len(old.deltaIDs) == 0 || id > old.deltaIDs[len(old.deltaIDs)-1]),
		gen:         old.gen + 1,
		firstLive:   fl,
		baseVer:     old.baseVer,
	}))
	return nil
}

// Remove deletes the object with the given stable ID by tombstoning its
// row — O(1) apart from one small bitmap copy; the row's storage is
// reclaimed by the next compaction. Other objects keep their IDs and
// positions.
func (s *Store[T]) Remove(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	pos, ok := old.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	seg, err := old.seg.Remove(pos)
	if err != nil {
		return err
	}
	// A removed row can only move firstLive when it was the first live row
	// itself (pos is alive, so pos >= old.firstLive always); the advance
	// scans each position at most once across the whole snapshot chain, so
	// Remove stays O(1) amortized and First O(1) worst-case.
	fl := old.firstLive
	if pos == fl {
		for fl++; fl < seg.Total() && !seg.Alive(fl); fl++ {
		}
	}
	s.cur.Store(s.maybeCompact(&snapshot[T]{
		seg:     seg,
		baseIDs: old.baseIDs, basePos: old.basePos,
		deltaIDs:    old.deltaIDs,
		deltaSorted: old.deltaSorted,
		gen:         old.gen + 1,
		firstLive:   fl,
		baseVer:     old.baseVer,
	}))
	return nil
}

// SetQuantization turns the shadow block on (bits = 8) or off (bits =
// 0); any other width is rejected. Quantization is a pure scan
// accelerator — results stay bit-identical to the exact scan. A change
// bumps the generation and refreshes the base tag, so the next save
// rewrites the base section with (or without) the shadow block. A base
// segment that clears the gate (at least 16,384 rows and 16 dimensions,
// DESIGN §16) gets its shadow built now — O(n·dims) once; every later
// mutation maintains it incrementally, and compaction re-quantizes the
// fresh base. Any other base stays dormant, scanned exactly, until a
// compaction folds one that clears the gate.
func (s *Store[T]) SetQuantization(bits int) error {
	if bits != 0 && bits != 8 {
		return fmt.Errorf("store: quantize bits = %d, want 0 (off) or 8", bits)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	if old.seg.QuantBits() == bits {
		return nil
	}
	var seg *retrieval.Segmented[T]
	if bits == 0 {
		seg = old.seg.Dequantize()
	} else {
		var err error
		seg, err = old.seg.Quantize()
		if err != nil {
			return err
		}
	}
	// A quantization change is a real mutation: the base section on disk
	// no longer carries the right shadow. Bumping gen makes the next
	// save run, and the fresh base tag turns it into a full rewrite.
	n := *old
	n.seg = seg
	n.gen = old.gen + 1
	n.baseVer = newBaseTag()
	s.cur.Store(&n)
	return nil
}

// SetCompactionPolicy replaces the thresholds that drive automatic
// compaction on the mutation path. It does not trigger a compaction by
// itself; the next mutation applies the new policy.
func (s *Store[T]) SetCompactionPolicy(p CompactionPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// Compact folds the delta segment and the tombstones into a fresh base
// immediately, regardless of thresholds, and reports whether there was
// anything to fold. Searches are never blocked: they keep hitting the
// old snapshot until the compacted one is published. The store's own
// background compactor (see Start) calls this when the measured
// delta-scan share crosses its threshold, so scans stay clean and Save
// stays cheap.
func (s *Store[T]) Compact() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.cur.Load()
	if snap.seg.DeltaLen() == 0 && snap.seg.Tombstones() == 0 {
		return false
	}
	s.cur.Store(s.runCompaction(snap))
	return true
}

// maybeCompact applies the compaction policy to a snapshot about to be
// published. Callers hold mu.
func (s *Store[T]) maybeCompact(sn *snapshot[T]) *snapshot[T] {
	base, delta, dead := sn.seg.BaseSize(), sn.seg.DeltaLen(), sn.seg.Tombstones()
	deltaTrig := delta >= max(s.policy.MinDelta, 1) && float64(delta) >= s.policy.DeltaFrac*float64(base)
	deadTrig := dead >= max(s.policy.MinDead, 1) && float64(dead) >= s.policy.DeadFrac*float64(base+delta)
	if !deltaTrig && !deadTrig {
		return sn
	}
	return s.runCompaction(sn)
}

// runCompaction compacts sn, accounting the duration and resetting the
// scan-degradation counters (the new base has nothing to degrade).
// Callers hold mu.
func (s *Store[T]) runCompaction(sn *snapshot[T]) *snapshot[T] {
	t0 := nowNanos()
	out := compactSnapshot(sn)
	s.compactions.Add(1)
	s.lastCompactNanos.Store(nowNanos() - t0)
	s.scanRows.Store(0)
	s.scanWaste.Store(0)
	return out
}

// compactSnapshot returns the compacted equivalent of sn: same live
// contents, same generation, single segment, fresh (ID-ordered) tables,
// and a fresh base tag so the incremental saver knows the on-disk base
// section no longer matches.
func compactSnapshot[T any](sn *snapshot[T]) *snapshot[T] {
	ix, ids, blk := sn.compacted()
	out := newBaseSnapshot(ix, ids, sn.gen, newBaseTag(), blk)
	if sn.seg.QuantBits() > 0 {
		// Carry quantization across the fold: fresh boundaries over the
		// fresh base, so the shadow stays tight as the data drifts, and
		// the gate is applied to the new base's size. A base that cannot
		// be quantized (possible only with non-finite vectors) falls back
		// to the exact scan.
		if seg, err := out.seg.Quantize(); err == nil {
			out.seg = seg
		}
	}
	return out
}

// Size returns the number of live stored objects.
func (s *Store[T]) Size() int { return s.cur.Load().seg.Live() }

// Dims returns the embedding dimensionality.
func (s *Store[T]) Dims() int { return s.cur.Load().seg.Dims() }

// Generation returns the mutation counter: it starts at 0 and increments
// on every Add/Remove, so equal generations mean identical contents.
func (s *Store[T]) Generation() uint64 { return s.cur.Load().gen }

// Stats returns a point-in-time summary. The segment fields come from one
// snapshot load, so they are mutually consistent.
func (s *Store[T]) Stats() Stats {
	snap := s.cur.Load()
	rows, waste := s.scanCounters()
	var share float64
	if rows > 0 {
		share = float64(waste) / float64(rows)
	}
	st := Stats{
		Size:                snap.seg.Live(),
		Dims:                snap.seg.Dims(),
		Generation:          snap.gen,
		NextID:              s.nextID.Load(),
		BaseSize:            snap.seg.BaseSize(),
		DeltaSize:           snap.seg.DeltaLen(),
		Tombstones:          snap.seg.Tombstones(),
		Compactions:         s.compactions.Load(),
		Shards:              1,
		LastCompactionNanos: s.lastCompactNanos.Load(),
		LastSnapshotNanos:   s.lastSnapNanos.Load(),
		LastSnapshotBytes:   s.lastSnapBytes.Load(),
		DeltaScanShare:      share,
		QuantBits:           snap.seg.QuantBits(),
		BoundScannedRows:    s.boundRows.Load(),
		BoundExactRows:      s.boundExact.Load(),
		ShadowBytes:         int64(snap.seg.ShadowBytes()),
	}
	s.health.fill(&st)
	return st
}

// ShardStats returns per-shard statistics. A plain Store has no shard
// structure to report, so it returns nil; Sharded returns one entry per
// shard. (Part of the Backend interface.)
func (s *Store[T]) ShardStats() []Stats { return nil }
