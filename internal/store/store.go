package store

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"qse/internal/core"
	"qse/internal/meta"
	"qse/internal/retrieval"
	"qse/internal/space"
)

// ErrUnknownID is returned by Remove for an ID that is not (or no longer)
// in the store. The HTTP layer maps it to 404.
var ErrUnknownID = errors.New("store: unknown object id")

// Result is one retrieved neighbor, addressed by stable ID rather than by
// database position: positions shift when objects are removed, IDs never
// do, so IDs are the only handle that survives a mutating workload.
type Result = retrieval.Result

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
	// Shards is the store's shard count S (1 in a ShardStats row). The
	// segment fields above are sums over the shards.
	Shards int
	// LastCompactionNanos is the wall-clock duration of the most recent
	// compaction (0 until one has run): the maximum over the shards — the
	// worst pause a query could have raced.
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
	// Zero when no searches have run. The store's share combines all
	// shards' scan counters.
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
	// BoundScannedRows counts rows the seeded screen covered;
	// BoundVisitedRows the subset whose codes its walk summed (the rest
	// sat in skipped blocks); BoundExactRows the subset the bounds could
	// not exclude, which the scan then evaluated against the exact
	// float64 block — exact/scanned is the measured prune rate. All
	// accumulate over the store's lifetime; a ShardStats row, like every
	// layout-wide field there, leaves them zero. QuantBits is the
	// shards' common setting.
	QuantBits        int
	BoundScannedRows uint64
	BoundVisitedRows uint64
	BoundExactRows   uint64
	// ShadowBytes is the resident size of the shadow block: base and
	// delta codes, the base's cluster-order map and its blocks' boxes; 0
	// when quantization is off or dormant — a base below the gate
	// (DESIGN §16) carries no shadow.
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
func (s *shard[T]) policyView() CompactionPolicy {
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
	// deltaIDs maps delta offset -> stable ID, in insertion order: an
	// Upsert re-appends an existing ID after its tombstoned predecessor.
	deltaIDs []uint64
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
// lookup returns the live occurrence if one exists. The delta is scanned
// newest-first, so a live replacement is found before its tombstoned
// predecessors; the compaction policy bounds its length.
func (sn *snapshot[T]) lookup(id uint64) (int, bool) {
	if i, ok := sn.basePos[id]; ok && sn.seg.Alive(i) {
		return i, true
	}
	bn := len(sn.baseIDs)
	for j := len(sn.deltaIDs) - 1; j >= 0; j-- {
		if sn.deltaIDs[j] == id {
			if pos := bn + j; sn.seg.Alive(pos) {
				return pos, true
			}
		}
	}
	return 0, false
}

// liveIDs returns the stable IDs of the live rows in position order.
func (sn *snapshot[T]) liveIDs() []uint64 {
	out := make([]uint64, 0, sn.seg.Live())
	for pos, total := 0, sn.seg.Total(); pos < total; pos++ {
		if sn.seg.Alive(pos) {
			out = append(out, sn.idAt(pos))
		}
	}
	return out
}

// shard is one hash partition of a Store under a copy-on-write
// discipline: readers atomically load the current snapshot and never
// block, even while a mutation is in flight, and mutations serialize
// behind the shard's mutex. Mutations are cheap: the snapshot is
// segmented (immutable base + append-only delta + tombstones, see
// retrieval.Segmented), so an add costs an amortized O(dims) append,
// Remove one small bitmap copy, and a threshold-triggered compaction
// (see CompactionPolicy) periodically folds the delta and the tombstones
// back into the base — O(n), amortized O(1) per mutation. A shard holds
// only per-shard state; the model, the ID allocator, the metadata
// registry and everything layout-wide belong to the Store in front of it.
type shard[T any] struct {
	cur atomic.Pointer[snapshot[T]]

	// mu serializes mutations, compaction, and policy changes.
	mu     sync.Mutex
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
	// lastCompactNanos backs Stats.LastCompactionNanos.
	lastCompactNanos atomic.Int64

	// saveMu serializes saves (mutations and searches are never blocked:
	// they use mu and no lock respectively) and guards the incremental
	// bookkeeping below: which base/delta section files describe this
	// shard on disk, through which generation, and where the delta log's
	// last durable frame ends.
	saveMu sync.Mutex
	saved  savedShardState
}

// newShard builds a shard over db with the given distinct stable IDs,
// row for row. The index aliases db. An empty db is accepted (a hash
// partition may simply have no objects yet): the index is then assembled
// around the model's dimensionality without embedding anything.
func newShard[T any](model *core.Model[T], db []T, ids []uint64, dist space.Distance[T]) (*shard[T], error) {
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
	sh := &shard[T]{policy: DefaultCompactionPolicy()}
	sh.cur.Store(newBaseSnapshot(ix, ids, 0, newBaseTag(), nil))
	return sh, nil
}

// newBaseSnapshot wraps a single-segment index as a snapshot with an
// empty delta. ids are the rows' distinct stable IDs and blk their
// metadata column block (nil when none carries metadata), both
// row-aligned with ix.
func newBaseSnapshot[T any](ix *retrieval.Index[T], ids []uint64, gen, baseVer uint64, blk *meta.Block) *snapshot[T] {
	pos := make(map[uint64]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	return &snapshot[T]{seg: retrieval.NewSegmentedWithMeta(ix, blk), baseIDs: ids, basePos: pos, gen: gen, baseVer: baseVer}
}

// noteScan accounts one filter scan over seg, a snapshot's segmented
// index, toward the measured delta-scan share (see Stats.DeltaScanShare).
func (s *shard[T]) noteScan(seg *retrieval.Segmented[T]) {
	s.scanRows.Add(uint64(seg.Total()))
	s.scanWaste.Add(uint64(seg.DeltaLen() + seg.Tombstones()))
}

// scanCounters returns the cumulative scan-work counters (rows visited,
// rows of it wasted on delta/tombstones) since the last compaction.
func (s *shard[T]) scanCounters() (rows, waste uint64) {
	return s.scanRows.Load(), s.scanWaste.Load()
}

// Get returns the object with the given stable ID.
func (s *shard[T]) Get(id uint64) (T, bool) {
	snap := s.cur.Load()
	pos, ok := snap.lookup(id)
	if !ok {
		var zero T
		return zero, false
	}
	return snap.seg.Object(pos), true
}

// Metadata returns the metadata record of the object with the given
// stable ID, materialized fresh from the shard's columns (nil when the
// object carries none); the bool reports whether the ID is live.
func (s *shard[T]) Metadata(id uint64) (meta.Map, bool) {
	snap := s.cur.Load()
	pos, ok := snap.lookup(id)
	if !ok {
		return nil, false
	}
	return snap.seg.Metadata(pos), true
}

// add inserts x — already embedded as v, already validated against the
// store's dimensionality and (for md) the type registry — under a fresh
// stable ID the Store's allocator drew.
func (s *shard[T]) add(x T, v []float64, id uint64, md meta.Map) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	seg, _, err := old.seg.AddWithVectorMeta(x, v, md)
	if err != nil {
		return err
	}
	s.cur.Store(s.maybeCompact(&snapshot[T]{
		seg:     seg,
		baseIDs: old.baseIDs, basePos: old.basePos,
		// Appending to the shared backing is safe: every published
		// snapshot's deltaIDs prefix ends before this slot, and mu
		// serializes the writers.
		deltaIDs: append(old.deltaIDs, id),
		gen:      old.gen + 1,
		baseVer:  old.baseVer,
	}))
	return nil
}

// upsertEmbedded atomically replaces the object with the given stable
// ID: the old row is tombstoned and x — already embedded as v — is
// appended to the delta under the same ID, with md as its whole metadata
// record, in one published snapshot and one generation bump. A reader
// observes either the old object or the new one, never neither nor both.
// md's fields are registered in reg only once the ID is known to be live, under the
// mutex and before the tombstone, so a refused upsert — an unknown ID
// (ErrUnknownID) or a kind conflict — changes neither the shard nor the
// registry.
func (s *shard[T]) upsertEmbedded(id uint64, x T, v []float64, md meta.Map, reg *meta.Registry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	pos, ok := old.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	if err := reg.Register(md); err != nil {
		return err
	}
	seg, err := old.seg.Remove(pos)
	if err != nil {
		return err
	}
	seg, _, err = seg.AddWithVectorMeta(x, v, md)
	if err != nil {
		return err
	}
	s.cur.Store(s.maybeCompact(&snapshot[T]{
		seg:     seg,
		baseIDs: old.baseIDs, basePos: old.basePos,
		deltaIDs: append(old.deltaIDs, id),
		gen:      old.gen + 1,
		baseVer:  old.baseVer,
	}))
	return nil
}

// Remove deletes the object with the given stable ID by tombstoning its
// row — O(1) apart from one small bitmap copy; the row's storage is
// reclaimed by the next compaction. Other objects keep their IDs and
// positions.
func (s *shard[T]) Remove(id uint64) error {
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
	s.cur.Store(s.maybeCompact(&snapshot[T]{
		seg:     seg,
		baseIDs: old.baseIDs, basePos: old.basePos,
		deltaIDs: old.deltaIDs,
		gen:      old.gen + 1,
		baseVer:  old.baseVer,
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
func (s *shard[T]) SetQuantization(bits int) error {
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
func (s *shard[T]) SetCompactionPolicy(p CompactionPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// Compact folds the delta segment and the tombstones into a fresh base
// immediately, regardless of thresholds, and reports whether there was
// anything to fold. Searches are never blocked: they keep hitting the
// old snapshot until the compacted one is published. The background
// compactor (see Store.Start) calls this when the measured
// delta-scan share crosses its threshold, so scans stay clean and Save
// stays cheap.
func (s *shard[T]) Compact() bool {
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
func (s *shard[T]) maybeCompact(sn *snapshot[T]) *snapshot[T] {
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
func (s *shard[T]) runCompaction(sn *snapshot[T]) *snapshot[T] {
	t0 := nowNanos()
	out := compactSnapshot(sn)
	s.compactions.Add(1)
	s.lastCompactNanos.Store(nowNanos() - t0)
	s.scanRows.Store(0)
	s.scanWaste.Store(0)
	return out
}

// compactSnapshot returns the compacted equivalent of sn: same live
// contents, same generation, single segment, fresh tables, and a fresh
// base tag so the incremental saver knows the on-disk base section no
// longer matches. Live rows keep their position order, base first, so
// the fresh ID table need not ascend: a row an Upsert replaced sits
// where its replacement was appended.
func compactSnapshot[T any](sn *snapshot[T]) *snapshot[T] {
	ix, blk := sn.seg.CompactSegmented()
	out := newBaseSnapshot(ix, sn.liveIDs(), sn.gen, newBaseTag(), blk)
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

// Size returns the number of live objects in the shard.
func (s *shard[T]) Size() int { return s.cur.Load().seg.Live() }

// Generation returns the shard's mutation counter: it starts at 0 (at
// creation or open) and increments on every mutation, so equal
// generations mean identical contents.
func (s *shard[T]) Generation() uint64 { return s.cur.Load().gen }

// Stats returns the shard's own point-in-time summary, one ShardStats
// row: the segment layout, compaction and scan fields, all from one
// snapshot load. The layout-wide fields (NextID, snapshot health and
// timing, the shadow-screen counters) belong to the Store and stay zero.
func (s *shard[T]) Stats() Stats {
	snap := s.cur.Load()
	rows, waste := s.scanCounters()
	var share float64
	if rows > 0 {
		share = float64(waste) / float64(rows)
	}
	return Stats{
		Size:                snap.seg.Live(),
		Dims:                snap.seg.Dims(),
		Generation:          snap.gen,
		BaseSize:            snap.seg.BaseSize(),
		DeltaSize:           snap.seg.DeltaLen(),
		Tombstones:          snap.seg.Tombstones(),
		Compactions:         s.compactions.Load(),
		Shards:              1,
		LastCompactionNanos: s.lastCompactNanos.Load(),
		DeltaScanShare:      share,
		QuantBits:           snap.seg.QuantBits(),
		ShadowBytes:         int64(snap.seg.ShadowBytes()),
	}
}
