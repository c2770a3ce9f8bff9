// Incremental persistence and the store-owned background lifecycle.
//
// This file is the engine behind bundle format v3 (bundle.go has the
// on-disk encoding): per-shard dirty tracking decides what a Save must
// touch — nothing for a clean shard, one appended delta frame for a
// dirty shard whose base is unchanged, a full base+delta section rewrite
// only after a compaction replaced the base — and the Lifecycle type
// gives every store (plain or sharded) its own background snapshot loop
// and a compactor scheduled on the measured delta-scan share of real
// query traffic instead of wall clock. cmd/qse-serve used to own both
// loops; now any embedder of the store gets them from Start/Close.

package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"path/filepath"
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

// nowNanos is a monotonic-enough clock for durations.
func nowNanos() int64 { return time.Now().UnixNano() }

// newBaseTag draws a fresh base-segment identity. Tags tie a delta log
// to the exact base it extends, and the safety of ignoring a stale-tag
// log after a crash rests on tags never colliding across different
// bases that may pass through the same path — so they are 64 random
// bits (never zero), not a counter two independent stores could both
// be at.
func newBaseTag() uint64 {
	for {
		if tag := rand.Uint64(); tag != 0 {
			return tag
		}
	}
}

// savedShardState is one store's incremental-save bookkeeping: which
// section files describe it on disk, through which generation, under
// which base tag, and where the delta log's last durable frame ends.
// The zero value means "never saved" and forces a full section write.
type savedShardState struct {
	basePath, deltaPath string
	tag                 uint64
	gen                 uint64
	deltaRows           int
	deltaOff            int64
	// frames counts the delta log's durable frames, for the
	// MaxLogFrames/MaxLogBytes rewrite trigger (see CompactionPolicy).
	frames int
}

// layoutMark remembers the manifest a store last wrote — path and the
// metadata registry version it embedded — so delta-only saves skip the
// manifest entirely (its model payload never changes and the allocator
// is resumed from the sections at open) until the registry grows, at
// which point one rewrite refreshes the manifest's kind table.
type layoutMark struct {
	mu     sync.Mutex
	path   string
	regVer uint64
}

// snapshotTo is Save plus a "did anything get written" report for the
// background snapshot loop, recording the duration/bytes metrics.
func (s *Store[T]) snapshotTo(path string) (bool, error) {
	t0 := nowNanos()
	written, wrote, err := saveLayoutV3(s.fs(), path, s.model, s.codec, []*Store[T]{s}, &s.nextID, &s.mark)
	if err != nil {
		return false, err
	}
	if wrote {
		s.lastSnapNanos.Store(nowNanos() - t0)
		s.lastSnapBytes.Store(written)
	}
	return wrote, nil
}

// saveLayoutV3 writes (or incrementally refreshes) the v3 layout at
// path over the given shard stores: dirty shard sections first, in
// parallel, then the manifest — only when this path has not been
// written before, so the manifest on disk only ever names fully-written
// section files and delta-only snapshots touch nothing else. Returns
// the bytes written and whether anything was written at all.
func saveLayoutV3[T any](fsys fsio.FS, path string, model *core.Model[T], codec Codec[T], shards []*Store[T], nextID *atomic.Uint64, mark *layoutMark) (int64, bool, error) {
	baseFiles, deltaFiles := shardSectionFiles(path, len(shards))
	dir := filepath.Dir(path)
	// Read the registry version before the shard snapshots: it only
	// grows, so any field visible in the sections written below is
	// either in the kind table serialized under this version or bumps
	// the version and forces a manifest rewrite on the next save.
	reg := shards[0].reg
	regVer := reg.Version()
	written := make([]int64, len(shards))
	errs := make([]error, len(shards))
	par.For(len(shards), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			written[i], errs[i] = shards[i].saveShard(filepath.Join(dir, baseFiles[i]), filepath.Join(dir, deltaFiles[i]))
		}
	})
	var total int64
	for i, err := range errs {
		if err != nil {
			return 0, false, fmt.Errorf("store: shard %d snapshot: %w", i, err)
		}
		total += written[i]
	}

	mark.mu.Lock()
	defer mark.mu.Unlock()
	if mark.path != path || mark.regVer != regVer {
		candObjs := model.Candidates()
		candidates := make([][]byte, len(candObjs))
		for i, c := range candObjs {
			raw, err := codec.Encode(c)
			if err != nil {
				return 0, false, fmt.Errorf("store: encoding candidate %d: %w", i, err)
			}
			candidates[i] = raw
		}
		// Read the allocator after the shard snapshots: it only grows, so
		// the manifest value is >= every ID visible in the files it names.
		n, err := writeManifestV3(fsys, path, &manifestV3Body{
			Shards:     len(shards),
			Hash:       shardHashName,
			NextID:     nextID.Load(),
			Dims:       model.Dims(),
			Model:      *model.SelfSnapshot(),
			Candidates: candidates,
			BaseFiles:  baseFiles,
			DeltaFiles: deltaFiles,
			MetaKinds:  reg.Kinds(),
		})
		if err != nil {
			return 0, false, err
		}
		total += n
		mark.path = path
		mark.regVer = regVer
	}
	return total, total > 0, nil
}

// saveShard writes this store's state as base+delta sections at the
// given paths, incrementally. It runs against one immutable snapshot;
// searches and mutations are never blocked (saves serialize among
// themselves on saveMu). Three cases, cheapest first:
//
//   - clean (generation unchanged since the last save to these paths):
//     nothing is touched. Compaction alone does not dirty a shard — it
//     changes the physical layout, not the contents, and the sections on
//     disk still describe the same state.
//   - dirty, base unchanged: one delta frame (the rows appended since
//     the last frame, plus the current tombstone bitmaps) is appended to
//     the delta log and fsynced — O(new delta rows + rows/64).
//   - dirty, base replaced by a compaction (or first save to these
//     paths): both sections are rewritten atomically, base first, then a
//     fresh delta log carrying the new base's tag — so a crash between
//     the two leaves an old-tag log next to a new base, which open
//     ignores in favor of the (strictly newer) base alone.
func (s *Store[T]) saveShard(basePath, deltaPath string) (int64, error) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	// Load the snapshot first: nextID only grows, and Add advances it
	// before publishing the snapshot that uses the new ID, so the pair
	// (snapshot, nextID-read-after) can never under-count.
	snap := s.cur.Load()
	nextID := s.nextID.Load()
	samePaths := s.saved.basePath == basePath && s.saved.deltaPath == deltaPath
	if samePaths && snap.gen == s.saved.gen {
		return 0, nil
	}

	// Log-bound trigger: when the on-disk delta log has already reached
	// its frame or byte bound, an incremental append would push the
	// worst-case reopen/replay cost past what the policy allows. Fold the
	// in-memory layout first — the fresh base tag forces the full-rewrite
	// path below, which replaces the log with an empty one. (Compact takes
	// mu; no path takes mu and then saveMu, so this cannot deadlock.)
	if samePaths && snap.baseVer == s.saved.tag {
		if limF, limB := s.policyView().logBounds(); s.saved.frames >= limF || s.saved.deltaOff >= limB {
			s.Compact()
			snap = s.cur.Load()
			nextID = s.nextID.Load()
		}
	}

	if !samePaths || snap.baseVer != s.saved.tag {
		// Full section rewrite: base first, fresh delta log second.
		base := snap.seg.Base()
		objs := base.Objects()
		encoded := make([][]byte, len(objs))
		for i, x := range objs {
			raw, err := s.codec.Encode(x)
			if err != nil {
				return 0, fmt.Errorf("store: encoding object %d: %w", i, err)
			}
			encoded[i] = raw
		}
		flat, dims := base.Flat()
		baseBytes, err := writeBaseSection(s.fs(), basePath, &baseSectionBody{
			Tag:         snap.baseVer,
			Dims:        dims,
			NextID:      nextID,
			Objects:     encoded,
			Flat:        flat,
			IDs:         snap.baseIDs,
			Meta:        snap.seg.BaseMetaRows(),
			QuantBits:   snap.seg.QuantBits(),
			QuantBounds: snap.seg.QuantBounds(),
			Shadow:      snap.seg.BaseShadow(),
		})
		if err != nil {
			return 0, err
		}
		frame, err := s.frameFor(snap, 0, nextID)
		if err != nil {
			return 0, err
		}
		end, err := writeDeltaLog(s.fs(), deltaPath, snap.baseVer, frame)
		if err != nil {
			return 0, err
		}
		s.saved = savedShardState{
			basePath: basePath, deltaPath: deltaPath,
			tag: snap.baseVer, gen: snap.gen,
			deltaRows: snap.seg.DeltaLen(), deltaOff: end,
			frames: 1,
		}
		return baseBytes + end, nil
	}

	// Incremental: append the rows and tombstones accrued since the last
	// durable frame.
	frame, err := s.frameFor(snap, s.saved.deltaRows, nextID)
	if err != nil {
		return 0, err
	}
	end, err := appendDeltaFrame(s.fs(), deltaPath, s.saved.deltaOff, frame)
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, fs.ErrNotExist) {
		// The log vanished or shrank behind our back; rebuild it whole.
		full, ferr := s.frameFor(snap, 0, nextID)
		if ferr != nil {
			return 0, ferr
		}
		end, err = writeDeltaLog(s.fs(), deltaPath, snap.baseVer, full)
		if err != nil {
			return 0, err
		}
		s.saved.gen, s.saved.deltaRows, s.saved.deltaOff, s.saved.frames = snap.gen, snap.seg.DeltaLen(), end, 1
		return end, nil
	}
	if err != nil {
		return 0, err
	}
	written := end - s.saved.deltaOff
	s.saved.gen, s.saved.deltaRows, s.saved.deltaOff = snap.gen, snap.seg.DeltaLen(), end
	s.saved.frames++
	return written, nil
}

// frameFor builds the delta frame covering snap's delta rows from
// fromRow on, plus the full tombstone bitmaps at snap time. All inputs
// are immutable snapshot state (the delta backing's visible prefix, the
// bitmap words), so no lock is needed beyond saveMu's serialization.
func (s *Store[T]) frameFor(snap *snapshot[T], fromRow int, nextID uint64) (*deltaFrame, error) {
	deltaObjs, deltaFlat := snap.seg.DeltaSegment()
	dims := snap.seg.Dims()
	objs := deltaObjs[fromRow:]
	encoded := make([][]byte, len(objs))
	for i, x := range objs {
		raw, err := s.codec.Encode(x)
		if err != nil {
			return nil, fmt.Errorf("store: encoding delta object %d: %w", fromRow+i, err)
		}
		encoded[i] = raw
	}
	baseDead, deltaDead := snap.seg.Tombstoned()
	// The delta metadata slice is nil until some delta row carries a
	// record and row-aligned with the delta from then on; the frame's
	// view follows the same convention over its own row window.
	var frameMeta []meta.Map
	if dm := snap.seg.DeltaMeta(); dm != nil {
		frameMeta = dm[fromRow:len(snap.deltaIDs):len(snap.deltaIDs)]
	}
	return &deltaFrame{
		Objects:   encoded,
		Flat:      deltaFlat[fromRow*dims:],
		IDs:       snap.deltaIDs[fromRow:],
		BaseDead:  baseDead,
		DeltaDead: deltaDead,
		Gen:       snap.gen,
		NextID:    nextID,
		Meta:      frameMeta,
	}, nil
}

// openLayoutV3 restores every shard of a v3 layout, sharing one model
// instance across all of them (the manifest stores the model exactly
// once — S restored copies was the v2 cost this layout removes). The
// routing check catches swapped or transplanted section files: every
// live ID must hash to the shard file it was found in.
func openLayoutV3[T any](path string, payload []byte, dist space.Distance[T], codec Codec[T]) (*core.Model[T], []*Store[T], uint64, bool, error) {
	if codec == nil {
		return nil, nil, 0, false, fmt.Errorf("store: nil codec")
	}
	man, err := decodeManifestV3(path, payload)
	if err != nil {
		return nil, nil, 0, false, err
	}
	candidates := make([]T, len(man.Candidates))
	for i, raw := range man.Candidates {
		if candidates[i], err = codec.Decode(raw); err != nil {
			return nil, nil, 0, false, fmt.Errorf("%w: %s: candidate %d: %v", ErrCorrupt, path, i, err)
		}
	}
	model, err := core.Restore(&man.Model, candidates, dist)
	if err != nil {
		return nil, nil, 0, false, fmt.Errorf("store: %s: restoring model: %w", path, err)
	}
	if model.Dims() != man.Dims {
		return nil, nil, 0, false, fmt.Errorf("%w: %s: model embeds to %d dims, manifest declares %d", ErrCorrupt, path, model.Dims(), man.Dims)
	}

	// One registry types the whole layout: the manifest's kind table
	// first, then every shard's replayed rows, each checked against it,
	// so every persisted field is typed before the first write or filter
	// arrives and a row of another kind than its field's is corruption.
	reg := meta.NewRegistry()
	reg.Seed(man.MetaKinds)
	dir := filepath.Dir(path)
	shards := make([]*Store[T], man.Shards)
	errs := make([]error, man.Shards)
	par.For(man.Shards, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			shards[i], errs[i] = openShardV3(dir, man.BaseFiles[i], man.DeltaFiles[i], model, dist, codec, reg)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, 0, false, fmt.Errorf("store: opening shard %d of %s: %w", i, path, err)
		}
	}

	// The allocator resumes past every durable view of it — the manifest
	// (possibly stale: delta-only saves do not rewrite it) and every
	// shard's base section and delta frames — so no live ID can ever be
	// issued twice.
	next := man.NextID
	for i, sh := range shards {
		for _, id := range sh.cur.Load().liveIDs() {
			if got := shardOf(id, man.Shards); got != i {
				return nil, nil, 0, false, fmt.Errorf("%w: %s: object id %d found in shard %d but routes to shard %d", ErrCorrupt, path, id, i, got)
			}
		}
		if n := sh.nextID.Load(); n > next {
			next = n
		}
	}
	return model, shards, next, canonicalSections(path, man), nil
}

// canonicalSections reports whether a manifest's section names are
// exactly the ones a save to path would derive. They diverge when the
// manifest file was copied or renamed: its embedded names still point
// at the sections of the bundle it was copied from. Opening such a
// layout works fine — the names are honored as written — but the
// layout mark must NOT be seeded from it: a seeded mark suppresses the
// manifest rewrite on the next save, while saveShard derives fresh
// section names from the new path, so the save would write sections
// the manifest never names and every mutation in them would silently
// vanish at the next open. Left unseeded, the first save rewrites the
// whole layout under the new name; the old sections are not touched —
// they may still back the bundle the copy was made from.
func canonicalSections(path string, man *manifestV3Body) bool {
	baseFiles, deltaFiles := shardSectionFiles(path, man.Shards)
	for i := range baseFiles {
		if man.BaseFiles[i] != baseFiles[i] || man.DeltaFiles[i] != deltaFiles[i] {
			return false
		}
	}
	return true
}

// openShardV3 restores one shard from its base section and delta log.
// The base section must be intact (it is the durable foundation — damage
// there is unrecoverable corruption); the delta log recovers to the last
// intact frame, or to the base alone when the log is missing, damaged in
// its header, or tagged for a different base (see readDeltaLog) — in
// every case a consistent, possibly slightly older state. The recovered
// log offset seeds the incremental-save bookkeeping, so background
// snapshots resume appending where the durable log ends. reg is the
// layout's registry, shared by every shard.
func openShardV3[T any](dir, baseFile, deltaFile string, model *core.Model[T], dist space.Distance[T], codec Codec[T], reg *meta.Registry) (*Store[T], error) {
	basePath := filepath.Join(dir, baseFile)
	deltaPath := filepath.Join(dir, deltaFile)
	b, err := readBaseSection(fsio.OS(), basePath)
	if err != nil {
		return nil, err
	}
	if b.Dims != model.Dims() {
		return nil, fmt.Errorf("%w: %s: base embeds to %d dims, model to %d", ErrCorrupt, basePath, b.Dims, model.Dims())
	}
	db := make([]T, len(b.Objects))
	for i, raw := range b.Objects {
		if db[i], err = codec.Decode(raw); err != nil {
			return nil, fmt.Errorf("%w: %s: object %d: %v", ErrCorrupt, basePath, i, err)
		}
	}
	baseIx, err := retrieval.FromParts(db, b.Flat, b.Dims, dist, model)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", basePath, err)
	}

	frames, logEnd, logOK, err := readDeltaLog(fsio.OS(), deltaPath, b.Tag)
	if err != nil {
		return nil, err
	}
	if len(b.Meta) != 0 && len(b.Meta) != len(b.Objects) {
		return nil, fmt.Errorf("%w: %s: %d metadata records for %d objects", ErrCorrupt, basePath, len(b.Meta), len(b.Objects))
	}
	var (
		deltaObjs []T
		deltaFlat []float64
		deltaIDs  []uint64
		baseDead  []uint64
		deltaDead []uint64
		deltaMeta []meta.Map
	)
	nextID := b.NextID
	for fi, f := range frames {
		if len(f.IDs) != len(f.Objects) || len(f.Flat) != len(f.Objects)*b.Dims {
			return nil, fmt.Errorf("%w: %s: frame %d has %d ids, %d values for %d objects x %d dims",
				ErrCorrupt, deltaPath, fi, len(f.IDs), len(f.Flat), len(f.Objects), b.Dims)
		}
		if len(f.Meta) != 0 && len(f.Meta) != len(f.Objects) {
			return nil, fmt.Errorf("%w: %s: frame %d has %d metadata records for %d objects",
				ErrCorrupt, deltaPath, fi, len(f.Meta), len(f.Objects))
		}
		for i, raw := range f.Objects {
			x, err := codec.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: frame %d object %d: %v", ErrCorrupt, deltaPath, fi, i, err)
			}
			deltaObjs = append(deltaObjs, x)
		}
		// Row-align the replayed metadata with the replayed delta: frames
		// written before the first metadata-carrying row (or by an older
		// build) contribute nil records, and the slice stays canonically
		// nil until any frame carries one.
		switch {
		case len(f.Meta) > 0 && deltaMeta == nil:
			deltaMeta = append(make([]meta.Map, len(deltaObjs)-len(f.Objects)), f.Meta...)
		case len(f.Meta) > 0:
			deltaMeta = append(deltaMeta, f.Meta...)
		case deltaMeta != nil:
			deltaMeta = append(deltaMeta, make([]meta.Map, len(f.Objects))...)
		}
		deltaFlat = append(deltaFlat, f.Flat...)
		deltaIDs = append(deltaIDs, f.IDs...)
		// Bitmaps are whole-state: the last intact frame's pair wins.
		baseDead, deltaDead = f.BaseDead, f.DeltaDead
		if f.NextID > nextID {
			nextID = f.NextID
		}
	}

	// gob cannot round-trip a nil map inside a slice (it decodes as a
	// non-nil empty map); restore the canonical nil so Metadata() reads
	// the same record before and after a reopen.
	for i, m := range deltaMeta {
		if len(m) == 0 {
			deltaMeta[i] = nil
		}
	}

	// Register the kinds of the replayed rows — the recovery path for
	// fields that first appeared after the manifest's kind table was last
	// rewritten (delta-only saves leave the manifest alone until the
	// registry grows) — checking every row as a write is checked. Every
	// row this build persists passed that check, so a row that fails it
	// is damage, and would otherwise read back as its column's kind.
	if err := reg.SeedRows(b.Meta); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, basePath, err)
	}
	if err := reg.SeedRows(deltaMeta); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, deltaPath, err)
	}

	seg, err := retrieval.NewSegmentedFromParts(baseIx, deltaObjs, deltaFlat, baseDead, deltaDead, b.Meta, deltaMeta)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, deltaPath, err)
	}

	// Restore the quantized shadow saved with the base; sections from
	// before quantization carry zero values and open with it off, and
	// sections written at a narrower width rebuild it at 8 bits.
	if b.QuantBits > 0 {
		seg, err = seg.QuantizeFromParts(b.QuantBits, b.QuantBounds, b.Shadow)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, basePath, err)
		}
	}

	// Live IDs must be unique (an ID may legitimately recur dead→live
	// across upsert history, never live twice) and below the allocator.
	basePos := make(map[uint64]int, len(b.IDs))
	for i, id := range b.IDs {
		basePos[id] = i
	}
	live := make(map[uint64]bool, seg.Live())
	maxID := uint64(0)
	for pos, total := 0, seg.Total(); pos < total; pos++ {
		var id uint64
		if pos < len(b.IDs) {
			id = b.IDs[pos]
		} else {
			id = deltaIDs[pos-len(b.IDs)]
		}
		if id >= maxID {
			maxID = id + 1
		}
		if seg.Alive(pos) {
			if live[id] {
				return nil, fmt.Errorf("%w: %s: object id %d is live twice", ErrCorrupt, deltaPath, id)
			}
			live[id] = true
		}
	}
	if maxID > nextID {
		nextID = maxID
	}
	deltaSorted := true
	for i := 1; i < len(deltaIDs); i++ {
		if deltaIDs[i-1] >= deltaIDs[i] {
			deltaSorted = false
			break
		}
	}
	firstLive := 0
	for firstLive < seg.Total() && !seg.Alive(firstLive) {
		firstLive++
	}

	st := &Store[T]{model: model, dist: dist, codec: codec, policy: DefaultCompactionPolicy(), reg: reg, track: meta.NewTracker()}
	st.nextID.Store(nextID)
	st.cur.Store(&snapshot[T]{
		seg:     seg,
		baseIDs: b.IDs, basePos: basePos,
		deltaIDs: deltaIDs, deltaSorted: deltaSorted,
		gen: 0, firstLive: firstLive, baseVer: b.Tag,
	})
	if logOK {
		// The sections on disk describe exactly the state we restored
		// (generation 0): saves to the same path stay incremental.
		st.saved = savedShardState{
			basePath: basePath, deltaPath: deltaPath,
			tag: b.Tag, gen: 0,
			deltaRows: len(deltaIDs), deltaOff: logEnd,
			frames: len(frames),
		}
	}
	// An unusable log leaves saved zero: the next save rewrites both
	// sections rather than appending to a file it cannot trust.
	return st, nil
}

// ---------------------------------------------------------------------------
// Background lifecycle.
// ---------------------------------------------------------------------------

// Default lifecycle cadences: how often the snapshot loop checks for
// dirty shards, how often the compactor evaluates the measured
// delta-scan share, and the share above which it folds a shard.
const (
	DefaultSnapshotInterval = 5 * time.Second
	DefaultCompactInterval  = 2 * time.Second
	DefaultCompactShare     = 0.25
)

// Default snapshot-failure handling: how many backoff retries follow a
// failed attempt within one snapshot cycle, the first backoff step (it
// doubles per retry), and how many consecutive failed attempts flip the
// store into the degraded-persistence state.
const (
	DefaultSnapshotRetries = 2
	DefaultRetryBackoff    = 100 * time.Millisecond
	DefaultDegradeAfter    = 3
)

// snapHealth is the store's view of its own durability: every snapshot
// attempt reports here, and the readiness probe reads the summary out of
// Stats(). The store never stops serving or accepting writes on
// failure — degraded is a loud flag, not a circuit breaker.
type snapHealth struct {
	failures    atomic.Uint64 // failed attempts, lifetime
	consecutive atomic.Uint64 // failed attempts since the last success
	degraded    atomic.Bool
	lastOKUnix  atomic.Int64

	mu      sync.Mutex
	lastErr string
}

func (h *snapHealth) ok() {
	h.consecutive.Store(0)
	h.degraded.Store(false)
	h.lastOKUnix.Store(time.Now().Unix())
	h.mu.Lock()
	h.lastErr = ""
	h.mu.Unlock()
}

func (h *snapHealth) fail(err error, degradeAfter int) {
	h.failures.Add(1)
	c := h.consecutive.Add(1)
	if degradeAfter > 0 && c >= uint64(degradeAfter) {
		h.degraded.Store(true)
	}
	h.mu.Lock()
	h.lastErr = err.Error()
	h.mu.Unlock()
}

func (h *snapHealth) lastError() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}

// fill copies the health summary into a Stats.
func (h *snapHealth) fill(st *Stats) {
	st.SnapshotFailures = h.failures.Load()
	st.LastSnapshotError = h.lastError()
	st.LastSnapshotOKUnix = h.lastOKUnix.Load()
	st.DegradedPersistence = h.degraded.Load()
}

// Lifecycle configures the background services a store owns between
// Start and Close:
//
//   - Background snapshots: every SnapshotInterval, dirty shards are
//     persisted to SnapshotPath — incrementally, per-shard generation
//     against last-saved generation, so a quiet store writes nothing and
//     a lightly dirty one appends small delta frames. Close always
//     writes a final snapshot to SnapshotPath (when set), so mutations
//     survive a restart even with the periodic loop disabled.
//   - Snapshot-failure handling: a failed snapshot attempt is retried
//     SnapshotRetries times with exponential backoff starting at
//     RetryBackoff, and every failed attempt feeds a consecutive-failure
//     counter; at DegradeAfter consecutive failures the store flips into
//     the degraded-persistence state reported by Stats() (and through it
//     /v1/stats and /readyz) — still serving, still accepting writes,
//     loudly unhealthy. The first success clears the state.
//   - Background compaction: every CompactInterval, each shard's
//     measured delta-scan share over the window (the fraction of filter
//     rows spent on delta rows and tombstones — real query traffic, not
//     wall clock) is compared against CompactShare; a shard above it is
//     folded. A store nobody queries is never compacted in the
//     background — there is no scan degradation to repair — and the
//     mutation-path CompactionPolicy still bounds the delta regardless.
//
// Zero values take the defaults above — including CompactShare, so
// "fold on any measured degradation" is expressed with a small positive
// share, not 0. A negative interval disables that loop (SnapshotPath ==
// "" disables everything snapshot-related). Logf, when set, receives
// human-readable progress lines.
type Lifecycle struct {
	SnapshotPath     string
	SnapshotInterval time.Duration
	CompactInterval  time.Duration
	CompactShare     float64
	// SnapshotRetries is the number of backoff retries after a failed
	// snapshot attempt (0 = DefaultSnapshotRetries, negative = none).
	// RetryBackoff is the first retry's delay, doubling per retry
	// (0 = DefaultRetryBackoff). DegradeAfter is the consecutive failed
	// attempts at which the store declares degraded persistence
	// (0 = DefaultDegradeAfter, negative = never).
	SnapshotRetries int
	RetryBackoff    time.Duration
	DegradeAfter    int
	Logf            func(format string, args ...any)
}

// lifecycle is one running pair of background loops.
type lifecycle struct {
	cfg    Lifecycle
	health *snapHealth
	stop   chan struct{}
	wg     sync.WaitGroup
}

// snapshotWithRetry runs one snapshot cycle: an attempt plus up to
// SnapshotRetries backoff retries, reporting every outcome into health.
// When interruptible, a close of l.stop cuts the backoff short (the
// final Close-time snapshot is not interruptible — stop is already
// closed by then).
func (l *lifecycle) snapshotWithRetry(snapshot func(string) (bool, error), interruptible bool) (bool, error) {
	var wrote bool
	var err error
	for attempt := 0; ; attempt++ {
		wrote, err = snapshot(l.cfg.SnapshotPath)
		if err == nil {
			l.health.ok()
			return wrote, nil
		}
		l.health.fail(err, l.cfg.DegradeAfter)
		if attempt >= l.cfg.SnapshotRetries {
			return false, err
		}
		d := l.cfg.RetryBackoff << attempt
		l.logf("snapshot attempt %d failed, retrying in %v: %v", attempt+1, d, err)
		if interruptible {
			select {
			case <-l.stop:
				return false, err
			case <-time.After(d):
			}
		} else {
			time.Sleep(d)
		}
	}
}

func (l *lifecycle) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

// scanMark is the compactor's per-shard view of the scan counters at
// the previous evaluation, for windowed share measurement.
type scanMark struct{ rows, waste uint64 }

// startLifecycle launches the loops over closure-shaped owners, so one
// implementation serves Store and Sharded.
func startLifecycle(cfg Lifecycle, snapshot func(path string) (bool, error), compactDegraded func(threshold float64, marks []scanMark) int, shardCount int, health *snapHealth) *lifecycle {
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	if cfg.CompactInterval == 0 {
		cfg.CompactInterval = DefaultCompactInterval
	}
	if cfg.CompactShare == 0 {
		cfg.CompactShare = DefaultCompactShare
	}
	if cfg.SnapshotRetries == 0 {
		cfg.SnapshotRetries = DefaultSnapshotRetries
	} else if cfg.SnapshotRetries < 0 {
		cfg.SnapshotRetries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.DegradeAfter == 0 {
		cfg.DegradeAfter = DefaultDegradeAfter
	}
	l := &lifecycle{cfg: cfg, health: health, stop: make(chan struct{})}

	if cfg.SnapshotPath != "" && cfg.SnapshotInterval > 0 {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			ticker := time.NewTicker(cfg.SnapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-l.stop:
					return
				case <-ticker.C:
					wrote, err := l.snapshotWithRetry(snapshot, true)
					if err != nil {
						l.logf("background snapshot failed (%d consecutive failures, degraded=%v): %v",
							l.health.consecutive.Load(), l.health.degraded.Load(), err)
					} else if wrote {
						l.logf("background snapshot written to %s", cfg.SnapshotPath)
					}
				}
			}
		}()
	}

	if cfg.CompactInterval > 0 {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			marks := make([]scanMark, shardCount)
			ticker := time.NewTicker(cfg.CompactInterval)
			defer ticker.Stop()
			for {
				select {
				case <-l.stop:
					return
				case <-ticker.C:
					if n := compactDegraded(cfg.CompactShare, marks); n > 0 {
						l.logf("background compaction folded %d shard(s) past delta-scan share %.2f", n, cfg.CompactShare)
					}
				}
			}
		}()
	}
	return l
}

// compactIfDegraded evaluates one store's scan window against the
// threshold and compacts when the measured share crosses it. The mark
// carries the previous evaluation's counter values; counters reset to
// zero on compaction, which the window arithmetic detects and absorbs.
func (s *Store[T]) compactIfDegraded(threshold float64, mark *scanMark) bool {
	rows, waste := s.scanCounters()
	if rows < mark.rows || waste < mark.waste {
		mark.rows, mark.waste = 0, 0
	}
	dr, dw := rows-mark.rows, waste-mark.waste
	mark.rows, mark.waste = rows, waste
	if dr == 0 || float64(dw)/float64(dr) < threshold {
		return false
	}
	return s.Compact()
}

// Start launches the store's background lifecycle. It may be called at
// most once per store until Close; a second Start is an error.
func (s *Store[T]) Start(cfg Lifecycle) error {
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	if s.lc != nil {
		return fmt.Errorf("store: already started")
	}
	s.lc = startLifecycle(cfg, s.snapshotTo, func(threshold float64, marks []scanMark) int {
		if s.compactIfDegraded(threshold, &marks[0]) {
			return 1
		}
		return 0
	}, 1, &s.health)
	return nil
}

// Close stops the background lifecycle and, when a snapshot path was
// configured, writes a final snapshot so mutations survive the restart.
// A store that was never started closes as a no-op; Close is idempotent.
func (s *Store[T]) Close() error {
	s.lcMu.Lock()
	lc := s.lc
	s.lc = nil
	s.lcMu.Unlock()
	if lc == nil {
		return nil
	}
	close(lc.stop)
	lc.wg.Wait()
	return finalSnapshot(lc, s.snapshotTo)
}

// Start launches the sharded store's background lifecycle: one snapshot
// loop over the whole layout (dirty shards only) and one compactor that
// evaluates every shard's measured delta-scan share independently.
func (s *Sharded[T]) Start(cfg Lifecycle) error {
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	if s.lc != nil {
		return fmt.Errorf("store: already started")
	}
	s.lc = startLifecycle(cfg, s.snapshotTo, func(threshold float64, marks []scanMark) int {
		n := 0
		for i, sh := range s.shards {
			if sh.compactIfDegraded(threshold, &marks[i]) {
				n++
			}
		}
		return n
	}, len(s.shards), &s.health)
	return nil
}

// Close stops the sharded store's background lifecycle and writes a
// final snapshot when a snapshot path was configured. Idempotent.
func (s *Sharded[T]) Close() error {
	s.lcMu.Lock()
	lc := s.lc
	s.lc = nil
	s.lcMu.Unlock()
	if lc == nil {
		return nil
	}
	close(lc.stop)
	lc.wg.Wait()
	return finalSnapshot(lc, s.snapshotTo)
}

// finalSnapshot writes the Close-time snapshot (when configured),
// logging what happened.
func finalSnapshot(lc *lifecycle, snapshot func(string) (bool, error)) error {
	if lc.cfg.SnapshotPath == "" {
		return nil
	}
	wrote, err := lc.snapshotWithRetry(snapshot, false)
	switch {
	case err != nil:
		lc.logf("final snapshot: %v", err)
		return err
	case wrote:
		lc.logf("final snapshot written to %s", lc.cfg.SnapshotPath)
	default:
		lc.logf("no mutations since last snapshot; %s is current", lc.cfg.SnapshotPath)
	}
	return nil
}
