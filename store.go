package qse

import (
	"fmt"
	"time"

	"qse/internal/meta"
	"qse/internal/space"
	"qse/internal/store"
)

// Codec translates domain objects to and from bytes so a Store can
// persist them inside a bundle. Encode/Decode must round-trip every value
// the Distance function reads bit-exactly; GobCodec does, for any
// gob-encodable object type.
type Codec[T any] interface {
	Encode(x T) ([]byte, error)
	Decode(data []byte) (T, error)
}

// GobCodec returns the default Codec, backed by encoding/gob.
func GobCodec[T any]() Codec[T] { return store.Gob[T]() }

// StoreResult is one neighbor retrieved from a Store, addressed by stable
// ID. Unlike Result.Index, which is a database position that shifts when
// earlier objects are removed, an ID names the same object for the
// store's whole lifetime — across mutations and across Save/OpenStore.
type StoreResult struct {
	ID       uint64
	Distance float64
}

// StoreStats is a point-in-time summary of a Store.
type StoreStats struct {
	// Size is the number of live stored objects, Dims the embedding width.
	Size int
	Dims int
	// Generation counts mutations since the store was created or opened.
	Generation uint64
	// NextID is the ID the next Add will assign.
	NextID uint64
	// BaseSize and DeltaSize are the row counts of the immutable base and
	// append-only delta segments (including tombstoned rows); Tombstones
	// counts dead rows awaiting compaction; Compactions counts fold-ins
	// since the store was created or opened. For a sharded store these
	// are sums over the shards.
	BaseSize    int
	DeltaSize   int
	Tombstones  int
	Compactions uint64
	// Shards is the number of independent shards behind the store: 1
	// unless the store was built with WithShards (or opened from a
	// sharded bundle layout).
	Shards int
	// LastCompactionNanos is the duration of the most recent compaction
	// (the worst shard's, for a sharded store); LastSnapshotNanos and
	// LastSnapshotBytes describe the most recent Save — incremental
	// saves write bytes proportional to the dirty delta, not the store.
	LastCompactionNanos int64
	LastSnapshotNanos   int64
	LastSnapshotBytes   int64
	// DeltaScanShare is the measured fraction of filter-scan work spent
	// on delta rows and tombstones since the last compaction — the
	// signal the background compactor (see Store.Start) schedules on.
	DeltaScanShare float64
	// QuantBits is the shadow-block quantization setting: 8 when on, 0
	// when off (see SetQuantization). BoundScannedRows,
	// BoundVisitedRows and BoundExactRows count, across all filtered
	// scans since the store was created or opened, the rows screened by
	// the seeded shadow screen, the subset whose codes its walk summed,
	// and the subset that survived to an exact float64 evaluation;
	// 1 - exact/scanned is the prune rate.
	QuantBits        int
	BoundScannedRows uint64
	BoundVisitedRows uint64
	BoundExactRows   uint64
	// ShadowBytes is the shadow block's resident size in bytes: the
	// codes of every row plus each base's cluster-order map and block
	// boxes (summed over shards; 0 when quantization is off or no base
	// segment clears the size gate).
	ShadowBytes int64
}

// StoreLifecycle configures the background services a store owns
// between Start and Close: periodic incremental snapshots of dirty
// shards to SnapshotPath, and per-shard compaction scheduled on the
// measured delta-scan share of real query traffic (compact a shard when
// more than CompactShare of its scanned rows are delta or tombstones).
// Zero values take the library defaults; a negative interval disables
// that loop. Close always writes a final snapshot when SnapshotPath is
// set, so mutations survive a restart even without the periodic loop.
type StoreLifecycle struct {
	SnapshotPath     string
	SnapshotInterval time.Duration
	CompactInterval  time.Duration
	CompactShare     float64
	Logf             func(format string, args ...any)
}

// StoreOption configures NewStore.
type StoreOption func(*storeConfig)

type storeConfig struct {
	shards int
}

// WithShards hash-partitions the store into n independent shards, each
// with its own mutex, segmented index, and compaction schedule: mutations
// to different shards never contend and a compaction pause touches 1/n of
// the data. Search results are bit-identical to an unsharded store
// holding the same objects — sharding changes tail latency under mutation
// load, never answers. Save writes one manifest plus a base section and a
// delta log per shard, whatever n is; OpenStore reopens the layout with
// the shard count it was saved with.
func WithShards(n int) StoreOption {
	return func(c *storeConfig) { c.shards = n }
}

// Store is an Index made durable and safe for concurrent mutation. It
// adds four things to Index:
//
//   - Persistence: Save writes a self-contained bundle — model, embedded
//     vectors, and the objects themselves — that OpenStore reopens in a
//     fresh process with bit-identical search results, no retraining, no
//     re-embedding, and no need to regenerate the original database.
//   - Concurrency: Search/SearchBatch are lock-free reads against an
//     immutable copy-on-write snapshot and may run at full parallelism
//     while Add/Remove/Save execute; mutations serialize among themselves.
//   - Cheap mutation: snapshots are segmented (immutable base +
//     append-only delta + tombstones), so Add costs O(EmbedCost) amortized
//     and Remove is a tombstone, with background compaction folding the
//     segments together — mutations never clone the database.
//   - Stable IDs: every object gets a uint64 ID that survives removals of
//     other objects, which is what a network API can safely hand out.
//
// It is the storage engine behind internal/server and cmd/qse-serve.
type Store[T any] struct {
	inner *store.Store[T]
}

// NewStore embeds db (len(db) × EmbedCost exact distances, as NewIndex)
// and wraps it for serving. Objects receive stable IDs 0..len(db)-1.
// Options: WithShards partitions the store for heavily concurrent
// mutation loads; the default is one shard.
func NewStore[T any](model *Model[T], db []T, dist Distance[T], codec Codec[T], opts ...StoreOption) (*Store[T], error) {
	if model == nil {
		return nil, fmt.Errorf("qse: nil model")
	}
	cfg := storeConfig{shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	// NewSharded validates the count (rejecting < 1 and absurd values),
	// so WithShards(0) is a loud error, not a silent fallback.
	inner, err := store.NewSharded(model.inner, db, space.Distance[T](dist), codec, cfg.shards)
	if err != nil {
		return nil, err
	}
	return &Store[T]{inner: inner}, nil
}

// OpenStore reopens a bundle written by Save: the manifest at path plus
// its per-shard base sections and delta logs, with the shard count the
// bundle was saved with (not a caller choice here). No exact distances
// are computed: the embedded vectors travel inside the bundle. dist and
// codec must match the ones the bundle was saved under (neither can be
// serialized). Magic, version, and checksum of every file are verified
// before anything is decoded; a bundle in an older format than this
// build reads (the single-file and per-shard-bundle formats of earlier
// builds) fails with a version error.
func OpenStore[T any](path string, dist Distance[T], codec Codec[T]) (*Store[T], error) {
	inner, err := store.Open(path, space.Distance[T](dist), codec)
	if err != nil {
		return nil, err
	}
	return &Store[T]{inner: inner}, nil
}

// Save writes the store's current state to path as a v3 layout: a
// manifest holding the model once, plus a base section and an
// append-only delta log per shard. Saves are incremental — a clean
// shard's files are untouched, a dirty shard whose base is unchanged
// only appends a delta frame — so background snapshot cost scales with
// what changed, not with the store. Section rewrites are atomic (temp
// file + rename) and delta appends are fsynced frames that reopen at
// the last durable prefix after a crash. Save runs against immutable
// snapshots and never blocks concurrent searches or mutations.
func (s *Store[T]) Save(path string) error { return s.inner.Save(path) }

// Search returns the k approximate nearest neighbors of q (see
// Index.Search for the k/p contract), identified by stable ID. A store
// holding fewer than k objects — including one drained empty by
// removals — answers with what it has (possibly zero results); that is
// not an error. It is SearchFiltered with a nil filter.
func (s *Store[T]) Search(q T, k, p int) ([]StoreResult, SearchStats, error) {
	return s.SearchFiltered(q, k, p, nil)
}

// SearchBatch pipelines a query batch across the worker pool; the whole
// batch runs against one snapshot, so every query sees the same store
// version even under concurrent mutation. It is SearchBatchFiltered with
// a nil filter.
func (s *Store[T]) SearchBatch(queries []T, k, p int) ([][]StoreResult, []SearchStats, error) {
	return s.SearchBatchFiltered(queries, k, p, nil)
}

func toStoreResults(rs []store.Result) []StoreResult {
	out := make([]StoreResult, len(rs))
	for i, r := range rs {
		out[i] = StoreResult{ID: r.ID, Distance: r.Distance}
	}
	return out
}

// Add embeds and inserts x, returning its stable ID. Concurrent searches
// keep running against the previous snapshot until the insert publishes.
// An object that embeds to the wrong dimensionality is rejected with an
// error and the store is unchanged.
func (s *Store[T]) Add(x T) (uint64, error) { return s.inner.Add(x) }

// toMetaMap converts a public metadata record into the store's typed
// representation. Supported value types: int/int64, float64, string,
// bool. A field's type is pinned store-wide at its first write; later
// writes of a different type are rejected.
func toMetaMap(md map[string]any) (meta.Map, error) {
	if md == nil {
		return nil, nil
	}
	out := make(meta.Map, len(md))
	for k, v := range md {
		switch t := v.(type) {
		case int:
			out[k] = meta.IntValue(int64(t))
		case int64:
			out[k] = meta.IntValue(t)
		case float64:
			out[k] = meta.FloatValue(t)
		case string:
			out[k] = meta.StringValue(t)
		case bool:
			out[k] = meta.BoolValue(t)
		default:
			return nil, fmt.Errorf("qse: metadata field %q: unsupported type %T (want int, int64, float64, string, or bool)", k, v)
		}
	}
	return out, nil
}

func fromMetaMap(md meta.Map) map[string]any {
	if md == nil {
		return nil
	}
	out := make(map[string]any, len(md))
	for k, v := range md {
		switch v.Kind {
		case meta.KindInt:
			out[k] = v.Int
		case meta.KindFloat:
			out[k] = v.Flt
		case meta.KindString:
			out[k] = v.Str
		case meta.KindBool:
			out[k] = v.Bool
		}
	}
	return out
}

// AddWithMetadata is Add carrying a typed metadata record the object can
// later be filtered on (see CompileFilter). Field types are pinned at
// first write: a store that once saw {"ts": int64} rejects a later
// {"ts": "noon"} with an error, keeping every filter comparison
// well-typed. A nil record is exactly Add.
func (s *Store[T]) AddWithMetadata(x T, md map[string]any) (uint64, error) {
	m, err := toMetaMap(md)
	if err != nil {
		return 0, err
	}
	return s.inner.AddMeta(x, m)
}

// UpsertWithMetadata is Upsert carrying a metadata record. The record
// replaces the object's previous metadata wholesale — fields absent from
// md do not survive, and a nil md clears the record (the plain Upsert is
// UpsertWithMetadata with nil).
func (s *Store[T]) UpsertWithMetadata(id uint64, x T, md map[string]any) error {
	m, err := toMetaMap(md)
	if err != nil {
		return err
	}
	return s.inner.UpsertMeta(id, x, m)
}

// Metadata returns an independent copy of the object's metadata record
// (nil for an object without metadata; ok reports whether the ID is
// live). Int fields come back as int64.
func (s *Store[T]) Metadata(id uint64) (map[string]any, bool) {
	md, ok := s.inner.Metadata(id)
	if !ok {
		return nil, false
	}
	return fromMetaMap(md), true
}

// Filter is a compiled metadata predicate, reusable across any number of
// concurrent searches on the store that compiled it. A nil *Filter means
// unfiltered.
type Filter struct {
	pred *meta.Predicate
}

// CompileFilter parses and type-checks a JSON predicate over object
// metadata. The grammar: a leaf is {"field": name, OP: value} with OP one
// of eq/ne/lt/le/gt/ge/in/exists, and {"and": [node, ...]} conjoins
// nodes. Values must match the field's pinned type; referencing a field
// no object has ever carried is an error (it would silently match
// nothing). null input compiles to a nil (unfiltered) Filter.
//
//	{"and": [{"field": "tenant", "eq": "acme"}, {"field": "ts", "ge": 1700000000}]}
//
// Filtering happens below the candidate cut: the filter scan ranks only
// matching objects, so a selective filter cannot starve the result set
// (see DESIGN.md §12).
func (s *Store[T]) CompileFilter(raw []byte) (*Filter, error) {
	pred, err := s.inner.CompileFilter(raw)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		return nil, nil
	}
	return &Filter{pred: pred}, nil
}

// SearchFiltered is Search restricted to objects matching f (nil for
// every object). k applies to the matching set: a store with a million
// objects and three matches answers with (up to) those three.
func (s *Store[T]) SearchFiltered(q T, k, p int, f *Filter) ([]StoreResult, SearchStats, error) {
	res, st, err := s.inner.SearchFiltered(q, k, p, f.predicate())
	if err != nil {
		return nil, SearchStats{}, err
	}
	return toStoreResults(res), SearchStats{EmbedDistances: st.EmbedDistances, RefineDistances: st.RefineDistances}, nil
}

// SearchBatchFiltered applies one filter to every query of a batch.
func (s *Store[T]) SearchBatchFiltered(queries []T, k, p int, f *Filter) ([][]StoreResult, []SearchStats, error) {
	res, sts, err := s.inner.SearchBatchFiltered(queries, k, p, f.predicate())
	if err != nil {
		return nil, nil, err
	}
	out := make([][]StoreResult, len(res))
	stats := make([]SearchStats, len(res))
	for i := range res {
		out[i] = toStoreResults(res[i])
		stats[i] = SearchStats{EmbedDistances: sts[i].EmbedDistances, RefineDistances: sts[i].RefineDistances}
	}
	return out, stats, nil
}

func (f *Filter) predicate() *meta.Predicate {
	if f == nil {
		return nil
	}
	return f.pred
}

// Upsert atomically replaces the object with the given stable ID —
// tombstone plus delta append under a single generation bump, keeping
// the ID — which is what a mutating workload's update actually wants:
// clients holding the ID keep a valid handle to the (new) object. An
// unknown ID is an error; a wrong-dimensionality object is rejected
// before anything is tombstoned.
func (s *Store[T]) Upsert(id uint64, x T) error { return s.inner.Upsert(id, x) }

// Remove deletes the object with the given stable ID by tombstoning it;
// the storage is reclaimed by a later compaction. Other objects keep
// their IDs.
func (s *Store[T]) Remove(id uint64) error { return s.inner.Remove(id) }

// SetQuantization turns the store's shadow block on (bits = 8) or off
// (bits = 0); any other width is rejected. A base segment with at least
// 16,384 rows and 16 embedded dimensions gets an 8-bit scalar-quantized
// shadow — one byte per dimension per row, against per-dimension
// equi-populated boundaries — and a query whose p is at most 1/128 of
// those rows screens every row through it with cheap weighted-L1
// bounds first, touching the exact float64 vectors only for rows the
// bounds cannot exclude. Every other scan is exact: below that size the
// shadow costs more than it saves (DESIGN.md §16). Results are
// bit-identical to the unquantized scan either way (DESIGN.md §13). The
// setting persists through Save/OpenStore, and compaction re-applies it
// to the fresh base. For a sharded store it applies to every shard, and
// each shard's base is sized on its own.
func (s *Store[T]) SetQuantization(bits int) error { return s.inner.SetQuantization(bits) }

// Compact folds the delta segment and tombstones into a fresh base
// immediately, regardless of the automatic thresholds, and reports
// whether there was anything to fold. Searches are never blocked.
func (s *Store[T]) Compact() bool { return s.inner.Compact() }

// Get returns the object with the given stable ID.
func (s *Store[T]) Get(id uint64) (T, bool) { return s.inner.Get(id) }

// Sample returns a representative object of the store's domain: the
// lowest-ID live object, or — when the store has been drained empty —
// one of the model's candidate objects, which share the stored objects'
// shape. A serving process can therefore always derive the expected
// query shape from the store itself.
func (s *Store[T]) Sample() (T, bool) { return s.inner.Sample() }

// Start launches the store's background lifecycle: incremental
// snapshots of dirty shards and compaction scheduled on measured scan
// degradation (see StoreLifecycle). At most one lifecycle runs per
// store; call Close to stop it (and write the final snapshot).
func (s *Store[T]) Start(lc StoreLifecycle) error {
	return s.inner.Start(store.Lifecycle{
		SnapshotPath:     lc.SnapshotPath,
		SnapshotInterval: lc.SnapshotInterval,
		CompactInterval:  lc.CompactInterval,
		CompactShare:     lc.CompactShare,
		Logf:             lc.Logf,
	})
}

// Close stops the background lifecycle and writes a final snapshot when
// a snapshot path was configured. A store that was never started closes
// as a no-op; Close is idempotent.
func (s *Store[T]) Close() error { return s.inner.Close() }

// Size returns the number of stored objects.
func (s *Store[T]) Size() int { return s.inner.Size() }

// Dims returns the embedding dimensionality.
func (s *Store[T]) Dims() int { return s.inner.Dims() }

// Stats returns a point-in-time summary. For a sharded store the segment
// fields are sums over the shards; ShardStats has the per-shard rows.
func (s *Store[T]) Stats() StoreStats {
	return toStoreStats(s.inner.Stats())
}

// ShardStats returns per-shard statistics in shard order, or nil for an
// unsharded store.
func (s *Store[T]) ShardStats() []StoreStats {
	shards := s.inner.ShardStats()
	if shards == nil {
		return nil
	}
	out := make([]StoreStats, len(shards))
	for i, st := range shards {
		out[i] = toStoreStats(st)
	}
	return out
}

func toStoreStats(st store.Stats) StoreStats {
	out := StoreStats{
		Size: st.Size, Dims: st.Dims, Generation: st.Generation, NextID: st.NextID,
		BaseSize: st.BaseSize, DeltaSize: st.DeltaSize, Tombstones: st.Tombstones,
		Compactions: st.Compactions, Shards: st.Shards,
		LastCompactionNanos: st.LastCompactionNanos,
		LastSnapshotNanos:   st.LastSnapshotNanos,
		LastSnapshotBytes:   st.LastSnapshotBytes,
		DeltaScanShare:      st.DeltaScanShare,
		QuantBits:           st.QuantBits,
		BoundScannedRows:    st.BoundScannedRows,
		BoundVisitedRows:    st.BoundVisitedRows,
		BoundExactRows:      st.BoundExactRows,
		ShadowBytes:         st.ShadowBytes,
	}
	return out
}
