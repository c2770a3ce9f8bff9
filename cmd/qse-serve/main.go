// Command qse-serve serves a query-sensitive embedding index over HTTP.
//
// On first run it builds a durable bundle — training a model on a
// synthetic dataset (or loading one saved by qse-train), embedding the
// database, and writing everything to a self-contained bundle: a manifest
// holding the model once, plus a base section and an append-only delta
// log per shard. On later runs it opens that bundle directly: no dataset
// regeneration, no retraining, no re-embedding. While serving,
// /v1/search traffic runs lock-free and concurrent with /v1/objects
// mutations, and the store can be snapshotted back to disk periodically
// in the background.
//
// Usage:
//
//	qse-serve -dataset series -db 400 -bundle qse.bundle -addr 127.0.0.1:8080
//	qse-serve -bundle qse.bundle                  # reopen an existing bundle
//	qse-serve -bundle qse.bundle -build-only      # build the bundle and exit
//	qse-serve -bundle qse.bundle -shards 8        # hash-sharded build: per-shard
//	                                              # locks and compaction, same answers
//
// With -shards N (first build only; a reopened bundle keeps its layout)
// the store is hash-partitioned into N independent shards: mutations to
// different shards never contend, and compaction pauses shrink by N.
// Background snapshots are incremental — only dirty shards' delta logs
// are appended to — and the background compactor folds a shard when the
// measured delta-scan share of its query traffic crosses -compact-share.
// Search results are bit-identical for every N. Bundles in the formats
// of earlier releases (the v1 single file, the v2 manifest of per-shard
// files) are refused with a version error.
//
// Endpoints (JSON): POST /v1/search, POST /v1/search/batch,
// POST /v1/objects, PUT /v1/objects/{id}, DELETE /v1/objects/{id},
// GET /v1/stats, GET /v1/debug/slow (slowest queries with stage
// breakdowns), GET /metrics (Prometheus text format), GET /healthz
// (liveness), GET /readyz (readiness: 503 under degraded persistence or
// a saturated in-flight gate). With -pprof-addr, net/http/pprof serves
// on a separate listener so profiles stay reachable under load.
// A query/object for the series dataset is a [time][dim] array, e.g.
// {"query": [[0.1,0.2],[0.3,0.4]], "k": 5, "p": 100}; {"id": 7, "k": 5}
// searches with a stored object as the query.
//
// Objects can carry typed metadata, and searches can filter on it:
// POST /v1/objects with {"object": ..., "metadata": {"tenant": "acme",
// "ts": 1700000000}} records the fields (each field's type is pinned at
// first write), and /v1/search accepts {"filter": {"and": [{"field":
// "tenant", "eq": "acme"}, {"field": "ts", "ge": 1700000000}]}} with
// operators eq/ne/lt/le/gt/ge/in/exists. The filter restricts the
// candidate scan itself — k applies to the matching set — and metadata
// survives snapshots and restarts inside the bundle. PUT /v1/objects/{id}
// replaces the whole metadata record (omitting "metadata" clears it).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qse/internal/core"
	"qse/internal/datasets"
	"qse/internal/dtw"
	"qse/internal/server"
	"qse/internal/space"
	"qse/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		bundle    = flag.String("bundle", "qse.bundle", "bundle file: opened if it exists, built and written otherwise")
		buildOnly = flag.Bool("build-only", false, "build the bundle and exit without serving")
		dataset   = flag.String("dataset", "series", "dataset for first-time bundle builds (only series has a JSON query encoding)")
		shards    = flag.Int("shards", 1, "shard count for first-time bundle builds: hash-partition the store into this many independently locked and compacted shards (reopened bundles keep the count they were built with; results are identical for any count)")
		dbSize    = flag.Int("db", 400, "database size for first-time builds")
		dataseed  = flag.Int64("dataseed", 7, "dataset generation seed for first-time builds")
		modelPath = flag.String("model", "", "model gob from qse-train to reuse (empty = train a fresh model)")
		rounds    = flag.Int("rounds", 16, "boosting rounds when training")
		triples   = flag.Int("triples", 2000, "training triples when training")
		cands     = flag.Int("candidates", 60, "candidate objects |C| when training")
		pool      = flag.Int("pool", 120, "training pool |Xtr| when training")
		k1        = flag.Int("k1", 5, "selective-sampling radius when training")
		seed      = flag.Int64("seed", 1, "training seed")
		snapEvery = flag.Duration("snapshot-every", 0, "periodic background snapshot interval (0 disables the periodic loop; a final snapshot is always written on shutdown)")
		snapRetry = flag.Int("snapshot-retries", store.DefaultSnapshotRetries, "backoff retries after a failed snapshot attempt (0 = fail immediately); repeated failure flips /readyz to 503 while serving continues")
		maxBody   = flag.Int64("max-body", server.DefaultMaxBody, "maximum request body bytes")
		inflight  = flag.Int("max-inflight", 256, "maximum concurrently executing work requests before excess load is shed with 429 (0 = unbounded)")
		searchTO  = flag.Duration("search-timeout", 30*time.Second, "deadline for one search or batch computation; exceeding it answers 504 (0 = none)")
		slowLog   = flag.Int("slow-log", server.DefaultSlowLogSize, "how many of the slowest queries to retain for GET /v1/debug/slow")
		pprofAddr = flag.String("pprof-addr", "", "listen address for net/http/pprof on a side listener (empty = disabled); keep it loopback-only or firewalled")
		dims      = flag.Int("series-dims", 0, "sample dimensionality queries must have (0 = derive from the stored data or the bundled model)")

		// Compaction: the mutation path folds the append-only delta segment
		// and the tombstones back into the base when either threshold pair
		// is crossed, and the store's own background compactor folds them
		// whenever the measured delta-scan share of real query traffic
		// crosses -compact-share, so scans stay clean and snapshots cheap.
		// Flag defaults come from the library's policy so the CLI and an
		// embedded store can never silently diverge.
		defPol           = store.DefaultCompactionPolicy()
		compactEvery     = flag.Duration("compact-every", store.DefaultCompactInterval, "how often the background compactor evaluates the measured delta-scan share (0 disables it)")
		compactShare     = flag.Float64("compact-share", store.DefaultCompactShare, "delta-scan share of query traffic above which the background compactor folds a shard (0 means the library default; use a small positive value to fold on any degradation)")
		compactMinDelta  = flag.Int("compact-min-delta", defPol.MinDelta, "compact when the delta segment holds at least this many objects and -compact-delta-frac of the base")
		compactDeltaFrac = flag.Float64("compact-delta-frac", defPol.DeltaFrac, "delta-to-base ratio that (with -compact-min-delta) triggers compaction")
		compactMinDead   = flag.Int("compact-min-dead", defPol.MinDead, "compact when at least this many rows are tombstoned and -compact-dead-frac of the store")
		compactDeadFrac  = flag.Float64("compact-dead-frac", defPol.DeadFrac, "tombstone-to-total ratio that (with -compact-min-dead) triggers compaction")
		quantBits        = flag.Int("quantize-bits", -1, "8 turns on the 8-bit scalar-quantized shadow block for the filter scan, 0 turns it off, -1 keeps whatever the bundle was saved with; a shadow is built only for a shard base of at least 16,384 rows and 16 embedded dimensions, and smaller bases keep the exact scan; results are bit-identical either way")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("qse-serve: ")

	if *dataset != "series" {
		log.Fatalf("unsupported dataset %q: only series objects have a JSON encoding", *dataset)
	}
	if err := checkQuantBits(*quantBits); err != nil {
		log.Fatal(err)
	}
	dist := space.Distance[dtw.Series](func(a, b dtw.Series) float64 { return dtw.Constrained(a, b, 0.10) })
	codec := store.Gob[dtw.Series]()

	st, err := openOrBuild(*bundle, dist, codec, buildConfig{
		shards: *shards,
		dbSize: *dbSize, dataseed: *dataseed, modelPath: *modelPath,
		rounds: *rounds, triples: *triples, cands: *cands, pool: *pool, k1: *k1, seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	st.SetCompactionPolicy(store.CompactionPolicy{
		MinDelta: *compactMinDelta, DeltaFrac: *compactDeltaFrac,
		MinDead: *compactMinDead, DeadFrac: *compactDeadFrac,
	})
	if *quantBits >= 0 {
		if err := st.SetQuantization(*quantBits); err != nil {
			log.Fatalf("setting quantization: %v", err)
		}
	}
	stats := st.Stats()
	log.Printf("store ready: %d objects, %d dims, %d shards, generation %d", stats.Size, stats.Dims, stats.Shards, stats.Generation)
	if *buildOnly {
		return
	}

	// DTW panics on sample-dimensionality mismatch, so the decoder must
	// reject queries whose shape differs from the stored data. The shape
	// is derived from the store itself — the first stored object, or a
	// bundled model candidate when the store has been drained empty — so
	// any bundle serves without an operator-supplied flag; -series-dims
	// remains as an explicit override.
	wantDims := *dims
	if wantDims == 0 {
		sample, ok := st.Sample()
		if !ok {
			// Unreachable for any store this binary can build or open (a
			// trained model always carries candidate objects).
			log.Fatal("store has no sample object; set -series-dims")
		}
		wantDims = sample.Dims()
	}
	decode := func(raw json.RawMessage) (dtw.Series, error) {
		var s dtw.Series
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Dims() != wantDims {
			return nil, fmt.Errorf("series samples have %d dims, this index requires %d", s.Dims(), wantDims)
		}
		return s, nil
	}
	srv := server.New(st, decode, server.Options{
		MaxBodyBytes:  *maxBody,
		MaxInFlight:   *inflight,
		SearchTimeout: *searchTO,
		SlowLogSize:   *slowLog,
	})

	// pprof rides a side listener, never the serving mux: profiles must
	// stay reachable when the API is saturated, and must not be exposed
	// on the public address by accident. The handlers are wired
	// explicitly instead of importing net/http/pprof for its
	// DefaultServeMux side effect.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.ListenAndServe(); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
		log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
	}

	// The background lifecycle — incremental snapshots of dirty shards
	// and compaction scheduled on the measured delta-scan share — is
	// owned by the store itself (store.Start/Close), not by this binary:
	// every embedder of the store gets the same machinery. The periodic
	// snapshot loop is optional; Close always writes a final snapshot so
	// mutations taken over HTTP survive the restart.
	lc := store.Lifecycle{
		SnapshotPath:     *bundle,
		SnapshotInterval: *snapEvery,
		CompactInterval:  *compactEvery,
		CompactShare:     *compactShare,
		SnapshotRetries:  *snapRetry,
		Logf:             log.Printf,
	}
	if *snapEvery == 0 {
		lc.SnapshotInterval = -1 // periodic loop off; final snapshot stays
	}
	if *snapRetry <= 0 {
		lc.SnapshotRetries = -1 // the CLI's 0 means "no retries", not "default"
	}
	if *compactEvery == 0 {
		lc.CompactInterval = -1
	}
	if err := st.Start(lc); err != nil {
		log.Fatalf("starting store lifecycle: %v", err)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	log.Printf("listening on http://%s (try GET /healthz)", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("serving: %v", err)
	case sig := <-sigc:
		log.Printf("received %v, draining", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Close stops the background loops and writes the final snapshot
	// (only what is dirty: clean shards cost nothing). A failed final
	// snapshot means mutations taken over HTTP did NOT survive to disk —
	// that must fail the process visibly, not scroll by in a log line.
	if err := st.Close(); err != nil {
		log.Fatalf("closing store: final snapshot failed, recent mutations may be lost: %v", err)
	}
	log.Printf("store closed (generation %d)", st.Stats().Generation)
}

// checkQuantBits rejects -quantize-bits values other than off (0) and
// the one shadow width (8). -1 means "keep the bundle's setting" and is
// always fine.
func checkQuantBits(bits int) error {
	switch bits {
	case -1, 0, 8:
		return nil
	}
	return fmt.Errorf("-quantize-bits %d: supported widths are 0 (off) or 8 bits per dimension", bits)
}

type buildConfig struct {
	shards                           int
	dbSize                           int
	dataseed                         int64
	modelPath                        string
	rounds, triples, cands, pool, k1 int
	seed                             int64
}

// openOrBuild opens an existing bundle (with the shard count it was saved
// with) or builds one from the synthetic dataset and persists it with the
// configured shard count.
func openOrBuild(path string, dist space.Distance[dtw.Series], codec store.Codec[dtw.Series], cfg buildConfig) (*store.Store[dtw.Series], error) {
	if _, err := os.Stat(path); err == nil {
		log.Printf("opening bundle %s", path)
		return store.Open(path, dist, codec)
	}
	log.Printf("bundle %s not found; building from dataset (db=%d, seed=%d, shards=%d)", path, cfg.dbSize, cfg.dataseed, cfg.shards)
	db, _, err := datasets.Series(cfg.dbSize, cfg.dataseed)
	if err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}

	var model *core.Model[dtw.Series]
	if cfg.modelPath != "" {
		f, err := os.Open(cfg.modelPath)
		if err != nil {
			return nil, fmt.Errorf("opening model: %w", err)
		}
		defer f.Close()
		if model, err = core.Load(f, db, dist); err != nil {
			return nil, fmt.Errorf("loading model: %w", err)
		}
		log.Printf("loaded model %s: %d dims", cfg.modelPath, model.Dims())
	} else {
		opts := core.DefaultOptions()
		opts.Rounds = cfg.rounds
		opts.NumTriples = cfg.triples
		opts.NumCandidates = cfg.cands
		opts.NumTraining = cfg.pool
		opts.K1 = cfg.k1
		opts.Seed = cfg.seed
		t0 := time.Now()
		var report *core.Report
		if model, report, err = core.Train(db, dist, opts); err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
		log.Printf("trained %s in %v: %d dims, embed cost %d, training error %.4f",
			report.Variant, time.Since(t0).Round(time.Millisecond), model.Dims(), model.EmbedCost(), report.FinalTrainingError())
	}

	st, err := store.NewSharded(model, db, dist, codec, cfg.shards)
	if err != nil {
		return nil, err
	}
	if err := st.Save(path); err != nil {
		return nil, fmt.Errorf("writing bundle: %w", err)
	}
	log.Printf("bundle written to %s", path)
	return st, nil
}
