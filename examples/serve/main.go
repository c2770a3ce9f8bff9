// Serve walkthrough: take a trained index all the way to a running HTTP
// service — train, build a Store, save it as a durable bundle, reopen the
// bundle (zero exact distances), and serve it while a client searches and
// mutates it over the network.
//
// The flow mirrors production use:
//
//	train → qse.NewStore → Store.Save(bundle)        (offline, once)
//	store.Open(bundle) → server.New → Serve          (every process start)
//
// The bundle is the interchange format between the two halves: it carries
// the model, the embedded vectors, the objects themselves, and the
// stable-ID table, so the serving process needs neither the training
// database nor any retraining.
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"qse"
	"qse/internal/server"
	"qse/internal/store"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// A clustered vector database under Euclidean distance. Any object
	// type and distance function works the same way.
	centers := make([][]float64, 10)
	for i := range centers {
		centers[i] = []float64{rng.Float64(), rng.Float64()}
	}
	db := make([][]float64, 600)
	for i := range db {
		c := centers[i%len(centers)]
		db[i] = []float64{c[0] + rng.NormFloat64()*0.04, c[1] + rng.NormFloat64()*0.04}
	}
	dist := func(a, b []float64) float64 {
		dx, dy := a[0]-b[0], a[1]-b[1]
		return math.Sqrt(dx*dx + dy*dy)
	}

	// ---- Offline: train, index into a Store, persist a bundle. ----
	cfg := qse.DefaultTrainConfig()
	cfg.Rounds = 24
	cfg.Seed = 1
	model, err := qse.Train(db, dist, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// WithShards hash-partitions the store into independently locked and
	// compacted shards — the right setting for write-heavy serving.
	// Answers are bit-identical for any shard count (including 1, the
	// default); the bundle below is a manifest plus a base section and a
	// delta log per shard, and qse-serve's -shards flag is this same
	// option as a CLI.
	st, err := qse.NewStore(model, db, dist, qse.GobCodec[[]float64](), qse.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "qse-serve-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bundle := filepath.Join(dir, "vectors.bundle")
	if err := st.Save(bundle); err != nil {
		log.Fatal(err)
	}
	// The bundle path holds a small manifest; the vectors live in the
	// per-shard files next to it.
	layout, _ := filepath.Glob(bundle + "*")
	var bytes64 int64
	for _, f := range layout {
		if info, err := os.Stat(f); err == nil {
			bytes64 += info.Size()
		}
	}
	fmt.Printf("bundle written: %d objects, %d dims, %d shards, %d files, %d bytes\n",
		st.Size(), st.Dims(), st.Stats().Shards, len(layout), bytes64)

	// ---- Serving process: reopen the bundle and put it on the network.
	// Opening costs zero exact distance computations — the embedded
	// vectors travel inside the bundle. Open restores the layout with
	// the shard count it was saved with, as the store the server
	// consumes.
	served, err := store.Open(bundle, dist, store.Gob[[]float64]())
	if err != nil {
		log.Fatal(err)
	}
	// The store owns its background services: incremental snapshots of
	// dirty shards back to the bundle, and compaction scheduled on the
	// measured delta-scan share of query traffic. Close (below) stops
	// them and writes a final snapshot, so mutations taken over HTTP
	// survive a restart.
	if err := served.Start(store.Lifecycle{SnapshotPath: bundle}); err != nil {
		log.Fatal(err)
	}
	// Scalar quantization gives a large base an 8-bit shadow the filter
	// scan screens with cheap distance bounds, touching the exact float64
	// vectors only for rows the bounds cannot exclude. Only a base of at
	// least 16,384 rows and 16 embedded dimensions gets one, so these few
	// 2-D points never do: the setting is recorded (and persists inside
	// the bundle) while every scan stays exact. Answers are bit-identical
	// either way. qse-serve exposes this as -quantize-bits.
	if err := served.SetQuantization(8); err != nil {
		log.Fatal(err)
	}
	decode := func(raw json.RawMessage) ([]float64, error) {
		var v []float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		if len(v) != 2 {
			return nil, fmt.Errorf("want 2-dimensional points, got %d", len(v))
		}
		return v, nil
	}
	srv := server.New(served, decode, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// ---- A client, over plain HTTP. ----
	post := func(path, body string) string {
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}

	q := []float64{centers[3][0], centers[3][1]}
	fmt.Printf("POST /v1/search near cluster 3:\n  %s\n", post("/v1/search", fmt.Sprintf(`{"query":[%g,%g],"k":3,"p":60}`, q[0], q[1])))
	fmt.Printf("POST /v1/objects (insert while serving):\n  %s\n", post("/v1/objects", `{"object":[0.5,0.5]}`))
	fmt.Printf("POST /v1/search by stored id:\n  %s\n", post("/v1/search", `{"id":600,"k":2,"p":40}`))

	// ---- Metadata and filtered search. ----
	// Objects carry a typed metadata record (a field's type is pinned
	// store-wide at first write); a search "filter" is evaluated below
	// the top-p cut, so k applies to the matching set and a selective
	// predicate never starves the result list.
	fmt.Printf("POST /v1/objects with metadata:\n  %s\n",
		post("/v1/objects", `{"object":[0.52,0.48],"metadata":{"tenant":"acme","tier":1}}`))
	fmt.Printf("POST /v1/search filtered to one tenant:\n  %s\n",
		post("/v1/search", `{"query":[0.5,0.5],"k":3,"p":60,"filter":{"and":[{"field":"tenant","eq":"acme"},{"field":"tier","le":2}]}}`))

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	var stats bytes.Buffer
	stats.ReadFrom(resp.Body)
	resp.Body.Close()
	fmt.Printf("GET /v1/stats:\n  %s\n", stats.String())

	// ---- Observability: where did the time go? ----
	// "debug":true returns the per-stage breakdown (embed, filter over
	// base/delta segments, merge, refine) inline with the results.
	fmt.Printf("POST /v1/search with debug timing:\n  %s\n",
		post("/v1/search", fmt.Sprintf(`{"query":[%g,%g],"k":3,"p":60,"debug":true}`, q[0], q[1])))

	// The same stage timings aggregate into Prometheus histograms on
	// GET /metrics, next to per-endpoint latency series and store gauges
	// — point a scraper at this path in production.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	var scrape bytes.Buffer
	scrape.ReadFrom(resp.Body)
	resp.Body.Close()
	fmt.Println("GET /metrics (excerpt):")
	for _, line := range bytes.Split(scrape.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("qse_http_requests_total")) ||
			bytes.HasPrefix(line, []byte("qse_search_stage_duration_seconds_count")) ||
			bytes.HasPrefix(line, []byte("qse_filter_field_selectivity")) ||
			bytes.HasPrefix(line, []byte("qse_store_size")) ||
			bytes.HasPrefix(line, []byte("qse_store_quantize_bits")) ||
			bytes.HasPrefix(line, []byte("qse_store_bound_prune_rate")) {
			fmt.Printf("  %s\n", line)
		}
	}

	// The slow log keeps the N slowest queries with their request shape
	// and stage breakdown — the first stop when p99 moves.
	resp, err = http.Get(base + "/v1/debug/slow")
	if err != nil {
		log.Fatal(err)
	}
	var slow bytes.Buffer
	slow.ReadFrom(resp.Body)
	resp.Body.Close()
	fmt.Printf("\nGET /v1/debug/slow:\n  %s\n", slow.String())

	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := served.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and stopped.")
}
