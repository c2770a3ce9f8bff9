package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qse/internal/core"
	"qse/internal/store"
)

func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// decodeVec is the query decoder for the []float64 test space.
func decodeVec(raw json.RawMessage) ([]float64, error) {
	var v []float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	if len(v) != 3 {
		return nil, fmt.Errorf("want 3 dims, got %d", len(v))
	}
	return v, nil
}

func testStore(t testing.TB) *store.Store[[]float64] {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := make([][]float64, 70)
	for i := range db {
		c := float64(i % 7)
		db[i] = []float64{c + rng.NormFloat64()*0.2, -c + rng.NormFloat64()*0.2, rng.NormFloat64()}
	}
	opts := core.DefaultOptions()
	opts.Rounds = 8
	opts.NumCandidates = 20
	opts.NumTraining = 40
	opts.NumTriples = 400
	opts.K1 = 3
	opts.Seed = 1
	model, _, err := core.Train(db, l1, opts)
	if err != nil {
		t.Fatalf("training fixture: %v", err)
	}
	st, err := store.New(model, db, l1, store.Gob[[]float64]())
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return st
}

func newTestServer(t *testing.T, opts Options) (*Server[[]float64], http.Handler) {
	t.Helper()
	srv := New(testStore(t), decodeVec, opts)
	return srv, srv.Handler()
}

// do runs one request through the handler and returns the recorder.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeInto[T any](t *testing.T, rec *httptest.ResponseRecorder, dst *T) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, h := newTestServer(t, Options{})

	rec := do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":5,"p":20}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	var resp searchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Distance < resp.Results[i-1].Distance {
			t.Fatalf("results unsorted: %v", resp.Results)
		}
	}
	if resp.Stats.RefineDistances != 20 {
		t.Fatalf("refine distances %d, want 20", resp.Stats.RefineDistances)
	}

	// Search by stored ID: the object itself must come back first at
	// distance 0.
	rec = do(h, "POST", "/v1/search", `{"id":12,"k":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search by id: %d %s", rec.Code, rec.Body)
	}
	decodeInto(t, rec, &resp)
	if len(resp.Results) == 0 || resp.Results[0].ID != 12 || resp.Results[0].Distance != 0 {
		t.Fatalf("self-search: %v", resp.Results)
	}

	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"both query and id":  {`{"query":[1,2,3],"id":4,"k":2}`, http.StatusBadRequest},
		"neither":            {`{"k":2}`, http.StatusBadRequest},
		"k zero":             {`{"query":[1,2,3],"k":0}`, http.StatusBadRequest},
		"k negative":         {`{"query":[1,2,3],"k":-4}`, http.StatusBadRequest},
		"p below k":          {`{"query":[1,2,3],"k":5,"p":2}`, http.StatusBadRequest},
		"wrong query dims":   {`{"query":[1,2],"k":2}`, http.StatusBadRequest},
		"query not an array": {`{"query":"hello","k":2}`, http.StatusBadRequest},
		"unknown id":         {`{"id":99999,"k":2}`, http.StatusNotFound},
		"unknown field":      {`{"query":[1,2,3],"k":2,"bogus":1}`, http.StatusBadRequest},
		"malformed json":     {`{"query":[1,2,3],`, http.StatusBadRequest},
		"empty body":         {``, http.StatusBadRequest},
		"trailing garbage":   {`{"query":[1,2,3],"k":2} extra`, http.StatusBadRequest},
		"two json values":    {`{"query":[1,2,3],"k":2}{"k":1}`, http.StatusBadRequest},
	} {
		rec := do(h, "POST", "/v1/search", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: got %d (%s), want %d", name, rec.Code, rec.Body, tc.code)
		}
		var e errorResponse
		if tc.code >= 400 {
			decodeInto(t, rec, &e)
			if e.Error == "" {
				t.Errorf("%s: error body missing", name)
			}
		}
	}

	if rec := do(h, "GET", "/v1/search", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: %d, want 405", rec.Code)
	}
}

func TestSearchBatchEndpoint(t *testing.T) {
	_, h := newTestServer(t, Options{BatchLimit: 4})

	rec := do(h, "POST", "/v1/search/batch", `{"queries":[[3,-3,0],[1,-1,0]],"k":3,"p":12}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Results) != 2 || len(resp.Stats) != 2 {
		t.Fatalf("batch shape: %d results, %d stats", len(resp.Results), len(resp.Stats))
	}

	// Batch answers must equal single-query answers.
	var single searchResponse
	decodeInto(t, do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":3,"p":12}`), &single)
	if fmt.Sprint(resp.Results[0]) != fmt.Sprint(single.Results) {
		t.Fatalf("batch[0] %v != single %v", resp.Results[0], single.Results)
	}

	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"empty batch":     {`{"queries":[],"k":2}`, http.StatusBadRequest},
		"missing queries": {`{"k":2}`, http.StatusBadRequest},
		"over limit":      {`{"queries":[[1,2,3],[1,2,3],[1,2,3],[1,2,3],[1,2,3]],"k":2}`, http.StatusBadRequest},
		"bad query 1":     {`{"queries":[[1,2,3],[1,2]],"k":2}`, http.StatusBadRequest},
		"malformed":       {`{"queries":`, http.StatusBadRequest},
	} {
		if rec := do(h, "POST", "/v1/search/batch", tc.body); rec.Code != tc.code {
			t.Errorf("%s: got %d (%s), want %d", name, rec.Code, rec.Body, tc.code)
		}
	}
}

func TestAddAndRemoveEndpoints(t *testing.T) {
	_, h := newTestServer(t, Options{})

	rec := do(h, "POST", "/v1/objects", `{"object":[2.5,-2.5,0]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("add: %d %s", rec.Code, rec.Body)
	}
	var added addResponse
	decodeInto(t, rec, &added)
	if added.ID != 70 {
		t.Fatalf("added ID %d, want 70", added.ID)
	}

	// The new object is immediately searchable by ID.
	var sr searchResponse
	decodeInto(t, do(h, "POST", "/v1/search", fmt.Sprintf(`{"id":%d,"k":1}`, added.ID)), &sr)
	if len(sr.Results) != 1 || sr.Results[0].ID != added.ID {
		t.Fatalf("fresh object not found: %v", sr.Results)
	}

	if rec := do(h, "DELETE", fmt.Sprintf("/v1/objects/%d", added.ID), ""); rec.Code != http.StatusOK {
		t.Fatalf("remove: %d %s", rec.Code, rec.Body)
	}
	if rec := do(h, "DELETE", fmt.Sprintf("/v1/objects/%d", added.ID), ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double remove: %d, want 404", rec.Code)
	}
	if rec := do(h, "DELETE", "/v1/objects/not-a-number", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id: %d, want 400", rec.Code)
	}
	if rec := do(h, "DELETE", "/v1/objects/424242", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", rec.Code)
	}

	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"missing object": {`{}`, http.StatusBadRequest},
		"invalid object": {`{"object":[1]}`, http.StatusBadRequest},
		"malformed":      {`{"object":`, http.StatusBadRequest},
	} {
		if rec := do(h, "POST", "/v1/objects", tc.body); rec.Code != tc.code {
			t.Errorf("add %s: got %d, want %d", name, rec.Code, tc.code)
		}
	}
}

// TestUpsertEndpoint covers PUT /v1/objects/{id}: a replace keeps the
// ID and is immediately searchable, exactly one generation is spent,
// and the validation/404 contract matches the other object endpoints.
func TestUpsertEndpoint(t *testing.T) {
	st := testStore(t)
	srv := New(st, decodeVec, Options{})
	h := srv.Handler()

	genBefore := st.Generation()
	rec := do(h, "PUT", "/v1/objects/12", `{"object":[9.5,-9.5,0.25]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("upsert: %d %s", rec.Code, rec.Body)
	}
	var resp addResponse
	decodeInto(t, rec, &resp)
	if resp.ID != 12 {
		t.Fatalf("upsert returned ID %d, want 12 (the ID must be preserved)", resp.ID)
	}
	if g := st.Generation(); g != genBefore+1 {
		t.Fatalf("upsert spent %d generations, want exactly 1", g-genBefore)
	}

	// The replacement is what ID 12 now resolves to: a self-search by ID
	// must return 12 first at distance 0, and the object itself must be
	// the new one.
	var sr searchResponse
	decodeInto(t, do(h, "POST", "/v1/search", `{"id":12,"k":1}`), &sr)
	if len(sr.Results) != 1 || sr.Results[0].ID != 12 || sr.Results[0].Distance != 0 {
		t.Fatalf("post-upsert self-search: %v", sr.Results)
	}
	if x, ok := srv.st.Get(12); !ok || x[0] != 9.5 {
		t.Fatalf("Get(12) after upsert: %v %v, want the replacement", x, ok)
	}

	for name, tc := range map[string]struct {
		path, body string
		code       int
	}{
		"unknown id":     {"/v1/objects/424242", `{"object":[1,2,3]}`, http.StatusNotFound},
		"bad id":         {"/v1/objects/not-a-number", `{"object":[1,2,3]}`, http.StatusBadRequest},
		"missing object": {"/v1/objects/12", `{}`, http.StatusBadRequest},
		"invalid object": {"/v1/objects/12", `{"object":[1]}`, http.StatusBadRequest},
		"malformed":      {"/v1/objects/12", `{"object":`, http.StatusBadRequest},
	} {
		if rec := do(h, "PUT", tc.path, tc.body); rec.Code != tc.code {
			t.Errorf("upsert %s: got %d (%s), want %d", name, rec.Code, rec.Body, tc.code)
		}
	}
	// Validation failures must not have mutated anything.
	if x, ok := srv.st.Get(12); !ok || x[0] != 9.5 {
		t.Fatalf("failed upserts disturbed ID 12: %v %v", x, ok)
	}

	// A removed ID cannot be upserted back into existence.
	if rec := do(h, "DELETE", "/v1/objects/12", ""); rec.Code != http.StatusOK {
		t.Fatalf("remove: %d", rec.Code)
	}
	if rec := do(h, "PUT", "/v1/objects/12", `{"object":[1,2,3]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("upsert of removed id: %d, want 404", rec.Code)
	}
}

// TestDrainedStoreKeepsServing pins the empty-store contract at the HTTP
// layer: deleting every object must leave a server that answers
// /v1/search with 200 and empty results — never a 500 — and accepts new
// objects afterwards.
func TestDrainedStoreKeepsServing(t *testing.T) {
	_, h := newTestServer(t, Options{})

	for id := 0; id < 70; id++ {
		if rec := do(h, "DELETE", fmt.Sprintf("/v1/objects/%d", id), ""); rec.Code != http.StatusOK {
			t.Fatalf("draining delete %d: %d %s", id, rec.Code, rec.Body)
		}
	}

	rec := do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":5,"p":20}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search on drained store: %d %s, want 200", rec.Code, rec.Body)
	}
	var resp searchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Results) != 0 {
		t.Fatalf("drained search returned %v, want none", resp.Results)
	}

	rec = do(h, "POST", "/v1/search/batch", `{"queries":[[3,-3,0],[1,-1,0]],"k":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch on drained store: %d %s, want 200", rec.Code, rec.Body)
	}

	// Searching by a removed ID is the client's error, not the server's.
	if rec := do(h, "POST", "/v1/search", `{"id":3,"k":2}`); rec.Code != http.StatusNotFound {
		t.Fatalf("search by removed id: %d, want 404", rec.Code)
	}

	var stats statsResponse
	decodeInto(t, do(h, "GET", "/v1/stats", ""), &stats)
	if stats.Store.Size != 0 || stats.Store.Tombstones != 70 {
		t.Fatalf("drained stats %+v, want size 0, tombstones 70", stats.Store)
	}

	if rec := do(h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz on drained store: %d", rec.Code)
	}

	rec = do(h, "POST", "/v1/objects", `{"object":[2.5,-2.5,0]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("add after drain: %d %s", rec.Code, rec.Body)
	}
	var added addResponse
	decodeInto(t, rec, &added)
	if added.ID != 70 {
		t.Fatalf("post-drain ID %d, want 70", added.ID)
	}
	var sr searchResponse
	decodeInto(t, do(h, "POST", "/v1/search", `{"query":[2.5,-2.5,0],"k":1}`), &sr)
	if len(sr.Results) != 1 || sr.Results[0].ID != 70 {
		t.Fatalf("post-drain search: %v", sr.Results)
	}
}

func TestOversizedBody(t *testing.T) {
	_, h := newTestServer(t, Options{MaxBodyBytes: 128})
	big := `{"query":[` + strings.Repeat("1,", 200) + `1],"k":2}`
	rec := do(h, "POST", "/v1/search", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", rec.Code)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, h := newTestServer(t, Options{})

	if rec := do(h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	} else if !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz body: %s", rec.Body)
	}

	do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":2}`)
	do(h, "POST", "/v1/search", `{"k":0}`) // one error
	do(h, "POST", "/v1/objects", `{"object":[0,0,0]}`)

	rec := do(h, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var stats statsResponse
	decodeInto(t, rec, &stats)
	if stats.Store.Size != 71 {
		t.Fatalf("store size %d, want 71", stats.Store.Size)
	}
	if stats.Store.Generation != 1 {
		t.Fatalf("generation %d, want 1", stats.Store.Generation)
	}
	// The one added object sits in the delta segment until compaction.
	if stats.Store.BaseSize != 70 || stats.Store.DeltaSize != 1 || stats.Store.Tombstones != 0 {
		t.Fatalf("segment stats %+v, want base 70 / delta 1 / tombstones 0", stats.Store)
	}
	se := stats.Endpoints["search"]
	if se.Requests != 2 || se.Errors != 1 {
		t.Fatalf("search endpoint stats %+v, want 2 requests / 1 error", se)
	}
	if add := stats.Endpoints["add"]; add.Requests != 1 || add.Errors != 0 {
		t.Fatalf("add endpoint stats %+v", add)
	}
	if se.QPS <= 0 {
		t.Fatalf("QPS %v, want > 0", se.QPS)
	}
}

// testShardedStore mirrors testStore over a hash-sharded backend.
func testShardedStore(t testing.TB, shards int) *store.Store[[]float64] {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := make([][]float64, 70)
	for i := range db {
		c := float64(i % 7)
		db[i] = []float64{c + rng.NormFloat64()*0.2, -c + rng.NormFloat64()*0.2, rng.NormFloat64()}
	}
	opts := core.DefaultOptions()
	opts.Rounds = 8
	opts.NumCandidates = 20
	opts.NumTraining = 40
	opts.NumTriples = 400
	opts.K1 = 3
	opts.Seed = 1
	model, _, err := core.Train(db, l1, opts)
	if err != nil {
		t.Fatalf("training fixture: %v", err)
	}
	st, err := store.NewSharded(model, db, l1, store.Gob[[]float64](), shards)
	if err != nil {
		t.Fatalf("store.NewSharded: %v", err)
	}
	return st
}

// TestShardedBackend serves a sharded store through the full HTTP
// surface: searches, mutations, and the per-shard detail rows /v1/stats
// grows when the backend is sharded (and omits when it is not).
func TestShardedBackend(t *testing.T) {
	srv := New[[]float64](testShardedStore(t, 4), decodeVec, Options{})
	h := srv.Handler()

	if rec := do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":3}`); rec.Code != http.StatusOK {
		t.Fatalf("sharded search: %d %s", rec.Code, rec.Body)
	}
	if rec := do(h, "POST", "/v1/search", `{"id":12,"k":2}`); rec.Code != http.StatusOK {
		t.Fatalf("sharded search by id: %d %s", rec.Code, rec.Body)
	}
	if rec := do(h, "POST", "/v1/objects", `{"object":[1,-1,0]}`); rec.Code != http.StatusCreated {
		t.Fatalf("sharded add: %d %s", rec.Code, rec.Body)
	} else if !strings.Contains(rec.Body.String(), `"id":70`) {
		t.Fatalf("sharded add body: %s", rec.Body)
	}
	if rec := do(h, "DELETE", "/v1/objects/3", ""); rec.Code != http.StatusOK {
		t.Fatalf("sharded remove: %d %s", rec.Code, rec.Body)
	}

	rec := do(h, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var stats statsResponse
	decodeInto(t, rec, &stats)
	if stats.Store.Shards != 4 {
		t.Fatalf("shards = %d, want 4", stats.Store.Shards)
	}
	if stats.Store.Size != 70 || stats.Store.Generation != 2 {
		t.Fatalf("aggregate stats %+v, want size 70 generation 2", stats.Store)
	}
	if len(stats.ShardDetail) != 4 {
		t.Fatalf("shard detail has %d rows, want 4: %+v", len(stats.ShardDetail), stats.ShardDetail)
	}
	var size, base, delta, tomb int
	var gen uint64
	for _, row := range stats.ShardDetail {
		size += row.Size
		base += row.BaseSize
		delta += row.DeltaSize
		tomb += row.Tombstones
		gen += row.Generation
	}
	if size != stats.Store.Size || base != stats.Store.BaseSize || delta != stats.Store.DeltaSize ||
		tomb != stats.Store.Tombstones || gen != stats.Store.Generation {
		t.Fatalf("shard detail does not sum to aggregate:\n rows %+v\n agg %+v", stats.ShardDetail, stats.Store)
	}

	// An unsharded backend reports shards=1 and no detail rows.
	_, plain := newTestServer(t, Options{})
	rec = do(plain, "GET", "/v1/stats", "")
	var pstats statsResponse
	decodeInto(t, rec, &pstats)
	if pstats.Store.Shards != 1 || pstats.ShardDetail != nil {
		t.Fatalf("plain store stats: shards %d, detail %v; want 1 and none", pstats.Store.Shards, pstats.ShardDetail)
	}
}

// TestServeShutdown exercises the real listener path and graceful
// shutdown against a live TCP port.
func TestServeShutdown(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("live healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live healthz: %d", resp.StatusCode)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
