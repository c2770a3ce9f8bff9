package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"qse/internal/core"
	"qse/internal/embed"
	"qse/internal/store"
)

// TestMetricsEndpoint drives real traffic and asserts the scrape holds
// the per-endpoint series, the stage histograms, and the store gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv, h := newTestServer(t, Options{})
	for i := 0; i < 4; i++ {
		if rec := do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":5,"p":20}`); rec.Code != http.StatusOK {
			t.Fatalf("search %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec := do(h, "POST", "/v1/search", `{"k":0}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad search: %d", rec.Code)
	}

	rec := do(h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`qse_http_requests_total{endpoint="search"} 5`,
		`qse_http_errors_total{endpoint="search"} 1`,
		`qse_http_shed_total{endpoint="search"} 0`,
		`qse_http_request_duration_seconds_count{endpoint="search"} 5`,
		`qse_http_request_duration_seconds_bucket{endpoint="search",le="+Inf"} 5`,
		`qse_search_stage_duration_seconds_count{stage="embed"} 4`,
		`qse_search_stage_duration_seconds_count{stage="filter_base"} 4`,
		`qse_search_stage_duration_seconds_count{stage="refine"} 4`,
		`qse_store_size 70`,
		`qse_store_shards 1`,
		`qse_store_degraded_persistence 0`,
		`qse_http_panics_total 0`,
		`qse_http_inflight 0`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Distance counters: 4 successful searches, each p=20 refines.
	if !strings.Contains(body, "qse_search_refine_distances_total 80\n") {
		t.Errorf("refine distance counter wrong:\n%s", grepLines(body, "refine_distances"))
	}
	_ = srv
}

// grepLines returns the lines of s containing sub, for error messages.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestDebugFlagBitIdentical is the serving half of the instrumentation
// bit-identity contract: the same query with and without debug returns
// exactly the same results and distance counts; only the timing block
// appears and disappears.
func TestDebugFlagBitIdentical(t *testing.T) {
	_, h := newTestServer(t, Options{})
	plain := do(h, "POST", "/v1/search", `{"query":[2,-2,0.5],"k":4,"p":30}`)
	debug := do(h, "POST", "/v1/search", `{"query":[2,-2,0.5],"k":4,"p":30,"debug":true}`)
	if plain.Code != http.StatusOK || debug.Code != http.StatusOK {
		t.Fatalf("status %d / %d", plain.Code, debug.Code)
	}
	var pr, dr searchResponse
	decodeInto(t, plain, &pr)
	decodeInto(t, debug, &dr)
	if !reflect.DeepEqual(pr.Results, dr.Results) {
		t.Fatalf("debug changed results:\nplain %v\ndebug %v", pr.Results, dr.Results)
	}
	if pr.Stats.EmbedDistances != dr.Stats.EmbedDistances || pr.Stats.RefineDistances != dr.Stats.RefineDistances {
		t.Fatalf("debug changed stats: %+v vs %+v", pr.Stats, dr.Stats)
	}
	if pr.Stats.Timing != nil {
		t.Fatal("timing present without debug")
	}
	if dr.Stats.Timing == nil {
		t.Fatal("debug response missing timing")
	}
	tm := dr.Stats.Timing
	if tm.TotalUs <= 0 || tm.FilterBaseUs < 0 || tm.RefineUs < 0 {
		t.Fatalf("nonsensical timing %+v", tm)
	}
	// Batch debug: every per-query stats row carries a timing block.
	rec := do(h, "POST", "/v1/search/batch", `{"queries":[[1,0,0],[0,1,0]],"k":2,"p":10,"debug":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	var br batchResponse
	decodeInto(t, rec, &br)
	for i, st := range br.Stats {
		if st.Timing == nil {
			t.Fatalf("batch query %d missing timing", i)
		}
	}
}

// TestShedExcludedFromLatency pins the overload-accounting fix: shed
// 429s land in their own counter and never touch the served
// request/latency series, so saturation cannot drag the average down.
func TestShedExcludedFromLatency(t *testing.T) {
	block := make(chan struct{})
	dec := sentinelDecode(999, func() { <-block })
	srv := New(testStore(t), dec, Options{MaxInFlight: 1})
	h := srv.Handler()

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- do(h, "POST", "/v1/search", `{"query":[999,0,0],"k":3,"p":16}`) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.resilience().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocking request never occupied the gate")
		}
		time.Sleep(time.Millisecond)
	}
	const sheds = 7
	for i := 0; i < sheds; i++ {
		if rec := do(h, "POST", "/v1/search", `{"query":[1,1,1],"k":3,"p":16}`); rec.Code != http.StatusTooManyRequests {
			t.Fatalf("shed %d: status %d", i, rec.Code)
		}
	}

	// While the only served request is still parked: the search row must
	// show zero served requests, zero latency observations, and exactly
	// the shed count — a pre-fix server would report requests=7 with a
	// near-zero average.
	var stats statsResponse
	decodeInto(t, do(h, "GET", "/v1/stats", ""), &stats)
	row := stats.Endpoints["search"]
	if row.Requests != 0 || row.Errors != 0 {
		t.Fatalf("sheds leaked into served series: %+v", row)
	}
	if row.Shed != sheds {
		t.Fatalf("shed = %d, want %d", row.Shed, sheds)
	}
	if row.AvgLatencyUs != 0 || row.P99LatencyUs != 0 {
		t.Fatalf("sheds produced latency: %+v", row)
	}
	if m := &srv.eps[epSearch]; m.latency.Count() != 0 {
		t.Fatalf("latency histogram saw %d observations during pure shedding", m.latency.Count())
	}

	close(block)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("parked request: %d", rec.Code)
	}
	decodeInto(t, do(h, "GET", "/v1/stats", ""), &stats)
	row = stats.Endpoints["search"]
	if row.Requests != 1 || row.Shed != sheds {
		t.Fatalf("after drain: %+v, want 1 served / %d shed", row, sheds)
	}
	if row.AvgLatencyUs <= 0 || row.P50LatencyUs <= 0 {
		t.Fatalf("served request not in latency series: %+v", row)
	}
	if stats.Resilience.ShedTotal != sheds {
		t.Fatalf("resilience shed total = %d, want %d", stats.Resilience.ShedTotal, sheds)
	}
}

// TestStatsPercentiles sanity-checks the histogram-derived quantiles:
// present after traffic, ordered, and consistent with the average.
func TestStatsPercentiles(t *testing.T) {
	_, h := newTestServer(t, Options{})
	for i := 0; i < 20; i++ {
		if rec := do(h, "POST", "/v1/search", `{"query":[1,-1,0],"k":3,"p":15}`); rec.Code != http.StatusOK {
			t.Fatalf("search %d: %d", i, rec.Code)
		}
	}
	var stats statsResponse
	decodeInto(t, do(h, "GET", "/v1/stats", ""), &stats)
	row := stats.Endpoints["search"]
	if row.P50LatencyUs <= 0 || row.P90LatencyUs < row.P50LatencyUs || row.P99LatencyUs < row.P90LatencyUs {
		t.Fatalf("quantiles out of order: %+v", row)
	}
	if row.AvgLatencyUs <= 0 {
		t.Fatalf("avg missing: %+v", row)
	}
}

// TestDebugSlowEndpoint checks slow queries surface with their stage
// breakdown and distance budget, slowest first.
func TestDebugSlowEndpoint(t *testing.T) {
	_, h := newTestServer(t, Options{SlowLogSize: 4})
	for i := 0; i < 10; i++ {
		p := 10 + i*5
		body := fmt.Sprintf(`{"query":[3,-3,0],"k":5,"p":%d}`, p)
		if rec := do(h, "POST", "/v1/search", body); rec.Code != http.StatusOK {
			t.Fatalf("search %d: %d", i, rec.Code)
		}
	}
	if rec := do(h, "POST", "/v1/search/batch", `{"queries":[[1,0,0],[0,1,0],[0,0,1]],"k":2,"p":60}`); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d", rec.Code)
	}

	rec := do(h, "GET", "/v1/debug/slow", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/debug/slow: %d", rec.Code)
	}
	var resp slowResponse
	decodeInto(t, rec, &resp)
	if len(resp.Slowest) != 4 {
		t.Fatalf("retained %d entries, want 4", len(resp.Slowest))
	}
	for i, row := range resp.Slowest {
		if i > 0 && row.DurationUs > resp.Slowest[i-1].DurationUs {
			t.Fatalf("slow log not sorted: %+v", resp.Slowest)
		}
		if row.Endpoint != "search" && row.Endpoint != "search_batch" {
			t.Fatalf("row %d endpoint %q", i, row.Endpoint)
		}
		if row.K <= 0 || row.P <= 0 || row.RefineDistances <= 0 {
			t.Fatalf("row %d missing request shape: %+v", i, row)
		}
		if row.Timing.TotalUs <= 0 {
			t.Fatalf("row %d missing stage breakdown: %+v", i, row)
		}
		if row.UnixNano <= 0 {
			t.Fatalf("row %d missing timestamp", i)
		}
	}
}

// gatedStore builds a store whose base clears the seeded screen's size
// gate (16,384 rows, 16 embedded dimensions; DESIGN §16): testStore's
// 3-D points, embedded by a hand-assembled model as their L1 distances
// to 16 of them, with every coordinate weighted.
func gatedStore(t testing.TB) *store.Store[[]float64] {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := make([][]float64, 16384)
	for i := range db {
		c := float64(i % 7)
		db[i] = []float64{c + rng.NormFloat64()*0.2, -c + rng.NormFloat64()*0.2, rng.NormFloat64()}
	}
	snap := &core.Snapshot{Mode: core.QuerySensitive, FormatVersion: 1}
	for i := 0; i < 16; i++ {
		snap.CandidateIdx = append(snap.CandidateIdx, i*97)
		snap.Rules = append(snap.Rules, core.Rule{
			Def: embed.Def{Kind: embed.KindReference, A: i, Scale: 1},
			Lo:  math.Inf(-1), Hi: math.Inf(1), Alpha: 1 + float64(i%3),
		})
	}
	model, err := core.Restore(snap, db, l1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(model, db, l1, store.Gob[[]float64]())
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return st
}

// TestShadowMetrics asserts the shadow observability block in /metrics
// and /v1/stats: below the size gate quantization reports 8 bits with no
// shadow and no screened rows; past it the shadow's bytes appear and
// the scan counters follow the seeded screen's traffic. The per-width
// series and the shadow_bits alias are gone from both surfaces.
func TestShadowMetrics(t *testing.T) {
	scrape := func(h http.Handler) (string, storeStatsJSON, string) {
		t.Helper()
		rec := do(h, "GET", "/metrics", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics: %d", rec.Code)
		}
		body := rec.Body.String()
		rec = do(h, "GET", "/v1/stats", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/stats: %d", rec.Code)
		}
		raw := rec.Body.String()
		var resp statsResponse
		decodeInto(t, rec, &resp)
		for _, gone := range []string{"qse_store_shadow_bits", "_by_width"} {
			if strings.Contains(body, gone) {
				t.Errorf("scrape still carries %q:\n%s", gone, grepLines(body, gone))
			}
		}
		for _, gone := range []string{`"shadow_bits"`, `"bound_widths"`} {
			if strings.Contains(raw, gone) {
				t.Errorf("/v1/stats still carries %s", gone)
			}
		}
		return body, resp.Store, raw
	}
	search := func(h http.Handler) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if rec := do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":5,"p":20}`); rec.Code != http.StatusOK {
				t.Fatalf("search %d: %d %s", i, rec.Code, rec.Body)
			}
		}
	}

	// Below the gate: on, dormant, nothing screened.
	small := testStore(t)
	if err := small.SetQuantization(8); err != nil {
		t.Fatalf("SetQuantization: %v", err)
	}
	h := New(small, decodeVec, Options{}).Handler()
	search(h)
	body, s, _ := scrape(h)
	for _, want := range []string{"qse_store_quantize_bits 8", "qse_store_shadow_bytes 0", "qse_store_bound_scanned_rows_total 0"} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("scrape missing %q, have:\n%s", want, grepLines(body, "qse_store_"))
		}
	}
	if s.QuantBits != 8 || s.ShadowBytes != 0 || s.BoundScannedRows != 0 {
		t.Fatalf("below the gate /v1/stats reports %d bits, %d shadow bytes, %d screened rows; want 8, 0, 0",
			s.QuantBits, s.ShadowBytes, s.BoundScannedRows)
	}

	// Past the gate: 16 code bytes and 4 order-map bytes a row, 4 bytes
	// for each of the cluster order's 257 blocks plus the last block's
	// end, 2·16 + 16 bytes for each of its tree's 258 nodes (255 leaves
	// of one block, one of two) and 4 for each of its 256 roots, and
	// every search screens every row.
	big := gatedStore(t)
	if err := big.SetQuantization(8); err != nil {
		t.Fatalf("SetQuantization: %v", err)
	}
	h = New(big, decodeVec, Options{}).Handler()
	search(h)
	body, s, _ = scrape(h)
	shadow := 16384*(16+4) + 257*4 + 4 + 258*(2*16+16) + 256*4
	for _, want := range []string{
		"qse_store_quantize_bits 8",
		fmt.Sprintf("qse_store_shadow_bytes %d", shadow),
		fmt.Sprintf("qse_store_bound_scanned_rows_total %d", 3*16384),
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("scrape missing %q, have:\n%s", want, grepLines(body, "qse_store_"))
		}
	}
	if s.QuantBits != 8 || s.ShadowBytes != int64(shadow) || s.BoundScannedRows != 3*16384 {
		t.Fatalf("past the gate /v1/stats reports %d bits, %d shadow bytes, %d screened rows; want 8, %d, %d",
			s.QuantBits, s.ShadowBytes, s.BoundScannedRows, shadow, 3*16384)
	}
	if s.BoundExactRows == 0 || s.BoundExactRows >= s.BoundScannedRows || s.BoundPruneRate <= 0 || s.BoundPruneRate >= 1 {
		t.Fatalf("screen counters %d exact of %d scanned, prune rate %v", s.BoundExactRows, s.BoundScannedRows, s.BoundPruneRate)
	}
	// A debug search carries its own visited count in its timing.
	if rec := do(h, "POST", "/v1/search", `{"query":[3,-3,0],"k":5,"p":20,"debug":true}`); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"bound_visited_rows":`) {
		t.Fatalf("debug search: %d %s", rec.Code, rec.Body)
	}
	if s.BoundVisitedRows < s.BoundExactRows || s.BoundVisitedRows > s.BoundScannedRows ||
		!strings.Contains(body, fmt.Sprintf("qse_store_bound_visited_rows_total %d\n", s.BoundVisitedRows)) {
		t.Fatalf("%d rows visited of %d scanned and %d exact; scrape:\n%s", s.BoundVisitedRows, s.BoundScannedRows, s.BoundExactRows, grepLines(body, "visited"))
	}
}
