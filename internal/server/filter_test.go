package server

// HTTP-layer tests for metadata and filtered search: the request
// surface (metadata on add/upsert, filter on search and batch), the
// status-code contract (empty results are 200, client mistakes are 400
// with a message that names the problem), the wire-format guarantee
// (a null or absent filter is byte-identical to the pre-filter
// protocol), and the observability surface (/v1/stats filter section,
// per-field gauges on /metrics, filter_eval in debug timing).

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// addWithMeta posts one object with a metadata record and returns its ID.
func addWithMeta(t *testing.T, h http.Handler, obj, md string) uint64 {
	t.Helper()
	body := fmt.Sprintf(`{"object":%s,"metadata":%s}`, obj, md)
	rec := do(h, "POST", "/v1/objects", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/objects %s: status %d: %s", body, rec.Code, rec.Body.String())
	}
	var resp addResponse
	decodeInto(t, rec, &resp)
	return resp.ID
}

func TestFilteredSearchHTTP(t *testing.T) {
	_, h := newTestServer(t, Options{})

	var acme, globex []uint64
	for i := 0; i < 6; i++ {
		obj := fmt.Sprintf(`[%d,0.5,-0.5]`, i%3)
		acme = append(acme, addWithMeta(t, h, obj, `{"tenant":"acme","ts":1700000000}`))
		globex = append(globex, addWithMeta(t, h, obj, `{"tenant":"globex","ts":1800000000}`))
	}
	inSet := func(ids []uint64, id uint64) bool {
		for _, x := range ids {
			if x == id {
				return true
			}
		}
		return false
	}

	// A conjunctive filter returns matching objects only.
	rec := do(h, "POST", "/v1/search",
		`{"query":[1,0.5,-0.5],"k":4,"p":40,"filter":{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","lt":1750000000}]}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered search: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Results) == 0 {
		t.Fatalf("filtered search returned nothing")
	}
	for _, r := range resp.Results {
		if !inSet(acme, r.ID) {
			t.Fatalf("result %d is not an acme object (globex leaked through the filter): %s", r.ID, rec.Body.String())
		}
	}

	// A filter matching nothing is 200 with an empty result list, never
	// an error: the predicate runs below top-p, so zero matches is an
	// answer, not a failure.
	rec = do(h, "POST", "/v1/search", `{"query":[1,0.5,-0.5],"k":4,"filter":{"field":"tenant","eq":"initech"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("zero-match filter: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	decodeInto(t, rec, &resp)
	if len(resp.Results) != 0 {
		t.Fatalf("zero-match filter returned results: %s", rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"results":[]`) {
		t.Fatalf("empty result not rendered as []: %s", rec.Body.String())
	}

	// An unknown field is the client's mistake: 400 and the message names
	// the field so the mistake is findable.
	rec = do(h, "POST", "/v1/search", `{"query":[1,0.5,-0.5],"k":4,"filter":{"field":"tennant","eq":"acme"}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "tennant") {
		t.Fatalf("unknown-field error does not name the field: %s", rec.Body.String())
	}

	// A kind-mismatched comparison is likewise 400.
	rec = do(h, "POST", "/v1/search", `{"query":[1,0.5,-0.5],"k":4,"filter":{"field":"ts","eq":"yesterday"}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("kind mismatch: status %d, want 400: %s", rec.Code, rec.Body.String())
	}

	// "filter": null and no filter at all produce byte-identical
	// responses — the filtered path must not perturb the unfiltered wire
	// format. (debug is off here: its timing fields are live wall-clock
	// and never byte-stable between two requests.)
	withNull := do(h, "POST", "/v1/search", `{"query":[1,0.5,-0.5],"k":4,"p":40,"filter":null}`)
	without := do(h, "POST", "/v1/search", `{"query":[1,0.5,-0.5],"k":4,"p":40}`)
	if withNull.Code != http.StatusOK || without.Code != http.StatusOK {
		t.Fatalf("null/absent filter: status %d/%d", withNull.Code, without.Code)
	}
	a, b := withNull.Body.String(), without.Body.String()
	if a != b {
		t.Fatalf("filter:null response differs from no-filter response:\n %s\n %s", a, b)
	}

	// Unfiltered debug timing omits filter_eval_us entirely, keeping the
	// debug wire shape identical to the pre-filter protocol too.
	rec = do(h, "POST", "/v1/search", `{"query":[1,0.5,-0.5],"k":4,"p":40,"filter":null,"debug":true}`)
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "filter_eval_us") {
		t.Fatalf("unfiltered debug timing leaks filter_eval_us: %d %s", rec.Code, rec.Body.String())
	}

	// A filtered debug search does attribute predicate cost.
	rec = do(h, "POST", "/v1/search", `{"query":[1,0.5,-0.5],"k":4,"filter":{"field":"tenant","eq":"acme"},"debug":true}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "filter_eval_us") {
		t.Fatalf("filtered debug timing missing filter_eval_us: %d %s", rec.Code, rec.Body.String())
	}
}

func TestFilteredBatchHTTP(t *testing.T) {
	_, h := newTestServer(t, Options{})
	for i := 0; i < 4; i++ {
		addWithMeta(t, h, fmt.Sprintf(`[%d,1,0]`, i%2), `{"bucket":1}`)
	}

	// The filter applies to every query of the batch.
	rec := do(h, "POST", "/v1/search/batch",
		`{"queries":[[0,1,0],[1,1,0]],"k":2,"p":30,"filter":{"field":"bucket","eq":1}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered batch: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp batchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Results) != 2 {
		t.Fatalf("filtered batch: %d result lists, want 2", len(resp.Results))
	}

	// A bad query inside a filtered batch is reported per query, by
	// index, deterministically: the first invalid query wins, however
	// often the request is replayed.
	for i := 0; i < 3; i++ {
		rec = do(h, "POST", "/v1/search/batch",
			`{"queries":[[0,1,0],"bogus",[1,2]],"k":2,"filter":{"field":"bucket","eq":1}}`)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("bad filtered batch: status %d, want 400: %s", rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "query 1") {
			t.Fatalf("batch error does not name the offending query index: %s", rec.Body.String())
		}
	}

	// A broken filter fails the whole batch with 400 before any query runs.
	rec = do(h, "POST", "/v1/search/batch", `{"queries":[[0,1,0]],"k":2,"filter":{"field":"nope","eq":1}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "nope") {
		t.Fatalf("batch with unknown filter field: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestMetadataUpsertHTTP(t *testing.T) {
	_, h := newTestServer(t, Options{})
	id := addWithMeta(t, h, `[1,1,1]`, `{"tenant":"acme","tier":"gold"}`)

	match := func(filter string) int {
		t.Helper()
		rec := do(h, "POST", "/v1/search", fmt.Sprintf(`{"query":[1,1,1],"k":5,"p":100,"filter":%s}`, filter))
		if rec.Code != http.StatusOK {
			t.Fatalf("search: status %d: %s", rec.Code, rec.Body.String())
		}
		var resp searchResponse
		decodeInto(t, rec, &resp)
		n := 0
		for _, r := range resp.Results {
			if r.ID == id {
				n++
			}
		}
		return n
	}

	if match(`{"field":"tier","eq":"gold"}`) != 1 {
		t.Fatalf("object not found under its initial metadata")
	}

	// PUT replaces the whole record: "tier" must be gone, not merged.
	rec := do(h, "PUT", fmt.Sprintf("/v1/objects/%d", id), `{"object":[1,1,2],"metadata":{"tenant":"acme"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT with metadata: status %d: %s", rec.Code, rec.Body.String())
	}
	if match(`{"field":"tier","exists":true}`) != 0 {
		t.Fatalf("stale field survived the upsert")
	}
	if match(`{"field":"tenant","eq":"acme"}`) != 1 {
		t.Fatalf("replacement metadata not visible")
	}

	// PUT without metadata clears the record.
	rec = do(h, "PUT", fmt.Sprintf("/v1/objects/%d", id), `{"object":[1,1,3]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT without metadata: status %d: %s", rec.Code, rec.Body.String())
	}
	if match(`{"field":"tenant","exists":true}`) != 0 {
		t.Fatalf("metadata survived a metadata-less PUT")
	}

	// Malformed metadata (nested object) and kind conflicts are 400s.
	rec = do(h, "POST", "/v1/objects", `{"object":[2,2,2],"metadata":{"nested":{"a":1}}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("nested metadata: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	rec = do(h, "POST", "/v1/objects", `{"object":[2,2,2],"metadata":{"tenant":12}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "tenant") {
		t.Fatalf("kind-conflicting metadata: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestFilterObservability(t *testing.T) {
	_, h := newTestServer(t, Options{})
	for i := 0; i < 4; i++ {
		addWithMeta(t, h, fmt.Sprintf(`[%d,0,0]`, i%3), `{"team":"infra"}`)
	}
	for i := 0; i < 3; i++ {
		if rec := do(h, "POST", "/v1/search", `{"query":[1,0,0],"k":2,"filter":{"field":"team","eq":"infra"}}`); rec.Code != http.StatusOK {
			t.Fatalf("filtered search: status %d: %s", rec.Code, rec.Body.String())
		}
	}

	// /v1/stats carries the filter section: the field's observations, and
	// no plan counts — there is one evaluation path and no planner.
	rec := do(h, "GET", "/v1/stats", "")
	if strings.Contains(rec.Body.String(), "plan_") {
		t.Fatalf("/v1/stats still reports plan counts: %s", rec.Body.String())
	}
	var stats statsResponse
	decodeInto(t, rec, &stats)
	fs, ok := stats.Filter.Fields["team"]
	if !ok || fs.Scanned == 0 || fs.Selectivity <= 0 {
		t.Fatalf("stats filter section missing the observed field: %+v", stats.Filter)
	}

	// /metrics renders the per-field gauge on the first scrape after the
	// field is observed (the gauge is registered lazily by the scrape
	// hook) and the filter_eval stage, and no plan-choice series.
	rec = do(h, "GET", "/metrics", "")
	body := rec.Body.String()
	if !strings.Contains(body, `qse_filter_field_selectivity{field="team"}`) {
		t.Fatalf("/metrics missing the per-field selectivity gauge:\n%s", body)
	}
	if strings.Contains(body, "qse_filter_plan_choices_total") {
		t.Fatalf("/metrics still renders the plan-choice series:\n%s", body)
	}
	if !strings.Contains(body, `qse_search_stage_duration_seconds_count{stage="filter_eval"}`) {
		t.Fatalf("/metrics missing the filter_eval stage histogram:\n%s", body)
	}
}
