package server

// FuzzSearchBody throws arbitrary bytes at POST /v1/search, the endpoint
// with the richest request surface (inline queries, by-ID queries, k/p
// parameter rules, body bounding). The contract under attack: whatever
// the body says, the server answers with a well-formed JSON response and
// a 4xx at worst — never a 5xx, never a panic (the handler runs on the
// test goroutine here, so a panic fails the fuzz run instead of being
// swallowed by net/http's connection recovery).
//
// The store behind the handler is sharded, so adversarial queries also
// drive the scatter-gather search path. It is opened from the committed
// fixture bundle (testdata/fuzz-store.bundle, regenerated by
// internal/store's TestGenerateFuzzCorpus) rather than trained in the
// fuzz setup — instrumented fuzz workers re-run the setup on every
// restart, and a training run there would stall the exec rate. Seed
// corpus: testdata/fuzz/FuzzSearchBody plus the inline seeds below.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"qse/internal/meta"
	"qse/internal/store"
)

func fuzzHandler(f *testing.F) http.Handler {
	f.Helper()
	st, err := store.Open(filepath.Join("testdata", "fuzz-store.bundle"), l1, store.Gob[[]float64]())
	if err != nil {
		f.Fatalf("opening fixture bundle: %v", err)
	}
	if got := st.Stats().Shards; got < 2 {
		f.Fatalf("fixture opened with %d shards; the fuzz target exists to drive the multi-shard gather (regenerate with QSE_GEN_CORPUS=1)", got)
	}
	return New[[]float64](st, decodeVec, Options{}).Handler()
}

func FuzzSearchBody(f *testing.F) {
	h := fuzzHandler(f)

	f.Add([]byte(`{"k":3,"query":[0.5,-0.5,0]}`))
	f.Add([]byte(`{"id":0,"k":1}`))
	f.Add([]byte(`{"id":18446744073709551615,"k":1}`))
	f.Add([]byte(`{"k":0,"query":[1,2,3]}`))
	f.Add([]byte(`{"k":5,"p":2,"query":[1,2,3]}`))
	f.Add([]byte(`{"k":3,"query":[0,0,0],"id":1}`))
	f.Add([]byte(`{"k":3}`))
	f.Add([]byte(`{"k":1e9,"query":[0,0,0]}`))
	f.Add([]byte(`{"k":3,"query":"not an array"}`))
	f.Add([]byte(`{"k":3,"query":[0,0,0]}trailing`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/search returned %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST /v1/search returned invalid JSON for body %q: %s", body, rec.Body.Bytes())
		}
	})
}

// FuzzPredicate throws arbitrary bytes into the "filter" slot of an
// otherwise valid search body. The contract: no filter tree — however
// deep, however mistyped — panics or answers 5xx; a filter referencing a
// known field with the wrong kind is a 400 (a client mistake), never a
// 500 (a server crash). The store carries one field of every kind so
// compilation gets past the unknown-field check and into the comparison
// type rules. Seed corpus: testdata/fuzz/FuzzPredicate plus the inline
// seeds below.
func FuzzPredicate(f *testing.F) {
	st, err := store.Open(filepath.Join("testdata", "fuzz-store.bundle"), l1, store.Gob[[]float64]())
	if err != nil {
		f.Fatalf("opening fixture bundle: %v", err)
	}
	for i := 0; i < 8; i++ {
		_, err := st.AddMeta([]float64{float64(i), -1, 1}, meta.Map{
			"ts":    meta.IntValue(int64(1700000000 + i)),
			"tag":   meta.StringValue(string(rune('a' + i%3))),
			"score": meta.FloatValue(float64(i) / 8),
			"hot":   meta.BoolValue(i%2 == 0),
		})
		if err != nil {
			f.Fatalf("seeding metadata: %v", err)
		}
	}
	h := New[[]float64](st, decodeVec, Options{}).Handler()

	f.Add([]byte(`{"field":"ts","ge":1700000000}`))
	f.Add([]byte(`{"field":"ts","eq":"not an int"}`))
	f.Add([]byte(`{"field":"tag","in":["a","c"]}`))
	f.Add([]byte(`{"field":"tag","in":["a",7,true]}`))
	f.Add([]byte(`{"field":"score","lt":0.5}`))
	f.Add([]byte(`{"field":"hot","eq":true}`))
	f.Add([]byte(`{"field":"hot","lt":true}`))
	f.Add([]byte(`{"field":"nope","eq":1}`))
	f.Add([]byte(`{"field":"ts","exists":false}`))
	f.Add([]byte(`{"and":[{"field":"ts","ge":0},{"field":"tag","ne":"b"}]}`))
	f.Add([]byte(`{"and":[{"and":[{"and":[{"field":"ts","eq":0}]}]}]}`))
	f.Add([]byte(`{"field":"ts"}`))
	f.Add([]byte(`{"eq":1}`))
	f.Add([]byte(`{"field":"ts","eq":1,"ne":2}`))
	f.Add([]byte(`{"field":"ts","eq":null}`))
	f.Add([]byte(`{"field":"ts","eq":{"nested":1}}`))
	f.Add([]byte(`{"field":"ts","eq":18446744073709551615}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`true`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, filter []byte) {
		body := append([]byte(`{"k":3,"query":[0.5,-0.5,0],"filter":`), filter...)
		body = append(body, '}')
		req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("filter %q answered %d: %s", filter, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("filter %q produced invalid response JSON: %s", filter, rec.Body.Bytes())
		}
	})
}
