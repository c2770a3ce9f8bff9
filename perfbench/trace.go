package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qse/internal/meta"
	"qse/internal/retrieval"
	"qse/internal/space"
	"qse/internal/store"
)

// Span kinds. Every span is recorded by the benchmark's own code around
// a call into one layer; nothing inside the program is instrumented.
const (
	spanHTTP    = iota // the server's handler, seen by a wrapping http.Handler
	spanStore          // one store.Backend method, seen by a decorator
	spanCompile        // store.Backend.CompileFilter
	spanSave           // the driver's Backend.Save
)

var spanNames = []string{"http", "store", "compile", "save"}

// opStride separates the op indexes of the clients: client c's i-th op
// is c·opStride + i, unique while a schedule holds fewer than opStride ops.
const opStride = 1_000_000

// span is one timed call. op joins it to the client's request: the
// HTTP span carries the op index in a header, store spans find it from
// their payload (every query and object of a run is distinct), and
// compile spans, which carry the menu index of the predicate they
// compiled, are joined afterwards (see join).
type span struct {
	op         int
	kind       uint8
	method     string
	filter     int
	start, end int64
}

// oracle wraps a distance function, counting every call and timing one
// call in 64, so timing does not swamp a cheap L2 distance.
type oracle struct {
	calls, timed, nanos atomic.Int64
}

func (o *oracle) snapshot() [3]int64 {
	return [3]int64{o.calls.Load(), o.timed.Load(), o.nanos.Load()}
}

func wrapOracle[T any](o *oracle, f space.Distance[T]) space.Distance[T] {
	return func(a, b T) float64 {
		if o.calls.Add(1)&63 != 0 {
			return f(a, b)
		}
		t0 := time.Now()
		d := f(a, b)
		o.nanos.Add(int64(time.Since(t0)))
		o.timed.Add(1)
		return d
	}
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	// embed wraps the function handed to core.Train (the model's
	// embedding oracle); refine wraps the one handed to New/NewSharded.
	embed, refine oracle
	// ops maps a payload key (a query, the first query of a batch, a
	// written object) or a removed ID to its op index, filterOf a
	// search or batch op's index to its predicate's menu index, and
	// menu a predicate's JSON to its menu index; all are read-only while
	// the run serves.
	ops      map[uint64]int
	rm       map[uint64]int
	filterOf map[int]int
	menu     map[string]int

	mu    sync.Mutex
	spans []span

	train, build, quantize time.Duration
	setupDists             int64
	timed, end             [2][3]int64 // oracle snapshots at the timed phase's edges
}

func newTracer[T any](in *inputs[T]) *tracer {
	tr := &tracer{ops: make(map[uint64]int), rm: make(map[uint64]int), filterOf: make(map[int]int), menu: make(map[string]int)}
	for i, p := range in.menu {
		tr.menu[p.json] = i
	}
	for c, s := range in.sched {
		for i, o := range s {
			id := c*opStride + i
			switch o.kind {
			case opSearch:
				tr.ops[in.key(o.obj)] = id
				tr.filterOf[id] = o.filter
			case opBatch:
				tr.ops[in.key(o.batch[0])] = id
				tr.filterOf[id] = o.filter
			case opAdd, opUpsert:
				tr.ops[in.key(o.obj)] = id
			case opRemove:
				tr.rm[o.id] = id
			}
		}
	}
	return tr
}

func (tr *tracer) span(op int, kind uint8, start int64) {
	tr.record(span{op: op, kind: kind, start: start})
}

// record stamps s with its end and keeps it.
func (tr *tracer) record(s span) {
	s.end = now()
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) setup(train, build, quantize time.Duration) {
	tr.train, tr.build, tr.quantize = train, build, quantize
	tr.setupDists = tr.embed.calls.Load() + tr.refine.calls.Load()
}

func (tr *tracer) markTimed() { tr.timed = [2][3]int64{tr.embed.snapshot(), tr.refine.snapshot()} }
func (tr *tracer) markEnd()   { tr.end = [2][3]int64{tr.embed.snapshot(), tr.refine.snapshot()} }

// wrapHTTP records one span per request, joined by the op header.
func (tr *tracer) wrapHTTP(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := -1
		if v := r.Header.Get(opHeader); v != "" {
			op, _ = strconv.Atoi(v)
		}
		t0 := now()
		h.ServeHTTP(w, r)
		tr.span(op, spanHTTP, t0)
	})
}

// tracedBackend times the store calls the server makes. Methods it does
// not override pass straight through the embedded Backend.
type tracedBackend[T any] struct {
	store.Backend[T]
	tr  *tracer
	key func(T) uint64
}

func (b *tracedBackend[T]) opOf(x T) int {
	if op, ok := b.tr.ops[b.key(x)]; ok {
		return op
	}
	return -1
}

func (b *tracedBackend[T]) SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]store.Result, retrieval.Stats, error) {
	t0 := now()
	res, st, err := b.Backend.SearchFiltered(q, k, p, pred)
	b.tr.record(span{op: b.opOf(q), kind: spanStore, method: "search", start: t0})
	return res, st, err
}

func (b *tracedBackend[T]) SearchBatchFiltered(qs []T, k, p int, pred *meta.Predicate) ([][]store.Result, []retrieval.Stats, error) {
	t0 := now()
	res, sts, err := b.Backend.SearchBatchFiltered(qs, k, p, pred)
	op := -1
	if len(qs) > 0 {
		op = b.opOf(qs[0])
	}
	b.tr.record(span{op: op, kind: spanStore, method: "batch", start: t0})
	return res, sts, err
}

// CompileFilter records which menu predicate it compiled; the raw
// filter of an unfiltered search is empty, menu index 0.
func (b *tracedBackend[T]) CompileFilter(raw []byte) (*meta.Predicate, error) {
	t0 := now()
	p, err := b.Backend.CompileFilter(raw)
	f, ok := b.tr.menu[string(raw)]
	if !ok {
		f = -1
	}
	b.tr.record(span{op: -1, kind: spanCompile, filter: f, start: t0})
	return p, err
}

func (b *tracedBackend[T]) AddMeta(x T, md meta.Map) (uint64, error) {
	t0 := now()
	id, err := b.Backend.AddMeta(x, md)
	b.tr.record(span{op: b.opOf(x), kind: spanStore, method: "add", start: t0})
	return id, err
}

func (b *tracedBackend[T]) UpsertMeta(id uint64, x T, md meta.Map) error {
	t0 := now()
	err := b.Backend.UpsertMeta(id, x, md)
	b.tr.record(span{op: b.opOf(x), kind: spanStore, method: "upsert", start: t0})
	return err
}

func (b *tracedBackend[T]) Remove(id uint64) error {
	t0 := now()
	err := b.Backend.Remove(id)
	op, ok := b.tr.rm[id]
	if !ok {
		op = -1
	}
	b.tr.record(span{op: op, kind: spanStore, method: "remove", start: t0})
	return err
}

// opSpans is everything traced about one op.
type opSpans struct {
	http, store, compile int64 // durations in ns; -1 when absent
}

// join attributes spans to ops. A compile span carries no payload, so
// it goes to the latest-started search or batch whose handler span
// encloses it, whose predicate it compiled, and which has no compile
// span yet. The error left: two overlapping ops with the same predicate
// may swap their compile spans, which changes no op type's mean unless
// one of the two is a search and the other a batch.
func (tr *tracer) join() map[int]*opSpans {
	out := make(map[int]*opSpans)
	get := func(op int) *opSpans {
		s, ok := out[op]
		if !ok {
			s = &opSpans{http: -1, store: -1, compile: -1}
			out[op] = s
		}
		return s
	}
	var https []span
	for _, s := range tr.spans {
		if s.op < 0 {
			continue
		}
		switch s.kind {
		case spanHTTP:
			get(s.op).http = s.end - s.start
			https = append(https, s)
		case spanStore:
			get(s.op).store = s.end - s.start
		}
	}
	sort.Slice(https, func(i, j int) bool { return https[i].start < https[j].start })
	for _, s := range tr.spans {
		if s.kind != spanCompile {
			continue
		}
		i := sort.Search(len(https), func(i int) bool { return https[i].start > s.start }) - 1
		for ; i >= 0; i-- {
			h := https[i]
			f, ok := tr.filterOf[h.op]
			if o := get(h.op); ok && f == s.filter && h.end >= s.end && o.compile < 0 {
				o.compile = s.end - s.start
				break
			}
		}
	}
	return out
}

// write saves the spans as JSON lines, one span per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		var filter *int
		if s.kind == spanCompile {
			filter = &s.filter
		}
		rec := struct {
			Op     int    `json:"op"`
			Kind   string `json:"kind"`
			Method string `json:"method,omitempty"`
			Filter *int   `json:"filter,omitempty"`
			Start  int64  `json:"start_ns"`
			Dur    int64  `json:"dur_ns"`
		}{s.op, spanNames[s.kind], s.method, filter, s.start, s.end - s.start}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown is the mean self time of each layer on one op type; the
// parts add up to the mean client span by construction, and the traced
// run prints both so any gap would show.
type breakdown struct {
	name  string
	n     int
	parts []string
	sums  map[string]float64
	total float64
}

func newBreakdown(name string, parts ...string) *breakdown {
	return &breakdown{name: name, parts: parts, sums: make(map[string]float64)}
}

func (b *breakdown) add(client float64, parts map[string]float64) {
	b.n++
	b.total += client
	for k, v := range parts {
		b.sums[k] += v
	}
}

func (b *breakdown) String() string {
	if b.n == 0 {
		return fmt.Sprintf("self-time %s: no ops", b.name)
	}
	s := fmt.Sprintf("self-time %s (n=%d): client %.1f us =", b.name, b.n, b.total/float64(b.n)/1e3)
	sum := 0.0
	for i, p := range b.parts {
		v := b.sums[p] / float64(b.n)
		sum += v
		if i > 0 {
			s += " +"
		}
		s += fmt.Sprintf(" %s %.1f", p, v/1e3)
	}
	return s + fmt.Sprintf(" (sum %.1f us)", sum/1e3)
}
