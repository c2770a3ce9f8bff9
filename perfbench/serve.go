package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"qse/internal/core"
	"qse/internal/meta"
	"qse/internal/server"
	"qse/internal/space"
	"qse/internal/store"
)

// Response shapes, decoded into storage allocated before set-up so the
// driver's own bookkeeping never shows up in heap_mb.
type hit struct {
	ID       uint64  `json:"id"`
	Distance float64 `json:"distance"`
}

type timingJSON struct {
	EmbedUs       float64 `json:"embed_us"`
	FilterEvalUs  float64 `json:"filter_eval_us"`
	BoundScanUs   float64 `json:"bound_scan_us"`
	BoundScanned  int64   `json:"bound_scanned_rows"`
	BoundExact    int64   `json:"bound_exact_rows"`
	FilterBaseUs  float64 `json:"filter_base_us"`
	FilterDeltaUs float64 `json:"filter_delta_us"`
	MergeUs       float64 `json:"merge_us"`
	RefineUs      float64 `json:"refine_us"`
}

type qstats struct {
	EmbedDistances  int         `json:"embed_distances"`
	RefineDistances int         `json:"refine_distances"`
	Timing          *timingJSON `json:"timing,omitempty"`
}

type searchJSON struct {
	Results []hit  `json:"results"`
	Stats   qstats `json:"stats"`
}

type batchJSON struct {
	Results [][]hit  `json:"results"`
	Stats   []qstats `json:"stats"`
}

// reply is what the driver saw for one op.
type reply struct {
	status     int
	err        error
	start, end int64 // nanoseconds since the run's origin
	reqBytes   int
	respBytes  int
	search     searchJSON
	batch      batchJSON
	id         uint64 // the ID an add was assigned
	scrapeOK   bool
}

func (r *reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func (r *reply) latency() float64 { return float64(r.end - r.start) }

// newReplies allocates one reply per scheduled op with room for every
// result it can return.
func newReplies[T any](sched []op[T], k int) []reply {
	rs := make([]reply, len(sched))
	for i, o := range sched {
		switch o.kind {
		case opSearch:
			rs[i].search.Results = make([]hit, 0, k)
		case opBatch:
			rs[i].batch.Results = make([][]hit, len(o.batch))
			for j := range rs[i].batch.Results {
				rs[i].batch.Results[j] = make([]hit, 0, k)
			}
			rs[i].batch.Stats = make([]qstats, len(o.batch))
		}
	}
	return rs
}

// origin is the zero of every timestamp a run records.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// phase is the outcome of serving a schedule once: the timed wall,
// every reply, the snapshots taken and the store counters around it.
type phase[T any] struct {
	setups    []time.Duration
	model     *core.Model[T]
	replies   [][]reply
	checked   []reply
	wall      time.Duration
	saves     []time.Duration
	saveBytes []int64
	saveErrs  int
	diskBytes int64
	heapMB    float64
	host      hostFacts
	rt0, rt1  runtimeSample
	st0, st1  store.Stats
	fs0, fs1  meta.TrackerStats
	// compactions counts each shard's compactions in the timed phase.
	compactions []uint64
	embedCost   int
	dims        int
	tr          *tracer
	// probe holds the speed probe's samples (ms, see probe.go), one at
	// each snapshot barrier; probeWall is the part of wall they took.
	probe     []float64
	probeWall time.Duration
}

// serveOnce sets the store up (setups times, keeping the last), serves
// it on a loopback listener, drives every client's schedule through it,
// and serves the checked sample before or after that (see checkEarly).
// tr, when non-nil, traces the run.
func serveOnce[T any](in *inputs[T], workdir string, setups int, tr *tracer) (*phase[T], error) {
	dir, err := os.MkdirTemp(workdir, in.name+"-")
	if err != nil {
		return nil, fmt.Errorf("creating snapshot directory: %w", err)
	}
	defer os.RemoveAll(dir)
	bundle := filepath.Join(dir, "store.bundle")

	ph := &phase[T]{tr: tr, host: readHost(dir)}
	replies := make([][]reply, len(in.sched))
	for c, s := range in.sched {
		replies[c] = newReplies(s, in.k)
	}
	ph.checked = newReplies(in.checked, in.k)

	distE, distR := in.dist, in.dist
	if tr != nil {
		distE, distR = wrapOracle(&tr.embed, in.dist), wrapOracle(&tr.refine, in.dist)
	}
	probe, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	heap0 := liveHeap()
	var st store.Backend[T]
	for i := 0; i < setups; i++ {
		st = nil
		runtime.GC()
		s, model, d, err := setUp(in, distE, distR, tr)
		if err != nil {
			return nil, err
		}
		st, ph.model = s, model
		ph.setups = append(ph.setups, d)
	}
	ph.embedCost, ph.dims = ph.model.EmbedCost(), ph.model.Dims()
	logf("set up %d times: %v", setups, ph.setups)
	// The served store has a durable layout before traffic starts, as a
	// built bundle does; snapshots in the run are then incremental.
	if err := st.Save(bundle); err != nil {
		return nil, fmt.Errorf("initial snapshot: %w", err)
	}

	backend := st
	if tr != nil {
		backend = &tracedBackend[T]{Backend: st, tr: tr, key: in.key}
	}
	var h http.Handler = server.New(backend, in.decode, server.Options{
		MaxInFlight:   256,
		SearchTimeout: 30 * time.Second,
	}).Handler()
	if tr != nil {
		h = tr.wrapHTTP(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	clients := make([]*client[T], len(in.sched))
	for c := range clients {
		clients[c] = newClient[T](base, tr, c*opStride)
	}
	defer func() {
		for _, cl := range clients {
			cl.close()
		}
	}()

	// Warm-up: untimed single searches on every connection.
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(in.sched[c][:in.warm], replies[c][:in.warm], 0, nil)
		}()
	}
	wg.Wait()

	// The checked sample goes out on a connection of its own, with op
	// indexes past every client's, so its spans never join timed ops.
	serveChecked := func() {
		cl := newClient[T](base, tr, len(clients)*opStride)
		cl.run(in.checked, ph.checked, 0, nil)
		cl.close()
	}
	if in.checkEarly {
		serveChecked()
	}

	sv := newSaver(st, bundle, tr)
	var probeErr error
	ctl := &control{barrier: newBarrier(len(clients)), snapshot: func() {
		t0 := time.Now()
		ms, err := probe.sample()
		ph.probe = append(ph.probe, ms)
		ph.probeWall += time.Since(t0)
		if err != nil && probeErr == nil {
			probeErr = err
		}
		sv.saveNow()
	}}

	runtime.GC()
	cpu0 := readCPUTimes()
	ph.rt0, ph.st0, ph.fs0 = readRuntime(), st.Stats(), st.FilterStats()
	shards0 := st.ShardStats()
	if tr != nil {
		tr.markTimed()
	}
	t0 := time.Now()
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(in.sched[c], replies[c], in.warm, ctl)
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	logf("timed phase: %v", ph.wall)
	if probeErr != nil {
		return nil, probeErr
	}
	ph.rt1, ph.st1, ph.fs1 = readRuntime(), st.Stats(), st.FilterStats()
	ph.compactions = []uint64{ph.st1.Compactions - ph.st0.Compactions}
	if shards1 := st.ShardStats(); shards1 != nil {
		ph.compactions = ph.compactions[:0]
		for i, s1 := range shards1 {
			ph.compactions = append(ph.compactions, s1.Compactions-shards0[i].Compactions)
		}
	}
	ph.host.StealShare = stealShare(cpu0, readCPUTimes())
	ph.host.GCCycles = ph.rt1.gcCycles - ph.rt0.gcCycles
	if tr != nil {
		tr.markEnd()
	}
	ph.saves, ph.saveBytes, ph.saveErrs = sv.durs, sv.bytes, sv.errs

	ph.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)

	if err := st.Save(bundle); err != nil {
		ph.saveErrs++
	}
	files, _ := filepath.Glob(bundle + "*")
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			ph.diskBytes += fi.Size()
		}
	}

	if !in.checkEarly {
		serveChecked()
	}
	ph.replies = replies

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("shutting the server down: %w", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		return nil, fmt.Errorf("serving: %w", err)
	}
	return ph, nil
}

// setUp builds a store ready to serve from the generated inputs:
// core.Train, then New or NewSharded (plus loading the metadata of the
// initial objects, when the workload has any), then SetQuantization.
func setUp[T any](in *inputs[T], distE, distR space.Distance[T], tr *tracer) (store.Backend[T], *core.Model[T], time.Duration, error) {
	t0 := time.Now()
	model, _, err := core.Train(in.train, distE, in.opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("training: %w", err)
	}
	t1 := time.Now()
	var st store.Backend[T]
	if in.shards > 1 {
		s, err := store.NewSharded(model, in.db, distR, store.Gob[T](), in.shards)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("building the store: %w", err)
		}
		st = s
	} else {
		s, err := store.New(model, in.db, distR, store.Gob[T]())
		if err != nil {
			return nil, nil, 0, fmt.Errorf("building the store: %w", err)
		}
		st = s
	}
	// The store has no bulk metadata load: each initial object is
	// re-put with its record, and one compaction folds the result into
	// a clean base before the shadow is built over it.
	for id, md := range in.md {
		if err := st.UpsertMeta(uint64(id), in.db[id], md); err != nil {
			return nil, nil, 0, fmt.Errorf("loading metadata: %w", err)
		}
	}
	if in.md != nil {
		st.Compact()
	}
	t2 := time.Now()
	if err := st.SetQuantization(in.bits); err != nil {
		return nil, nil, 0, fmt.Errorf("quantizing: %w", err)
	}
	t3 := time.Now()
	if tr != nil {
		tr.setup(t1.Sub(t0), t2.Sub(t1), t3.Sub(t2))
	}
	return st, model, t3.Sub(t0), nil
}

// control is what the clients of the timed phase share.
type control struct {
	barrier *barrier
	// snapshot runs at every snapshot barrier: a speed probe sample,
	// then the snapshot.
	snapshot func()
}

// barrier releases its waiters once n of them have arrived.
type barrier struct {
	mu      sync.Mutex
	n, seen int
	ch      chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, ch: make(chan struct{})} }

// wait blocks until all n waiters have arrived; the last to arrive runs
// then (when non-nil) before anyone is released.
func (b *barrier) wait(then func()) {
	b.mu.Lock()
	b.seen++
	ch := b.ch
	last := b.seen == b.n
	if last {
		b.seen, b.ch = 0, make(chan struct{})
	}
	b.mu.Unlock()
	if !last {
		<-ch
		return
	}
	if then != nil {
		then()
	}
	close(ch)
}

// saver stands in for the lifecycle's snapshot loop. The schedule's
// snapshot ops call saveNow while every client waits, so each snapshot
// runs alone and a seed's run takes the same snapshots every time.
type saver struct {
	save  func() (int64, error)
	durs  []time.Duration
	bytes []int64
	errs  int
}

func newSaver[T any](st store.Backend[T], path string, tr *tracer) *saver {
	return &saver{save: func() (int64, error) {
		t0 := now()
		err := st.Save(path)
		if tr != nil {
			tr.span(-1, spanSave, t0)
		}
		return st.Stats().LastSnapshotBytes, err
	}}
}

func (s *saver) saveNow() {
	t0 := time.Now()
	b, err := s.save()
	s.durs = append(s.durs, time.Since(t0))
	s.bytes = append(s.bytes, b)
	if err != nil {
		s.errs++
	}
}

// client is one closed-loop caller with one keep-alive connection.
type client[T any] struct {
	hc     *http.Client
	tr     *http.Transport
	base   string
	trace  *tracer
	opBase int
	buf    bytes.Buffer
	dbg    []byte
}

func newClient[T any](base string, tr *tracer, opBase int) *client[T] {
	t := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client[T]{hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, tr: t, base: base, trace: tr, opBase: opBase}
}

func (c *client[T]) close() { c.tr.CloseIdleConnections() }

// run sends ops[from:] in order, each after the previous one answered.
func (c *client[T]) run(ops []op[T], rs []reply, from int, ctl *control) {
	for i := from; i < len(ops); i++ {
		o := &ops[i]
		switch o.kind {
		case opBarrier:
			ctl.barrier.wait(nil)
			continue
		case opSnapshot:
			ctl.barrier.wait(ctl.snapshot)
			continue
		}
		c.do(o, &rs[i], c.opBase+i)
	}
}

// opHeader carries the op's index on traced runs, so the server-side
// span of the request can be joined to the client's.
const opHeader = "X-Bench-Op"

func (c *client[T]) do(o *op[T], r *reply, id int) {
	body := o.body
	if c.trace != nil && (o.kind == opSearch || o.kind == opBatch) {
		// Traced searches ask for the per-stage timing breakdown.
		c.dbg = append(append(c.dbg[:0], body[:len(body)-1]...), `,"debug":true}`...)
		body = c.dbg
	}
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var req *http.Request
	var err error
	if rd != nil {
		req, err = http.NewRequest(o.kind.method(), c.base+o.path, rd)
	} else {
		req, err = http.NewRequest(o.kind.method(), c.base+o.path, nil)
	}
	if err != nil {
		r.err = err
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.trace != nil {
		req.Header.Set(opHeader, strconv.Itoa(id))
	}
	r.reqBytes = len(body)
	r.start = now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err, r.end = err, now()
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.end = now()
	r.status, r.respBytes = resp.StatusCode, c.buf.Len()
	if err != nil {
		r.err = err
		return
	}
	if !r.ok() {
		return
	}
	switch o.kind {
	case opSearch:
		r.err = json.Unmarshal(c.buf.Bytes(), &r.search)
	case opBatch:
		r.err = json.Unmarshal(c.buf.Bytes(), &r.batch)
	case opAdd, opUpsert:
		var a struct {
			ID uint64 `json:"id"`
		}
		r.err = json.Unmarshal(c.buf.Bytes(), &a)
		r.id = a.ID
	case opScrape:
		r.scrapeOK = bytes.Contains(c.buf.Bytes(), []byte("qse_http_requests_total"))
	}
}
