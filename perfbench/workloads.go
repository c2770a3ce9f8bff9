package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"qse/internal/core"
	"qse/internal/dtw"
	"qse/internal/meta"
	"qse/internal/metrics"
	"qse/internal/par"
	"qse/internal/space"
	"qse/internal/stats"
	"qse/internal/timeseries"
)

// spec is the fixed shape of one workload.
type spec struct {
	name   string
	n      int // initial objects, stable IDs 0..n-1
	coords int // float64 coordinates per object
	k, p   int
	bits   int // shadow-block width; 0 keeps the exact scan only
	shards int
	batch  int // queries per /v1/search/batch request
	setups int // identical set-ups per run; setup_s is their median
	// checkEarly serves the checked sample before the timed phase, on
	// the initial contents, so recall does not depend on the seed's
	// writes; otherwise it is served after, on the final contents.
	checkEarly bool
	// overlap marks a workload whose searches run alongside the writes
	// of the same round; otherwise barriers keep them apart.
	overlap bool
}

type opKind uint8

const (
	opSearch opKind = iota
	opBatch
	opAdd
	opUpsert
	opRemove
	opScrape
	// opBarrier holds a client until every client reaches it, so one
	// phase of the schedule ends before the next starts.
	opBarrier
	// opSnapshot is a barrier at which the last client to arrive saves
	// the store before any client goes on.
	opSnapshot
)

func (k opKind) method() string {
	switch k {
	case opSearch, opBatch, opAdd:
		return "POST"
	case opUpsert:
		return "PUT"
	case opRemove:
		return "DELETE"
	}
	return "GET"
}

func (k opKind) isWrite() bool { return k == opAdd || k == opUpsert || k == opRemove }

// isRequest reports whether the op is an HTTP request rather than a
// point where the clients meet.
func (k opKind) isRequest() bool { return k != opBarrier && k != opSnapshot }

// op is one scheduled request with its body encoded ahead of time.
type op[T any] struct {
	kind   opKind
	round  int      // the schedule round the op belongs to
	obj    T        // the query of a search, the object an add or upsert writes
	batch  []T      // the queries of a batch
	id     uint64   // upsert and remove target
	md     meta.Map // metadata an add or upsert writes
	filter int      // index into the predicate menu; 0 is unfiltered
	path   string
	body   []byte
}

// predicate is one entry of a workload's filter menu: the JSON the
// server compiles and the reference model's own evaluation of it.
type predicate struct {
	json  string
	match func(meta.Map) bool
}

// inputs is everything a run needs, generated before set-up: the
// initial database and its metadata, the training sample, every
// client's op schedule, and the fixed checked sample with its exact
// distances to the initial database.
type inputs[T any] struct {
	spec
	db     []T
	md     []meta.Map
	train  []T
	opts   core.Options
	dist   space.Distance[T]
	decode func(json.RawMessage) (T, error)
	key    func(T) uint64
	menu   []predicate
	// sched[c] is client c's op list; its first warm ops are an untimed
	// warm-up of single searches, and the rest fall into rounds rounds.
	sched  [][]op[T]
	warm   int
	rounds int
	// checked is the fixed sample recall is judged on (see checkEarly);
	// truth[q][i] is the exact distance from checked query q to db[i].
	checked []op[T]
	truth   [][]float64
}

// sizes shapes a schedule: a number of rounds, each about a second of
// traffic on this benchmark's host, and what one client sends in each.
// A round's writes are split by snaps snapshots, each taken while all
// clients wait, so the snapshots, and what each one writes, do not
// depend on timing.
type sizes struct {
	rounds, snaps int
	// singles and batches are one client's share of a round of a
	// read/write workload, and writes its share between two snapshots;
	// ops is one client's share of mixed traffic between two snapshots.
	singles, batches, writes, ops int
	warm                          int // untimed warm-up searches per client
	scrape                        int // requests per client between GET /metrics
}

// trafficSeed derives the traffic stream from the run seed. The
// databases and checked samples come from fixed data seeds, so every
// seed serves the same store and only the traffic varies.
func trafficSeed(seed int64) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64(x ^ x>>31)
}

func hashFloats(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h ^= math.Float64bits(x)
		h *= 0x100000001b3
	}
	return h
}

func vecKey(v []float64) uint64 { return hashFloats(14695981039346656037, v) }

func seriesKey(s dtw.Series) uint64 {
	h := uint64(14695981039346656037)
	for _, row := range s {
		h = hashFloats(h, row)
	}
	return h
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// encode fills in the path and body of every op of a schedule.
func encode[T any](o *op[T], in *inputs[T]) {
	switch o.kind {
	case opSearch:
		o.path = "/v1/search"
		o.body = searchBody(mustJSON(o.obj), in.k, in.p, in.menu[o.filter].json)
	case opBatch:
		o.path = "/v1/search/batch"
		qs := make([]json.RawMessage, len(o.batch))
		for i, q := range o.batch {
			qs[i] = mustJSON(q)
		}
		b := []byte(`{"queries":`)
		b = append(b, mustJSON(qs)...)
		b = appendKP(b, in.k, in.p, in.menu[o.filter].json)
		o.body = b
	case opAdd, opUpsert:
		o.path = "/v1/objects"
		if o.kind == opUpsert {
			o.path += "/" + strconv.FormatUint(o.id, 10)
		}
		b := []byte(`{"object":`)
		b = append(b, mustJSON(o.obj)...)
		if o.md != nil {
			b = append(b, `,"metadata":`...)
			b = append(b, metaJSON(o.md)...)
		}
		o.body = append(b, '}')
	case opRemove:
		o.path = "/v1/objects/" + strconv.FormatUint(o.id, 10)
	case opScrape:
		o.path = "/metrics"
	}
}

func searchBody(q []byte, k, p int, filter string) []byte {
	b := []byte(`{"query":`)
	b = append(b, q...)
	return appendKP(b, k, p, filter)
}

func appendKP(b []byte, k, p int, filter string) []byte {
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(p), 10)
	if filter != "" {
		b = append(b, `,"filter":`...)
		b = append(b, filter...)
	}
	return append(b, '}')
}

// metaJSON renders a metadata record so the server types each field
// the way the reference model does: ints without a fraction, floats
// always with one.
func metaJSON(md meta.Map) []byte {
	out := make(map[string]json.RawMessage, len(md))
	for f, v := range md {
		switch v.Kind {
		case meta.KindInt:
			out[f] = json.RawMessage(strconv.FormatInt(v.Int, 10))
		case meta.KindFloat:
			s := strconv.FormatFloat(v.Flt, 'f', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			out[f] = json.RawMessage(s)
		default:
			out[f] = mustJSON(v.Any())
		}
	}
	return mustJSON(out)
}

// finish encodes every op and computes the checked sample's exact
// distances to the initial database, across all cores.
func (in *inputs[T]) finish() {
	for c := range in.sched {
		for i := range in.sched[c] {
			encode(&in.sched[c][i], in)
		}
	}
	for i := range in.checked {
		encode(&in.checked[i], in)
	}
	in.truth = make([][]float64, len(in.checked))
	for q := range in.truth {
		in.truth[q] = make([]float64, len(in.db))
	}
	par.For(len(in.checked)*len(in.db), 64, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			q, i := x/len(in.db), x%len(in.db)
			in.truth[q][i] = in.dist(in.checked[q].obj, in.db[i])
		}
	})
}

// scheduler deals every client's op schedule: the untimed warm-up, then
// the rounds a workload appends, with a GET /metrics after every
// sz.scrape requests of a client. It keeps the base IDs each client may
// upsert and remove: each base ID belongs to exactly one client, so the
// contents at each round's start do not depend on how the clients
// interleave.
type scheduler[T any] struct {
	in    *inputs[T]
	sz    sizes
	rng   *rand.Rand
	owned [][]uint64
	sent  []int
	round int
}

func newScheduler[T any](in *inputs[T], clients int, sz sizes, rng *rand.Rand, warm func(i int) op[T]) *scheduler[T] {
	s := &scheduler[T]{in: in, sz: sz, rng: rng, owned: make([][]uint64, clients), sent: make([]int, clients)}
	in.sched, in.warm, in.rounds = make([][]op[T], clients), sz.warm, sz.rounds
	for c := range in.sched {
		for id := c; id < in.n; id += clients {
			s.owned[c] = append(s.owned[c], uint64(id))
		}
		for i := 0; i < sz.warm; i++ {
			in.sched[c] = append(in.sched[c], warm(i))
		}
	}
	return s
}

// add appends o to client c's schedule in the current round.
func (s *scheduler[T]) add(c int, o op[T]) {
	o.round = s.round
	s.in.sched[c] = append(s.in.sched[c], o)
	if s.sent[c]++; s.sent[c]%s.sz.scrape == 0 {
		s.in.sched[c] = append(s.in.sched[c], op[T]{kind: opScrape, round: s.round})
	}
}

// meet appends a point where every client waits for the others.
func (s *scheduler[T]) meet(kind opKind) {
	for c := range s.in.sched {
		s.in.sched[c] = append(s.in.sched[c], op[T]{kind: kind, round: s.round})
	}
}

// target draws one of the base IDs client c owns. A removed ID leaves
// the client's list, so no later op writes it again.
func (s *scheduler[T]) target(c int, remove bool) uint64 {
	own := s.owned[c]
	i := s.rng.Intn(len(own))
	id := own[i]
	if remove {
		own[i] = own[len(own)-1]
		s.owned[c] = own[:len(own)-1]
	}
	return id
}

// readWriteSchedule deals rounds of three phases, each ending where all
// clients meet: single searches, then batches, then writes (adds,
// upserts and removes of base IDs the client owns) with sz.snaps
// snapshots spread through them. Keeping the phases apart stops a
// batch, which occupies every core, from landing at a random point of
// another client's single searches, and the rounds spread every op type
// over the whole timed phase.
//
// Searches and batches are sent one client at a time: their scan and
// refine already fan out over every core, so two at once would each
// wait on the other's workers by an amount that depends on how the
// scheduler interleaves them, and their median would follow that
// interleaving rather than the search. Writes embed on one core, so
// every client writes at once and no core sits idle between them;
// with a shadow they are taken in turns instead, which fixes the order
// in which rows reach the store, so every query of a seed sees the same
// contents and the shadow scan's row counts repeat exactly.
func readWriteSchedule[T any](in *inputs[T], clients int, sz sizes, rng *rand.Rand, next func() T) {
	s := newScheduler(in, clients, sz, rng, func(int) op[T] { return op[T]{kind: opSearch, obj: next()} })
	for r := 0; r < sz.rounds; r++ {
		s.round = r
		for c := 0; c < clients; c++ {
			for i := 0; i < sz.singles; i++ {
				s.add(c, op[T]{kind: opSearch, obj: next()})
			}
			s.meet(opBarrier)
		}
		for c := 0; c < clients; c++ {
			for i := 0; i < sz.batches; i++ {
				b := make([]T, in.batch)
				for j := range b {
					b[j] = next()
				}
				s.add(c, op[T]{kind: opBatch, batch: b})
			}
			s.meet(opBarrier)
		}
		for j := 0; j < sz.snaps; j++ {
			for c := 0; c < clients; c++ {
				for w := 0; w < sz.writes; w++ {
					switch u := rng.Float64(); {
					case u < 0.4:
						s.add(c, op[T]{kind: opAdd, obj: next()})
					case u < 0.7:
						s.add(c, op[T]{kind: opUpsert, obj: next(), id: s.target(c, false)})
					default:
						s.add(c, op[T]{kind: opRemove, id: s.target(c, true)})
					}
				}
				if in.bits > 0 && c < clients-1 {
					s.meet(opBarrier)
				}
			}
			s.meet(opSnapshot)
		}
	}
}

// seriesInputs builds series-dtw: multi-dimensional time series under
// constrained DTW (delta 0.10), one shard, no shadow, and a model
// trained with qse-serve's default training flags.
func seriesInputs(seed int64, clients int, sz sizes, smoke bool) *inputs[dtw.Series] {
	sp := spec{name: "series-dtw", n: 3000, k: 10, p: 100, shards: 1, batch: 32, setups: 3, checkEarly: true}
	checked := 32
	opts := core.DefaultOptions()
	opts.Rounds, opts.NumTriples, opts.NumCandidates, opts.NumTraining, opts.K1, opts.Seed = 16, 2000, 60, 120, 5, 1
	if smoke {
		sp.n, sp.batch, sp.setups, checked = 400, 4, 1, 4
		opts.Rounds, opts.NumTriples, opts.NumCandidates, opts.NumTraining = 4, 200, 20, 40
	}
	// One generator supplies the database, the checked sample and the
	// traffic, so all of them vary the same seed patterns; reseeding its
	// source switches to the run's traffic stream.
	src := stats.NewRand(1)
	gen := timeseries.NewGenerator(timeseries.Config{}, src)
	ds, err := gen.GenerateDataset(sp.n)
	if err != nil {
		panic(err)
	}
	variant := 0
	next := func() dtw.Series {
		s, err := gen.Variant(variant % gen.SeedCount())
		if err != nil {
			panic(err)
		}
		variant++
		return s
	}
	in := &inputs[dtw.Series]{
		spec: sp, db: ds.Series, train: ds.Series, opts: opts,
		dist: func(a, b dtw.Series) float64 { return dtw.Constrained(a, b, 0.10) },
		key:  seriesKey,
		menu: []predicate{{}},
	}
	dims := ds.Series[0].Dims()
	in.coords = len(ds.Series[0]) * dims
	in.decode = func(raw json.RawMessage) (dtw.Series, error) {
		var s dtw.Series
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Dims() != dims {
			return nil, fmt.Errorf("series samples have %d dims, want %d", s.Dims(), dims)
		}
		return s, nil
	}
	for i := 0; i < checked; i++ {
		in.checked = append(in.checked, op[dtw.Series]{kind: opSearch, obj: next()})
	}
	src.Seed(trafficSeed(seed))
	readWriteSchedule(in, clients, sz, stats.NewRand(trafficSeed(seed)+1), next)
	in.finish()
	return in
}

// mixture draws vectors from a seeded Gaussian mixture: 64 centres with
// spread 3 and unit noise.
type mixture struct {
	centres [][]float64
	rng     *rand.Rand
}

func newMixture(rng *rand.Rand, dims int) *mixture {
	m := &mixture{centres: make([][]float64, 64), rng: rng}
	for i := range m.centres {
		m.centres[i] = make([]float64, dims)
		for j := range m.centres[i] {
			m.centres[i][j] = rng.NormFloat64() * 3
		}
	}
	return m
}

func (m *mixture) next() []float64 {
	c := m.centres[m.rng.Intn(len(m.centres))]
	v := make([]float64, len(c))
	for j := range v {
		v[j] = c[j] + m.rng.NormFloat64()
	}
	return v
}

func vectorDecoder(dims int) func(json.RawMessage) ([]float64, error) {
	return func(raw json.RawMessage) ([]float64, error) {
		var v []float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		if len(v) != dims {
			return nil, fmt.Errorf("vector has %d coordinates, want %d", len(v), dims)
		}
		return v, nil
	}
}

func l2(a, b []float64) float64 { return metrics.L2(a, b) }

// vectorOptions is the reduced weak-learner pool the vector workloads
// train with: DefaultOptions alone takes tens of seconds on a 2,000
// object sample.
func vectorOptions(rounds int) core.Options {
	o := core.DefaultOptions()
	o.Rounds, o.NumCandidates, o.NumTraining, o.NumTriples = rounds, 100, 200, 4000
	o.EmbeddingsPerRound, o.IntervalsPerEmbedding, o.Seed = 40, 6, 1
	return o
}

// vectorInputs builds vector-scan: 200,000 32-dim vectors under L2 in
// one shard with an 8-bit shadow far larger than a core's L2 cache.
func vectorInputs(seed int64, clients int, sz sizes, smoke bool) *inputs[[]float64] {
	sp := spec{name: "vector-scan", n: 200000, coords: 32, k: 10, p: 200, bits: 8, shards: 1, batch: 32, setups: 3, checkEarly: true}
	checked, sample := 32, 2000
	opts := vectorOptions(64)
	if smoke {
		sp.n, sp.batch, sp.setups, checked, sample = 4000, 4, 1, 4, 500
		opts.Rounds, opts.NumCandidates, opts.NumTraining, opts.NumTriples = 8, 40, 60, 500
	}
	mix := newMixture(stats.NewRand(1), sp.coords)
	db := make([][]float64, sp.n)
	for i := range db {
		db[i] = mix.next()
	}
	in := &inputs[[]float64]{
		spec: sp, db: db, train: db[:sample], opts: opts,
		dist: l2, decode: vectorDecoder(sp.coords), key: vecKey,
		menu: []predicate{{}},
	}
	for i := 0; i < checked; i++ {
		in.checked = append(in.checked, op[[]float64]{kind: opSearch, obj: mix.next()})
	}
	mix.rng = stats.NewRand(trafficSeed(seed))
	readWriteSchedule(in, clients, sz, stats.NewRand(trafficSeed(seed)+1), mix.next)
	in.finish()
	return in
}

// mixedMenu is mixed-write's predicate menu: index 0 is unfiltered, the
// rest span about 1%, 6%, 10% and 50% selectivity and include one
// conjunction and one recent-ts range. The tenant equalities observe
// below the planner's 5% bitmap threshold on average, so both plans run.
func mixedMenu(n int) []predicate {
	recent := int64(n - n/10)
	return []predicate{
		{},
		{`{"field":"tenant","eq":"t03"}`, func(m meta.Map) bool { return m["tenant"].Str == "t03" }},
		{`{"and":[{"field":"tenant","eq":"t07"},{"field":"score","lt":0.16}]}`,
			func(m meta.Map) bool { return m["tenant"].Str == "t07" && m["score"].Flt < 0.16 }},
		{`{"field":"score","lt":0.1}`, func(m meta.Map) bool { return m["score"].Flt < 0.1 }},
		{`{"field":"score","ge":0.5}`, func(m meta.Map) bool { return m["score"].Flt >= 0.5 }},
		{`{"field":"ts","ge":` + strconv.FormatInt(recent, 10) + `}`, func(m meta.Map) bool { return m["ts"].Int >= recent }},
	}
}

func metaRecord(rng *rand.Rand, ts int64) meta.Map {
	return meta.Map{
		"tenant": meta.StringValue(fmt.Sprintf("t%02d", rng.Intn(16))),
		"ts":     meta.IntValue(ts),
		"score":  meta.FloatValue(0.001 + 0.998*rng.Float64()),
	}
}

// mixedInputs builds mixed-write: 20,000 vectors with metadata in four
// shards with a cache-resident 8-bit shadow, under a closed-loop mix of
// filtered and unfiltered search, filtered batches, adds, upserts and
// removes.
func mixedInputs(seed int64, clients int, sz sizes, smoke bool) *inputs[[]float64] {
	sp := spec{name: "mixed-write", n: 20000, coords: 32, k: 10, p: 100, bits: 8, shards: 4, batch: 32, setups: 3, overlap: true}
	checked, sample := 96, 2000
	opts := vectorOptions(32)
	if smoke {
		sp.n, sp.batch, sp.setups, checked, sample = 2000, 4, 1, 12, 500
		opts.Rounds, opts.NumCandidates, opts.NumTraining, opts.NumTriples = 8, 40, 60, 500
	}
	data := stats.NewRand(2)
	mix := newMixture(data, sp.coords)
	db := make([][]float64, sp.n)
	md := make([]meta.Map, sp.n)
	for i := range db {
		db[i] = mix.next()
		md[i] = metaRecord(data, int64(i))
	}
	in := &inputs[[]float64]{
		spec: sp, db: db, md: md, train: db[:sample], opts: opts,
		dist: l2, decode: vectorDecoder(sp.coords), key: vecKey,
		menu: mixedMenu(sp.n),
	}
	// The checked sample is served after the last round.
	for i := 0; i < checked; i++ {
		in.checked = append(in.checked, op[[]float64]{kind: opSearch, round: sz.rounds, obj: mix.next(), filter: i % len(in.menu)})
	}

	// A round opens with every client's batches, so batches always run
	// alongside each other, then a mix in which every client sends the
	// same sequence of op kinds and filters with its own payloads and
	// targets, so the clients reach each snapshot together.
	traffic := stats.NewRand(trafficSeed(seed))
	mix.rng = traffic
	s := newScheduler(in, clients, sz, traffic, func(i int) op[[]float64] {
		return op[[]float64]{kind: opSearch, obj: mix.next(), filter: i % len(in.menu)}
	})
	mixed := 0
	for r := 0; r < sz.rounds; r++ {
		s.round = r
		for c := 0; c < clients; c++ {
			for i := 0; i < sz.batches; i++ {
				b := make([][]float64, sp.batch)
				for j := range b {
					b[j] = mix.next()
				}
				s.add(c, op[[]float64]{kind: opBatch, batch: b, filter: 1 + traffic.Intn(len(in.menu)-1)})
			}
		}
		for j := 0; j < sz.snaps; j++ {
			for i := 0; i < sz.ops; i++ {
				filter := 1 + traffic.Intn(len(in.menu)-1)
				u := traffic.Float64()
				mixed++
				for c := 0; c < clients; c++ {
					// ts orders inserts by their position in the schedule.
					ts := int64(sp.n + mixed*clients + c)
					var o op[[]float64]
					switch {
					case u < 0.40:
						o = op[[]float64]{kind: opSearch, obj: mix.next(), filter: filter}
					case u < 0.50:
						o = op[[]float64]{kind: opSearch, obj: mix.next()}
					case u < 0.75:
						o = op[[]float64]{kind: opAdd, obj: mix.next(), md: metaRecord(traffic, ts)}
					case u < 0.90:
						o = op[[]float64]{kind: opUpsert, obj: mix.next(), md: metaRecord(traffic, ts), id: s.target(c, false)}
					default:
						o = op[[]float64]{kind: opRemove, id: s.target(c, true)}
					}
					s.add(c, o)
				}
			}
			s.meet(opSnapshot)
		}
	}
	in.finish()
	return in
}
