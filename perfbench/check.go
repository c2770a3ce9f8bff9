package main

import (
	"fmt"
	"slices"
	"sync"

	"qse/internal/eval"
	"qse/internal/meta"
	"qse/internal/par"
	"qse/internal/space"
)

// version is one object an ID has held and the round that wrote it.
// The initial object has round -1; its distances to the checked sample
// were computed before set-up.
type version[T any] struct {
	obj   T
	md    meta.Map
	round int
}

// refModel is the benchmark's reference model of the store: every
// version each ID has held, the round that removed it, and which
// version is live at the end. Clients only upsert and remove base IDs
// they own, adds receive fresh IDs, and a removed ID is never written
// again, so the contents at each round's start do not depend on how the
// clients interleaved.
type refModel[T any] struct {
	versions map[uint64][]version[T]
	removed  map[uint64]int
	live     map[uint64]int
}

func buildRef[T any](in *inputs[T], ph *phase[T]) *refModel[T] {
	m := &refModel[T]{
		versions: make(map[uint64][]version[T], in.n),
		removed:  make(map[uint64]int),
		live:     make(map[uint64]int, in.n),
	}
	for i, x := range in.db {
		var md meta.Map
		if in.md != nil {
			md = in.md[i]
		}
		m.versions[uint64(i)] = []version[T]{{obj: x, md: md, round: -1}}
		m.live[uint64(i)] = 0
	}
	for c, s := range in.sched {
		for i, o := range s {
			r := &ph.replies[c][i]
			if !r.ok() {
				continue
			}
			switch o.kind {
			case opAdd, opUpsert:
				id := o.id
				if o.kind == opAdd {
					id = r.id
				}
				m.versions[id] = append(m.versions[id], version[T]{obj: o.obj, md: o.md, round: o.round})
				m.live[id] = len(m.versions[id]) - 1
			case opRemove:
				m.removed[o.id] = o.round
				delete(m.live, o.id)
			}
		}
	}
	return m
}

// visible returns the versions of id a search in round r may return:
// the one live when the round started, unless the ID was removed
// before, and, when writes run alongside the round's searches, every
// version the round wrote. A search no write overlaps may return only
// the live version.
func (m *refModel[T]) visible(id uint64, r int, overlap bool) []version[T] {
	if at, ok := m.removed[id]; ok && at < r {
		return nil
	}
	vs := m.versions[id]
	var out []version[T]
	for j := len(vs) - 1; j >= 0; j-- {
		switch v := vs[j]; {
		case v.round < r:
			return append(out, v)
		case v.round == r && overlap:
			out = append(out, v)
		}
	}
	return out
}

// checker validates replies against the reference model and tallies
// what the end-to-end metrics need.
type checker[T any] struct {
	in  *inputs[T]
	ref *refModel[T]
	// cost is the embed cost every response must report.
	cost int

	mu       sync.Mutex
	failed   int
	failures []string
}

func (ck *checker[T]) fail(format string, args ...any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.failed++
	if len(ck.failures) < 5 {
		ck.failures = append(ck.failures, fmt.Sprintf(format, args...))
	}
}

// hits checks one result list of a search in round r: k results in
// ascending (distance, ID) order, distinct known IDs, and for each one a
// version the search may see (see visible) whose recomputed distance
// matches bit for bit and whose metadata satisfies the query's predicate.
func (ck *checker[T]) hits(q T, filter, r int, overlap bool, hs []hit, st qstats) bool {
	in := ck.in
	if len(hs) != in.k {
		ck.fail("%d results, want %d", len(hs), in.k)
		return false
	}
	if st.EmbedDistances != ck.cost || st.RefineDistances < in.k || st.RefineDistances > in.p {
		ck.fail("stats embed=%d refine=%d, want embed=%d and k <= refine <= p", st.EmbedDistances, st.RefineDistances, ck.cost)
		return false
	}
	match := in.menu[filter].match
	for i, h := range hs {
		if i > 0 {
			prev := hs[i-1]
			if h.Distance < prev.Distance || (h.Distance == prev.Distance && h.ID <= prev.ID) {
				ck.fail("results out of order at %d", i)
				return false
			}
		}
		if slices.ContainsFunc(hs[:i], func(p hit) bool { return p.ID == h.ID }) {
			ck.fail("id %d returned twice", h.ID)
			return false
		}
		if _, ok := ck.ref.versions[h.ID]; !ok {
			ck.fail("unknown id %d", h.ID)
			return false
		}
		found := false
		for _, v := range ck.ref.visible(h.ID, r, overlap) {
			if in.dist(q, v.obj) == h.Distance && (match == nil || match(v.md)) {
				found = true
				break
			}
		}
		if !found {
			ck.fail("id %d: distance %v matches no version a search in round %d may see", h.ID, h.Distance, r)
			return false
		}
	}
	return true
}

// reply checks one answer; overlap tells whether writes may have run
// alongside it.
func (ck *checker[T]) reply(o *op[T], r *reply, overlap bool) {
	if !r.ok() {
		ck.fail("%s %s: status %d, err %v", o.kind.method(), o.path, r.status, r.err)
		return
	}
	switch o.kind {
	case opSearch:
		ck.hits(o.obj, o.filter, o.round, overlap, r.search.Results, r.search.Stats)
	case opBatch:
		if len(r.batch.Results) != len(o.batch) || len(r.batch.Stats) != len(o.batch) {
			ck.fail("batch of %d answered %d", len(o.batch), len(r.batch.Results))
			return
		}
		for j, q := range o.batch {
			if !ck.hits(q, o.filter, o.round, overlap, r.batch.Results[j], r.batch.Stats[j]) {
				return
			}
		}
	case opAdd:
		if r.id < uint64(ck.in.n) {
			ck.fail("add assigned base id %d", r.id)
		}
	case opUpsert:
		if r.id != o.id {
			ck.fail("upsert of %d answered id %d", o.id, r.id)
		}
	case opScrape:
		if !r.scrapeOK {
			ck.fail("GET /metrics lacks the request counters")
		}
	}
}

// checkAll validates every timed and checked reply across all cores and
// returns the number of ops attempted. Add IDs must be distinct. No
// write runs alongside the checked sample.
func (ck *checker[T]) checkAll(ph *phase[T]) int {
	type job struct {
		o       *op[T]
		r       *reply
		overlap bool
	}
	var jobs []job
	seen := make(map[uint64]bool)
	for c, s := range ck.in.sched {
		for i := ck.in.warm; i < len(s); i++ {
			if !s[i].kind.isRequest() {
				continue
			}
			jobs = append(jobs, job{&s[i], &ph.replies[c][i], ck.in.overlap})
			if s[i].kind == opAdd && ph.replies[c][i].ok() {
				if id := ph.replies[c][i].id; seen[id] {
					ck.fail("id %d assigned twice", id)
				} else {
					seen[id] = true
				}
			}
		}
	}
	for i := range ck.in.checked {
		jobs = append(jobs, job{&ck.in.checked[i], &ph.checked[i], false})
	}
	par.For(len(jobs), 8, func(lo, hi int) {
		for _, j := range jobs[lo:hi] {
			ck.reply(j.o, j.r, j.overlap)
		}
	})
	ck.failed += ph.saveErrs
	return len(jobs) + len(ph.saves) + 1
}

// recall is the mean fraction of the true k nearest neighbours, under
// the same oracle and predicate, among the checked sample's answers,
// judged against the contents the sample was served on: the initial
// database, or the reference model's final contents.
func (ck *checker[T]) recall(ph *phase[T]) float64 {
	in := ck.in
	total := 0.0
	for qi := range in.checked {
		q := &in.checked[qi]
		match := in.menu[q.filter].match
		best := newTopK(in.k)
		if in.checkEarly {
			for i, d := range in.truth[qi] {
				if match == nil || match(in.md[i]) {
					best.push(hit{ID: uint64(i), Distance: d})
				}
			}
		} else {
			for id, vi := range ck.ref.live {
				v := ck.ref.versions[id][vi]
				if match != nil && !match(v.md) {
					continue
				}
				d := 0.0
				if v.round < 0 {
					d = in.truth[qi][id]
				} else {
					d = in.dist(q.obj, v.obj)
				}
				best.push(hit{ID: id, Distance: d})
			}
		}
		want := make(map[uint64]bool, in.k)
		for _, h := range best.hits {
			want[h.ID] = true
		}
		got := 0
		for _, h := range ph.checked[qi].search.Results {
			if want[h.ID] {
				got++
			}
		}
		total += float64(got) / float64(len(want))
	}
	return total / float64(len(in.checked))
}

// topK keeps the k smallest hits in (distance, ID) order.
type topK struct {
	k    int
	hits []hit
}

func newTopK(k int) *topK { return &topK{k: k, hits: make([]hit, 0, k+1)} }

func (t *topK) push(h hit) {
	if len(t.hits) == t.k && byDistanceID(h, t.hits[t.k-1]) >= 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(t.hits, h, byDistanceID)
	t.hits = slices.Insert(t.hits, i, h)
	if len(t.hits) > t.k {
		t.hits = t.hits[:t.k]
	}
}

func byDistanceID(a, b hit) int {
	switch {
	case a.Distance < b.Distance:
		return -1
	case a.Distance > b.Distance:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// distancesAt95 is the paper's Table 1 quantity for k = 10 at 95%
// accuracy — the minimum over the model's prefix dimensionalities of
// EmbedCost + p — evaluated by the repository's own eval package on the
// checked sample against the initial database.
func distancesAt95[T any](in *inputs[T], ph *phase[T]) (float64, error) {
	const k = 10
	gt := &space.GroundTruth{Ranked: make([][]int, len(in.checked))}
	queries := make([]T, len(in.checked))
	for qi := range in.checked {
		queries[qi] = in.checked[qi].obj
		best := newTopK(k)
		for i, d := range in.truth[qi] {
			best.push(hit{ID: uint64(i), Distance: d})
		}
		// EvaluateDim reads only the true k nearest of each query.
		for _, h := range best.hits {
			gt.Ranked[qi] = append(gt.Ranked[qi], int(h.ID))
		}
	}
	m, err := eval.CoreMethod(in.name, ph.model, in.db, queries, gt, []int{k}, eval.DefaultDimsGrid(ph.model.Dims()))
	if err != nil {
		return 0, err
	}
	opt, err := m.OptimumFor(k, 95)
	if err != nil {
		return 0, err
	}
	return float64(opt.Cost), nil
}
