package store

// refModel is the reference the equivalence harness checks every store
// against: the paper's filter-and-refine, by definition, over a map. It
// holds each live object with its metadata record and embedded vector,
// the ID allocator, a generation count and its own field-kind table, and
// shares no code with the store's segments, shards, snapshots or merge —
// so a bug in those cannot pass by being shared.

import (
	"cmp"
	"fmt"
	"slices"

	"qse/internal/core"
	"qse/internal/meta"
	"qse/internal/metrics"
	"qse/internal/retrieval"
)

type refRow struct {
	obj []float64
	md  meta.Map
	vec []float64
}

type refModel struct {
	model *core.Model[[]float64]
	rows  map[uint64]refRow
	next  uint64
	gen   uint64
	kinds map[string]meta.Kind
}

// newRefModel holds db under IDs 0..len(db)-1, as a new store does.
func newRefModel(model *core.Model[[]float64], db [][]float64) *refModel {
	m := &refModel{model: model, rows: map[uint64]refRow{}, next: uint64(len(db)), kinds: map[string]meta.Kind{}}
	for i, x := range db {
		m.rows[uint64(i)] = refRow{obj: x, vec: model.Embed(x)}
	}
	return m
}

// register applies the typing rule: a field keeps the kind of its first
// write, and a record that disagrees with any registered kind is refused
// whole, registering nothing.
func (m *refModel) register(md meta.Map) bool {
	for f, v := range md {
		if k, ok := m.kinds[f]; ok && k != v.Kind {
			return false
		}
	}
	for f, v := range md {
		m.kinds[f] = v.Kind
	}
	return true
}

// add stores x under the next ID; ok is false when md is refused.
func (m *refModel) add(x []float64, md meta.Map) (id uint64, ok bool) {
	if !m.register(md) {
		return 0, false
	}
	id = m.next
	m.next++
	m.rows[id] = refRow{obj: x, md: md, vec: m.model.Embed(x)}
	m.gen++
	return id, true
}

// upsert replaces a live row whole: object, vector and record. It
// reports whether the ID was live and whether md was accepted; an
// unknown ID is refused before md is looked at.
func (m *refModel) upsert(id uint64, x []float64, md meta.Map) (known, ok bool) {
	if _, known = m.rows[id]; !known || !m.register(md) {
		return known, false
	}
	m.rows[id] = refRow{obj: x, md: md, vec: m.model.Embed(x)}
	m.gen++
	return true, true
}

// remove deletes a live row and reports whether there was one.
func (m *refModel) remove(id uint64) bool {
	if _, ok := m.rows[id]; !ok {
		return false
	}
	delete(m.rows, id)
	m.gen++
	return true
}

// liveIDs returns the live IDs in ascending order.
func (m *refModel) liveIDs() []uint64 {
	ids := make([]uint64, 0, len(m.rows))
	for id := range m.rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// first returns the object with the lowest live ID.
func (m *refModel) first() ([]float64, bool) {
	ids := m.liveIDs()
	if len(ids) == 0 {
		return nil, false
	}
	return m.rows[ids[0]].obj, true
}

// twin returns an object that two or more live rows hold, if any: a
// query for it ties on both the filter and the exact distance.
func (m *refModel) twin() ([]float64, bool) {
	seen := map[string]bool{}
	for _, id := range m.liveIDs() {
		key := fmt.Sprint(m.rows[id].obj)
		if seen[key] {
			return m.rows[id].obj, true
		}
		seen[key] = true
	}
	return nil, false
}

// search is filter-and-refine: the weighted L1 filter distance under
// the query's own weights over the live rows pred matches (nil matches
// all), the top p of those on (filter distance, ID), then the top k of
// the survivors on (exact distance, ID). Refining costs one exact
// distance per survivor and embedding the query EmbedCost.
func (m *refModel) search(q []float64, k, p int, pred *meta.Predicate) ([]Result, retrieval.Stats, error) {
	if err := retrieval.CheckKP(k, p); err != nil {
		return nil, retrieval.Stats{}, err
	}
	qvec := m.model.Embed(q)
	w := m.model.QueryWeights(qvec)
	var cands []Result
	for id, r := range m.rows {
		if pred.Match(r.md) {
			cands = append(cands, Result{ID: id, Distance: metrics.WeightedL1Unchecked(w, qvec, r.vec)})
		}
	}
	byDistanceID := func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	}
	slices.SortFunc(cands, byDistanceID)
	cands = cands[:min(p, len(cands))]
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: c.ID, Distance: l1(q, m.rows[c.ID].obj)}
	}
	slices.SortFunc(out, byDistanceID)
	return out[:min(k, len(out))], retrieval.Stats{EmbedDistances: m.model.EmbedCost(), RefineDistances: len(cands)}, nil
}
