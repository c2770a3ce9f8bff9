// Tracker observes the selectivity of every filtered query per
// referenced field (matched live rows over scanned live rows, as atomic
// sums) for the stats and metrics surface. One Tracker serves a whole
// store — the sharded store shares one across its shards, so the
// observations reflect global traffic. It never affects which rows a
// query returns.
package meta

import (
	"sync"
	"sync/atomic"
)

type fieldCounts struct {
	matched atomic.Uint64
	scanned atomic.Uint64
}

// Tracker accumulates per-field selectivity observations. The zero
// value is not usable; construct with NewTracker.
type Tracker struct {
	mu     sync.Mutex
	fields map[string]*fieldCounts
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{fields: make(map[string]*fieldCounts)}
}

// counts returns (creating on first use) the counters of one field.
func (t *Tracker) counts(field string) *fieldCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.fields[field]
	if !ok {
		c = &fieldCounts{}
		t.fields[field] = c
	}
	return c
}

// Observe records one filtered query's outcome — matched live rows out
// of scanned live rows — against every field the predicate referenced.
func (t *Tracker) Observe(fields []string, matched, scanned int) {
	if scanned <= 0 {
		return
	}
	for _, f := range fields {
		c := t.counts(f)
		c.matched.Add(uint64(matched))
		c.scanned.Add(uint64(scanned))
	}
}

// FieldStat is one field's accumulated observations.
type FieldStat struct {
	Matched uint64
	Scanned uint64
}

// Selectivity returns matched/scanned (1 when unobserved).
func (f FieldStat) Selectivity() float64 {
	if f.Scanned == 0 {
		return 1
	}
	return float64(f.Matched) / float64(f.Scanned)
}

// TrackerStats is a point-in-time snapshot for /v1/stats and /metrics.
type TrackerStats struct {
	Fields map[string]FieldStat
	// PlanInline and PlanBitmap are always zero: there is one evaluation
	// path and no planner. The served-path benchmark still reads them;
	// the next change to the benchmark retires them.
	PlanInline uint64
	PlanBitmap uint64
}

// Snapshot captures the tracker's current state.
func (t *Tracker) Snapshot() TrackerStats {
	var out TrackerStats
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.fields) > 0 {
		out.Fields = make(map[string]FieldStat, len(t.fields))
		for f, c := range t.fields {
			out.Fields[f] = FieldStat{Matched: c.matched.Load(), Scanned: c.scanned.Load()}
		}
	}
	return out
}
