// Observability wiring: the server's metric registry (served at
// GET /metrics in Prometheus text format), the per-stage search
// histograms, the slow-query log (GET /v1/debug/slow), and the
// store-gauge scrape hook. Everything here records through internal/obs
// primitives — atomics only on the hot path; rendering happens on the
// scraper's goroutine.

package server

import (
	"net/http"
	"time"

	"qse/internal/obs"
	"qse/internal/retrieval"
)

// DefaultSlowLogSize is the slow-query log capacity when
// Options.SlowLogSize is zero.
const DefaultSlowLogSize = 32

// stage indexes the per-stage search histograms, one per phase of the
// filter-and-refine pipeline.
type stage int

const (
	stEmbed stage = iota
	stFilterEval
	stBoundScan
	stFilterBase
	stFilterDelta
	stMerge
	stRefine
	numStages
)

var stageNames = [numStages]string{"embed", "filter_eval", "bound_scan", "filter_base", "filter_delta", "merge", "refine"}

// metrics is one endpoint's traffic instruments. Served requests and
// sheds are disjoint: a shed 429 touches only the shed counter, so the
// latency series measures work the server actually did (a shed's ~0ns
// must not drag the average down precisely when the server is
// saturated).
type metrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	shed     *obs.Counter
	latency  *obs.Histogram
}

// Bucket layouts. HTTP latency spans 50µs to ~3.3s; search stages are
// finer, 1µs to ~131ms. Both store nanoseconds and render seconds.
var (
	latencyBuckets = obs.ExpBuckets(50_000, 2, 17)
	stageBuckets   = obs.ExpBuckets(1_000, 2, 18)
)

// initObs builds the registry and every instrument the server records
// into. Called once from New; everything registered here is immutable
// afterwards, so scrapes run lock-free against recording.
func (s *Server[T]) initObs() {
	r := obs.NewRegistry()
	s.reg = r
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		l := obs.Label{Name: "endpoint", Value: endpointNames[ep]}
		s.eps[ep] = metrics{
			requests: r.Counter("qse_http_requests_total", "Served requests by endpoint (sheds excluded).", l),
			errors:   r.Counter("qse_http_errors_total", "Served requests answered with status >= 400, by endpoint.", l),
			shed:     r.Counter("qse_http_shed_total", "Requests shed with 429 at the in-flight gate, by endpoint.", l),
			latency:  r.Histogram("qse_http_request_duration_seconds", "Served request duration by endpoint (sheds excluded).", latencyBuckets, 1e-9, l),
		}
	}
	for st := stage(0); st < numStages; st++ {
		s.stage[st] = r.Histogram("qse_search_stage_duration_seconds",
			"Per-stage search duration across the filter-and-refine pipeline.",
			stageBuckets, 1e-9, obs.Label{Name: "stage", Value: stageNames[st]})
	}
	s.embedDist = r.Counter("qse_search_embed_distances_total", "Exact distance computations spent embedding queries.")
	s.refineDist = r.Counter("qse_search_refine_distances_total", "Exact distance computations spent refining candidates.")
	s.panics = r.Counter("qse_http_panics_total", "Handler panics caught by the recovery middleware.")
	s.timeouts = r.Counter("qse_http_timeouts_total", "Searches answered 504 after exceeding the deadline.")
	r.GaugeFunc("qse_http_inflight", "Work requests currently inside the in-flight gate.",
		func() float64 { return float64(len(s.sem)) })
	r.GaugeFunc("qse_http_max_inflight", "Capacity of the in-flight gate (0 = unbounded).",
		func() float64 { return float64(s.opts.MaxInFlight) })
	r.GaugeFunc("qse_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	// Store gauges: one Stats() call per scrape refreshes the whole
	// block, so every gauge in it reflects the same store version.
	g := storeGauges{
		size:            r.Gauge("qse_store_size", "Live objects in the store."),
		dims:            r.Gauge("qse_store_dims", "Embedding dimensionality."),
		shards:          r.Gauge("qse_store_shards", "Shard count (1 for an unsharded store)."),
		baseRows:        r.Gauge("qse_store_base_rows", "Rows in the immutable base segments."),
		deltaRows:       r.Gauge("qse_store_delta_rows", "Rows in the append-only delta segments."),
		tombstones:      r.Gauge("qse_store_tombstones", "Tombstoned rows awaiting compaction."),
		generation:      r.Gauge("qse_store_generation", "Store mutation generation (sum over shards)."),
		compactions:     r.Gauge("qse_store_compactions_total", "Compactions performed since startup."),
		lastCompaction:  r.Gauge("qse_store_last_compaction_seconds", "Duration of the most recent compaction (worst shard)."),
		lastSnapshot:    r.Gauge("qse_store_last_snapshot_seconds", "Duration of the most recent snapshot."),
		lastSnapshotB:   r.Gauge("qse_store_last_snapshot_bytes", "Bytes written by the most recent snapshot."),
		deltaScanShare:  r.Gauge("qse_store_delta_scan_share", "Share of filter-scan work spent on delta rows and tombstones."),
		snapFailures:    r.Gauge("qse_store_snapshot_failures_total", "Failed snapshot attempts since startup."),
		snapLastOKUnix:  r.Gauge("qse_store_last_snapshot_ok_unix", "Unix time of the last successful snapshot."),
		degradedPersist: r.Gauge("qse_store_degraded_persistence", "1 while snapshots keep failing past the tolerance, else 0."),
		quantBits:       r.Gauge("qse_store_quantize_bits", "Scalar-quantization bit width of the shadow block (8 = on, 0 = off)."),
		shadowBytes:     r.Gauge("qse_store_shadow_bytes", "Resident bytes of the shadow block: base and delta codes plus the base's cluster-order map, block starts and cluster tree (a box, block range and children per node) (0 when quantization is off or no base clears the size gate)."),
		boundScanned:    r.Gauge("qse_store_bound_scanned_rows_total", "Rows screened by the seeded shadow screen since startup."),
		boundVisited:    r.Gauge("qse_store_bound_visited_rows_total", "Screened rows whose codes the walk summed, outside the tree nodes it skipped. A parallel walk's workers share one bound, the p-th smallest upper bound of the rows any of them admitted, but the rows each sums before the others' admissions reach it depend on the schedule, so the count can differ between runs of the same queries; the scanned and exact counts do not."),
		boundExact:      r.Gauge("qse_store_bound_exact_rows_total", "Screened rows that needed an exact float64 evaluation."),
		boundPruneRate:  r.Gauge("qse_store_bound_prune_rate", "Fraction of screened rows excluded without exact evaluation."),
	}
	r.OnScrape(func() {
		st := s.st.Stats()
		g.size.Set(float64(st.Size))
		g.dims.Set(float64(st.Dims))
		g.shards.Set(float64(st.Shards))
		g.baseRows.Set(float64(st.BaseSize))
		g.deltaRows.Set(float64(st.DeltaSize))
		g.tombstones.Set(float64(st.Tombstones))
		g.generation.Set(float64(st.Generation))
		g.compactions.Set(float64(st.Compactions))
		g.lastCompaction.Set(float64(st.LastCompactionNanos) / 1e9)
		g.lastSnapshot.Set(float64(st.LastSnapshotNanos) / 1e9)
		g.lastSnapshotB.Set(float64(st.LastSnapshotBytes))
		g.deltaScanShare.Set(st.DeltaScanShare)
		g.snapFailures.Set(float64(st.SnapshotFailures))
		g.snapLastOKUnix.Set(float64(st.LastSnapshotOKUnix))
		if st.DegradedPersistence {
			g.degradedPersist.Set(1)
		} else {
			g.degradedPersist.Set(0)
		}
		g.quantBits.Set(float64(st.QuantBits))
		g.shadowBytes.Set(float64(st.ShadowBytes))
		g.boundScanned.Set(float64(st.BoundScannedRows))
		g.boundVisited.Set(float64(st.BoundVisitedRows))
		g.boundExact.Set(float64(st.BoundExactRows))
		if st.BoundScannedRows > 0 {
			g.boundPruneRate.Set(1 - float64(st.BoundExactRows)/float64(st.BoundScannedRows))
		} else {
			g.boundPruneRate.Set(0)
		}
	})

	// Filter block: one selectivity gauge per metadata field. Fields
	// appear as traffic references them, so their gauges are registered
	// lazily inside the scrape hook (the registry snapshots its family
	// list after hooks run, so a gauge born on this scrape still renders
	// on it). The mutex serializes concurrent scrapes over the
	// lazily-grown map.
	s.selGauges = make(map[string]*obs.Gauge)
	r.OnScrape(func() {
		fs := s.st.FilterStats()
		s.selMu.Lock()
		defer s.selMu.Unlock()
		for field, fst := range fs.Fields {
			g, ok := s.selGauges[field]
			if !ok {
				g = r.Gauge("qse_filter_field_selectivity",
					"Observed selectivity (matched live rows / scanned live rows) of filters referencing the field.",
					obs.Label{Name: "field", Value: field})
				s.selGauges[field] = g
			}
			g.Set(fst.Selectivity())
		}
	})

	n := s.opts.SlowLogSize
	if n <= 0 {
		n = DefaultSlowLogSize
	}
	s.slow = obs.NewSlowLog(n)
}

// storeGauges is the scrape-refreshed store block.
type storeGauges struct {
	size, dims, shards, baseRows, deltaRows, tombstones *obs.Gauge
	generation, compactions                             *obs.Gauge
	lastCompaction, lastSnapshot, lastSnapshotB         *obs.Gauge
	deltaScanShare, snapFailures, snapLastOKUnix        *obs.Gauge
	degradedPersist                                     *obs.Gauge
	quantBits, boundScanned, boundExact, boundPruneRate *obs.Gauge
	boundVisited, shadowBytes                           *obs.Gauge
}

// observeSearch feeds one query's cost into the stage histograms and
// distance counters — five histogram observes and two counter adds, all
// atomic.
func (s *Server[T]) observeSearch(st retrieval.Stats) {
	t := st.Timing
	s.stage[stEmbed].Observe(t.EmbedNanos)
	// filter_eval exists only on filtered queries; the zeros of every
	// unfiltered query would bury the stage's real distribution.
	if t.FilterEvalNanos > 0 {
		s.stage[stFilterEval].Observe(t.FilterEvalNanos)
	}
	// bound_scan exists only when the seeded screen ran; same reasoning
	// as filter_eval.
	if t.BoundScanNanos > 0 {
		s.stage[stBoundScan].Observe(t.BoundScanNanos)
	}
	s.stage[stFilterBase].Observe(t.FilterBaseNanos)
	s.stage[stFilterDelta].Observe(t.FilterDeltaNanos)
	s.stage[stMerge].Observe(t.MergeNanos)
	s.stage[stRefine].Observe(t.RefineNanos)
	s.embedDist.Add(uint64(st.EmbedDistances))
	s.refineDist.Add(uint64(st.RefineDistances))
}

// timingJSON is the per-stage breakdown as served to clients (in the
// debug section of a search response and in slow-query rows).
type timingJSON struct {
	EmbedUs float64 `json:"embed_us"`
	// FilterEvalUs is the predicate-evaluation pre-pass; omitted when the
	// query carried no filter, so unfiltered responses are byte-identical
	// to the pre-filter wire format.
	FilterEvalUs float64 `json:"filter_eval_us,omitempty"`
	// BoundScanUs is the seeded shadow screen; omitted (with its row
	// counters) when no screen ran — quantization off, or the size gate
	// sent the query to the exact scan — keeping the wire format
	// unchanged for exact-only deployments.
	BoundScanUs   float64 `json:"bound_scan_us,omitempty"`
	BoundScanned  int64   `json:"bound_scanned_rows,omitempty"`
	BoundVisited  int64   `json:"bound_visited_rows,omitempty"`
	BoundExact    int64   `json:"bound_exact_rows,omitempty"`
	FilterBaseUs  float64 `json:"filter_base_us"`
	FilterDeltaUs float64 `json:"filter_delta_us"`
	MergeUs       float64 `json:"merge_us"`
	RefineUs      float64 `json:"refine_us"`
	TotalUs       float64 `json:"total_us"`
}

func toTimingJSON(t retrieval.Timing) *timingJSON {
	return &timingJSON{
		EmbedUs:       float64(t.EmbedNanos) / 1e3,
		FilterEvalUs:  float64(t.FilterEvalNanos) / 1e3,
		BoundScanUs:   float64(t.BoundScanNanos) / 1e3,
		BoundScanned:  t.BoundScannedRows,
		BoundVisited:  t.BoundVisitedRows,
		BoundExact:    t.BoundExactRows,
		FilterBaseUs:  float64(t.FilterBaseNanos) / 1e3,
		FilterDeltaUs: float64(t.FilterDeltaNanos) / 1e3,
		MergeUs:       float64(t.MergeNanos) / 1e3,
		RefineUs:      float64(t.RefineNanos) / 1e3,
		TotalUs:       float64(t.TotalNanos()) / 1e3,
	}
}

// slowPayload is what a retained slow query carries: the request shape,
// the distance budget it spent, and where the time went.
type slowPayload struct {
	Endpoint        string     `json:"endpoint"`
	K               int        `json:"k"`
	P               int        `json:"p"`
	Queries         int        `json:"queries,omitempty"`
	EmbedDistances  int        `json:"embed_distances"`
	RefineDistances int        `json:"refine_distances"`
	Timing          timingJSON `json:"timing"`
}

// noteSlow offers a finished search to the slow log. The duration is
// the pipeline's own work time (the stage sum), so queueing and JSON
// encoding cannot promote a cheap query into the log. The fast path is
// one atomic load; the payload is built only after admission.
func (s *Server[T]) noteSlow(ep endpoint, k, p, queries int, st retrieval.Stats) {
	total := st.Timing.TotalNanos()
	if !s.slow.WouldRecord(total) {
		return
	}
	s.slow.Record(obs.SlowEntry{
		UnixNano:      time.Now().UnixNano(),
		DurationNanos: total,
		Payload: slowPayload{
			Endpoint:        endpointNames[ep],
			K:               k,
			P:               p,
			Queries:         queries,
			EmbedDistances:  st.EmbedDistances,
			RefineDistances: st.RefineDistances,
			Timing:          *toTimingJSON(st.Timing),
		},
	})
}

// slowRowJSON is one row of /v1/debug/slow.
type slowRowJSON struct {
	UnixNano   int64   `json:"unix_nano"`
	DurationUs float64 `json:"duration_us"`
	slowPayload
}

type slowResponse struct {
	Slowest []slowRowJSON `json:"slowest"`
}

// handleDebugSlow serves the N slowest queries seen since startup,
// slowest first, each with its stage breakdown and distance budget.
func (s *Server[T]) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Snapshot()
	rows := make([]slowRowJSON, 0, len(entries))
	for _, e := range entries {
		p, _ := e.Payload.(slowPayload)
		rows = append(rows, slowRowJSON{
			UnixNano:    e.UnixNano,
			DurationUs:  float64(e.DurationNanos) / 1e3,
			slowPayload: p,
		})
	}
	writeJSON(w, http.StatusOK, slowResponse{Slowest: rows})
}
