package main

import (
	"fmt"
	"slices"
	"time"

	"qse/internal/stats"
)

// tally is the timed phase as a user of the server sees it.
type tally struct {
	queries, writes int     // queries answered (batch members count), writes acknowledged
	rate            float64 // (queries + writes) per second of the timed phase, less the speed probe's time
	search, batch   []float64
	write           []float64   // latencies in ns
	searchW, writeW [][]float64 // the same latencies by window of rounds
	exactDists      []float64   // embed + refine distances per answered query
}

// windows is how many windows of consecutive rounds the p95 latencies
// are taken in (see quiet): two seconds of traffic each in a 12 s run,
// with at least ten searches and ten writes beyond each window's p95.
const windows = 6

func count[T any](in *inputs[T], ph *phase[T]) tally {
	nw := min(windows, in.rounds)
	t := tally{searchW: make([][]float64, nw), writeW: make([][]float64, nw)}
	for c, s := range in.sched {
		for i := in.warm; i < len(s); i++ {
			o, r := &s[i], &ph.replies[c][i]
			if !r.ok() {
				continue
			}
			w := o.round * nw / in.rounds
			switch {
			case o.kind == opSearch:
				t.queries++
				t.search = append(t.search, r.latency())
				t.searchW[w] = append(t.searchW[w], r.latency())
				t.exactDists = append(t.exactDists, float64(r.search.Stats.EmbedDistances+r.search.Stats.RefineDistances))
			case o.kind == opBatch:
				t.queries += len(o.batch)
				t.batch = append(t.batch, r.latency())
				for _, st := range r.batch.Stats {
					t.exactDists = append(t.exactDists, float64(st.EmbedDistances+st.RefineDistances))
				}
			case o.kind.isWrite():
				t.writes++
				t.write = append(t.write, r.latency())
				t.writeW[w] = append(t.writeW[w], r.latency())
			}
		}
	}
	t.rate = float64(t.queries+t.writes) / (ph.wall - ph.probeWall).Seconds()
	return t
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// endToEndValues computes every end-to-end metric of an untraced run,
// and the served path's times as measured, before they are scaled to
// the reference host speed (see probe.go).
func endToEndValues[T any](in *inputs[T], ph *phase[T], ck *checker[T], attempted int) (vals, measured map[string]float64, err error) {
	t := count(in, ph)
	d95, err := distancesAt95(in, ph)
	if err != nil {
		return nil, nil, fmt.Errorf("distances at 95%%: %w", err)
	}
	live := float64(len(ck.ref.live) * in.coords * 8)
	vals = map[string]float64{
		"recall_at_10":              ck.recall(ph),
		"exact_distances_per_query": stats.Mean(t.exactDists),
		"distances_at_95":           d95,
		"heap_mb":                   ph.heapMB,
		"disk_bytes_per_live_byte":  ratio(float64(ph.diskBytes), live),
		"ok_op_ratio":               1 - ratio(float64(ck.failed), float64(attempted)),
	}
	measured = map[string]float64{
		"search_p50_ms":   percentile(t.search, 0.5) / 1e6,
		"search_p95_ms":   quiet(t.searchW, 0.95) / 1e6,
		"batch_p50_ms":    percentile(t.batch, 0.5) / 1e6,
		"write_p50_ms":    percentile(t.write, 0.5) / 1e6,
		"write_p95_ms":    quiet(t.writeW, 0.95) / 1e6,
		"snapshot_p50_ms": percentile(durations(ph.saves), 0.5) / 1e6,
	}
	scale := speedScale(ph.probe)
	for name, v := range measured {
		vals[name] = v * scale
	}
	// A slower host completes fewer ops per second.
	measured["ops_per_s"] = t.rate
	vals["ops_per_s"] = t.rate / scale
	vals["setup_s"] = percentile(durations(ph.setups), 0.5) / 1e9
	return vals, measured, nil
}

// layerValues computes every per-layer metric from a traced run, using
// the untraced run of the same schedule for the runtime's counters and
// the tracing overhead.
func layerValues[T any](in *inputs[T], plain, traced *phase[T]) (map[string]float64, []*breakdown) {
	tr := traced.tr
	spans := tr.join()
	v := make(map[string]float64)

	bSearch := newBreakdown("search", "http.transport", "server", "meta.compile", "core.embed", "retrieval.filter_wall", "store.merge", "store.refine")
	bBatch := newBreakdown("batch", "http.transport", "server", "meta.compile", "store")
	bWrite := newBreakdown("write", "http.transport", "server", "store")
	bScrape := newBreakdown("scrape", "http.transport", "obs")

	var (
		transport, reqB, respB, compile              []float64
		searchSelf, batchSelf, writeSelf             []float64
		storeSearch, storeBatch, filterWall, scrapes []float64
		writeSpans                                   []float64
		byMethod                                     = map[opKind][]float64{}
		embed, merge, refine, embedD, refineD        []float64
		bound, fbase, fdelta, feval                  []float64
		screened, exact, scanMB                      []float64
		non2xx                                       int
	)
	shadowRow := float64((traced.dims*in.bits + 7) / 8)
	rows := float64(traced.st0.BaseSize + traced.st0.DeltaSize)
	perQuery := func(st qstats, filtered bool) {
		embedD = append(embedD, float64(st.EmbedDistances))
		refineD = append(refineD, float64(st.RefineDistances))
		t := st.Timing
		if t == nil {
			return
		}
		embed = append(embed, t.EmbedUs)
		merge = append(merge, t.MergeUs)
		refine = append(refine, t.RefineUs)
		bound = append(bound, t.BoundScanUs)
		fbase = append(fbase, t.FilterBaseUs)
		fdelta = append(fdelta, t.FilterDeltaUs)
		if filtered {
			feval = append(feval, t.FilterEvalUs)
		}
		screened = append(screened, float64(t.BoundScanned))
		exact = append(exact, float64(t.BoundExact))
		bytes := float64(t.BoundScanned)*shadowRow + float64(t.BoundExact)*float64(traced.dims*8)
		if in.bits == 0 {
			// Without a shadow every live row is read exactly.
			bytes = rows * float64(traced.dims*8)
		}
		scanMB = append(scanMB, bytes/(1<<20))
	}

	for c, s := range in.sched {
		for i := in.warm; i < len(s); i++ {
			o, r := &s[i], &traced.replies[c][i]
			if !o.kind.isRequest() {
				continue
			}
			if !r.ok() {
				non2xx++
				continue
			}
			reqB = append(reqB, float64(r.reqBytes))
			respB = append(respB, float64(r.respBytes))
			sp := spans[c*opStride+i]
			if sp == nil || sp.http < 0 {
				continue
			}
			client := r.latency()
			tp := client - float64(sp.http)
			transport = append(transport, tp)
			httpNs, storeNs, compNs := float64(sp.http), float64(sp.store), float64(sp.compile)
			filtered := o.filter != 0
			switch o.kind {
			case opSearch:
				st := r.search.Stats
				perQuery(st, filtered)
				if st.Timing == nil || sp.store < 0 || sp.compile < 0 {
					continue
				}
				self := httpNs - storeNs - compNs
				e, m, rf := st.Timing.EmbedUs*1e3, st.Timing.MergeUs*1e3, st.Timing.RefineUs*1e3
				fw := storeNs - e - m - rf
				searchSelf = append(searchSelf, self)
				storeSearch = append(storeSearch, storeNs)
				filterWall = append(filterWall, fw)
				if filtered {
					compile = append(compile, compNs)
				}
				bSearch.add(client, map[string]float64{"http.transport": tp, "server": self, "meta.compile": compNs,
					"core.embed": e, "retrieval.filter_wall": fw, "store.merge": m, "store.refine": rf})
			case opBatch:
				for _, st := range r.batch.Stats {
					perQuery(st, filtered)
				}
				if sp.store < 0 || sp.compile < 0 {
					continue
				}
				self := httpNs - storeNs - compNs
				batchSelf = append(batchSelf, self)
				storeBatch = append(storeBatch, storeNs/float64(len(o.batch)))
				if filtered {
					compile = append(compile, compNs)
				}
				bBatch.add(client, map[string]float64{"http.transport": tp, "server": self, "meta.compile": compNs, "store": storeNs})
			case opAdd, opUpsert, opRemove:
				if sp.store < 0 {
					continue
				}
				self := httpNs - storeNs
				writeSelf = append(writeSelf, self)
				writeSpans = append(writeSpans, storeNs)
				byMethod[o.kind] = append(byMethod[o.kind], storeNs)
				bWrite.add(client, map[string]float64{"http.transport": tp, "server": self, "store": storeNs})
			case opScrape:
				scrapes = append(scrapes, httpNs)
				bScrape.add(client, map[string]float64{"http.transport": tp, "obs": httpNs})
			}
		}
	}
	us := func(xs []float64) float64 { return stats.Mean(xs) / 1e3 }
	v["http.transport_us"] = us(transport)
	v["server.search_self_us"] = us(searchSelf)
	v["server.batch_self_us"] = us(batchSelf)
	v["server.write_self_us"] = us(writeSelf)
	v["server.req_bytes"] = stats.Mean(reqB)
	v["server.resp_bytes"] = stats.Mean(respB)
	v["server.non2xx"] = float64(non2xx)
	v["meta.compile_us"] = us(compile)
	v["meta.filter_eval_us"] = stats.Mean(feval)

	var matched, scanned uint64
	for f, s1 := range traced.fs1.Fields {
		s0 := traced.fs0.Fields[f]
		matched += s1.Matched - s0.Matched
		scanned += s1.Scanned - s0.Scanned
	}
	v["meta.selectivity"] = ratio(float64(matched), float64(scanned))
	bitmap := float64(traced.fs1.PlanBitmap - traced.fs0.PlanBitmap)
	inline := float64(traced.fs1.PlanInline - traced.fs0.PlanInline)
	v["meta.plan_bitmap_frac"] = ratio(bitmap, bitmap+inline)

	v["core.train_s"] = tr.train.Seconds()
	v["core.embed_us"] = stats.Mean(embed)
	v["core.embed_dists"] = stats.Mean(embedD)
	calls := float64(tr.end[0][1] - tr.timed[0][1] + tr.end[1][1] - tr.timed[1][1])
	nanos := float64(tr.end[0][2] - tr.timed[0][2] + tr.end[1][2] - tr.timed[1][2])
	v["space.dist_us"] = ratio(nanos, calls) / 1e3
	v["space.setup_dists"] = float64(tr.setupDists)

	v["store.build_s"] = tr.build.Seconds()
	v["store.search_us"] = us(storeSearch)
	v["store.batch_us_per_query"] = us(storeBatch)
	v["store.merge_us"] = stats.Mean(merge)
	v["store.refine_us"] = stats.Mean(refine)
	v["store.refine_dists"] = stats.Mean(refineD)
	v["store.add_us"] = us(byMethod[opAdd])
	v["store.upsert_us"] = us(byMethod[opUpsert])
	v["store.remove_us"] = us(byMethod[opRemove])
	v["store.write_p99_us"] = percentile(writeSpans, 0.99) / 1e3
	v["store.compactions"] = float64(traced.st1.Compactions - traced.st0.Compactions)
	v["store.delta_scan_share"] = traced.st1.DeltaScanShare
	v["store.save_ms"] = stats.Mean(durations(traced.saves)) / 1e6
	var saved, written float64
	for _, b := range traced.saveBytes {
		saved += float64(b)
	}
	t := count(in, traced)
	for c, s := range in.sched {
		for i := in.warm; i < len(s); i++ {
			if k := s[i].kind; (k == opAdd || k == opUpsert) && traced.replies[c][i].ok() {
				written += float64(in.coords * 8)
			}
		}
	}
	v["store.save_kb"] = ratio(saved, float64(len(traced.saveBytes))) / 1024
	v["store.write_amp"] = ratio(saved, written)

	v["retrieval.filter_wall_us"] = us(filterWall)
	v["retrieval.bound_scan_work_us"] = stats.Mean(bound)
	v["retrieval.filter_base_work_us"] = stats.Mean(fbase)
	v["retrieval.filter_delta_work_us"] = stats.Mean(fdelta)
	v["retrieval.rows_screened"] = stats.Mean(screened)
	v["retrieval.exact_rows"] = stats.Mean(exact)
	v["retrieval.exact_frac"] = ratio(stats.Mean(exact), stats.Mean(screened))
	v["retrieval.scan_mb"] = stats.Mean(scanMB)
	v["vafile.quantize_s"] = tr.quantize.Seconds()
	v["vafile.shadow_mb"] = float64(traced.st1.ShadowBytes) / (1 << 20)
	v["obs.scrape_us"] = us(scrapes)

	// The runtime's counters come from the untraced run: spans allocate.
	p := count(in, plain)
	ops := float64(p.queries + p.writes)
	r0, r1 := plain.rt0, plain.rt1
	v["runtime.gc_cycles_per_kop"] = ratio(float64(r1.gcCycles-r0.gcCycles)*1000, ops)
	v["runtime.gc_cpu_frac"] = ratio(r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU)
	v["runtime.alloc_kb_per_op"] = ratio(float64(r1.allocBytes-r0.allocBytes), ops) / 1024
	v["runtime.sched_wait_us"] = ratio(r1.schedSum-r0.schedSum, r1.schedCount-r0.schedCount) * 1e6
	v["runtime.mutex_wait_us_per_write"] = ratio((r1.mutexWait-r0.mutexWait)*1e6, float64(p.writes))
	v["trace.overhead_frac"] = 1 - ratio(t.rate, p.rate)

	bs := []*breakdown{bSearch, bBatch, bWrite, bScrape}
	return v, slices.DeleteFunc(bs, func(b *breakdown) bool { return b.n == 0 })
}
