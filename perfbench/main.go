// Command perfbench is the repository's served-path benchmark. For one
// workload and seed it generates the inputs, builds the store in-process
// (core.Train, then store.New or NewSharded, then SetQuantization),
// serves it with internal/server on a loopback listener, drives a closed
// loop of GOMAXPROCS clients through a fixed seeded op schedule, checks
// every answer against a reference model, and prints every metric by
// name and unit. The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With -trace 1 the same schedule is served twice, untraced and then
// traced, and the metrics are the per-layer ones; the spans are written
// to the work directory as JSON lines.
//
// Usage (from the repository root, which run.sh builds first):
//
//	bash perfbench/run.sh --workload series-dtw --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"series-dtw", "vector-scan", "mixed-write"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: series-dtw, vector-scan or mixed-write")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated traffic")
	flag.IntVar(&o.seconds, "seconds", 10, "target length of the timed phase; the schedule is sized to it")
	trace := flag.Int("trace", 0, "1 runs the traced schedule and prints per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run a tiny size of the workload in seconds")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench-work"), "directory for snapshots and trace files")
	flag.Parse()
	o.trace = *trace == 1
	if (*trace != 0 && *trace != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		os.Exit(2)
	}
	// A run must end well inside the driver's limit even if the server
	// wedges; exiting without a result line marks the run failed.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(3)
	})
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// trafficSizes sizes a workload's schedule: one round per requested
// second, each holding about a second of the traffic this benchmark's
// host (2 vCPUs) sustains, split across the clients. The op counts, not
// the clock, end the timed phase. Four snapshots a second give
// snapshot_p50_ms about fifty samples in a 12 s run.
func trafficSizes(workload string, seconds, clients int, smoke bool) sizes {
	if smoke {
		return sizes{rounds: 2, snaps: 2, singles: 8, batches: 2, writes: 3, ops: 50, warm: 2, scrape: 16}
	}
	sz := sizes{rounds: seconds, snaps: 4, warm: 8, scrape: 256}
	switch workload {
	case "series-dtw":
		// About 100 writes a round, so a two-round window of the tail
		// percentiles holds at least ten writes beyond its p95.
		sz.singles, sz.batches, sz.writes = 128/clients, max(4/clients, 1), max(104/clients/sz.snaps, 1)
	case "vector-scan":
		sz.singles, sz.batches, sz.writes = 128/clients, max(4/clients, 1), max(200/clients/sz.snaps, 1)
	case "mixed-write":
		// Half-second rounds of about 1,000 ops, four of them batches:
		// in 12 s each of the 4 shards takes about 2,400 added or
		// upserted rows, above the 2,048 two compactions need.
		sz.rounds, sz.snaps, sz.batches = 2*seconds, 2, max(4/clients, 1)
		sz.ops = (1000/clients - sz.batches) / sz.snaps
	}
	return sz
}

func run(o options, w io.Writer) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	clients := runtime.GOMAXPROCS(0)
	sz := trafficSizes(o.workload, o.seconds, clients, o.smoke)
	switch o.workload {
	case "series-dtw":
		return execute(seriesInputs(o.seed, clients, sz, o.smoke), o, w)
	case "vector-scan":
		return execute(vectorInputs(o.seed, clients, sz, o.smoke), o, w)
	case "mixed-write":
		return execute(mixedInputs(o.seed, clients, sz, o.smoke), o, w)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
}

// logf reports progress on standard error, stamped with seconds since
// the run started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(origin).Seconds(), fmt.Sprintf(format, args...))
}

// workloadFacts is printed with every result.
type workloadFacts struct {
	Name       string         `json:"name"`
	Seed       int64          `json:"seed"`
	N          int            `json:"n"`
	ObjectDims int            `json:"object_dims"`
	Dims       int            `json:"embedded_dims"`
	EmbedCost  int            `json:"embed_cost"`
	K          int            `json:"k"`
	P          int            `json:"p"`
	Bits       int            `json:"bits"`
	Shards     int            `json:"shards"`
	Clients    int            `json:"clients"`
	Ops        map[string]int `json:"ops"`
	WallS      float64        `json:"timed_wall_s"`
	Snapshots  int            `json:"snapshots"`
	// Compactions is each shard's count in the timed phase.
	Compactions []uint64 `json:"compactions"`
}

func facts[T any](in *inputs[T], o options, ph *phase[T]) workloadFacts {
	ops := make(map[string]int)
	names := []string{"search", "batch", "add", "upsert", "remove", "scrape"}
	for _, s := range in.sched {
		for _, op := range s[in.warm:] {
			if op.kind.isRequest() {
				ops[names[op.kind]]++
			}
		}
	}
	return workloadFacts{
		Name: in.name, Seed: o.seed, N: in.n, ObjectDims: in.coords, Dims: ph.dims,
		EmbedCost: ph.embedCost, K: in.k, P: in.p, Bits: in.bits, Shards: in.shards,
		Clients: len(in.sched), Ops: ops, WallS: ph.wall.Seconds(), Snapshots: len(ph.saves),
		Compactions: ph.compactions,
	}
}

func printJSON(w io.Writer, key string, v any) {
	b, _ := json.Marshal(map[string]any{key: v})
	fmt.Fprintln(w, string(b))
}

// check validates a served phase against the reference model.
func check[T any](in *inputs[T], ph *phase[T]) (*checker[T], int) {
	ck := &checker[T]{in: in, ref: buildRef(in, ph), cost: ph.embedCost}
	attempted := ck.checkAll(ph)
	for _, f := range ck.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	return ck, attempted
}

func execute[T any](in *inputs[T], o options, w io.Writer) (*result, error) {
	logf("inputs generated")
	if !o.trace {
		ph, err := serveOnce(in, o.workdir, in.setups, nil)
		if err != nil {
			return nil, err
		}
		ck, attempted := check(in, ph)
		logf("answers checked")
		vals, measured, err := endToEndValues(in, ph, ck, attempted)
		if err != nil {
			return nil, err
		}
		logf("metrics computed")
		ph.host.setProbe(ph.probe)
		printJSON(w, "host", ph.host)
		printJSON(w, "workload", facts(in, o, ph))
		printJSON(w, "measured", measured)
		return &result{Correct: ck.failed == 0, Attempted: attempted, Failed: ck.failed, Metrics: fill(endToEnd, vals)}, nil
	}

	plain, err := serveOnce(in, o.workdir, 1, nil)
	if err != nil {
		return nil, err
	}
	ck1, att1 := check(in, plain)
	tr := newTracer(in)
	traced, err := serveOnce(in, o.workdir, 1, tr)
	if err != nil {
		return nil, err
	}
	ck2, att2 := check(in, traced)
	vals, parts := layerValues(in, plain, traced)
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", in.name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	traced.host.setProbe(traced.probe)
	printJSON(w, "host", traced.host)
	printJSON(w, "workload", facts(in, o, traced))
	for _, b := range parts {
		fmt.Fprintln(w, b)
	}
	fmt.Fprintln(w, "spans written to", path)
	failed := ck1.failed + ck2.failed
	return &result{Correct: failed == 0, Attempted: att1 + att2, Failed: failed, Metrics: fill(perLayer, vals)}, nil
}
