package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// wantMetrics returns the name → unit table BENCHMARK.json declares for
// one mode of the run.
func wantMetrics(bj benchmarkJSON, trace bool) map[string]string {
	out := make(map[string]string)
	if trace {
		for _, m := range bj.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range bj.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, trace := range []bool{false, true} {
		table := endToEnd
		if trace {
			table = perLayer
		}
		want := wantMetrics(bj, trace)
		if len(table) != len(want) {
			t.Errorf("trace=%v: program prints %d metrics, BENCHMARK.json lists %d", trace, len(table), len(want))
		}
		for _, m := range table {
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("trace=%v: metric %s (%s) is listed as %q in BENCHMARK.json", trace, m.name, m.unit, u)
			}
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
}

// TestCheckerRejectsWhatTheStoreMustNotServe feeds the checker result
// lists holding a removed ID, an overwritten or not yet written version,
// an unknown ID and a duplicate ID.
func TestCheckerRejectsWhatTheStoreMustNotServe(t *testing.T) {
	in := &inputs[[]float64]{
		spec: spec{name: "unit", n: 3, coords: 1, k: 2, p: 3},
		db:   [][]float64{{0}, {1}, {2}},
		dist: l2,
		menu: []predicate{{}},
	}
	// Round 0 moves ID 1 from distance 1 to distance 5 of the query and
	// removes ID 2.
	in.sched = [][]op[[]float64]{{
		{kind: opUpsert, id: 1, obj: []float64{5}},
		{kind: opRemove, id: 2},
	}}
	ph := &phase[[]float64]{replies: [][]reply{{{status: 200, id: 1}, {status: 200}}}}
	ck := &checker[[]float64]{in: in, ref: buildRef(in, ph)}
	q, st := []float64{0}, qstats{RefineDistances: 2}
	for _, c := range []struct {
		name    string
		round   int
		overlap bool
		hs      []hit
		want    bool
	}{
		{"initial contents", 0, false, []hit{{0, 0}, {1, 1}}, true},
		{"contents after round 0", 1, false, []hit{{0, 0}, {1, 5}}, true},
		{"new version while round 0 writes", 0, true, []hit{{0, 0}, {1, 5}}, true},
		{"removed id while round 0 writes", 0, true, []hit{{0, 0}, {2, 2}}, true},
		{"overwritten version", 1, false, []hit{{0, 0}, {1, 1}}, false},
		{"version not yet written", 0, false, []hit{{0, 0}, {1, 5}}, false},
		{"removed id", 1, false, []hit{{0, 0}, {2, 2}}, false},
		{"removed id while round 1 writes", 1, true, []hit{{0, 0}, {2, 2}}, false},
		{"unknown id", 0, false, []hit{{0, 0}, {9, 1}}, false},
		{"duplicate id", 0, true, []hit{{1, 1}, {1, 5}}, false},
	} {
		if got := ck.hits(q, 0, c.round, c.overlap, c.hs, st); got != c.want {
			t.Errorf("%s: hits = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSpeedScale checks the direction of the scaling, a host that takes
// twice the reference time on the probe halving every reported time,
// and that the probe runs and stops.
func TestSpeedScale(t *testing.T) {
	if got := speedScale(nil); got != 1 {
		t.Errorf("no samples: scale %v, want 1", got)
	}
	if got := speedScale([]float64{2 * probeRefMs, 40, 2 * probeRefMs}); got != 0.5 {
		t.Errorf("probe at twice the reference: scale %v, want 0.5", got)
	}
	p, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if ms, err := p.sample(); err != nil || !(ms > 0) {
		t.Errorf("probe sample: %v ms, %v", ms, err)
	}
}

// TestSmoke runs the smoke size of every workload, untraced and traced:
// every op type is served, every answer checked, and the printed metric
// names and units match BENCHMARK.json exactly.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(options{workload: w, seed: 7, seconds: 1, trace: trace, smoke: true, workdir: t.TempDir()}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := wantMetrics(bj, trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, got, unit)
					}
				}
				var facts struct {
					Workload workloadFacts `json:"workload"`
				}
				for _, line := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(line, `{"workload"`) {
						if err := json.Unmarshal([]byte(line), &facts); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, kind := range []string{"search", "batch", "add", "upsert", "remove", "scrape"} {
					if facts.Workload.Ops[kind] == 0 {
						t.Errorf("no %s ops in the timed schedule: %v", kind, facts.Workload.Ops)
					}
				}
				if trace && !strings.Contains(out.String(), "self-time search") {
					t.Errorf("traced run printed no self-time breakdown:\n%s", out.String())
				}
			})
		}
	}
}
