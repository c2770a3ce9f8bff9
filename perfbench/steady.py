#!/usr/bin/env python3
"""Steadiness report for the served-path benchmark.

Runs one workload R times back to back, each with its own seed, and for
every end-to-end metric prints the median, the quartiles, and the spread
(interquartile range over the median) next to the metric's bound in
BENCHMARK.json. A metric whose spread exceeds its bound is flagged; one
above a third of its bound is marked as short of the steadiness target.
The CPU steal share and the speed probe's medians of each run are printed
so a noisy run can be explained, and for each time the spread of the
values as measured, before scaling to the reference host speed, is
printed next to the reported one.

Run from the repository root:

    python3 perfbench/steady.py --workload series-dtw --runs 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        if line.startswith('{"host"') or line.startswith('{"measured"'):
            info.update(json.loads(line))
    return json.loads(lines[-1]), info.get("host", {}), info.get("measured", {}), took


def spread(vs):
    """Interquartile range over the median."""
    med = statistics.median(vs)
    if len(vs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run; later runs count up")
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds from BENCHMARK.json)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    measured = {}
    for i in range(args.runs):
        seed = args.seed + i
        res, host, meas, took = run_once(args.workload, seed, seconds)
        ok = res["correct"] and res["failed"] == 0
        m = res["metrics"]
        print(f"run {i + 1}/{args.runs} seed {seed}: {took:.0f}s, steal {host.get('steal_share', 0):.4f}, "
              f"probe {host.get('probe_ms', 0):.3f} ms, "
              f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}, "
              f"ops_per_s {m['ops_per_s']['value']:.1f}, search_p50_ms {m['search_p50_ms']['value']:.3f}, "
              f"write_p50_ms {m['write_p50_ms']['value']:.4f}, setup_s {m['setup_s']['value']:.2f}"
              + ("" if ok else "  <-- FAILED"), flush=True)
        for name in bounds:
            values[name].append(m[name]["value"])
        for name, v in meas.items():
            measured.setdefault(name, []).append(v)

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7} {'measured':>9}")
    flagged = 0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) >= 2 else (med, med, med)
        share = spread(vs) / bounds[name]
        mark = ""
        if share > 1:
            mark = "  FLAG: spread exceeds bound"
            flagged += 1
        elif share > 1 / 3:
            mark = "  above a third of bound"
        raw = f"{spread(measured[name]):9.4f}" if name in measured else " " * 9
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread(vs):8.4f} {bounds[name]:6.2f} {share:7.2f} {raw}{mark}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
