#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout it is run in and runs
# it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload series-dtw --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# snapshots and trace files all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
go -C perfbench build -buildvcs=false -trimpath -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/perfbench-work" "$@"
