#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root; arguments go to the benchmark, e.g.
#   bash perfbench/run.sh --workload sr-point --seed 1 --seconds 15 --trace 0
# Build outputs and the Go build cache stay in .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
