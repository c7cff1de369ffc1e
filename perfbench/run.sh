#!/usr/bin/env bash
# run.sh — build the simulator benchmark from source and run it.
#
#   bash perfbench/run.sh --workload overhead-batch --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind goes under .bench_build/ in the current directory: the Go build
# cache, the benchmark binary and, for --trace 1, the span file.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
