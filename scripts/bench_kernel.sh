#!/usr/bin/env bash
# bench_kernel.sh — the scheduler fast-path regression gate, runnable
# locally and in CI:
#
#   bench_kernel.sh          check mode: smoke-run the in-package kernel and
#                            PMU benchmarks (one iteration each, catching
#                            bit-rot), then re-measure the fast path and the
#                            cost memo's measurement bracket
#                            (memo_measure_ns_per_op) and fail if any ns/op
#                            figure regresses more than the bound recorded in
#                            the committed BENCH_kernel.json (or if the
#                            zero-alloc steady state is lost).
#   bench_kernel.sh update   rewrite BENCH_kernel.json with fresh numbers
#                            from this host (commit the result).
#
# Exits non-zero on the first failing stage. Run from anywhere inside the
# repository.
set -euo pipefail

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/."

mode="${1:-check}"
case "$mode" in
update)
    go run ./cmd/experiments -json BENCH_kernel.json kernel-bench
    echo "bench_kernel: wrote BENCH_kernel.json"
    ;;
check)
    echo "==> kernel/pmu benchmark smoke (1 iteration)"
    go test ./internal/kernel ./internal/pmu -run 'NONE' -bench . -benchtime 1x >/dev/null

    echo "==> kernel fast-path gate vs BENCH_kernel.json"
    go run ./cmd/experiments -json /tmp/BENCH_kernel.json \
        -baseline BENCH_kernel.json kernel-bench

    echo "bench_kernel: OK"
    ;;
*)
    echo "usage: bench_kernel.sh [check|update]" >&2
    exit 2
    ;;
esac
