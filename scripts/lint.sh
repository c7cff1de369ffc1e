#!/usr/bin/env bash
# lint.sh — the repository's static gate, runnable locally and in CI:
#
#   1. gofmt       every tracked Go file must be gofmt-clean
#   2. go vet      the standard analyzer suite
#   3. klebvet     the simulator's determinism/telemetry analyzers,
#                  driven through go vet's -vettool protocol
#   3b. klebvet standalone — the full ten-analyzer suite including the
#                  whole-program passes (detertaint, hotalloc,
#                  ledgerguard), timed against a 60s budget and writing
#                  klebvet-findings.json (CI uploads it as an artifact)
#   4. go generate the generated PMU event tables must match the
#                  checked-in spec (events.spec is the source of truth)
#   5. bench smoke every benchmark the regression gate runs compiles and
#                  survives one iteration (the paired gate itself runs in
#                  CI through scripts/bench_kernel.sh)
#   6. chaos smoke one seeded fault plan runs end to end and satisfies the
#                  period-conservation invariant (the full 32-plan sweep
#                  runs in CI's chaos job)
#   7. klebd smoke the fleet daemon boots, serves lint-clean expositions,
#                  and drains cleanly on SIGTERM (scripts/smoke_klebd.sh,
#                  also CI's klebd-smoke job)
#   8. taillat smoke one-trial serve-workload run satisfies the tail-latency
#                  invariants (conservation, monotone percentiles, K-LEB's
#                  Δp99 strictly under perf stat's and PAPI's; the 3-trial
#                  registry golden check runs in CI's chaos job)
#
# Exits non-zero on the first failing stage. Run from anywhere inside
# the repository.
set -euo pipefail

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/."

echo "==> gofmt"
# Testdata under internal/analysis is excluded: analyzer fixtures are
# allowed any formatting their test cases need.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> klebvet (go vet -vettool)"
klebvet_bin=$(mktemp -d)/klebvet
trap 'rm -rf "$(dirname "$klebvet_bin")"' EXIT
go build -o "$klebvet_bin" ./cmd/klebvet
go vet -vettool="$klebvet_bin" ./...

echo "==> klebvet standalone (whole-program suite, 60s budget)"
# The per-package vettool pass above cannot run the whole-program
# analyzers; this stage runs everything in one process, emits the
# machine-readable findings file, and enforces the interprocedural
# engine's own latency budget so it never quietly becomes too slow to
# keep in the gate.
klebvet_start=$SECONDS
"$klebvet_bin" -json ./... > klebvet-findings.json
klebvet_elapsed=$((SECONDS - klebvet_start))
echo "    klebvet standalone took ${klebvet_elapsed}s ($(grep -c '"analyzer"' klebvet-findings.json || true) findings)"
if (( klebvet_elapsed > 60 )); then
    echo "klebvet: standalone suite took ${klebvet_elapsed}s, budget is 60s" >&2
    exit 1
fi

echo "==> generated event tables up to date"
(cd internal/pmu && go run ./gen -spec events.spec -out events_gen.go -check)

echo "==> bench smoke (1 iteration)"
go test ./internal/kernel ./internal/pmu ./internal/cpu ./internal/cache ./internal/telemetry \
    -run '^$' -bench . -benchtime 1x >/dev/null
go test . -run '^$' -bench 'Artifacts/table2$|CollectTelemetry|CollectServe' -benchtime 1x >/dev/null

echo "==> chaos smoke (1 fault plan)"
go run ./cmd/experiments -trials 1 chaos >/dev/null

echo "==> klebd smoke (boot, scrape, drain)"
./scripts/smoke_klebd.sh >/dev/null

echo "==> taillat smoke (1 trial)"
go run ./cmd/experiments -trials 1 taillat >/dev/null

echo "lint: OK"
