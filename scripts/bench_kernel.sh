#!/usr/bin/env bash
# bench_kernel.sh — the micro-benchmark regression gate, runnable locally
# and in CI. The gated benchmarks are the Benchmark* functions of the
# packages in BENCHES below; there is no other copy of them.
#
#   bench_kernel.sh [BASE]   check the working tree against BASE (default
#                            HEAD^; in CI's pull_request checkout that is
#                            the base branch tip):
#     1. allocation  the zero-allocation tests (-run NoAlloc) of the kernel,
#                    the K-LEB module and the compiled workload stream, and
#                    the serve model's admission count (a recycled request
#                    allocates nothing), pass 100 times each without -race,
#                    which they skip under: each counts the program's
#                    allocations in its window (internal/allocs), so a
#                    flaky gate shows here;
#     2. paired      BASE is checked out under .bench_build/ (checkout in
#                    bench_lib.sh), both sides' test binaries are built,
#                    and each package's benchmarks run in PAIRS pairs,
#                    alternating which side goes first.
#                    Every benchmark prints both sides' median ns/op
#                    [Q1, Q3], the HEAD/BASE ratios of the medians and of
#                    the fastest runs, and the wins;
#     3. gate        fails when HEAD's median exceeds BASE's by more than
#                    BOUND_PCT (E2E_BOUND_PCT for the root package's
#                    end-to-end benchmarks) and HEAD's fastest run exceeds
#                    BASE's fastest by as much, or when the telemetry emit
#                    paths exceed their absolute bounds in both figures.
#                    The root package's benchmarks are gated on bytes
#                    allocated per op (B/op) as well as time, because a
#                    monitored run that re-copies what it keeps grows its
#                    allocation far more than its time. A benchmark BASE
#                    lacks is printed as new and not gated.
#   bench_kernel.sh update   runs the working tree's benchmarks PAIRS times
#                            and writes their medians to BENCH_kernel.json.
#
# Both sides run on the same host in the same job, interleaved, so the
# host's own drift cancels out of the ratio (Becker & Chakraborty,
# "Measuring Software Performance on Linux", PAPERS.md); absolute numbers
# recorded on another host do not. A shared VM can also run a whole
# process at half speed; when that hits more of one side's runs, the
# medians part while the fastest runs agree, so a regression must show
# in both. A slower build slows its fastest run too.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
# shellcheck source=scripts/bench_lib.sh
. scripts/bench_lib.sh

PAIRS=10
BENCHTIME=100ms
BOUND_PCT=25        # every other benchmark
E2E_BOUND_PCT=50    # the root package's end-to-end benchmarks
NIL_EMIT_MAX_NS=25  # BenchmarkEmitDisabled: one branch on a nil sink
LIVE_EMIT_MAX_NS=50 # BenchmarkEmitEnabled: klebd folds every node run through it

# package, -benchtime, -bench regexp. table2 runs once per side: one serial
# regeneration takes about a second.
BENCHES=(
    "./internal/kernel $BENCHTIME ."
    "./internal/pmu $BENCHTIME ."
    "./internal/cpu $BENCHTIME ."
    "./internal/cache $BENCHTIME ."
    "./internal/telemetry $BENCHTIME ."
    ". $BENCHTIME CollectTelemetry|CollectServe"
    ". 1x Artifacts/table2\$"
)

build=.bench_build
bins=$PWD/$build/bin
raw=$build/bench.txt # one "SIDE PACKAGE NAME UNIT VALUE" line per figure
log=$build/bench.log # the benchmarks' own output

# binname PACKAGE: the test binary's file name.
binname() {
    local name=${1##*/}
    [[ $name == . ]] && name=root
    echo "$name.test"
}

# build_side SIDE ROOT: compile every benchmark package under ROOT into
# $bins/SIDE. A package missing at ROOT gets no binary.
build_side() {
    local side=$1 root=$2 entry pkg rest
    mkdir -p "$bins/$side"
    for entry in "${BENCHES[@]}"; do
        read -r pkg rest <<<"$entry"
        local bin=$bins/$side/$(binname "$pkg")
        if [[ -d $root/$pkg && ! -e $bin ]]; then
            (cd "$root" && go test -c -trimpath -o "$bin" "$pkg")
        fi
    done
}

# run_entry SIDE ROOT ENTRY: run one BENCHES entry on SIDE's binary, from
# its package directory under ROOT.
run_entry() {
    local side=$1 root=$2 pkg benchtime re
    read -r pkg benchtime re <<<"$3"
    local bin=$bins/$side/$(binname "$pkg")
    [[ -x $bin ]] || return 0
    (cd "$root/$pkg" && "$bin" -test.run '^$' -test.bench "$re" -test.benchtime "$benchtime" \
        -test.cpu 1 -test.benchmem -test.timeout 10m) |
        tee -a "$log" |
        awk -v side="$side" -v pkg="$pkg" \
            '/^Benchmark/ { for (i = 3; i < NF; i += 2) print side, pkg, $1, $(i + 1), $i }' >>"$raw"
}

mkdir -p "$build"
rm -rf "$bins" "$raw" "$log"

if [[ ${1:-} == update ]]; then
    echo "==> benchmarks: $PAIRS runs of the working tree"
    build_side head .
    for ((i = 1; i <= PAIRS; i++)); do
        for entry in "${BENCHES[@]}"; do
            run_entry head . "$entry"
        done
    done
    host="$(sed -n 's/^cpu: //p' "$log" | head -1), $(getconf _NPROCESSORS_ONLN) CPUs, $(go env GOVERSION)"
    awk -v host="$host" -v runs="$PAIRS" -v benchtime="$BENCHTIME" "$STATS"'
        function num(v) { return v >= 100 ? sprintf("%.0f", v) : sprintf("%.4g", v) }
        { collect() }
        END {
            printf "{\n  \"host\": \"%s\",\n  \"runs\": %d,\n  \"benchtime\": \"%s\",\n  \"benchmarks\": {", host, runs, benchtime
            for (k = 1; k <= keys; k++) {
                split(order[k], nu, SUBSEP)
                if (nu[1] != last) {
                    printf "%s\n    \"%s\": {", (last == "" ? "" : "},"), nu[1]
                    last = nu[1]
                    sep = ""
                }
                printf "%s\"%s\": %s", sep, nu[2], num(quantile("head", order[k], 0.5))
                sep = ", "
            }
            printf "}\n  }\n}\n"
        }' "$raw" >BENCH_kernel.json
    echo "bench_kernel: wrote BENCH_kernel.json"
    exit 0
fi

base=$(git rev-parse --verify --quiet "${1:-HEAD^}^{commit}") || {
    echo "usage: bench_kernel.sh [BASE | update]; ${1:-HEAD^} is not a commit" >&2
    exit 2
}

echo "==> allocation tests (NoAlloc and ServeAdmit, 100 runs each, without -race)"
go test -count=100 -run 'NoAlloc|ServeAdmit' ./internal/kernel ./internal/kleb ./internal/workload

echo "==> building test binaries: BASE $(git rev-parse --short "$base") and the working tree"
checkout "$base" "$build/base"
build_side base "$build/base"
build_side head .

# Each entry's two sides run back to back, so a pair spans seconds, not the
# whole pass.
echo "==> $PAIRS alternating pairs"
for ((i = 1; i <= PAIRS; i++)); do
    for entry in "${BENCHES[@]}"; do
        if ((i % 2)); then
            run_entry head . "$entry"
            run_entry base "$build/base" "$entry"
        else
            run_entry base "$build/base" "$entry"
            run_entry head . "$entry"
        fi
    done
done

awk -v bound="$BOUND_PCT" -v e2e="$E2E_BOUND_PCT" \
    -v nilmax="$NIL_EMIT_MAX_NS" -v livemax="$LIVE_EMIT_MAX_NS" "$STATS"'
    function bytes(b) {
        if (b >= 1e6) return sprintf("%.3gMB", b / 1e6)
        if (b >= 1e3) return sprintf("%.3gkB", b / 1e3)
        return sprintf("%.3gB", b)
    }
    function human(ns) {
        if (ns >= 1e9) return sprintf("%.3gs", ns / 1e9)
        if (ns >= 1e6) return sprintf("%.3gms", ns / 1e6)
        if (ns >= 1e3) return sprintf("%.3gus", ns / 1e3)
        return sprintf("%.3gns", ns)
    }
    function fmtv(key, v) {
        return key ~ /B\/op$/ ? bytes(v) : human(v)
    }
    function spread(side, key) {
        return sprintf("%s [%s, %s]", fmtv(key, quantile(side, key, 0.5)),
            fmtv(key, quantile(side, key, 0.25)), fmtv(key, quantile(side, key, 0.75)))
    }
    function absolute(name, limit,    key) {
        key = name SUBSEP "ns/op"
        if (!count["head", key]) {
            print "FAIL: " name " did not run at HEAD"
            failed++
        } else if (quantile("head", key, 0.5) > limit && quantile("head", key, 0) > limit) {
            printf "FAIL: %s median %s and fastest %s exceed the absolute bound %dns\n", name,
                human(quantile("head", key, 0.5)), human(quantile("head", key, 0)), limit
            failed++
        }
    }
    $4 == "ns/op" || ($2 == "." && $4 == "B/op") { collect() }
    END {
        row = "%-37s %-28s %-28s %6s %6s %5s  %s\n"
        printf row, "benchmark (ns/op unless marked)", "BASE median [Q1, Q3]", "HEAD median [Q1, Q3]", "median", "min", "wins", "verdict"
        for (k = 1; k <= keys; k++) {
            key = order[k]
            split(key, nu, SUBSEP)
            if (nu[2] != "ns/op") nu[1] = nu[1] " " nu[2]
            if (!count["base", key]) {
                printf row, nu[1], "-", spread("head", key), "-", "-", "-", "new, not gated"
                continue
            }
            if (!count["head", key]) {
                printf row, nu[1], spread("base", key), "-", "-", "-", "-", "gone at HEAD"
                continue
            }
            med = quantile("head", key, 0.5) / quantile("base", key, 0.5)
            low = quantile("head", key, 0) / quantile("base", key, 0)
            hw = bw = 0
            for (i = 1; i <= count["head", key] && i <= count["base", key]; i++) {
                if (vals["head", key, i] < vals["base", key, i]) hw++
                if (vals["head", key, i] > vals["base", key, i]) bw++
            }
            limit = pkgof[key] == "." ? e2e : bound
            verdict = sprintf("ok (bound +%d%%)", limit)
            if (med > 1 + limit / 100 && low > 1 + limit / 100) {
                verdict = sprintf("FAIL: %+.0f%% > +%d%%", (med - 1) * 100, limit)
                failed++
            }
            printf row, nu[1], spread("base", key), spread("head", key),
                sprintf("%.3f", med), sprintf("%.3f", low), hw ":" bw, verdict
        }
        print "(median, min: HEAD/BASE ratios of the medians and of the fastest (smallest) runs;"
        print " wins: pairs in which HEAD ran faster or allocated less : pairs in which BASE did)"
        absolute("BenchmarkEmitDisabled", nilmax)
        absolute("BenchmarkEmitEnabled", livemax)
        exit (failed > 0)
    }' "$raw" || {
    echo "bench_kernel: FAIL" >&2
    exit 1
}
echo "bench_kernel: OK"
