#!/usr/bin/env bash
# ab.sh — paired A/B of the end-to-end benchmark (perfbench) between a base
# commit and the working tree:
#
#   ab.sh BASE [WORKLOAD...]
#
#   1. build   BASE is checked out under .bench_build/ab/ (checkout in
#              bench_lib.sh), and both sides' perfbench are built there;
#   2. pairs   each workload (default: every one BENCHMARK.json lists) runs
#              PAIRS times per side at seed 1 for BENCHMARK.json's
#              run_seconds, with tracing off, alternating which side goes
#              first;
#   3. report  per workload and end-to-end metric: both sides' median
#              [Q1, Q3], the wins (pairs in which HEAD was better by the
#              metric's `better` : pairs in which BASE was; ties count for
#              neither), Δmedian against the base's IQR, and whether HEAD's
#              median is worse than BASE's by more than the metric's
#              bound; then each side's failed/attempted operations.
#
# It exits non-zero when a run fails (a non-zero exit or failed > 0). The
# report is for the reader to judge; nothing else fails it. A window is
# seconds long, so a full run of three workloads takes about
# 3 × 2 × PAIRS × (run_seconds + a few seconds of set-up).
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
# shellcheck source=scripts/bench_lib.sh
. scripts/bench_lib.sh

PAIRS=10
SEED=1

base=$(git rev-parse --verify --quiet "${1:-}^{commit}") || {
    echo "usage: ab.sh BASE [WORKLOAD...]; '${1:-}' is not a commit" >&2
    exit 2
}
shift
command -v jq >/dev/null || {
    echo "ab.sh: needs jq to read BENCHMARK.json and perfbench's result line" >&2
    exit 2
}

seconds=$(jq -r .run_seconds BENCHMARK.json)
if (($# == 0)); then
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
else
    workloads=("$@")
fi
# "name:better:bound" per end-to-end metric, in BENCHMARK.json's order.
metrics=$(jq -r '[.end_to_end[] | "\(.name):\(.better):\(.bound)"] | join(" ")' BENCHMARK.json)

dir=$PWD/.bench_build/ab
raw=$dir/metrics.txt # one "SIDE WORKLOAD METRIC UNIT VALUE" line per reading
ops=$dir/ops.txt     # one "SIDE WORKLOAD FAILED ATTEMPTED" line per run
log=$dir/runs.log    # perfbench's own output
mkdir -p "$dir"
rm -f "$raw" "$ops" "$log"

# rootof SIDE: the tree SIDE's perfbench is built from and runs in.
rootof() {
    if [[ $1 == base ]]; then echo "$dir/base"; else echo "$PWD"; fi
}

echo "==> building perfbench: BASE $(git rev-parse --short "$base") and the working tree"
checkout "$base" "$dir/base"
for side in base head; do
    (cd "$(rootof "$side")/perfbench" && GOWORK=off go build -o "$dir/$side.perfbench" .)
done

# run SIDE WORKLOAD: one window of WORKLOAD on SIDE's perfbench, in that
# side's tree; its result line goes to $raw and $ops.
run() {
    local side=$1 w=$2 out status=0
    out=$(cd "$(rootof "$side")" && "$dir/$side.perfbench" --workload "$w" --seed "$SEED" \
        --seconds "$seconds" --trace 0 2>>"$log") || status=$?
    echo "$side $w: $out" >>"$log"
    local last=${out##*$'\n'}
    if ! jq -e .metrics >/dev/null 2>&1 <<<"$last"; then
        echo "ab.sh: $side $w printed no result line (exit $status); see $log" >&2
        echo "$side $w 1 1" >>"$ops"
        return
    fi
    jq -r --arg side "$side" --arg w "$w" \
        '.metrics | to_entries[] | "\($side) \($w) \(.key) \(.value.unit) \(.value.value)"' <<<"$last" >>"$raw"
    jq -r --arg side "$side" --arg w "$w" --argjson status "$status" \
        '"\($side) \($w) \(if $status != 0 and .failed == 0 then 1 else .failed end) \(.attempted)"' <<<"$last" >>"$ops"
}

for w in "${workloads[@]}"; do
    echo "==> $w: $PAIRS alternating pairs of ${seconds}s windows at seed $SEED"
    for ((i = 1; i <= PAIRS; i++)); do
        if ((i % 2)); then
            run head "$w"
            run base "$w"
        else
            run base "$w"
            run head "$w"
        fi
        printf '    pair %d/%d done\n' "$i" "$PAIRS"
    done
done

failed=0
for w in "${workloads[@]}"; do
    awk -v w="$w" -v pairs="$PAIRS" -v metrics="$metrics" "$STATS"'
        function num(v) {
            if (v == 0) return "0"
            if (v < 0) return "-" num(-v)
            return v >= 100 ? sprintf("%.0f", v) : sprintf("%.3g", v)
        }
        function spread(side, key) {
            return sprintf("%s [%s, %s]", num(quantile(side, key, 0.5)),
                num(quantile(side, key, 0.25)), num(quantile(side, key, 0.75)))
        }
        FILENAME == ARGV[1] && $2 == w { collect() }
        FILENAME == ARGV[2] && $2 == w { fail[$1] += $3; tried[$1] += $4 }
        END {
            printf "\n== %s (%d pairs)\n", w, pairs
            row = "%-17s %-8s %-30s %-30s %5s %8s %6s  %s\n"
            printf row, "metric", "unit", "BASE median [Q1, Q3]", "HEAD median [Q1, Q3]", "wins", "Δmedian", "Δ/IQR", "verdict"
            n = split(metrics, ms, " ")
            for (m = 1; m <= n; m++) {
                split(ms[m], f, ":")
                for (k = 1; k <= keys; k++) {
                    split(order[k], nu, SUBSEP)
                    if (nu[1] != f[1]) continue
                    key = order[k]
                    if (!count["base", key] || !count["head", key]) {
                        printf row, nu[1], nu[2], "-", "-", "-", "-", "-", "missing on one side"
                        continue
                    }
                    sign = f[2] == "lower" ? -1 : 1
                    hw = bw = 0
                    for (i = 1; i <= count["head", key] && i <= count["base", key]; i++) {
                        d = sign * (vals["head", key, i] - vals["base", key, i])
                        if (d > 0) hw++
                        if (d < 0) bw++
                    }
                    runs = count["head", key] < count["base", key] ? count["head", key] : count["base", key]
                    bm = quantile("base", key, 0.5)
                    hm = quantile("head", key, 0.5)
                    iqr = quantile("base", key, 0.75) - quantile("base", key, 0.25)
                    pct = bm != 0 ? sprintf("%+.1f%%", 100 * (hm - bm) / bm) : "-"
                    ratio = iqr > 0 ? sprintf("%.1f", (hm - bm) / iqr) : "-"
                    verdict = "within bound"
                    if (bm != 0 && sign * (hm - bm) / bm < -f[3])
                        verdict = sprintf("WORSE than the %.0f%% bound", 100 * f[3])
                    else if (sign * (hm - bm) > iqr && hw >= 0.9 * runs)
                        verdict = "better: wins >= 9/10, median beyond base IQR"
                    printf row, nu[1], nu[2], spread("base", key), spread("head", key), hw ":" bw, pct, ratio, verdict
                }
            }
            printf "failed/attempted: BASE %d/%d, HEAD %d/%d\n", fail["base"], tried["base"], fail["head"], tried["head"]
            exit (fail["base"] + fail["head"] > 0)
        }' "$raw" "$ops" || failed=1
done
echo
echo "(wins: pairs in which HEAD was better : pairs in which BASE was; Δmedian: HEAD's median against"
echo " BASE's; Δ/IQR: that difference over the interquartile range of BASE's runs)"
if ((failed)); then
    echo "ab.sh: some runs failed; see $log" >&2
    exit 1
fi
