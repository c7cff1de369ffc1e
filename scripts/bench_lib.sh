# bench_lib.sh — what the paired benchmark scripts share; bench_kernel.sh
# and ab.sh source it from the repository root. It defines:
#
#   checkout BASE DIR   extract commit BASE's tree into DIR (emptied first)
#                       with git archive, so no worktree or index is touched;
#   STATS               the awk helpers both scripts' reports use (see below).

checkout() {
    rm -rf "$2"
    mkdir -p "$2"
    git archive "$1" | tar -x -C "$2"
}

# STATS reads raw lines "SIDE GROUP NAME UNIT VALUE". collect files one
# under its key (name and unit): vals[side, key, i] is the i-th reading,
# count[side, key] their number, pkgof[key] the group. quantile(side, key,
# q) is the q quantile of a side's readings: 0 the smallest, 0.5 the
# median, 1 the largest.
# shellcheck disable=SC2034 # used by the sourcing scripts
STATS='
function quantile(side, key, q,    n, i, j, t, a, p, lo) {
    n = count[side, key]
    for (i = 1; i <= n; i++) a[i] = vals[side, key, i]
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
    p = 1 + (n - 1) * q
    lo = int(p)
    return lo >= n ? a[n] : a[lo] + (p - lo) * (a[lo + 1] - a[lo])
}
function collect() {
    key = $3 SUBSEP $4
    if (!((key) in seen)) { seen[key] = 1; order[++keys] = key }
    count[$1, key]++
    vals[$1, key, count[$1, key]] = $5
    pkgof[key] = $2
}'
