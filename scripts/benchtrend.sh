#!/usr/bin/env sh
# Per-PR performance trajectory point. Runs the three headline hot-path
# benches best-of-5 and writes results/BENCH_<label>.json so future PRs
# can see the perf curve instead of re-deriving it from git archaeology:
#
#   - gups_events_per_sec:   BenchmarkCellBlock's events/sec metric —
#                            the number the 10M/sec roadmap item tracks
#   - translate_block_ns_op: BenchmarkTranslateBlock (one 4096-event
#                            TLB-friendly block through the MMU)
#   - host_quantum_ms:       BenchmarkHostQuantum (one consolidated-
#                            host policy quantum, 4 guests)
#
# Usage: scripts/benchtrend.sh [label [parent-ref]]   (default label: 10)
#
# With a parent ref (a commit, branch or tag), the same benches also run
# on a temporary git worktree of that ref, in the same session: each
# bench's test binary is built for both trees, then the five rounds
# alternate between them (the change first in odd rounds, the parent
# first in even ones), and the JSON records a parent_<field> beside each
# reading. A point taken alone moves with the host's load; the parent's
# reading from the same minutes says how much of a move is the code.
#
# Best-of-5 is the same noise-robust statistic benchgate.sh uses; on a
# shared runner any single run can eat a scheduling spike. Numbers from
# different hosts are not comparable — the trajectory is only a trend
# when recorded on the same class of runner.
set -eu
cd "$(dirname "$0")/.."

label=${1:-10}
parent=${2:-}
out=results/BENCH_$label.json
mkdir -p results

work=$(mktemp -d)
cleanup() {
    if [ -d "$work/parent" ]; then
        git worktree remove --force "$work/parent" || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

trees=change
if [ -n "$parent" ]; then
    git worktree add --detach --quiet "$work/parent" "$parent"
    trees="change parent"
fi
# dir TREE -> the tree's checkout.
dir() { if [ "$1" = change ]; then pwd; else echo "$work/parent"; fi; }

# One bench per line: key, package, bench, benchtime, the unit suffix
# of the reading as printed by go test, and whether the minimum or the
# maximum of the five readings is the best.
benches='gups ./internal/replay BenchmarkCellBlock 10x events/sec max
tblk ./internal/mmu BenchmarkTranslateBlock 200x ns/op min
hostq ./internal/host BenchmarkHostQuantum 5x ns/op min'

echo "benchtrend: building the bench binaries ($trees)"
for tree in $trees; do
    echo "$benches" | while read -r key pkg _; do
        (cd "$(dir "$tree")" && go test -c -o "$work/$tree-$key.test" "$pkg")
    done
done

for round in 1 2 3 4 5; do
    order=$trees
    if [ $((round % 2)) = 0 ] && [ -n "$parent" ]; then
        order="parent change"
    fi
    echo "benchtrend: round $round of 5 ($order)"
    echo "$benches" | while read -r key pkg bench benchtime field _; do
        for tree in $order; do
            (cd "$(dir "$tree")/$pkg" &&
                "$work/$tree-$key.test" -test.run '^$' -test.bench "^$bench\$" \
                    -test.benchtime "$benchtime" -test.count 1) |
                awk -v f="$field" '$1 ~ /^Benchmark/ {
                    for (i = 2; i < NF; i++) if ($(i + 1) == f) { print $i + 0; found = 1 }
                } END { if (!found) exit 1 }' >>"$work/$tree-$key.vals"
        done
    done
done

# best TREE KEY -> the best of the tree's five readings of KEY.
best() {
    mode=$(echo "$benches" | awk -v k="$2" '$1 == k { print $6 }')
    awk -v mode="$mode" '{
        if (best == "" || (mode == "min" ? $1 < best : $1 > best)) best = $1
    } END { print best }' "$work/$1-$2.vals"
}

# reading TREE NAME KEY -> the JSON member for the tree's best KEY, the
# host quantum in milliseconds.
reading() {
    v=$(best "$1" "$3")
    if [ "$3" = hostq ]; then
        v=$(awk -v n="$v" 'BEGIN{printf "%.2f", n / 1000000}')
    fi
    prefix=''
    if [ "$1" = parent ]; then prefix=parent_; fi
    printf ',\n  "%s%s": %s' "$prefix" "$2" "$v"
}

{
    printf '{\n  "pr": "%s"' "$label"
    if [ -n "$parent" ]; then
        printf ',\n  "parent": "%s"' "$(git rev-parse --short "$parent")"
    fi
    for m in gups:gups_events_per_sec tblk:translate_block_ns_op hostq:host_quantum_ms; do
        for tree in $trees; do
            reading "$tree" "${m#*:}" "${m%%:*}"
        done
    done
    printf '\n}\n'
} >"$out"
cat "$out"
