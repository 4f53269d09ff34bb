#!/usr/bin/env sh
# Benchmark regression gate for the translation hot path. Five
# benches stand guard: BenchmarkCellBlock (a full simulation cell on
# the block path — the number the paper-scale runs live on),
# BenchmarkSetAssocLookupHit (the TLB probe itself, the innermost
# loop), BenchmarkTelemetryOverheadSampledOn (the same full cell
# with 1-in-64 walk sampling enabled, so the sampler's hot-path cost
# can't creep), BenchmarkHostQuantum (a whole consolidated-host
# cell — four guests admitted, replayed, and churned over one shared
# physical memory — guarding the host layer's end-to-end cost), and
# BenchmarkMayContainMiss (the escape-filter probe of a filter holding
# 16 escaped pages, Figure 13's load, on random frames; an empty
# filter answers without hashing).
# Each runs count=5 with a fixed iteration count and the BEST run is
# compared against scripts/bench_baseline.json — min-of-N is the noise-
# robust statistic on shared runners, where a single run can eat a
# scheduling spike. A bench more than BENCHGATE_TOLERANCE percent
# (default 10; re-recorded on a quiet host, so the margin is tight)
# slower than its recorded ns/op fails the gate.
set -eu
cd "$(dirname "$0")/.."

baseline=scripts/bench_baseline.json
tolerance=${BENCHGATE_TOLERANCE:-10}
status=0

# read_baseline NAME -> recorded ns/op from the flat baseline JSON.
read_baseline() {
    sed -n 's/.*"'"$1"'": *\([0-9.]*\).*/\1/p' "$baseline"
}

# gate NAME PKG BENCHTIME
gate() {
    name=$1
    pkg=$2
    benchtime=$3
    base=$(read_baseline "$name")
    if [ -z "$base" ]; then
        echo "benchgate: no baseline entry for $name in $baseline" >&2
        status=1
        return
    fi
    out=$(go test -run '^$' -bench "^$name\$" -benchtime "$benchtime" -count 5 "$pkg")
    best=$(printf '%s\n' "$out" | awk '$1 ~ /^Benchmark/ {print $3}' | sort -g | head -n 1)
    if [ -z "$best" ]; then
        echo "benchgate: $name produced no ns/op:" >&2
        printf '%s\n' "$out" >&2
        status=1
        return
    fi
    if awk -v b="$best" -v f="$base" -v t="$tolerance" \
        'BEGIN{exit !(b <= f * (1 + t / 100))}'; then
        echo "benchgate: $name $best ns/op within ${tolerance}% of baseline $base"
    else
        echo "benchgate: $name $best ns/op is more than ${tolerance}% over baseline $base ns/op" >&2
        status=1
    fi
}

gate BenchmarkCellBlock ./internal/replay/ 10x
gate BenchmarkSetAssocLookupHit ./internal/tlb/ 2000000x
gate BenchmarkTelemetryOverheadSampledOn ./internal/replay/ 10x
gate BenchmarkHostQuantum ./internal/host/ 5x
gate BenchmarkMayContainMiss ./internal/escape/ 20000000x
exit $status
