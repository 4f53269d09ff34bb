#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a vdirect checkout:
#
#   bash bench/run.sh --workload gups-2d --seed 1 --seconds 10 --trace 0
#
# The binary, Go's build cache, its temporary files and the go command's
# configuration directory (where it would keep usage counters) all go
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so
# the run reads and writes nothing outside it and needs no network.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" \
    GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/vdirect-bench" .)
exec "$out/vdirect-bench" "$@"
