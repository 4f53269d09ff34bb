#!/usr/bin/env sh
# The repo's check gate. The experiment harness is concurrent (see
# internal/sched), so the race detector runs on every change: any
# shared mutable state between simulation cells is a bug. The replay
# equivalence suite additionally pins the block streaming path to the
# per-event shim — byte-identical Result/Stats — before the full tests.
# The telemetry-overhead bench runs in short mode (3 iterations) as a
# smoke test that the instrumented hot path still builds and runs — it
# covers both the run-active and the walk-sampling-enabled paths; the
# recorded overhead comparison lives in EXPERIMENTS.md.
# samplecheck.sh then locks behaviour and asserts observation does not
# perturb the experiment: the medium paperbench report must match the
# sha256 digests in scripts/golden_medium.sha256, it is byte-identical
# with 1-in-64 walk sampling on and off, and cmd/walkprof round-trips
# the collected sample file. hostcheck.sh does the same for scheduling:
# the whole-host consolidation sweep (stdout and sample file) is
# byte-identical across -j {1,8} x -shards {1,4}.
# bench/ is its own module (vdirect/bench, replacing vdirect with this
# checkout) and ./... does not reach it, so it is vetted and tested in
# its own step: an API change in the packages it imports (guestos, mmu,
# experiments) then fails here rather than in bench/run.sh.
# The scheme exhaustiveness lint and conformance suite run first: every
# Mode constant in internal/mmu/scheme.go must have a fixture in the
# conformance suite, and every registered scheme must pass it, before
# anything expensive starts. The differential-oracle seeds (and the
# minimized fuzz corpora under testdata/) come next: any translation or
# walk-cost divergence between the production stack and
# internal/oracle's reference model fails fast, before the long suites.
# covergate.sh then holds the translation-critical packages to their
# recorded statement-coverage floors, mutcheck.sh checks that every
# mutant in scripts/mutants.txt is still killed by the test it names,
# and benchgate.sh holds the cell-throughput and TLB-probe benchmarks
# to within 10% of their recorded ns/op baselines. Last, prodlines.sh
# prints the production Go line count for the record; it gates nothing.
set -eu
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Exhaustiveness lint: a scheme constant without a conformance fixture
# means a registered scheme the suite never exercises. The suite itself
# catches schemes registered under new names at runtime; this catches
# the constant-declared ones without running any Go.
for mode in $(sed -n 's/^\t\(Mode[A-Za-z0-9]*\)[ \t]*Mode = .*/\1/p' internal/mmu/scheme.go); do
    if ! grep -q "^[[:space:]]*$mode: {" internal/mmu/scheme_test.go; then
        echo "check: $mode has no conformanceFixtures entry in internal/mmu/scheme_test.go" >&2
        exit 1
    fi
done

set -x
go vet ./...
go build ./...
(cd bench && go vet ./... && go test ./...)
go test -run 'TestSchemeConformance|TestSchemeRegistry' ./internal/mmu/
go test -race ./internal/oracle/...
go test -run Equivalence -race ./internal/replay/...
go test -race ./...
go test -run '^$' -bench 'TelemetryOverhead' -benchtime 3x ./internal/replay/
sh scripts/samplecheck.sh
sh scripts/hostcheck.sh
sh scripts/covergate.sh
sh scripts/mutcheck.sh
sh scripts/benchgate.sh
set +x
echo "check: $(sh scripts/prodlines.sh) production Go lines (non-test, outside bench/)"
