#!/usr/bin/env sh
# Sampling non-perturbation gate: walk sampling is observation, and
# observation must not change the experiment. The full medium
# paperbench report — stdout and every per-section -out file — must be
# byte-identical with 1-in-64 sampling on and off. Only the trailing
# wall-clock line is stripped from stdout before comparing; everything
# the report states about the simulation must match exactly. The
# collected sample file must then survive a cmd/walkprof round trip:
# schema accepted, every table rendered, collapsed stacks written.
#
# The sampling-off report is also the repo's behaviour lock: the sha256
# of its stripped stdout and of every -out file must equal the digests
# checked in at scripts/golden_medium.sha256. Re-recording them is an
# explicit, reviewed step (like scripts/bench_baseline.json):
#   GOLDEN_RECORD=1 sh scripts/samplecheck.sh
# rewrites the file from the current tree's report.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/paperbench" ./cmd/paperbench
go build -o "$tmp/walkprof" ./cmd/walkprof

"$tmp/paperbench" -scale medium -quiet -out "$tmp/off" \
    | grep -v '^— paperbench completed' > "$tmp/off.txt"
"$tmp/paperbench" -scale medium -quiet -out "$tmp/on" \
    -sample 64 -samples "$tmp/walks.jsonl" \
    | grep -v '^— paperbench completed' > "$tmp/on.txt"

golden=scripts/golden_medium.sha256
{
    printf '%s  stdout\n' "$(sha256sum < "$tmp/off.txt" | cut -d' ' -f1)"
    (cd "$tmp/off" && find . -type f | LC_ALL=C sort | sed 's|^\./||' | xargs sha256sum)
} > "$tmp/digests"
if [ "${GOLDEN_RECORD:-}" = 1 ]; then
    {
        echo "# sha256 of 'paperbench -scale medium' stdout (wall-clock line stripped)"
        echo "# and of every -out file. Checked by scripts/samplecheck.sh; re-record"
        echo "# with GOLDEN_RECORD=1 sh scripts/samplecheck.sh, and review the change."
        cat "$tmp/digests"
    } > "$golden"
    echo "samplecheck: recorded $golden"
elif ! grep -v '^#' "$golden" | cmp -s - "$tmp/digests"; then
    echo "samplecheck: medium paperbench report drifted from $golden" >&2
    grep -v '^#' "$golden" | diff - "$tmp/digests" >&2 || true
    exit 1
fi

if ! cmp -s "$tmp/off.txt" "$tmp/on.txt"; then
    echo "samplecheck: medium paperbench stdout differs with sampling on" >&2
    diff "$tmp/off.txt" "$tmp/on.txt" >&2 || true
    exit 1
fi
if ! diff -r "$tmp/off" "$tmp/on" >/dev/null; then
    echo "samplecheck: medium paperbench -out files differ with sampling on" >&2
    diff -r "$tmp/off" "$tmp/on" >&2 || true
    exit 1
fi

if ! [ -s "$tmp/walks.jsonl" ]; then
    echo "samplecheck: sampling produced no sample file" >&2
    exit 1
fi
"$tmp/walkprof" -top 10 -flame "$tmp/walks.folded" "$tmp/walks.jsonl" > "$tmp/report.txt"
if ! [ -s "$tmp/report.txt" ] || ! [ -s "$tmp/walks.folded" ]; then
    echo "samplecheck: walkprof produced an empty report or flame file" >&2
    exit 1
fi

echo "samplecheck: report matches $golden and is identical with sampling on; walkprof round trip OK"
