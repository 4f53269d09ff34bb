#!/usr/bin/env sh
# Host determinism gate: the whole-host consolidation-density sweep
# must be byte-identical however it is scheduled. The host section
# fans cells across -j workers and shards each cell's guest replay
# across -shards goroutines; neither knob may leak into the report or
# into the collected walk samples. Every (-j, -shards) combination of
# {1,8}x{1,4} must produce the same stdout (only the trailing
# wall-clock line stripped) and the same encoded sample file as the
# serial run.
#
# The serial run is also the host sweep's behaviour lock: the sha256 of
# its stripped stdout and of its sample file must equal the digests
# checked in at scripts/golden_host.sha256. The sweep is where escape
# filters actually fill (page retirement), so it pins the filter's hash
# as well as the consolidation driver. Re-recording is an explicit,
# reviewed step, as for scripts/golden_medium.sha256:
#   GOLDEN_RECORD=1 sh scripts/hostcheck.sh
# rewrites the file from the current tree's serial run.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/paperbench" ./cmd/paperbench

for j in 1 8; do
    for sh in 1 4; do
        "$tmp/paperbench" -scale small -quiet -only host \
            -j "$j" -shards "$sh" \
            -sample 64 -samples "$tmp/walks-$j-$sh.jsonl" \
            | grep -v '^— paperbench completed' > "$tmp/out-$j-$sh.txt"
    done
done

for j in 1 8; do
    for sh in 1 4; do
        [ "$j" = 1 ] && [ "$sh" = 1 ] && continue
        if ! cmp -s "$tmp/out-1-1.txt" "$tmp/out-$j-$sh.txt"; then
            echo "hostcheck: host section stdout differs at -j $j -shards $sh" >&2
            diff "$tmp/out-1-1.txt" "$tmp/out-$j-$sh.txt" >&2 || true
            exit 1
        fi
        if ! cmp -s "$tmp/walks-1-1.jsonl" "$tmp/walks-$j-$sh.jsonl"; then
            echo "hostcheck: host sample file differs at -j $j -shards $sh" >&2
            exit 1
        fi
    done
done

if ! [ -s "$tmp/walks-1-1.jsonl" ]; then
    echo "hostcheck: host run produced no walk samples" >&2
    exit 1
fi

golden=scripts/golden_host.sha256
{
    printf '%s  stdout\n' "$(sha256sum < "$tmp/out-1-1.txt" | cut -d' ' -f1)"
    printf '%s  walks.jsonl\n' "$(sha256sum < "$tmp/walks-1-1.jsonl" | cut -d' ' -f1)"
} > "$tmp/digests"
if [ "${GOLDEN_RECORD:-}" = 1 ]; then
    {
        echo "# sha256 of 'paperbench -scale small -only host -sample 64' stdout"
        echo "# (wall-clock line stripped) and of its -samples file. Checked by"
        echo "# scripts/hostcheck.sh; re-record with GOLDEN_RECORD=1 sh"
        echo "# scripts/hostcheck.sh, and review the change."
        cat "$tmp/digests"
    } > "$golden"
    echo "hostcheck: recorded $golden"
elif ! grep -v '^#' "$golden" | cmp -s - "$tmp/digests"; then
    echo "hostcheck: host sweep drifted from $golden" >&2
    grep -v '^#' "$golden" | diff - "$tmp/digests" >&2 || true
    exit 1
fi

echo "hostcheck: host sweep matches $golden and is byte-identical across -j {1,8} x -shards {1,4}"
