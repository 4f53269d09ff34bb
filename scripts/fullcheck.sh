#!/usr/bin/env sh
# Full-scale behaviour lock. The 'paperbench -scale full' report must
# match the digests checked in at scripts/golden_full.sha256: the
# sha256 of its stdout (only the trailing wall-clock line stripped)
# and of every -out file. Every -out file must also equal the
# checked-in results/full/ copy byte for byte.
#
# The medium golden (scripts/samplecheck.sh) cannot stand in for this:
# where nested page-table pages sit in host memory moves 4K+4K walk
# cycles only at full scale, and that drift went unseen in 6 of the 12
# full-scale sections while the medium report held. The report takes
# 39-41 s on a loaded 2-vCPU host, so it is its own CI job rather than
# a step of scripts/check.sh.
#
# Re-recording the digests is an explicit, reviewed step:
#   GOLDEN_RECORD=1 sh scripts/fullcheck.sh
# rewrites scripts/golden_full.sha256 from the current tree's report.
# results/full/ is compared, never rewritten, here.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/paperbench" ./cmd/paperbench
"$tmp/paperbench" -scale full -quiet -out "$tmp/out" \
    | grep -v '^— paperbench completed' > "$tmp/stdout.txt"

golden=scripts/golden_full.sha256
{
    printf '%s  stdout\n' "$(sha256sum < "$tmp/stdout.txt" | cut -d' ' -f1)"
    (cd "$tmp/out" && find . -type f | LC_ALL=C sort | sed 's|^\./||' | xargs sha256sum)
} > "$tmp/digests"
if [ "${GOLDEN_RECORD:-}" = 1 ]; then
    {
        echo "# sha256 of 'paperbench -scale full' stdout (wall-clock line stripped)"
        echo "# and of every -out file. Checked by scripts/fullcheck.sh; re-record"
        echo "# with GOLDEN_RECORD=1 sh scripts/fullcheck.sh, and review the change."
        cat "$tmp/digests"
    } > "$golden"
    echo "fullcheck: recorded $golden"
elif ! grep -v '^#' "$golden" | cmp -s - "$tmp/digests"; then
    echo "fullcheck: full paperbench report drifted from $golden" >&2
    grep -v '^#' "$golden" | diff - "$tmp/digests" >&2 || true
    exit 1
fi

if ! diff -r results/full "$tmp/out" >/dev/null; then
    echo "fullcheck: full paperbench -out files differ from results/full/" >&2
    diff -rq results/full "$tmp/out" >&2 || true
    exit 1
fi

echo "fullcheck: full report matches $golden and results/full/"
