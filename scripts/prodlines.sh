#!/usr/bin/env sh
# Prints the production Go line count: the lines of every non-test .go
# file outside bench/ (the benchmark's own module) and outside hidden
# directories such as the benchmark's build directory. ROADMAP's
# "same output from the least code" aim tracks this number.
#
#   sh scripts/prodlines.sh
set -eu
cd "$(dirname "$0")/.."
find . \( -path ./bench -o -name '.?*' \) -prune -o \
    -name '*.go' ! -name '*_test.go' -type f -print |
    xargs cat | wc -l | tr -d ' '
