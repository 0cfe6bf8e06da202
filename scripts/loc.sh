#!/bin/sh
# Prints the two non-test Go line counts the ROADMAP's code diet
# tracks: every non-test .go file in the repository, and the same
# without the benchmark module (cmd/cawaperf). Hidden directories (the
# benchmark's build cache among them) are not counted.
#
#   scripts/loc.sh
set -e
cd "$(dirname "$0")/.."

count() {
    find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' "$@" -print |
        xargs cat | wc -l | tr -d ' '
}
echo "non-test Go lines: $(count) ($(count ! -path './cmd/cawaperf/*') without cmd/cawaperf)"
