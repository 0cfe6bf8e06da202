#!/usr/bin/env bash
# Entry point registered in BENCHMARK.json. Run from the root of a
# checkout:
#
#   bash cmd/cawaperf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds cawaperf from source and runs it. Everything the build and the
# run write — Go's build cache, the binary, temporary disk caches,
# trace.json — stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
(cd cmd/cawaperf && go build -o "$build/cawaperf" .)
exec "$build/cawaperf" "$@"
