#!/bin/sh
# Tier-1 gate: run this before every merge.
#
#   loc.sh        prints the non-test Go line counts the ROADMAP's code
#                 diet tracks (informational, never fails the gate)
#   gofmt -l      every file is gofmt-clean
#   go vet        static checks, also as GOARCH=386: constants and
#                 conversions must fit a 32-bit int
#   arm64 FMA     the arm64 assembly of every internal package holds
#                 no fused multiply-add: it rounds once where amd64
#                 rounds twice, and would move the criticality gCAWS
#                 ranks warps by (core/cpl.go), simt's FMAD results and
#                 the workloads' inputs and Go references. A site that
#                 fuses is written with an explicit float64() rounding
#   cawalint      determinism lint over the whole module, one statement
#                 at a time: no wall clock / global rand / raw map
#                 iteration in the engine's import closure, goroutines
#                 only in sanctioned packages, no direct memsys.System
#                 calls from SM code; accepted findings carry a
#                 //cawalint:ignore <reason> in place. What a statement
#                 cannot show (allocations below the hot path, shared
#                 writes from a domain) is measured by the tests below:
#                 the exact allocation gates and the race matrix
#   cawadis -lint the twelve workload kernels verify clean
#   go build      everything compiles
#   cawaperf      the benchmark is a Go module of its own
#                 (cmd/cawaperf), which ./... above never reaches: vet
#                 and build it so an internal signature change cannot
#                 break the registered benchmark unnoticed
#   go test       full unit + experiment smoke suite
#   go test 386   the engine's packages again as GOARCH=386 -short, so
#                 a 64-bit assumption (an int that must hold an int64,
#                 a slot or word count that overflows 32 bits) fails
#                 where it runs, not only where it compiles. The
#                 session layer (internal/harness and up) is not run
#                 under 386
#   go test -fuzz the decoders of disk bytes (checkpoint payloads
#                 through Decode + Restore, disk-cache artifacts, and
#                 the strict result-entry decoder, whose every accepted
#                 document must be json.Marshal of what it decoded), the
#                 decoder of cawaserve request bodies (a 4xx or an
#                 accepted job with a keyable design point), the isa
#                 text assembler (an error or a program whose
#                 disassembly parses back to it), simt's warp-wide
#                 execute against the per-lane interpreter it replaced,
#                 and core's slot table (CPL's and the CAWS oracle's
#                 criticality, rank and slower-half verdict per slot,
#                 across a checkpoint round trip) against a scan of the
#                 live warps, ten seconds each beyond their committed
#                 seeds; a
#                 crasher is written under the package's testdata/fuzz
#   go test -race the concurrency audit of the session scheduler:
#                 harness (worker pool, parallel experiments, the one
#                 encoding a flight shares), serve (concurrent handlers
#                 writing the same reply bytes) and workloads
#                 (per-instance RNG) under the race detector. -short
#                 skips the slow sequential experiment sweep but keeps
#                 every parallel-path test (singleflight, prewarm,
#                 parallel-vs-sequential golden).
#   GOMAXPROCS race matrix: the span engine's multi-domain tests (span
#                 barrier, SM claiming and claim-order independence, a
#                 helper domain's panic costing one run, staged replay, horizon clamps, span-fill
#                 delivery, cancellation, worker budget, shared
#                 observers on the inline domain, engine-equivalence,
#                 checkpoint round-trips across the workload catalog) and
#                 the SM's event-driven readiness tests (the from-scratch
#                 oracle over the catalog, where fills wake parked warps
#                 from the engine's head drain and from helper domains'
#                 in-span deliveries; the directed wake and standing-
#                 verdict cases; the refusal contract; the allocation
#                 budgets at full occupancy and, for a subset of the
#                 design points, over the span loop; a warm launch's
#                 under each criticality provider)
#                 re-run under -race at GOMAXPROCS=2 (forced goroutine
#                 multiplexing — exercises the barrier park path) and
#                 GOMAXPROCS=8 (real interleaving on CI's multi-core
#                 runners; on a host with fewer than 8 CPUs GOMAXPROCS
#                 exceeds them, so every waiter parks without spinning
#                 and this pass takes the park path too).
set -e
cd "$(dirname "$0")/.."

echo "== lines (informational) =="
scripts/loc.sh || true
echo "== gofmt =="
unformatted=$(gofmt -l cmd internal examples)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go vet =="
go vet ./...
GOARCH=386 go vet ./...
echo "== arm64: no fused multiply-add in ./internal/... =="
asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/... 2>&1)
if ! echo "$asm" | grep -q 'warpCrit).criticality STEXT'; then
    echo "arm64 FMA check: no assembly listing for internal/core" >&2
    exit 1
fi
if echo "$asm" | grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]'; then
    echo "fused multiply-add in the arm64 build of ./internal/..." >&2
    exit 1
fi
echo "== cawalint (whole module) =="
go run ./cmd/cawalint
echo "== cawadis -lint (workload kernels) =="
go run ./cmd/cawadis -lint -workload all
echo "== go build =="
go build ./...
echo "== cmd/cawaperf (benchmark module): go vet, go build =="
(cd cmd/cawaperf && go vet ./... && go build -o /dev/null ./...)
echo "== go test =="
go test ./...
echo "== go test GOARCH=386 -short (engine packages) =="
GOARCH=386 go test -short ./internal/sched ./internal/state ./internal/core ./internal/simt \
    ./internal/cache ./internal/memsys ./internal/memory ./internal/stats ./internal/sm \
    ./internal/gpu ./internal/checkpoint ./internal/isa/...
echo "== go test -fuzz (10s each) =="
go test -run '^$' -fuzz '^FuzzDecodeRestore$' -fuzztime 10s -fuzzminimizetime 1s ./internal/checkpoint
go test -run '^$' -fuzz '^FuzzDiskCacheArtifacts$' -fuzztime 10s -fuzzminimizetime 1s ./internal/harness
go test -run '^$' -fuzz '^FuzzDecodeEntry$' -fuzztime 10s -fuzzminimizetime 1s ./internal/harness
go test -run '^$' -fuzz '^FuzzRunRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
go test -run '^$' -fuzz '^FuzzExecAgainstPerLane$' -fuzztime 10s -fuzzminimizetime 1s ./internal/simt
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s ./internal/isa
go test -run '^$' -fuzz '^FuzzCriticalityPeers$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core
echo "== go test -race (harness, serve, workloads) =="
go test -race -short ./internal/harness/... ./internal/serve/... ./internal/workloads/...
echo "== go test -race span engine domains (GOMAXPROCS=2, GOMAXPROCS=8) =="
race_pkgs="./internal/gpu/... ./internal/memsys/... ./internal/harness/... ./internal/checkpoint/... ./internal/sm/..."
race_run='TestParallel|TestDomain|TestStaged|TestStaging|TestLookahead|TestSpanFill|TestSessionSharedWorkerBudget|TestSharedObservers|TestEngineEquivalenceMatrix|TestRoundTrip|TestReadinessOracle|TestBarrierWake|TestFillWakes|TestWritebackWakes|TestMemDataReparks|TestStaleFill|TestCyclePathAllocFree|TestDispatchAllocFree|TestDesignPointsAllocFree|TestProvidersAllocNothingPerWarp|TestReplayVisitsOnlyDueCycles|TestStanding|TestRefusalStandsUntilFills|TestRejectMemoFollowsL1DFills|TestClaimOrderIndependence|TestSessionSurvivesDomainPanic'
# A -run alternative that matches nothing passes silently: a renamed or
# deleted test would drop out of the matrix unnoticed.
listed=$(go test -list "$race_run" $race_pkgs)
for alt in $(echo "$race_run" | tr '|' ' '); do
    if ! echo "$listed" | grep -q "$alt"; then
        echo "race matrix: -run alternative $alt matches no test in $race_pkgs" >&2
        exit 1
    fi
done
for procs in 2 8; do
    GOMAXPROCS=$procs go test -race -short -count=1 -run "$race_run" $race_pkgs
done
echo "ALL CHECKS PASSED"
