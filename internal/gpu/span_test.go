package gpu

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
	"cawa/internal/stats"
)

// thrashKernel builds a memory-bound multi-block kernel: every thread
// walks a strided read-modify-write loop over a shared buffer, keeping
// the L1s missing and the event heap full of in-flight fills — the
// workload shape that exercises in-span fill delivery hardest.
func thrashKernel(t *testing.T, mem *memory.Memory, grid, block int) *simt.Kernel {
	t.Helper()
	buf := mem.Alloc(64 * 1024)
	b := isa.NewBuilder("thrash")
	b.SReg(isa.R0, isa.SRGTid)
	b.RemI(isa.R1, isa.R0, 512)
	b.MulI(isa.R1, isa.R1, 8)
	b.Param(isa.R2, 0)
	b.Add(isa.R1, isa.R1, isa.R2)
	b.MovI(isa.R5, 0)
	b.Label("loop")
	b.Ld(isa.R3, isa.R1, 0)
	b.AddI(isa.R3, isa.R3, 1)
	b.St(isa.R1, 0, isa.R3)
	b.AddI(isa.R1, isa.R1, 1024)
	b.RemI(isa.R1, isa.R1, 4096)
	b.Add(isa.R1, isa.R1, isa.R2)
	b.AddI(isa.R5, isa.R5, 1)
	b.SetLTI(isa.R4, isa.R5, 6)
	b.CBra(isa.R4, "loop")
	b.Exit()
	return &simt.Kernel{Name: "thrash", Program: b.MustBuild(), GridDim: grid, BlockDim: block,
		Params: []int64{buf}}
}

// asymKernel builds the slack-divergence witness: block 0 spins a long
// compute loop while block 1 loops dependent strided loads. Every
// in-flight load leaves an internal event at the plan time of some
// span, and that event derives a fill at exactly
// internals[0]+L2Latency-icntLat — SafeHorizon's second bound — so a
// one-cycle-wide horizon pulls that fill into the span unplanned and
// the replay delivers it a cycle late.
func asymKernel(t *testing.T, mem *memory.Memory) *simt.Kernel {
	t.Helper()
	buf := mem.Alloc(4096)
	b := isa.NewBuilder("asym")
	b.SReg(isa.R0, isa.SRCtaid)
	b.SetEQI(isa.R6, isa.R0, 0)
	b.CBra(isa.R6, "compute")
	// Memory block: dependent single-line loads (every lane reads the
	// same fresh line, so each iteration is one compulsory miss and its
	// fill is the one unblocking event the next load waits on). A fill
	// landing one cycle late is therefore always visible in the warp's
	// issue timing.
	b.Param(isa.R2, 0)
	b.MovI(isa.R5, 0)
	b.Label("mloop")
	b.MulI(isa.R7, isa.R5, 128)
	b.Add(isa.R7, isa.R7, isa.R2)
	b.Ld(isa.R3, isa.R7, 0)
	b.AddI(isa.R5, isa.R5, 1)
	b.SetLTI(isa.R4, isa.R5, 40)
	b.CBra(isa.R4, "mloop")
	b.Exit()
	// Compute block: outlasts the memory block by a wide margin.
	b.Label("compute")
	b.MovI(isa.R5, 0)
	b.Label("cloop")
	b.AddI(isa.R5, isa.R5, 1)
	b.SetLTI(isa.R4, isa.R5, 3000)
	b.CBra(isa.R4, "cloop")
	b.Exit()
	return &simt.Kernel{Name: "asym", Program: b.MustBuild(), GridDim: 2, BlockDim: 32,
		Params: []int64{buf}}
}

// runEngine launches one kernel on the ticked oracle (workers == 0) or
// on the span engine with the given domain count, and returns (stats,
// final memory image prefix).
func runEngine(t *testing.T, build func(*testing.T, *memory.Memory) *simt.Kernel,
	workers int, slack int64) (*stats.Launch, []int64) {
	t.Helper()
	mem := memory.New(1 << 20)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	if workers == 0 {
		g.UseTickedOracle()
	}
	g.SMWorkers = workers
	g.horizonSlack = slack
	launch, err := g.Launch(context.Background(), build(t, mem))
	if err != nil {
		t.Fatal(err)
	}
	img := make([]int64, 512)
	for i := range img {
		img[i] = mem.Load(int64(i) * 8)
	}
	return launch, img
}

// TestLookaheadByteIdentity is the package-local half of the harness
// equivalence matrix: the span engine, on one inline domain and on two,
// must reproduce the ticked oracle's statistics and memory image
// exactly, and the horizonSlack test hook must prove the guarantee is
// non-vacuous — widening every horizon by a single cycle has to break
// equivalence, otherwise the SafeHorizon bound is slack and the test
// proves nothing.
func TestLookaheadByteIdentity(t *testing.T) {
	for _, build := range []func(*testing.T, *memory.Memory) *simt.Kernel{
		func(t *testing.T, mem *memory.Memory) *simt.Kernel { return thrashKernel(t, mem, 6, 128) },
		asymKernel,
	} {
		oracle, oracleImg := runEngine(t, build, 0, 0)
		for _, workers := range []int{1, 2} {
			span, spanImg := runEngine(t, build, workers, 0)
			if !reflect.DeepEqual(oracle, span) {
				t.Fatalf("%d-domain span stats diverge from the ticked oracle:\noracle: %+v\nspan:   %+v", workers, oracle, span)
			}
			if !reflect.DeepEqual(oracleImg, spanImg) {
				t.Fatalf("%d-domain span memory image diverges from the ticked oracle", workers)
			}
		}
	}

	oracle, _ := runEngine(t, asymKernel, 0, 0)
	for _, workers := range []int{1, 2} {
		wide, _ := runEngine(t, asymKernel, workers, 1)
		if reflect.DeepEqual(oracle, wide) {
			t.Fatalf("horizonSlack=1 on %d domains did not break equivalence: the SafeHorizon bound is not tight enough for this test to witness anything", workers)
		}
	}
}

// TestLookaheadPlanHorizonClamps pins the planner's clamp ladder:
// SafeHorizon alone, then the MaxCycles abort cycle (which may be the
// span's last), then the PerCycle hook (no wake callback → one-cycle
// spans; wake callback → the wake cycle is the span's last), and the
// floor that keeps every span at least one cycle long.
func TestLookaheadPlanHorizonClamps(t *testing.T) {
	mem := memory.New(1 << 16)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	free := g.sys.SafeHorizon(g.cycle)
	if got := g.planHorizon(g.cycle); got != free {
		t.Fatalf("unclamped horizon %d, want SafeHorizon %d", got, free)
	}

	g.cfg.MaxCycles = 5
	if got, want := g.planHorizon(g.cycle), g.cycle+g.cfg.MaxCycles+2; got != want {
		t.Fatalf("MaxCycles clamp gave %d, want %d (abort cycle inside the span)", got, want)
	}
	// The clamp anchors at the launch's start cycle, not the current one.
	g.cycle = 3
	if got, want := g.planHorizon(0), g.cfg.MaxCycles+2; got != want {
		t.Fatalf("MaxCycles clamp from earlier start gave %d, want %d", got, want)
	}
	g.cycle = 0
	g.cfg.MaxCycles = 0

	g.PerCycle = func(*GPU, int64) {}
	if got, want := g.planHorizon(g.cycle), g.cycle+2; got != want {
		t.Fatalf("PerCycle without PerCycleWake gave %d, want one-cycle span %d", got, want)
	}
	g.PerCycleWake = func(now int64) int64 { return now + 3 }
	if got, want := g.planHorizon(g.cycle), g.cycle+4; got != want {
		t.Fatalf("PerCycleWake clamp gave %d, want %d (wake cycle inside the span)", got, want)
	}
	// A wake beyond the fill horizon must not widen the span.
	g.PerCycleWake = func(now int64) int64 { return now + 1_000_000 }
	if got := g.planHorizon(g.cycle); got != free {
		t.Fatalf("distant wake widened the horizon to %d, want %d", got, free)
	}
	// A wake at or before now means the very next cycle, never an empty
	// span.
	g.PerCycleWake = func(now int64) int64 { return now - 7 }
	if got, want := g.planHorizon(g.cycle), g.cycle+2; got != want {
		t.Fatalf("stale wake gave %d, want the one-cycle floor %d", got, want)
	}
}

// TestLookaheadZeroSpanNoOp pins the smallest span: with the hook's
// wake on the very next cycle a span is exactly that one cycle — the
// counter advances by one, nothing is planned onto the L1s, and the
// staged traffic of the cycle is fully committed when runSpan returns.
func TestLookaheadZeroSpanNoOp(t *testing.T) {
	mem := memory.New(1 << 20)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	ls := g.initLaunch(thrashKernel(t, mem, 2, 64), 2)
	g.startDomains()
	defer g.stopDomains()
	g.PerCycle = func(*GPU, int64) {}
	g.PerCycleWake = func(now int64) int64 { return now + 1 }
	for c := int64(1); c <= 300; c++ {
		g.runSpan(ls)
		if g.cycle != c {
			t.Fatalf("one-cycle span moved the cycle counter to %d, want %d", g.cycle, c)
		}
		for i, s := range g.sms {
			if g.stages[i].Len() != 0 || g.logs[i].Len() != 0 {
				t.Fatalf("cycle %d: SM %d left staged traffic behind", c, i)
			}
			if s.L1D().NextSpanFill() >= 0 {
				t.Fatalf("cycle %d: a one-cycle span planned fills onto SM %d", c, i)
			}
		}
	}
	if g.sys.FillsDelivered == 0 {
		t.Fatal("no fill was delivered in 300 cycles: the direct head drain went unexercised")
	}
}

// TestLookaheadMaxCyclesTruncation proves the runaway guard fires at
// the identical cycle under spans: the horizon clamp ends the span at
// the abort cycle, so a spinning kernel dies with the same error and
// the same final cycle counter as on the ticked oracle — with every
// block resident (one long span to the abort cycle) and with blocks
// still queued for dispatch (one-cycle spans all the way to it).
func TestLookaheadMaxCyclesTruncation(t *testing.T) {
	run := func(workers, grid int) (string, int64) {
		mem := memory.New(1 << 16)
		cfg := config.Small()
		cfg.MaxCycles = 100
		g, err := New(Options{Config: cfg, Memory: mem})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 0 {
			g.UseTickedOracle()
		}
		g.SMWorkers = workers
		b := isa.NewBuilder("spin")
		b.Label("head")
		b.Bra("head")
		b.Exit()
		k := &simt.Kernel{Name: "spin", Program: b.MustBuild(), GridDim: grid, BlockDim: 32}
		_, err = g.Launch(context.Background(), k)
		if err == nil {
			t.Fatal("runaway kernel not aborted")
		}
		return err.Error(), g.Cycle()
	}
	cfg := config.Small()
	queued := cfg.NumSMs*cfg.MaxBlocksPerSM + 1
	for _, grid := range []int{1, queued} {
		oracleMsg, oracleCycle := run(0, grid)
		for _, workers := range []int{1, 2} {
			msg, cycle := run(workers, grid)
			if msg != oracleMsg {
				t.Fatalf("grid %d, %d domains: abort errors diverge:\noracle: %s\nspan:   %s", grid, workers, oracleMsg, msg)
			}
			if cycle != oracleCycle {
				t.Fatalf("grid %d, %d domains: abort cycles diverge: oracle %d, span %d", grid, workers, oracleCycle, cycle)
			}
		}
	}
}

// flipCtx is a context whose Err flips to Canceled after a fixed
// number of polls, with no wall-clock involved. It records the cycle
// counter at every poll so a test can tell how much simulated work
// separated two of them.
type flipCtx struct {
	context.Context
	g     *GPU
	after int
	seen  []int64
}

func (c *flipCtx) Err() error {
	c.seen = append(c.seen, c.g.Cycle())
	if len(c.seen) > c.after {
		return context.Canceled
	}
	return nil
}

// TestLookaheadCancellationPolledInBatch proves spans do not starve
// cancellation: the loop polls ctx once before every span and nowhere
// else, so a context that dies while span n runs is seen by the poll
// that follows it — the launch returns context.Canceled without
// starting span n+1, at most a memory round trip of simulated work
// after the last poll that found the context alive. The aborted launch
// stays armed: Resume finishes it exactly as the uncancelled Launch
// did, and a completed launch leaves nothing to resume.
func TestLookaheadCancellationPolledInBatch(t *testing.T) {
	launch := func(workers, after int) (*flipCtx, *stats.Launch, error) {
		mem := memory.New(1 << 20)
		g, err := New(Options{Config: config.Small(), Memory: mem})
		if err != nil {
			t.Fatal(err)
		}
		g.SMWorkers = workers
		ctx := &flipCtx{Context: context.Background(), g: g, after: after}
		st, err := g.Launch(ctx, thrashKernel(t, mem, 6, 128))
		return ctx, st, err
	}
	for _, workers := range []int{1, 2} {
		full, fullStats, err := launch(workers, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.g.Resume(context.Background()); err == nil {
			t.Fatal("Resume after a completed launch succeeded")
		}
		spans := len(full.seen) // one poll per span
		if spans < 4 {
			t.Fatalf("the kernel ran in %d spans: too few to die in the middle of", spans)
		}
		after := spans / 2
		ctx, _, err := launch(workers, after)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled launch returned %v", err)
		}
		if len(ctx.seen) != after+1 {
			t.Fatalf("launch polled ctx %d times, want %d: it kept running after the flip", len(ctx.seen), after+1)
		}
		if !reflect.DeepEqual(ctx.seen, full.seen[:after+1]) {
			t.Fatalf("polls at cycles %v, want the uncancelled run's span boundaries %v", ctx.seen, full.seen[:after+1])
		}
		if got := ctx.g.Cycle(); got != ctx.seen[after] {
			t.Fatalf("abort at cycle %d, want %d: work ran after the poll that saw the dead context", got, ctx.seen[after])
		}
		// A span is at most the fill-free horizon long (memsys.SafeHorizon).
		longest := int64(ctx.g.cfg.L2Latency)
		if d := ctx.seen[after] - ctx.seen[after-1]; d <= 0 || d > longest {
			t.Fatalf("%d cycles between the last live poll and the abort, want one span (1..%d)", d, longest)
		}
		resumed, err := ctx.g.Resume(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, fullStats) || ctx.g.Cycle() != full.g.Cycle() {
			t.Fatalf("resumed launch differs from the uncancelled one:\nresumed %+v\nfull    %+v", resumed, fullStats)
		}
	}
}
