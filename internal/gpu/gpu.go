// Package gpu assembles the full simulated GPU: a set of SMs sharing a
// memory system, plus the thread-block dispatcher and the cycle loop
// that runs kernel launches to completion.
package gpu

import (
	"context"
	"fmt"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/isa/analysis"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/obs/perf"
	"cawa/internal/sched"
	"cawa/internal/simt"
	"cawa/internal/sm"
	"cawa/internal/stats"
)

// Options configures GPU construction. Factories are invoked once per
// SM so that policies and predictors keep per-SM state, matching the
// paper's per-L1D CCBP/SHiP tables and per-scheduler warp state.
type Options struct {
	// Config is the architectural configuration (Table 1).
	Config config.Config
	// Memory is the functional global memory holding workload data.
	Memory *memory.Memory
	// Policy creates one warp-scheduler policy per scheduler unit.
	// Defaults to the round-robin baseline.
	Policy sched.Factory
	// L1Policy creates one L1D replacement policy per SM. Defaults to
	// LRU. The CACP policy from internal/core plugs in here.
	L1Policy func() cache.Policy
	// Criticality creates one criticality provider per SM. Defaults to
	// the criticality-oblivious null provider. The CPL logic from
	// internal/core plugs in here.
	Criticality func() sm.CriticalityProvider
}

// GPU is the whole simulated device.
type GPU struct {
	cfg config.Config
	mem *memory.Memory
	sys *memsys.System
	sms []*sm.SM

	cycle     int64
	nextGID   int
	blockBase int // launch-unique block id offset for statistics
	rr        int // round-robin SM pointer for block dispatch

	// PerCycle, when set, observes the GPU between spans (sampling hooks
	// for timeline figures, checkpoint capture): it is called after the
	// last cycle of every span, when staged traffic is committed and the
	// device state is exactly what ticking through that cycle leaves
	// behind. Keep it cheap. Without PerCycleWake every span is one
	// cycle long — the hook sees every cycle — because an arbitrary
	// hook may act on any of them.
	PerCycle func(g *GPU, cycle int64)

	// PerCycleWake, when set alongside PerCycle, returns the next cycle
	// (> now) at which the PerCycle hook must run. The engine ends a
	// span at that cycle at the latest, so a cadenced sampler fires at
	// exactly the cycles it asked for.
	// Returning a value <= now means the very next cycle.
	PerCycleWake func(now int64) int64

	// SMWorkers is the number of domains that share each span: that
	// many goroutines claim the SMs one at a time, the first always
	// the caller's and the rest helpers that live for the launch (see
	// domains.go). Values <= 1 (the default) run every SM on the
	// caller's goroutine with no barrier; values above NumSMs are
	// clamped. Results are byte-identical at any setting.
	//
	// Callers that attach observers shared between SMs (profiler taps,
	// trace collectors) must leave this at 1; the harness does so for
	// them.
	SMWorkers int

	// ticked selects the tick-every-cycle reference loop (see
	// UseTickedOracle).
	ticked bool

	// horizonSlack widens every planned horizon by this many cycles.
	// Test hook only: a slack of +1 lets a test prove the byte-identity
	// guard is non-vacuous (the first fill cycle lands in-span and
	// equivalence breaks).
	horizonSlack int64

	// claimOrder and panicAt are test hooks only (UseClaimOrder,
	// PanicInSpanAt): the order in which the domains claim SMs, and a
	// cycle whose span makes every SM panic.
	claimOrder []int
	panicAt    int64

	// Perf, when non-nil, self-profiles the engine: every span brackets
	// its seams (memsys drain, dispatch, horizon planning, SM stepping,
	// staged replay) with reads of the profiler's injected clock, and
	// multi-domain launches additionally record each domain's compute
	// time per span. The clock is observational only — no engine control
	// flow depends on a profiled duration — so results stay
	// byte-identical with profiling on or off. When nil (the default)
	// the only cost is one predictable branch per seam and the cycle
	// path stays allocation-free (TestProfilerOffZeroCost).
	Perf *perf.Profiler

	// Span plumbing: per-SM staging for outbound memory requests and
	// global stores, allocated on the first launch and installed on the
	// SMs only while one runs, and the launch's domains.
	stages []*memsys.StageBuffer
	logs   []*memory.StoreLog
	runner *domainRunner

	// Spans records the cycle window of every completed kernel launch
	// (observability exporters render launches as top-level trace
	// spans). One entry per Launch call; never trimmed.
	Spans []LaunchSpan

	// launch is the unfinished launch's progress state: set while run
	// executes, kept when run returns early (a ctx or MaxCycles abort)
	// and after a checkpoint restore, cleared only when the launch
	// completes. Archive walks it, and Resume re-enters the cycle loop
	// exactly where it left off.
	launch *launchState
}

// launchState carries one launch's progress: the dispatch cursor, the
// per-launch counter snapshots the final statistics are deltas against,
// and the per-SM block-retirement counters. It lives on the GPU until
// the launch completes so a checkpoint taken between spans can
// serialize it.
type launchState struct {
	k             *simt.Kernel
	warpsPerBlock int
	total         int
	nextBlock     int

	startCycle  int64
	startInstr  int64
	startTInstr int64
	startMemI   int64
	startMemT   int64
	l1snap      []l1Snapshot
	startL2Acc  uint64
	startL2Miss uint64

	// Block-retirement counters are per SM: each counter is written
	// only by the domain running its SM, and the engine folds them
	// between spans (the span barrier orders the accesses).
	retiredBy []int
	// lastRetire records each SM's most recent block-retirement cycle:
	// when a kernel completes inside a span, the replay stops at the max
	// — the launch's final cycle (see span.go).
	lastRetire []int64

	// dispatchStall is the retired-block count at the last failed block
	// placement, -1 when none is remembered (a fresh or restored launch;
	// not captured). SM capacity only changes when a block retires, so
	// dispatch skips its scan until the count moves.
	dispatchStall int
}

// newLaunchState returns the zero progress of a launch of k on sms SMs.
func newLaunchState(k *simt.Kernel, sms int) *launchState {
	return &launchState{
		k:             k,
		l1snap:        make([]l1Snapshot, sms),
		retiredBy:     make([]int, sms),
		lastRetire:    make([]int64, sms),
		dispatchStall: -1,
	}
}

func (ls *launchState) retired() int {
	n := 0
	for _, v := range ls.retiredBy {
		n += v
	}
	return n
}

// install wires the per-SM block-retirement callbacks at the counters.
// Called on launch entry and again after a checkpoint restore (closures
// do not serialize).
func (ls *launchState) install(g *GPU) {
	for i, s := range g.sms {
		counter := &ls.retiredBy[i]
		at := &ls.lastRetire[i]
		s.OnBlockDone = func(_ int, cycle int64) {
			*counter++
			*at = cycle
		}
	}
}

// LaunchSpan is the cycle window of one kernel launch.
type LaunchSpan struct {
	Kernel string
	Start  int64
	End    int64
}

// New builds a GPU.
func New(opt Options) (*GPU, error) {
	if err := opt.Config.Validate(); err != nil {
		return nil, err
	}
	if opt.Memory == nil {
		return nil, fmt.Errorf("gpu: Options.Memory is required")
	}
	g := &GPU{
		cfg: opt.Config,
		mem: opt.Memory,
		sys: memsys.New(opt.Config),
	}
	for i := 0; i < opt.Config.NumSMs; i++ {
		var l1p cache.Policy
		if opt.L1Policy != nil {
			l1p = opt.L1Policy()
		}
		var crit sm.CriticalityProvider
		if opt.Criticality != nil {
			crit = opt.Criticality()
		}
		g.sms = append(g.sms, sm.New(sm.Options{
			ID:            i,
			Config:        opt.Config,
			Memory:        opt.Memory,
			MemSys:        g.sys,
			PolicyFactory: opt.Policy,
			L1Policy:      l1p,
			Criticality:   crit,
		}))
	}
	return g, nil
}

// Config returns the architectural configuration.
func (g *GPU) Config() config.Config { return g.cfg }

// Memory returns the functional global memory.
func (g *GPU) Memory() *memory.Memory { return g.mem }

// MemSys returns the shared memory system.
func (g *GPU) MemSys() *memsys.System { return g.sys }

// SMs returns the streaming multiprocessors.
func (g *GPU) SMs() []*sm.SM { return g.sms }

// Cycle returns the global cycle counter (monotonic across launches).
func (g *GPU) Cycle() int64 { return g.cycle }

type l1Snapshot struct {
	loadAcc, storeAcc, loadMiss, storeMiss uint64
}

// Launch runs one kernel to completion and returns its statistics.
// Caches stay warm across launches; the cycle counter keeps advancing.
//
// Launch honors ctx: cancellation or deadline expiry aborts the run
// with ctx's error (wrapped), checked before every span, so a dead
// client never pins a worker for the rest of a long kernel. A launch
// that returns early — by ctx or by MaxCycles — stops between spans and
// keeps its launch state: the GPU is armed exactly like one restored
// from a checkpoint, so it can be captured (checkpoint.Capture) or
// continued (Resume).
func (g *GPU) Launch(ctx context.Context, k *simt.Kernel) (*stats.Launch, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	// Re-verify with the launch context only the GPU knows: the warp
	// size sharpens the affine %warp/%lane ranges and the memory size
	// enables the global out-of-bounds check.
	launch := k.AnalysisLaunch()
	launch.WarpSize = g.cfg.WarpSize
	launch.GlobalBytes = g.mem.Size()
	if err := analysis.Verify(k.Program, analysis.Options{Launch: launch}); err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	warpsPerBlock := k.WarpsPerBlock(g.cfg.WarpSize)
	if warpsPerBlock > g.cfg.MaxWarpsPerSM {
		return nil, fmt.Errorf("gpu: kernel %s needs %d warps per block, SM holds %d",
			k.Name, warpsPerBlock, g.cfg.MaxWarpsPerSM)
	}
	if k.SharedWords*8 > g.cfg.SharedMemPerSM {
		return nil, fmt.Errorf("gpu: kernel %s needs %dB shared memory, SM has %dB",
			k.Name, k.SharedWords*8, g.cfg.SharedMemPerSM)
	}
	if k.RegsPerThread > 0 && k.RegsPerThread*k.BlockDim > g.cfg.RegistersPerSM {
		return nil, fmt.Errorf("gpu: kernel %s block needs %d registers, SM has %d",
			k.Name, k.RegsPerThread*k.BlockDim, g.cfg.RegistersPerSM)
	}

	return g.run(ctx, g.initLaunch(k, warpsPerBlock))
}

// Resume re-enters the span loop of a launch a loading Archive
// restored, or of one that returned early. The launch runs to
// completion with whatever domain count this GPU is configured for (a
// checkpoint is taken between spans, where no staged traffic is
// pending, so the count may differ from the capturing run's) and
// returns the launch statistics exactly as the uninterrupted Launch
// would have.
func (g *GPU) Resume(ctx context.Context) (*stats.Launch, error) {
	if g.launch == nil {
		return nil, fmt.Errorf("gpu: Resume without an unfinished launch")
	}
	return g.run(ctx, g.launch)
}

// initLaunch snapshots the per-launch counters, installs the kernel on
// every SM, and wires the block-retirement callbacks.
func (g *GPU) initLaunch(k *simt.Kernel, warpsPerBlock int) *launchState {
	ls := newLaunchState(k, len(g.sms))
	ls.warpsPerBlock, ls.total, ls.startCycle = warpsPerBlock, k.GridDim, g.cycle
	for i, s := range g.sms {
		ls.startInstr += s.Instructions
		ls.startTInstr += s.ThreadInstrs
		ls.startMemI += s.MemInstrs
		ls.startMemT += s.MemTxns
		l1 := s.L1D()
		ls.l1snap[i] = l1Snapshot{l1.LoadAccesses, l1.StoreAccesses, l1.LoadMisses, l1.StoreMisses}
		s.Finished = s.Finished[:0]
		s.SetKernel(k)
		s.BlockStatsBase = g.blockBase
	}
	g.blockBase += k.GridDim
	l2 := g.sys.L2()
	ls.startL2Acc, ls.startL2Miss = l2.Accesses, l2.Misses
	ls.install(g)
	return ls
}

// run drives a launch (fresh or restored) to completion, one span per
// iteration (span.go). ctx is polled before every span: a span is at
// most a memory round trip long, so a dead context costs that much work
// at the most. An early return leaves g.launch set.
func (g *GPU) run(ctx context.Context, ls *launchState) (*stats.Launch, error) {
	g.launch = ls
	k := ls.k

	if !g.ticked {
		g.startDomains()
		// Unconditional teardown: an aborted launch (cancellation,
		// MaxCycles, a failed verify) must not leak domain goroutines
		// or leave staging installed on the SMs.
		defer g.stopDomains()
	}

	for ls.retired() < ls.total {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("gpu: kernel %s aborted at cycle %d: %w", k.Name, g.cycle, err)
			}
		}
		if g.ticked {
			g.tick(ls)
		} else {
			g.runSpan(ls)
		}
		if g.PerCycle != nil {
			g.PerCycle(g, g.cycle)
		}
		if g.cfg.MaxCycles > 0 && g.cycle-ls.startCycle > g.cfg.MaxCycles {
			return nil, fmt.Errorf("gpu: kernel %s exceeded %d cycles (%d/%d blocks retired)",
				k.Name, g.cfg.MaxCycles, ls.retired(), ls.total)
		}
	}

	g.launch = nil
	if g.Perf != nil {
		g.Perf.AddSimCycles(g.cycle - ls.startCycle)
	}
	g.Spans = append(g.Spans, LaunchSpan{Kernel: k.Name, Start: ls.startCycle + 1, End: g.cycle})
	out := &stats.Launch{Kernel: k.Name, Cycles: g.cycle - ls.startCycle}
	for i, s := range g.sms {
		out.Instructions += s.Instructions
		out.ThreadInstrs += s.ThreadInstrs
		out.MemInstrs += s.MemInstrs
		out.MemTxns += s.MemTxns
		l1 := s.L1D()
		out.L1DAccesses += l1.LoadAccesses + l1.StoreAccesses -
			ls.l1snap[i].loadAcc - ls.l1snap[i].storeAcc
		out.L1DMisses += l1.LoadMisses + l1.StoreMisses -
			ls.l1snap[i].loadMiss - ls.l1snap[i].storeMiss
		out.Warps = append(out.Warps, s.Finished...)
		s.Finished = s.Finished[:0]
	}
	out.Instructions -= ls.startInstr
	out.ThreadInstrs -= ls.startTInstr
	out.MemInstrs -= ls.startMemI
	out.MemTxns -= ls.startMemT
	l2 := g.sys.L2()
	out.L2Accesses = l2.Accesses - ls.startL2Acc
	out.L2Misses = l2.Misses - ls.startL2Miss
	return out, nil
}

// startDomains readies the GPU for one launch of the span engine:
// every SM gets a private stage buffer for outbound memory-system
// requests and a private store log for functional global-memory
// writes, and the launch's domains are built (helpers start parked).
func (g *GPU) startDomains() {
	if g.stages == nil {
		g.stages = make([]*memsys.StageBuffer, len(g.sms))
		g.logs = make([]*memory.StoreLog, len(g.sms))
		for i := range g.sms {
			g.stages[i] = &memsys.StageBuffer{}
			g.logs[i] = memory.NewStoreLog(g.mem)
		}
	}
	for i, s := range g.sms {
		s.L1D().SetStaging(g.stages[i])
		s.SetStoreLog(g.logs[i])
	}
	sms := g.sms
	if g.claimOrder != nil {
		sms = make([]*sm.SM, len(g.sms))
		for i, id := range g.claimOrder {
			sms[i] = g.sms[id]
		}
	}
	g.runner = newDomainRunner(sms, g.SMWorkers, g.Perf)
	if at := g.panicAt; at > 0 {
		g.runner.step = func(s *sm.SM, from, to int64) {
			if from <= at && at <= to {
				panic(fmt.Sprintf("test hook: sm %d panics in span %d..%d", s.ID, from, to))
			}
			stepSM(s, from, to)
		}
	}
}

// stopDomains ends the launch's domains and returns the SMs to direct
// execution. Every span replays its own staged traffic, so nothing is
// left to merge.
func (g *GPU) stopDomains() {
	g.runner.stop()
	g.runner = nil
	for _, s := range g.sms {
		s.L1D().SetStaging(nil)
		s.SetStoreLog(nil)
	}
}

// UseTickedOracle switches this GPU to the tick-every-cycle reference
// loop: every cycle drains the memory system, dispatches, and ticks
// every SM directly against the shared memory system — no spans, no
// staging, no skipping. Its SMs run without a store log, so they never
// sleep through refused ticks either (sm.SM.SetStoreLog): every tick
// runs for real. It exists so tests can prove the span engine
// byte-identical to the simplest possible loop; no option, flag or
// session setting reaches it.
func (g *GPU) UseTickedOracle() { g.ticked = true }

// UseClaimOrder makes this GPU's span domains claim SMs in order, a
// permutation of the SM ids, instead of ascending. It exists so tests
// can prove that results do not depend on which SM is taken first; no
// option, flag or session setting reaches it.
func (g *GPU) UseClaimOrder(order []int) { g.claimOrder = order }

// PanicInSpanAt makes every SM panic at the start of the span that
// contains cycle (> 0), on whichever goroutine runs it. It exists so
// tests can prove a panic on a helper domain costs the run, not the
// process; no option, flag or session setting reaches it.
func (g *GPU) PanicInSpanAt(cycle int64) { g.panicAt = cycle }

// tick is the reference loop's one cycle.
func (g *GPU) tick(ls *launchState) {
	g.cycle++
	g.sys.Cycle(g.cycle)
	g.placeBlocks(ls, g.cycle)
	for _, s := range g.sms {
		s.Cycle(g.cycle)
	}
}

// dispatch hands pending blocks to SMs with capacity at cycle now.
// Capacity only changes when a block retires, so after a failed
// placement the scan over every SM's slots is skipped until the retired
// count moves.
func (g *GPU) dispatch(ls *launchState, now int64) {
	if ls.nextBlock >= ls.total {
		return
	}
	retired := ls.retired()
	if retired == ls.dispatchStall {
		return
	}
	g.placeBlocks(ls, now)
	if ls.nextBlock < ls.total {
		ls.dispatchStall = retired
	}
}

// placeBlocks hands out blocks breadth-first across SMs with capacity
// until the grid is exhausted or a block finds no room.
func (g *GPU) placeBlocks(ls *launchState, now int64) {
	for ls.nextBlock < ls.total {
		placed := false
		for i := 0; i < len(g.sms); i++ {
			s := g.sms[(g.rr+i)%len(g.sms)]
			if !s.CanAcceptBlock() {
				continue
			}
			s.DispatchBlock(ls.nextBlock, g.nextGID, now)
			g.nextGID += ls.warpsPerBlock
			ls.nextBlock++
			g.rr = (g.rr + i + 1) % len(g.sms)
			placed = true
			break
		}
		if !placed {
			return
		}
	}
}
