package gpu_test

import (
	"runtime"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/simt"
)

// reuseKernel loops every thread over a strided global-load sweep that
// wraps a 1 MiB window (L1D misses) and re-reads one word of its own on
// every iteration (L1D hits), so a steady-state window drives both the
// fill path and the hit path of every L1D policy.
func reuseKernel(mem *memory.Memory, iters int64) *simt.Kernel {
	const threads = 8 * 128
	stream := mem.Alloc(1 << 17) // 2^17 words = 1 MiB of byte addresses
	own := mem.Alloc(threads)
	b := isa.NewBuilder("reuse")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 0)
	b.Param(isa.R3, 1)
	b.MulI(isa.R6, isa.R0, 8)
	b.Add(isa.R4, isa.R3, isa.R6) // this thread's own word
	b.MovI(isa.R9, 0)
	b.MovI(isa.R5, 0)
	b.Label("loop")
	b.MulI(isa.R2, isa.R5, 512)
	b.Add(isa.R2, isa.R2, isa.R6)
	b.AndI(isa.R2, isa.R2, (1<<20)-8)
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Ld(isa.R7, isa.R2, 0)
	b.Ld(isa.R10, isa.R4, 0)
	b.Add(isa.R9, isa.R9, isa.R7)
	b.Add(isa.R9, isa.R9, isa.R10)
	b.AddI(isa.R5, isa.R5, 1)
	b.SetLTI(isa.R8, isa.R5, iters)
	b.CBra(isa.R8, "loop")
	b.St(isa.R4, 0, isa.R9)
	b.Exit()
	return &simt.Kernel{
		Name: "reuse", Program: b.MustBuild(),
		GridDim: 8, BlockDim: threads / 8,
		Params: []int64{stream, own},
	}
}

// designPoint is one row of the allocation gate: a scheduler/provider/
// L1D-policy combination, its L1D attach hook if it has one, and its
// domain count.
type designPoint struct {
	name    string
	sc      core.SystemConfig
	attach  func(smID int, l1 *memsys.L1D)
	domains int
	short   bool // also run under -short (the race matrix)
}

func designPoints() []designPoint {
	ccws, attach := core.CCWSSystem()
	oracle := map[int]float64{}
	for gid := 0; gid < 32; gid++ {
		oracle[gid] = float64(gid % 7)
	}
	return []designPoint{
		{name: "lrr", sc: core.SystemConfig{Scheduler: "lrr"}, short: true},
		{name: "gto", sc: core.SystemConfig{Scheduler: "gto"}},
		{name: "2lvl", sc: core.SystemConfig{Scheduler: "2lvl"}, short: true},
		{name: "gcaws+cpl", sc: core.SystemConfig{Scheduler: "gcaws", CPL: true}},
		{name: "cawa", sc: core.CAWA()},
		{name: "gto+cpl+cacp", sc: core.SystemConfig{Scheduler: "gto", CPL: true, CACP: true}},
		{name: "caws+oracle", sc: core.SystemConfig{Scheduler: "caws", Oracle: oracle}},
		{name: "ccws", sc: ccws, attach: attach},
		{name: "cawa/2domains", sc: core.CAWA(), domains: 2, short: true},
	}
}

// TestDesignPointsAllocFree pins the span loop's allocation budget on
// every design point the experiments evaluate: once a long kernel is in
// steady state, a window of 2000 spans — head drain, planning, SM
// stepping with its scheduler, criticality provider and L1D policy, and
// replay — must not allocate once. The window is counted as one run, so
// an allocation that fires on only some spans still fails. Per-block
// work (dispatch, retirement) is outside the budget: the window retires
// no block.
func TestDesignPointsAllocFree(t *testing.T) {
	for _, dp := range designPoints() {
		t.Run(dp.name, func(t *testing.T) {
			if testing.Short() && !dp.short {
				t.Skip("subset under -short")
			}
			mem := memory.New(1 << 21)
			k := reuseKernel(mem, 1<<20)
			g, err := dp.sc.NewGPU(config.Small(), mem)
			if err != nil {
				t.Fatal(err)
			}
			g.SMWorkers = dp.domains
			if dp.attach != nil {
				for i, s := range g.SMs() {
					dp.attach(i, s.L1D())
				}
			}
			step, retired, stop := g.BeginLaunch(k)
			defer stop()
			for g.Cycle() < 20000 {
				step()
			}
			if n := retired(); n > 0 {
				t.Fatalf("kernel retired %d blocks during warmup; steady state not reached", n)
			}

			counters := func() (issued, hits, misses int64) {
				for _, s := range g.SMs() {
					l1 := s.L1D()
					issued += s.Instructions
					hits += int64(l1.LoadAccesses - l1.LoadMisses)
					misses += int64(l1.LoadMisses)
				}
				return
			}
			issued, hits, misses := counters()
			// Collect first: the run's first GC cycle starting inside the window
			// would count its mark workers' goroutines as mallocs.
			runtime.GC()
			mallocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 2000; i++ {
					step()
				}
			})
			if mallocs != 0 {
				t.Errorf("%.0f mallocs in a 2000-span steady-state window, want 0", mallocs)
			}
			// Guard against a vacuous pass: the window must have issued,
			// hit and missed in the L1D, and retired no block.
			i2, h2, m2 := counters()
			if i2 == issued {
				t.Error("no instructions issued during the measured window")
			}
			if h2 == hits {
				t.Error("no L1D hits during the measured window")
			}
			if m2 == misses {
				t.Error("no L1D misses during the measured window")
			}
			if n := retired(); n > 0 {
				t.Fatalf("%d blocks retired during the measured window", n)
			}
		})
	}
}
