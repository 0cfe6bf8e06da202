package gpu_test

import (
	"context"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/sched"
	"cawa/internal/simt"
	"cawa/internal/sm"
)

// reuseKernel loops every thread of blocks 128-thread blocks over a
// strided global-load sweep that wraps a 1 MiB window (L1D misses) and
// re-reads one word of its own on every iteration (L1D hits), so a
// steady-state window drives both the fill path and the hit path of
// every L1D policy.
func reuseKernel(mem *memory.Memory, blocks int, iters int64) *simt.Kernel {
	threads := blocks * 128
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
		GridDim: blocks, BlockDim: 128,
		Params: []int64{stream, own},
	}
}

// designPoint is one row of the allocation gate: a scheduler/provider/
// L1D-policy combination and its domain count.
type designPoint struct {
	name    string
	sc      core.SystemConfig
	domains int
	short   bool // also run under -short (the race matrix)
}

func designPoints() []designPoint {
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
		{name: "cawa/2domains", sc: core.CAWA(), domains: 2, short: true},
	}
}

// TestDesignPointsAllocFree pins the span loop's allocation budget on
// every design point the experiments evaluate: once a long kernel is in
// steady state, a window of 2000 spans — head drain, planning, SM
// stepping with its scheduler, criticality provider and L1D policy,
// sleeping through refused ticks and settling them (every policy but a
// restless one), and replay — must
// not allocate once. The window is counted as one run, so
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
			k := reuseKernel(mem, 8, 1<<20)
			// Two MSHRs: the strided loads keep most warps refused, so
			// the window also sleeps through refused ticks and settles.
			cfg := config.Small()
			cfg.L1D.MSHRs = 2
			g, err := dp.sc.NewGPU(cfg, mem)
			if err != nil {
				t.Fatal(err)
			}
			g.SMWorkers = dp.domains
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
			settled := gpu.SettledTicks(g)
			mallocs := gpu.SimAllocs(func() {
				for i := 0; i < 2000; i++ {
					step()
				}
			})
			if mallocs != 0 {
				t.Errorf("%d mallocs in a 2000-span steady-state window, want 0", mallocs)
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
			// A restless policy (2lvl) ticks its refused ticks instead.
			factory, _ := sched.Lookup(dp.sc.Scheduler)
			_, restless := factory().(interface{ Restless() })
			if slept := gpu.SettledTicks(g) != settled; slept == restless {
				t.Errorf("SMs settled refused ticks during the measured window: %v, policy restless: %v", slept, restless)
			}
			if n := retired(); n > 0 {
				t.Fatalf("%d blocks retired during the measured window", n)
			}
		})
	}
}

// TestProvidersAllocNothingPerWarp pins what a warm launch costs the
// criticality providers and CACP: a second launch of 32 four-warp
// blocks on SmallConfig, whose two SMs dispatch and retire 128 warps,
// allocates nothing in internal/core. A CPL or an oracle that
// allocated per warp, or grew peer storage per block, would count once
// per dispatch. The whole launch's count is logged beside lrr's: it
// also holds the launch's own program analysis and memory-system
// buffers, which move by a few objects with the schedule.
func TestProvidersAllocNothingPerWarp(t *testing.T) {
	oracle := map[int]float64{}
	for gid := 0; gid < 32*4; gid++ {
		oracle[gid] = float64(gid % 7)
	}
	warmLaunch := func(sc core.SystemConfig, under string) (int64, sm.CriticalityProvider) {
		mem := memory.New(1 << 21)
		k := reuseKernel(mem, 32, 8)
		g, err := sc.NewGPU(config.Small(), mem)
		if err != nil {
			t.Fatal(err)
		}
		launch := func() {
			if _, err := g.Launch(context.Background(), k); err != nil {
				t.Fatal(err)
			}
		}
		// SimAllocsUnder measures the second of its two calls.
		return gpu.SimAllocsUnder(under, launch), g.SMs()[0].Crit()
	}
	lrr, _ := warmLaunch(core.SystemConfig{Scheduler: "lrr"}, "cawa/internal/")
	for _, c := range []struct {
		name string
		sc   core.SystemConfig
	}{
		{"gcaws+cpl", core.SystemConfig{Scheduler: "gcaws", CPL: true}},
		{"caws+oracle", core.SystemConfig{Scheduler: "caws", Oracle: oracle}},
		{"cawa", core.CAWA()},
	} {
		n, crit := warmLaunch(c.sc, "cawa/internal/core.")
		if n != 0 {
			t.Errorf("%s: a warm launch allocated %d objects in internal/core, want 0", c.name, n)
		}
		// Guard against a vacuous pass: the launch ranked its warps.
		if _, ok := crit.(interface{ Rank(int) (int, int) }); !ok {
			t.Errorf("%s: provider %T ranks no warps", c.name, crit)
		}
		all, _ := warmLaunch(c.sc, "cawa/internal/")
		t.Logf("%s: %d objects per warm launch (lrr %d)", c.name, all, lrr)
	}
}
