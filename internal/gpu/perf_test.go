package gpu

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/obs/perf"
	"cawa/internal/simt"
)

// loopKernel keeps every warp busy in a long strided global-load loop
// (the internal/sm alloc test's shape) so the engine stays mid-kernel
// for the whole measured window.
func loopKernel(t *testing.T, mem *memory.Memory, iters int64) *simt.Kernel {
	t.Helper()
	base := mem.Alloc(1 << 17)
	b := isa.NewBuilder("perfloop")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 0)
	b.MovI(isa.R9, 0)
	b.MovI(isa.R5, 0)
	b.Label("loop")
	b.MulI(isa.R2, isa.R5, 512)
	b.AndI(isa.R2, isa.R2, (1<<20)-1)
	b.MulI(isa.R6, isa.R0, 8)
	b.Add(isa.R2, isa.R2, isa.R6)
	b.AndI(isa.R2, isa.R2, (1<<20)-8)
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Ld(isa.R7, isa.R2, 0)
	b.Add(isa.R9, isa.R9, isa.R7)
	b.AddI(isa.R5, isa.R5, 1)
	b.SetLTI(isa.R8, isa.R5, iters)
	b.CBra(isa.R8, "loop")
	b.MulI(isa.R2, isa.R0, 8)
	b.Add(isa.R2, isa.R2, isa.R1)
	b.St(isa.R2, 0, isa.R9)
	b.Exit()
	return &simt.Kernel{
		Name: "perfloop", Program: b.MustBuild(),
		GridDim: 8, BlockDim: 64,
		Params: []int64{base},
	}
}

// TestProfilerOffZeroCost pins the profiling-off overhead at zero: with
// g.Perf nil the span loop on its one inline domain — head drain,
// dispatch, horizon planning, span-fill delivery, SM stepping with
// staging, replay — must not allocate. This test drives the same
// runSpan sequence Launch runs (Launch itself cannot be stepped from
// outside) after warming the kernel to steady state, first over the
// planner's natural multi-cycle spans and then over one-cycle spans.
// Each 2000-span window is counted as one run, so an allocation on even
// one span in it fails.
func TestProfilerOffZeroCost(t *testing.T) {
	mem := memory.New(1 << 21)
	k := loopKernel(t, mem, 1<<20)
	g, err := New(Options{Config: config.Small(), Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	ls := g.initLaunch(k, k.WarpsPerBlock(g.cfg.WarpSize))
	g.startDomains()
	defer g.stopDomains()

	for g.cycle < 20000 {
		g.runSpan(ls)
	}
	if ls.retired() > 0 {
		t.Fatalf("kernel retired %d blocks during warmup; steady state not reached", ls.retired())
	}

	issued := func() (n int64) {
		for _, s := range g.sms {
			n += s.Instructions
		}
		return n
	}
	for _, mode := range []string{"multi-cycle spans", "one-cycle spans"} {
		if mode == "one-cycle spans" {
			g.PerCycle = func(*GPU, int64) {}
		}
		before, start := issued(), g.cycle
		const spans = 2000
		allocs := simAllocs(func() {
			for i := 0; i < spans; i++ {
				g.runSpan(ls)
			}
		})
		if allocs != 0 {
			t.Errorf("%s with profiling off allocated %d objects in a %d-span window, want 0", mode, allocs, spans)
		}
		if issued() == before {
			t.Errorf("%s: no instructions issued during the measured window (vacuous)", mode)
		}
		// simAllocs makes one warm-up call on top of the measured run.
		if multi := g.cycle-start > 2*spans; multi != (g.PerCycle == nil) {
			t.Errorf("%s: %d spans covered %d cycles", mode, 2*spans, g.cycle-start)
		}
	}
	if ls.retired() > 0 {
		t.Fatal("kernel finished during measurement; steady state was not sustained")
	}
}

// countingClock is a deterministic goroutine-safe Clock: every read
// advances a shared counter, so all profiled durations are positive.
func countingClock() perf.Clock {
	var ns atomic.Int64
	return func() int64 { return ns.Add(3) }
}

// TestProfilerOnByteIdentical proves profiling is observational: the
// same kernel, with and without a profiler attached, on one domain and
// on two, produces identical launch statistics and memory images — and
// the profiled two-domain run's report carries the per-goroutine
// compute/wait breakdown the tuning workflow needs, while the
// one-domain run reports no barrier at all.
func TestProfilerOnByteIdentical(t *testing.T) {
	run := func(workers int, prof *perf.Profiler) ([]int64, interface{}) {
		mem := memory.New(1 << 20)
		const n = 1000
		k, _, _, c := vecAddKernel(t, mem, n)
		g, err := New(Options{Config: config.Small(), Memory: mem})
		if err != nil {
			t.Fatal(err)
		}
		g.SMWorkers = workers
		g.Perf = prof
		out, err := g.Launch(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]int64, n)
		for i := range img {
			img[i] = mem.Load(c + int64(i)*8)
		}
		return img, *out
	}

	for _, workers := range []int{1, 2} {
		baseImg, baseStats := run(workers, nil)
		prof := perf.New(countingClock())
		profImg, profStats := run(workers, prof)
		if !reflect.DeepEqual(baseImg, profImg) {
			t.Fatalf("workers=%d: memory image differs with profiling on", workers)
		}
		if !reflect.DeepEqual(baseStats, profStats) {
			t.Fatalf("workers=%d: launch stats differ with profiling on:\n%+v\nvs\n%+v",
				workers, baseStats, profStats)
		}

		r := prof.Report()
		if r.PhaseTotalNS("domain_compute") <= 0 {
			t.Errorf("workers=%d: no domain_compute time recorded", workers)
		}
		if r.PhaseTotalNS("memsys_drain") <= 0 {
			t.Errorf("workers=%d: no memsys_drain time recorded", workers)
		}
		if workers > 1 {
			if r.Epochs <= 0 {
				t.Errorf("parallel run recorded no epochs")
			}
			if len(r.Shards) != workers {
				t.Fatalf("report has %d shards, want %d", len(r.Shards), workers)
			}
			// A shard is one goroutine of the launch, which claims
			// however many SMs it reaches first: one may run none. Every
			// shard's compute and wait still add up to the spans' wall.
			var compute int64
			for _, s := range r.Shards {
				compute += s.ComputeNS
				if s.ComputeNS+s.WaitNS != r.Shards[0].ComputeNS+r.Shards[0].WaitNS {
					t.Errorf("shard %d: compute+wait %d, shard 0 %d", s.Shard,
						s.ComputeNS+s.WaitNS, r.Shards[0].ComputeNS+r.Shards[0].WaitNS)
				}
			}
			if compute <= 0 {
				t.Errorf("shards recorded no compute time")
			}
			if r.Imbalance == nil {
				t.Fatal("parallel report missing imbalance summary")
			}
			if r.Imbalance.BarrierWaitFrac < 0 || r.Imbalance.BarrierWaitFrac >= 1 {
				t.Errorf("BarrierWaitFrac = %v out of range", r.Imbalance.BarrierWaitFrac)
			}
		} else if len(r.Shards) != 0 || r.Epochs != 0 {
			t.Errorf("one inline domain reported %d shards and %d barriers", len(r.Shards), r.Epochs)
		}
	}
}
