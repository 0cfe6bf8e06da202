package sm

import (
	"runtime"
	"testing"

	"cawa/internal/isa"
	"cawa/internal/simt"
)

// streamKernel loops every thread over a strided global-load sweep that
// wraps a 1 MiB window — far larger than the small config's L1D — so
// the steady state keeps exercising the whole hot path: fetch, issue,
// coalescer, MSHR fills, writeback and retire.
func streamKernel(t *testing.T, r *rig, iters int64) *simt.Kernel {
	t.Helper()
	base := r.mem.Alloc(1 << 17) // 2^17 words = 1 MiB of byte addresses
	b := isa.NewBuilder("stream")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 0)
	b.MovI(isa.R9, 0) // accumulator
	b.MovI(isa.R5, 0) // loop counter
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
		Name: "stream", Program: b.MustBuild(),
		GridDim: 8, BlockDim: 64,
		Params: []int64{base},
	}
}

// TestCyclePathAllocFree pins the event-driven engine's allocation
// budget: once a kernel is mid-flight and the memory system's event
// heap and MSHR pools have warmed up, driving the SM and memory system
// forward must not allocate at all. This is what keeps the simulator's
// throughput GC-free at steady state (see BenchmarkSimulatorThroughput).
// The 2000-cycle window is counted as one run (AllocsPerRun divides by
// its run count), so an allocation on even one cycle in it fails.
func TestCyclePathAllocFree(t *testing.T) {
	r := newRig(t, nil)
	k := streamKernel(t, r, 1<<20)
	r.sm.SetKernel(k)
	for b := 0; b < k.GridDim && r.sm.CanAcceptBlock(); b++ {
		r.sm.DispatchBlock(b, b*2, 0)
	}

	var now int64
	for now < 20000 {
		now++
		r.sys.Cycle(now)
		r.sm.Cycle(now)
	}
	if r.done > 0 {
		t.Fatalf("kernel retired %d blocks during warmup; steady state not reached", r.done)
	}

	issued := r.sm.SchedulerIssued(0) + r.sm.SchedulerIssued(1)
	misses := r.sm.L1D().LoadMisses
	// Collect first: the run's first GC cycle starting inside the window
	// would count its mark workers' goroutines as mallocs.
	runtime.GC()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			now++
			r.sys.Cycle(now)
			r.sm.Cycle(now)
		}
	})
	if allocs != 0 {
		t.Errorf("cycle path allocated %.0f objects in a 2000-cycle steady-state window, want 0", allocs)
	}
	// Guard against a vacuous pass: the measured window must have kept
	// issuing instructions and missing in the L1D.
	if d := r.sm.SchedulerIssued(0) + r.sm.SchedulerIssued(1) - issued; d == 0 {
		t.Error("no instructions issued during the measured window")
	}
	if d := r.sm.L1D().LoadMisses - misses; d == 0 {
		t.Error("no L1D misses during the measured window")
	}
	if r.done > 0 {
		t.Fatalf("kernel finished during measurement; steady state was not sustained")
	}
}

// barrierKernel is backprop-shaped: 512-thread blocks whose warps, every
// iteration, load a strided global line, stage it in shared memory,
// meet at a barrier, read a neighbour's word, and meet again. Three
// blocks fill all 48 warp slots; at any cycle a good share of them are
// parked, at a barrier or on load data, and the rest contend for MSHRs.
func barrierKernel(t *testing.T, r *rig, iters int64) *simt.Kernel {
	t.Helper()
	base := r.mem.Alloc(1 << 17)
	b := isa.NewBuilder("barrierheavy")
	b.SReg(isa.R0, isa.SRTid)
	b.SReg(isa.R10, isa.SRGTid)
	b.Param(isa.R1, 0)
	b.MulI(isa.R11, isa.R0, 8) // this thread's shared word
	b.XorI(isa.R12, isa.R11, 8)
	b.MovI(isa.R9, 0)
	b.MovI(isa.R5, 0)
	b.Label("loop")
	b.MulI(isa.R2, isa.R5, 512)
	b.MulI(isa.R6, isa.R10, 8)
	b.Add(isa.R2, isa.R2, isa.R6)
	b.AndI(isa.R2, isa.R2, (1<<20)-8)
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Ld(isa.R7, isa.R2, 0)
	b.StS(isa.R11, 0, isa.R7)
	b.Bar()
	b.LdS(isa.R13, isa.R12, 0)
	b.Add(isa.R9, isa.R9, isa.R13)
	b.Bar()
	b.AddI(isa.R5, isa.R5, 1)
	b.SetLTI(isa.R8, isa.R5, iters)
	b.CBra(isa.R8, "loop")
	b.MulI(isa.R2, isa.R10, 8)
	b.Add(isa.R2, isa.R2, isa.R1)
	b.St(isa.R2, 0, isa.R9)
	b.Exit()
	return &simt.Kernel{
		Name: "barrierheavy", Program: b.MustBuild(),
		GridDim: 3, BlockDim: 512, SharedWords: 512,
		Params: []int64{base},
	}
}

// TestCyclePathAllocFreeFullOccupancy pins the same budget where the
// event-driven readiness state sees the most traffic: every warp slot
// occupied, warps parking at barriers and on load data and being woken
// by releases, fills and writebacks every few cycles. Parking, waking
// and settling the lazily accrued stalls must not allocate.
func TestCyclePathAllocFreeFullOccupancy(t *testing.T) {
	r := newRig(t, nil)
	k := barrierKernel(t, r, 1<<20)
	r.sm.SetKernel(k)
	for b := 0; b < k.GridDim; b++ {
		if !r.sm.CanAcceptBlock() {
			t.Fatalf("block %d does not fit", b)
		}
		r.sm.DispatchBlock(b, b*16, 0)
	}
	if got := r.sm.ResidentWarps(); got != r.cfg.MaxWarpsPerSM {
		t.Fatalf("%d resident warps, want all %d slots", got, r.cfg.MaxWarpsPerSM)
	}

	var now int64
	for now < 20000 {
		now++
		r.sys.Cycle(now)
		r.sm.Cycle(now)
	}
	barrierStalls := func() (n int64) {
		r.sm.settleStalls()
		for i := range r.sm.slots {
			n += r.sm.slots[i].rec.BarrierStall
		}
		return n
	}
	issued := r.sm.SchedulerIssued(0) + r.sm.SchedulerIssued(1)
	misses := r.sm.L1D().LoadMisses
	stalls := barrierStalls()
	parkedSeen := 0
	const window = 2000
	// Collect first: the run's first GC cycle starting inside the window
	// would count its mark workers' goroutines as mallocs.
	runtime.GC()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < window; i++ {
			now++
			r.sys.Cycle(now)
			r.sm.Cycle(now)
			r.sm.settleStalls()
			for i := range r.sm.slots {
				if r.sm.slots[i].parked {
					parkedSeen++
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("cycle path allocated %.0f objects in a %d-cycle window at full occupancy, want 0", allocs, window)
	}
	// Guard against a vacuous pass: the window must have issued, missed,
	// waited at barriers, and kept a good share of the slots parked (the
	// rest are candidates retrying a saturated MSHR table).
	if d := r.sm.SchedulerIssued(0) + r.sm.SchedulerIssued(1) - issued; d == 0 {
		t.Error("no instructions issued during the measured window")
	}
	if d := r.sm.L1D().LoadMisses - misses; d == 0 {
		t.Error("no L1D misses during the measured window")
	}
	if d := barrierStalls() - stalls; d == 0 {
		t.Error("no barrier stalls accrued during the measured window")
	}
	// AllocsPerRun makes one warm-up call on top of the measured run.
	if avg := parkedSeen / (2 * window); avg < r.cfg.MaxWarpsPerSM/4 {
		t.Errorf("on average %d of %d warps parked; the kernel is not barrier-bound", avg, r.cfg.MaxWarpsPerSM)
	}
	if r.done > 0 || r.sm.ResidentWarps() != r.cfg.MaxWarpsPerSM {
		t.Fatal("a block retired during the measurement; full occupancy was not sustained")
	}
}
