package sm

import (
	"testing"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/sched"
	"cawa/internal/simt"
)

type rig struct {
	cfg  config.Config
	mem  *memory.Memory
	sys  *memsys.System
	sm   *SM
	done int
}

func newRig(t *testing.T, factory sched.Factory) *rig {
	t.Helper()
	cfg := config.Small()
	r := &rig{cfg: cfg, mem: memory.New(1 << 22), sys: memsys.New(cfg)}
	r.sm = New(Options{
		ID:            0,
		Config:        cfg,
		Memory:        r.mem,
		MemSys:        r.sys,
		PolicyFactory: factory,
	})
	r.sm.OnBlockDone = func(int, int64) { r.done++ }
	return r
}

// run drives the SM until all dispatched blocks retire.
func (r *rig) run(t *testing.T, blocks int, maxCycles int64) int64 {
	t.Helper()
	var now int64
	for r.done < blocks {
		now++
		r.sys.Cycle(now)
		r.sm.Cycle(now)
		if now > maxCycles {
			t.Fatalf("SM did not finish %d blocks in %d cycles (%d done)", blocks, maxCycles, r.done)
		}
	}
	return now
}

func countKernel(t *testing.T, mem *memory.Memory, n int) *simt.Kernel {
	t.Helper()
	out := mem.Alloc(n)
	b := isa.NewBuilder("count")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 1)
	b.SetGE(isa.R2, isa.R0, isa.R1)
	b.CBra(isa.R2, "exit")
	b.MulI(isa.R3, isa.R0, 8)
	b.Param(isa.R4, 0)
	b.Add(isa.R3, isa.R3, isa.R4)
	b.AddI(isa.R5, isa.R0, 1000)
	b.St(isa.R3, 0, isa.R5)
	b.Label("exit")
	b.Exit()
	return &simt.Kernel{
		Name: "count", Program: b.MustBuild(),
		GridDim: (n + 63) / 64, BlockDim: 64,
		Params: []int64{out, int64(n)},
	}
}

func TestSMRunsKernel(t *testing.T) {
	r := newRig(t, nil)
	k := countKernel(t, r.mem, 256)
	r.sm.SetKernel(k)
	for b := 0; b < k.GridDim; b++ {
		if !r.sm.CanAcceptBlock() {
			t.Fatalf("block %d rejected", b)
		}
		r.sm.DispatchBlock(b, b*2, 0)
	}
	r.run(t, k.GridDim, 1_000_000)
	out := k.Params[0]
	for i := 0; i < 256; i++ {
		if got := r.mem.Load(out + int64(i)*8); got != int64(i+1000) {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
	if len(r.sm.Finished) != k.GridDim*2 {
		t.Fatalf("finished warps %d", len(r.sm.Finished))
	}
	for _, w := range r.sm.Finished {
		if w.FinishCycle <= w.DispatchCycle || w.Instructions == 0 {
			t.Fatalf("bad warp record %+v", w)
		}
	}
}

func TestOccupancyLimits(t *testing.T) {
	r := newRig(t, nil)
	// 16 warps per block: 48 slots allow 3 blocks resident.
	b := isa.NewBuilder("idle")
	b.Bar() // park warps so blocks never retire during the test
	b.Exit()
	k := &simt.Kernel{Name: "idle", Program: b.MustBuild(), GridDim: 10, BlockDim: 512}
	r.sm.SetKernel(k)
	placed := 0
	for r.sm.CanAcceptBlock() {
		r.sm.DispatchBlock(placed, placed*16, 0)
		placed++
	}
	if placed != 3 {
		t.Fatalf("placed %d blocks, want 3 (48 slots / 16 warps)", placed)
	}

	// Shared memory limit: 48KB per SM, blocks of 24KB -> 2 resident.
	r2 := newRig(t, nil)
	k2 := &simt.Kernel{Name: "shm", Program: k.Program, GridDim: 10, BlockDim: 32, SharedWords: 3072}
	r2.sm.SetKernel(k2)
	placed = 0
	for r2.sm.CanAcceptBlock() {
		r2.sm.DispatchBlock(placed, placed, 0)
		placed++
	}
	if placed != 2 {
		t.Fatalf("placed %d blocks, want 2 (shared-memory bound)", placed)
	}

	// Register limit: 32768 regs, 64 regs/thread, 256 threads -> 2 blocks.
	r3 := newRig(t, nil)
	k3 := &simt.Kernel{Name: "regs", Program: k.Program, GridDim: 10, BlockDim: 256, RegsPerThread: 64}
	r3.sm.SetKernel(k3)
	placed = 0
	for r3.sm.CanAcceptBlock() {
		r3.sm.DispatchBlock(placed, placed*8, 0)
		placed++
	}
	if placed != 2 {
		t.Fatalf("placed %d blocks, want 2 (register bound)", placed)
	}

	// Block-count limit: tiny blocks are capped at MaxBlocksPerSM.
	r4 := newRig(t, nil)
	k4 := &simt.Kernel{Name: "tiny", Program: k.Program, GridDim: 100, BlockDim: 32}
	r4.sm.SetKernel(k4)
	placed = 0
	for r4.sm.CanAcceptBlock() {
		r4.sm.DispatchBlock(placed, placed, 0)
		placed++
	}
	if placed != r.cfg.MaxBlocksPerSM {
		t.Fatalf("placed %d blocks, want %d", placed, r.cfg.MaxBlocksPerSM)
	}
}

func TestBlockGranularSlotRelease(t *testing.T) {
	// One warp of the block loops much longer than the other: the
	// fast warp's slot must stay allocated until the block retires.
	r := newRig(t, nil)
	b := isa.NewBuilder("skew")
	b.SReg(isa.R0, isa.SRWarp)
	b.MovI(isa.R1, 10)
	b.CBraZ(isa.R0, "go") // warp 0: short loop
	b.MovI(isa.R1, 3000)  // warp 1: long loop
	b.Label("go")
	b.Label("head")
	b.SubI(isa.R1, isa.R1, 1)
	b.CBra(isa.R1, "head")
	b.Exit()
	k := &simt.Kernel{Name: "skew", Program: b.MustBuild(), GridDim: 1, BlockDim: 64}
	r.sm.SetKernel(k)
	r.sm.DispatchBlock(0, 0, 0)

	var now int64
	fastDone := false
	for r.done == 0 {
		now++
		r.sys.Cycle(now)
		r.sm.Cycle(now)
		if now > 1_000_000 {
			t.Fatal("timeout")
		}
		if len(r.sm.Finished) == 1 && !fastDone {
			fastDone = true
			if r.sm.ResidentWarps() != 2 {
				t.Fatalf("resident warps %d after fast warp finished; slot released early",
					r.sm.ResidentWarps())
			}
			if r.sm.CanAcceptBlock() && k.WarpsPerBlock(32) == 2 {
				// With 48 slots a second block fits anyway; the check
				// above (ResidentWarps) is the meaningful one.
				_ = fastDone
			}
		}
	}
	if r.sm.ResidentWarps() != 0 {
		t.Fatalf("slots leaked: %d resident after retire", r.sm.ResidentWarps())
	}
}

func TestBarrierSynchronizesBlock(t *testing.T) {
	// Warps increment a global counter before the barrier; after the
	// barrier every warp must observe the full count.
	r := newRig(t, nil)
	flagA := r.mem.Alloc(64)
	outA := r.mem.Alloc(64)
	b := isa.NewBuilder("barrier")
	b.SReg(isa.R0, isa.SRWarp)
	b.SReg(isa.R1, isa.SRLane)
	b.CBra(isa.R1, "afterinc") // only lane 0 of each warp increments
	b.Param(isa.R2, 0)
	b.MulI(isa.R3, isa.R0, 8)
	b.Add(isa.R3, isa.R3, isa.R2)
	b.MovI(isa.R4, 1)
	b.St(isa.R3, 0, isa.R4) // flag[warp] = 1
	b.Label("afterinc")
	b.Bar()
	// After the barrier, warp w reads flag[(w+1) % 4]: it must be set.
	b.AddI(isa.R5, isa.R0, 1)
	b.RemI(isa.R5, isa.R5, 4)
	b.Param(isa.R2, 0)
	b.MulI(isa.R5, isa.R5, 8)
	b.Add(isa.R5, isa.R5, isa.R2)
	b.Ld(isa.R6, isa.R5, 0)
	b.Param(isa.R7, 1)
	b.MulI(isa.R8, isa.R0, 8)
	b.Add(isa.R8, isa.R8, isa.R7)
	b.St(isa.R8, 0, isa.R6) // out[warp] = flag[(warp+1)%4]
	b.Exit()
	k := &simt.Kernel{Name: "barrier", Program: b.MustBuild(), GridDim: 1, BlockDim: 128,
		Params: []int64{flagA, outA}}
	r.sm.SetKernel(k)
	r.sm.DispatchBlock(0, 0, 0)
	r.run(t, 1, 1_000_000)
	for w := 0; w < 4; w++ {
		if got := r.mem.Load(outA + int64(w)*8); got != 1 {
			t.Fatalf("warp %d observed flag %d; barrier did not synchronize", w, got)
		}
	}
}

func TestScoreboardBlocksDependentIssue(t *testing.T) {
	// A load followed by a dependent add: the add must not issue until
	// the load's data returns, so total cycles >= DRAM latency.
	r := newRig(t, nil)
	buf := r.mem.Alloc(8)
	r.mem.Store(buf, 123)
	b := isa.NewBuilder("dep")
	b.Param(isa.R1, 0)
	b.Ld(isa.R2, isa.R1, 0)
	b.AddI(isa.R3, isa.R2, 1)
	b.St(isa.R1, 8, isa.R3)
	b.Exit()
	k := &simt.Kernel{Name: "dep", Program: b.MustBuild(), GridDim: 1, BlockDim: 1,
		Params: []int64{buf}}
	r.sm.SetKernel(k)
	r.sm.DispatchBlock(0, 0, 0)
	cycles := r.run(t, 1, 100000)
	if cycles < int64(r.cfg.DRAMLatency) {
		t.Fatalf("finished in %d cycles; dependent add issued before the miss returned", cycles)
	}
	if got := r.mem.Load(buf + 8); got != 124 {
		t.Fatalf("result %d", got)
	}
	// The warp's stall accounting must attribute the wait to memory.
	w := r.sm.Finished[0]
	if w.MemStall < int64(r.cfg.DRAMLatency)/2 {
		t.Fatalf("memory stalls %d too low for a %d-cycle miss", w.MemStall, r.cfg.DRAMLatency)
	}
}

func TestCoalescingOccupiesLSU(t *testing.T) {
	// 32 lanes accessing 32 distinct lines -> 32 transactions; a fully
	// coalesced access -> 1 transaction. Compare cycle counts.
	runOne := func(stride int64) int64 {
		r := newRig(t, nil)
		buf := r.mem.Alloc(32 * 16 * 2)
		b := isa.NewBuilder("coal")
		b.SReg(isa.R0, isa.SRLane)
		b.MulI(isa.R1, isa.R0, stride)
		b.Param(isa.R2, 0)
		b.Add(isa.R1, isa.R1, isa.R2)
		b.MovI(isa.R5, 32) // loop count: repeated accesses hit in L1
		b.Label("head")
		b.Ld(isa.R3, isa.R1, 0)
		b.AddI(isa.R4, isa.R3, 1) // depend on the load
		b.SubI(isa.R5, isa.R5, 1)
		b.CBra(isa.R5, "head")
		b.Exit()
		k := &simt.Kernel{Name: "coal", Program: b.MustBuild(), GridDim: 1, BlockDim: 32,
			Params: []int64{buf}}
		r.sm.SetKernel(k)
		r.sm.DispatchBlock(0, 0, 0)
		var now int64
		for r.done == 0 {
			now++
			r.sys.Cycle(now)
			r.sm.Cycle(now)
		}
		return now
	}
	coalesced := runOne(8)   // 32 lanes x 8B = 2 lines per access
	scattered := runOne(128) // 32 lanes x 128B stride = 32 lines per access
	// Each scattered iteration occupies the LSU for 32 cycles instead
	// of 2; over 32 iterations the gap must be large.
	if scattered < coalesced+300 {
		t.Fatalf("scattered (%d cycles) not clearly slower than coalesced (%d)", scattered, coalesced)
	}
}

func TestPoliciesInstalledPerUnit(t *testing.T) {
	r := newRig(t, func() sched.Policy { return sched.NewGTO() })
	ps := r.sm.Policies()
	if len(ps) != r.cfg.SchedulersPerSM {
		t.Fatalf("%d policies", len(ps))
	}
	if ps[0] == ps[1] {
		t.Fatal("scheduler units share one policy instance")
	}
}

func TestL1PolicyPluggable(t *testing.T) {
	cfg := config.Small()
	mem := memory.New(1 << 20)
	sys := memsys.New(cfg)
	m := New(Options{Config: cfg, Memory: mem, MemSys: sys, L1Policy: cache.SRRIP{}})
	if got := m.L1D().Cache().Policy().Name(); got != "SRRIP" {
		t.Fatalf("policy %s", got)
	}
}

// TestTokenHoldsEverySlot: a load token has room for exactly the slots
// config.Validate admits, and carries each of them, its register and
// its generation back out unchanged.
func TestTokenHoldsEverySlot(t *testing.T) {
	if 1<<tokenSlotBits != config.MaxSlots {
		t.Fatalf("tokens hold %d slots, config admits %d", 1<<tokenSlotBits, config.MaxSlots)
	}
	for _, slot := range []int{0, 1, config.MaxSlots - 1} {
		for _, gen := range []int64{0, 1, 1 << 40} {
			if s, g, r := splitToken(makeToken(slot, gen, isa.NumRegs-1)); s != slot || g != gen || r != isa.NumRegs-1 {
				t.Errorf("token of (%d, %d, %d) splits into (%d, %d, %d)", slot, gen, isa.NumRegs-1, s, g, r)
			}
		}
	}
}

// TestSharedBankConflictCountsDistinctWords: a shared-memory access
// occupies the LSU for as many cycles as the most distinct words one of
// the 32 banks serves. Lanes reading one word share it, in any order: a
// bank whose lanes touch words w1, w2, w1 serves two words, not three.
func TestSharedBankConflictCountsDistinctWords(t *testing.T) {
	const banks = 32
	cases := []struct {
		name  string
		words []int64
		want  int64
	}{
		{"one word", []int64{5, 5, 5, 5}, 1},
		{"a word per bank", []int64{0, 1, 2, 3, 31}, 1},
		{"two words one bank", []int64{1, 1 + banks}, 2},
		{"w1 w2 w1", []int64{1, 1 + banks, 1}, 2},
		{"w1 w2 w1 w2", []int64{1, 1 + banks, 1, 1 + banks}, 2},
		{"three words one bank", []int64{1, 1 + banks, 1 + 2*banks, 1 + banks}, 3},
		{"two banks interleaved", []int64{0, 1, banks, 1 + banks, 0, 1, 2 * banks}, 3},
	}
	r := newRig(t, nil)
	m := r.sm
	for _, c := range cases {
		st := &simt.Step{Kind: simt.StepSMem}
		for lane, w := range c.words {
			st.Accesses = append(st.Accesses, simt.MemAccess{Lane: lane, Addr: 8 * w})
		}
		const now = 100
		m.issueShared(0, &m.slots[0], st, now)
		if got := m.lsuBusyUntil - now; got != c.want {
			t.Errorf("%s: words %v occupy the LSU %d cycles, want %d", c.name, c.words, got, c.want)
		}
	}
}
