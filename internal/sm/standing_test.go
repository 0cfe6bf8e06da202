package sm

import (
	"slices"
	"testing"

	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/simt"
)

// Directed tests of standing verdicts (issueFrom): each pins one way a
// unit's last readiness pass stops standing. The readiness oracle runs
// after every tick, so a list that stood when it should not have fails
// there too.

// checkedRigWith is newCheckedRig on a tweaked SmallConfig.
func checkedRigWith(t *testing.T, tweak func(*config.Config)) *checkedRig {
	t.Helper()
	cfg := config.Small()
	tweak(&cfg)
	r := &rig{cfg: cfg, mem: memory.New(1 << 22), sys: memsys.New(cfg)}
	r.sm = New(Options{ID: 0, Config: cfg, Memory: r.mem, MemSys: r.sys})
	r.sm.OnBlockDone = func(int, int64) { r.done++ }
	return &checkedRig{rig: r, t: t, chk: NewReadinessChecker(r.sm)}
}

// fourLineLoad emits a load whose lanes touch four lines in a region of
// their own per (block, warp): lane&3 picks the line.
func fourLineLoad(b *isa.Builder, region isa.Reg) {
	b.SReg(isa.R2, isa.SRLane)
	b.AndI(isa.R2, isa.R2, 3)
	b.MulI(isa.R2, isa.R2, 128)
	b.MulI(isa.R3, region, 4096)
	b.Add(isa.R2, isa.R2, isa.R3)
	b.Param(isa.R3, 0)
	b.Add(isa.R2, isa.R2, isa.R3)
	b.Ld(isa.R4, isa.R2, 0)
	b.AddI(isa.R4, isa.R4, 1)
}

// TestStandingIMissForcesReevaluation: an I-miss taken in unit 0's pass
// blocks every fetch until the line arrives, so unit 1's list — which
// would otherwise stand, its ready warp refused by a full MSHR table —
// must be rebuilt in the same tick. Four warps: the odd ones (unit 1)
// load four lines each into four MSHRs, so warp 3 stays refused; the
// even ones (unit 0) run straight-line code across several L1I lines.
func TestStandingIMissForcesReevaluation(t *testing.T) {
	c := checkedRigWith(t, func(cfg *config.Config) { cfg.L1D.MSHRs = 4 })
	buf := c.mem.Alloc(4 * 512)
	b := isa.NewBuilder("imiss")
	b.SReg(isa.R0, isa.SRWarp)
	b.AndI(isa.R1, isa.R0, 1)
	b.CBraZ(isa.R1, "even")
	fourLineLoad(b, isa.R0)
	b.Exit()
	b.Label("even")
	for k := 0; k < 80; k++ {
		b.MovI(isa.Reg(8+k%40), int64(k))
	}
	b.Exit()
	k := &simt.Kernel{Name: "imiss", Program: b.MustBuild(), GridDim: 1, BlockDim: 128, Params: []int64{buf}}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	u1 := &c.sm.units[1]

	witnessed := 0
	for c.done == 0 {
		misses, standing := c.sm.l1i.Misses, len(u1.stand) > 0 && u1.seen == c.sm.events
		c.tick()
		if c.sm.l1i.Misses == misses {
			continue
		}
		if u1.stood {
			t.Fatalf("cycle %d: unit 1 re-offered %v in the tick an I-miss blocked the fetch path", c.now, u1.stand)
		}
		if standing && !c.sm.units[0].stood {
			witnessed++
		}
		if c.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if witnessed == 0 {
		t.Fatal("unit 0 never took an I-miss while unit 1 held a standing ready list: the test witnesses nothing")
	}
}

// TestStandingLSUExpiry: a warp gated on the load-store unit joins its
// unit's ready list at exactly the cycle lsuBusyUntil expires, although
// nothing counted as an event since the list was built. Warp 0 issues a
// 32-line load (the LSU is busy for 32 cycles) and parks on its data;
// warp 1 reaches a shared store behind it and waits on the LSU alone.
func TestStandingLSUExpiry(t *testing.T) {
	c := newCheckedRig(t)
	buf := c.mem.Alloc(32 * 16)
	b := isa.NewBuilder("lsu")
	b.SReg(isa.R0, isa.SRWarp)
	b.SReg(isa.R1, isa.SRLane)
	b.MulI(isa.R2, isa.R1, 128)
	b.Param(isa.R3, 0)
	b.Add(isa.R2, isa.R2, isa.R3)
	b.CBra(isa.R0, "late")
	b.Ld(isa.R4, isa.R2, 0)
	b.AddI(isa.R4, isa.R4, 1)
	b.Exit()
	b.Label("late")
	b.MulI(isa.R6, isa.R1, 8)
	b.StS(isa.R6, 0, isa.R1)
	b.Exit()
	k := &simt.Kernel{Name: "lsu", Program: b.MustBuild(), GridDim: 1, BlockDim: 64, SharedWords: 32, Params: []int64{buf}}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	ld, sts := opPC(t, k.Program, isa.OpLd), opPC(t, k.Program, isa.OpStS)

	var expiry, stored int64
	stoodBefore := false
	for c.done == 0 {
		pc0, pc1 := c.sm.slots[0].pc, c.sm.slots[1].pc
		c.tick()
		if pc0 == ld && c.sm.slots[0].issuedCycle == c.now {
			expiry = c.sm.lsuBusyUntil
		}
		if c.now == expiry-1 {
			stoodBefore = c.sm.units[1].stood
		}
		if pc1 == sts && c.sm.slots[1].issuedCycle == c.now {
			stored = c.now
		}
		if c.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if expiry == 0 || !stoodBefore {
		t.Fatalf("LSU busy until %d, unit 1 standing the cycle before: %v — the test witnesses nothing", expiry, stoodBefore)
	}
	if stored != expiry {
		t.Errorf("the gated shared store issued at %d, the LSU freed at %d", stored, expiry)
	}
}

// TestStandingBarrierRelease: a barrier released by unit 0's issue
// reaches unit 1's standing list in the same tick. Block 0's warp 1
// (unit 1) waits at the barrier while its warp 0 spins; block 1's warps
// load four lines each into five MSHRs, so its warp 1 (unit 1) stays
// refused and unit 1's list stands at that one warp between events. The
// release must add block 0's warp 1 to it in the release tick.
func TestStandingBarrierRelease(t *testing.T) {
	c := checkedRigWith(t, func(cfg *config.Config) { cfg.L1D.MSHRs = 5 })
	buf := c.mem.Alloc(4 * 512)
	b := isa.NewBuilder("release")
	b.SReg(isa.R0, isa.SRCtaid)
	b.SReg(isa.R1, isa.SRWarp)
	b.CBra(isa.R0, "loads")
	b.CBra(isa.R1, "bar") // block 0's warp 1 goes straight to the barrier
	b.MovI(isa.R5, 12)
	b.Label("spin")
	b.SubI(isa.R5, isa.R5, 1)
	b.CBra(isa.R5, "spin")
	b.Label("bar")
	b.Bar()
	b.Exit()
	b.Label("loads")
	b.CBraZ(isa.R1, "go")
	b.MovI(isa.R6, 1) // block 1's warp 1 reaches its load last
	b.AddI(isa.R6, isa.R6, 1)
	b.Label("go")
	b.AddI(isa.R7, isa.R1, 2) // regions 2 and 3
	fourLineLoad(b, isa.R7)
	b.Exit()
	k := &simt.Kernel{Name: "release", Program: b.MustBuild(), GridDim: 2, BlockDim: 64, Params: []int64{buf}}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	c.sm.DispatchBlock(1, 2, 0)
	bar := opPC(t, k.Program, isa.OpBar)
	u1 := &c.sm.units[1]

	released := false
	for c.done < 2 && !released {
		pc0, before := c.sm.slots[0].pc, slices.Clone(u1.stand)
		c.tick()
		if pc0 != bar || c.sm.slots[0].issuedCycle != c.now {
			continue
		}
		released = true
		s1 := &c.sm.slots[1]
		if !slices.Equal(before, []int{3}) {
			t.Fatalf("before the release unit 1's list was %v, want only the refused warp [3]", before)
		}
		if u1.stood || !slices.Contains(u1.stand, 1) || (s1.readyCycle != c.now && s1.issuedCycle != c.now) {
			t.Errorf("release at %d: unit 1 stood=%v with list %v; the released warp readyCycle %d issuedCycle %d",
				c.now, u1.stood, u1.stand, s1.readyCycle, s1.issuedCycle)
		}
		if c.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if !released {
		t.Fatal("block 0's warp 0 never issued the releasing barrier")
	}
	c.runToEnd(2)
}
