package sm

import (
	"testing"

	"cawa/internal/isa"
	"cawa/internal/simt"
	"cawa/internal/stats"
)

// checkedRig ticks a one-SM rig with the readiness oracle run after
// every cycle.
type checkedRig struct {
	*rig
	t   *testing.T
	chk *ReadinessChecker
	now int64
}

func newCheckedRig(t *testing.T) *checkedRig {
	t.Helper()
	r := newRig(t, nil)
	return &checkedRig{rig: r, t: t, chk: NewReadinessChecker(r.sm)}
}

// tick runs one cycle and returns the SM's wake bound.
func (c *checkedRig) tick() int64 {
	c.t.Helper()
	c.now++
	c.sys.Cycle(c.now)
	wake := c.sm.Cycle(c.now)
	if err := c.chk.AfterTick(c.now); err != nil {
		c.t.Fatal(err)
	}
	return wake
}

// runToEnd ticks until blocks blocks have retired.
func (c *checkedRig) runToEnd(blocks int) {
	c.t.Helper()
	for c.done < blocks {
		c.tick()
		if c.now > 1_000_000 {
			c.t.Fatal("timeout")
		}
	}
}

// issueTicks ticks until blocks blocks have retired and returns, per
// slot, the cycle at which the slot's warp issued from each pc (the
// last such cycle, for a pc issued from more than once).
func (c *checkedRig) issueTicks(blocks int) []map[int32]int64 {
	c.t.Helper()
	at := make([]map[int32]int64, len(c.sm.slots))
	for i := range at {
		at[i] = map[int32]int64{}
	}
	pcs := make([]int32, len(c.sm.slots))
	for c.done < blocks {
		for i := range c.sm.slots {
			pcs[i] = c.sm.slots[i].pc
		}
		c.tick()
		for i := range c.sm.slots {
			if s := &c.sm.slots[i]; s.issuedCycle == c.now {
				at[i][pcs[i]] = c.now
			}
		}
		if c.now > 1_000_000 {
			c.t.Fatal("timeout")
		}
	}
	return at
}

func opPC(t *testing.T, p *isa.Program, op isa.Op) int32 {
	t.Helper()
	for pc := 0; pc < p.Len(); pc++ {
		if p.At(int32(pc)).Op == op {
			return int32(pc)
		}
	}
	t.Fatalf("program has no %v", op)
	return -1
}

func finishedByGID(t *testing.T, m *SM, gid int) stats.WarpRecord {
	t.Helper()
	for _, r := range m.Finished {
		if r.GID == gid {
			return r
		}
	}
	t.Fatalf("warp %d never finished", gid)
	return stats.WarpRecord{}
}

// TestBarrierWakeAcrossUnits is the mid-tick ordering rule. A two-warp
// block puts warp 0 in slot 0 (scheduler unit 0) and warp 1 in slot 1
// (unit 1); one warp spins before the barrier, so the other is parked
// at it when the late one arrives. Unit 0 issues before unit 1 within a
// tick: a release by unit 0 reaches unit 1's warp before unit 1's turn,
// so it issues in the release cycle itself; a release by unit 1 reaches
// unit 0's warp after unit 0's turn, so the warp is charged the release
// cycle as a barrier stall and issues the cycle after.
func TestBarrierWakeAcrossUnits(t *testing.T) {
	for late := 0; late < 2; late++ {
		c := newCheckedRig(t)
		b := isa.NewBuilder("xbar")
		b.SReg(isa.R0, isa.SRWarp)
		b.SetEQI(isa.R1, isa.R0, int64(late))
		b.CBraZ(isa.R1, "bar") // the early warp goes straight to the barrier
		b.MovI(isa.R2, 40)
		b.Label("spin")
		b.SubI(isa.R2, isa.R2, 1)
		b.CBra(isa.R2, "spin")
		b.Label("bar")
		b.Bar()
		b.AddI(isa.R3, isa.R0, 1)
		b.Exit()
		k := &simt.Kernel{Name: "xbar", Program: b.MustBuild(), GridDim: 1, BlockDim: 64}
		c.sm.SetKernel(k)
		c.sm.DispatchBlock(0, 0, 0)
		if len(c.sm.units) != 2 {
			t.Fatalf("test assumes 2 scheduler units, config has %d", len(c.sm.units))
		}
		bar := opPC(t, k.Program, isa.OpBar)
		at := c.issueTicks(1)

		early := 1 - late
		release := at[late][bar]       // the late warp's barrier issue opens the barrier
		parkedAt := at[early][bar] + 1 // the early warp's first evaluation at the barrier
		resume := at[early][bar+1]     // its first issue past the barrier
		wantResume := release          // released by unit 0, evaluated by unit 1 the same cycle
		if late == 1 {
			wantResume = release + 1 // released by unit 1, after unit 0's turn
		}
		if resume != wantResume {
			t.Errorf("late warp %d released the barrier at cycle %d: warp %d resumed at %d, want %d",
				late, release, early, resume, wantResume)
		}
		if got, want := finishedByGID(t, c.sm, early).BarrierStall, wantResume-parkedAt; got != want {
			t.Errorf("late warp %d: waiting warp %d has BarrierStall %d, want %d (parked %d, resumed %d)",
				late, early, got, want, parkedAt, wantResume)
		}
		// The releasing warp never parks: it is a candidate when it opens
		// the barrier, and is evaluated the next cycle like any issuer.
		if got := at[late][bar+1]; got != release+1 {
			t.Errorf("late warp %d resumed at %d, want %d", late, got, release+1)
		}
		if got := finishedByGID(t, c.sm, late).BarrierStall; got != 0 {
			t.Errorf("late warp %d has BarrierStall %d, want 0", late, got)
		}
	}
}

// TestFillWakesAtDeliveryCycle: a warp parked on load data is back in
// the candidate set when its fill is delivered (before the SM's tick of
// that cycle), issues the dependent instruction in that very cycle, and
// is charged memory stall for exactly the cycles it was parked.
func TestFillWakesAtDeliveryCycle(t *testing.T) {
	c := newCheckedRig(t)
	buf := c.mem.Alloc(8)
	c.mem.Store(buf, 123)
	b := isa.NewBuilder("dep")
	b.Param(isa.R1, 0)
	b.Ld(isa.R2, isa.R1, 0)
	b.AddI(isa.R3, isa.R2, 1)
	b.St(isa.R1, 8, isa.R3)
	b.Exit()
	k := &simt.Kernel{Name: "dep", Program: b.MustBuild(), GridDim: 1, BlockDim: 1, Params: []int64{buf}}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	s := &c.sm.slots[0]

	for !s.parked || s.reason != reasonMemData {
		c.tick()
		if c.now > 10000 {
			t.Fatal("warp never parked on load data")
		}
	}
	parkedAt := c.now
	memBefore := s.rec.MemStall
	// Drive the memory system by hand so the wake can be observed between
	// the fill delivery and the SM's tick.
	for {
		c.now++
		c.sys.Cycle(c.now)
		if !s.parked {
			break
		}
		c.sm.Cycle(c.now)
		if err := c.chk.AfterTick(c.now); err != nil {
			t.Fatal(err)
		}
		if c.now > 10000 {
			t.Fatal("fill never woke the warp")
		}
	}
	if !c.sm.cand.has(0) || s.since != parkedAt || s.busyMem != 0 {
		t.Fatalf("after the fill: candidate=%v since=%d (parked at %d) busyMem=%#x",
			c.sm.cand.has(0), s.since, parkedAt, s.busyMem)
	}
	c.sm.Cycle(c.now)
	if err := c.chk.AfterTick(c.now); err != nil {
		t.Fatal(err)
	}
	if s.issuedCycle != c.now {
		t.Errorf("dependent add issued at %d, fill was delivered at %d", s.issuedCycle, c.now)
	}
	if got, want := s.rec.MemStall-memBefore, c.now-parkedAt; got != want {
		t.Errorf("MemStall grew by %d across the park, want %d", got, want)
	}
	c.runToEnd(1)
	if got := c.mem.Load(buf + 8); got != 124 {
		t.Fatalf("result %d, want 124", got)
	}
}

// TestWritebackWakesAtWBNext: a warp parked on a compute result makes
// the SM report the writeback time as its wake bound; skipping the dead
// cycles in bulk and ticking at the bound issues the dependent
// instruction there, with every skipped cycle charged as an ALU stall.
func TestWritebackWakesAtWBNext(t *testing.T) {
	c := newCheckedRig(t)
	b := isa.NewBuilder("alu")
	b.MovI(isa.R1, 5)
	b.AddI(isa.R2, isa.R1, 1)
	b.Exit()
	k := &simt.Kernel{Name: "alu", Program: b.MustBuild(), GridDim: 1, BlockDim: 32}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	s := &c.sm.slots[0]

	var wake int64
	for !s.parked {
		wake = c.tick()
		if c.now > 1000 {
			t.Fatal("warp never parked on the compute result")
		}
	}
	movAt := s.issuedCycle
	due := movAt + int64(c.cfg.ALULatency)
	if s.reason != reasonALU || c.now != movAt+1 {
		t.Fatalf("parked for reason %d at cycle %d, want ALU at %d", s.reason, c.now, movAt+1)
	}
	if wake != due || c.sm.wbNext != due {
		t.Fatalf("wake bound %d, wbNext %d, want the writeback time %d", wake, c.sm.wbNext, due)
	}
	// What the engine does with that bound: credit the dead cycles in
	// bulk, tick at the bound.
	skipped := wake - c.now - 1
	c.sm.AccountSkipped(skipped)
	c.chk.Skipped(skipped)
	c.now = wake - 1
	if err := c.chk.Invariants(); err != nil {
		t.Fatal(err)
	}
	if !s.parked {
		t.Fatal("skipping dead cycles woke the warp")
	}
	c.tick()
	if s.issuedCycle != due {
		t.Errorf("dependent add issued at %d, want the writeback cycle %d", s.issuedCycle, due)
	}
	c.runToEnd(1)
	if got, want := c.sm.Finished[0].ALUStall, int64(c.cfg.ALULatency)-1; got < want {
		t.Errorf("ALUStall %d, want at least the %d cycles parked on the first result", got, want)
	}
}

// TestMemDataReparksAsALU: the next instruction reads a register
// awaiting load data and one awaiting a slow compute result. The warp
// parks for the load; the fill wakes it, the evaluation finds the
// compute result still outstanding and parks it again for that; the
// writeback wakes it for good. The spin length that lands the fill
// inside the compute latency is found by search — the oracle runs on
// every cycle of every attempt.
func TestMemDataReparksAsALU(t *testing.T) {
	seen := false
	for spin := int64(1); spin <= 64 && !seen; spin++ {
		c := newCheckedRig(t)
		buf := c.mem.Alloc(8)
		c.mem.Store(buf, 40)
		b := isa.NewBuilder("repark")
		b.Param(isa.R1, 0)
		b.Ld(isa.R2, isa.R1, 0) // a miss: the fill is hundreds of cycles out
		b.MovI(isa.R5, spin)
		b.Label("spin")
		b.SubI(isa.R5, isa.R5, 1)
		b.CBra(isa.R5, "spin")
		b.MovI(isa.R6, 84)
		b.DivI(isa.R3, isa.R6, 2) // SFU latency
		b.Add(isa.R4, isa.R2, isa.R3)
		b.St(isa.R1, 8, isa.R4)
		b.Exit()
		k := &simt.Kernel{Name: "repark", Program: b.MustBuild(), GridDim: 1, BlockDim: 1, Params: []int64{buf}}
		c.sm.SetKernel(k)
		c.sm.DispatchBlock(0, 0, 0)
		s := &c.sm.slots[0]
		add := opPC(t, k.Program, isa.OpAdd)

		var memParkedAt, aluParkedAt int64
		for c.done == 0 {
			c.tick()
			if s.valid && s.pc == add && s.parked {
				switch {
				case s.reason == reasonMemData && memParkedAt == 0:
					memParkedAt = c.now
				case s.reason == reasonALU && memParkedAt != 0 && aluParkedAt == 0:
					aluParkedAt = c.now
					if s.since != c.now {
						t.Fatalf("re-parked at %d but accrues from %d", c.now, s.since)
					}
				}
			}
			if c.now > 100000 {
				t.Fatal("timeout")
			}
		}
		if got := c.mem.Load(buf + 8); got != 82 {
			t.Fatalf("spin %d: result %d, want 82", spin, got)
		}
		if aluParkedAt == 0 {
			continue
		}
		seen = true
		rec := c.sm.Finished[0]
		if rec.MemStall < aluParkedAt-memParkedAt {
			t.Errorf("MemStall %d, want at least the %d cycles parked on the load", rec.MemStall, aluParkedAt-memParkedAt)
		}
		if rec.ALUStall == 0 {
			t.Error("no ALU stall recorded for the second park")
		}
	}
	if !seen {
		t.Fatal("no spin length parked the warp on load data and then on the compute result")
	}
}

// TestStaleFillDoesNotWake: block 0's warp exits with its load in
// flight; block 1's warp takes over the slot, issues its own load to
// the same register and parks on it. Block 0's fill arrives first,
// carrying the old occupancy generation: it must neither clear the new
// occupant's scoreboard bit nor wake it.
func TestStaleFillDoesNotWake(t *testing.T) {
	c := newCheckedRig(t)
	buf := c.mem.Alloc(2 * 512)
	c.mem.Store(buf, 7)
	c.mem.Store(buf+4096, 9)
	b := isa.NewBuilder("stale")
	b.SReg(isa.R0, isa.SRCtaid)
	b.MulI(isa.R1, isa.R0, 4096)
	b.Param(isa.R4, 0)
	b.Add(isa.R1, isa.R1, isa.R4)
	b.Ld(isa.R2, isa.R1, 0)
	b.CBraZ(isa.R0, "exit") // block 0 leaves with the load in flight
	b.AddI(isa.R3, isa.R2, 1)
	b.St(isa.R1, 8, isa.R3)
	b.Label("exit")
	b.Exit()
	k := &simt.Kernel{Name: "stale", Program: b.MustBuild(), GridDim: 2, BlockDim: 1, Params: []int64{buf}}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	s := &c.sm.slots[0]
	c.runToEnd(1)
	oldGen := s.gen
	c.sm.DispatchBlock(1, 1, c.now)
	if !s.valid || s.gen == oldGen {
		t.Fatal("block 1 did not take over slot 0 under a new generation")
	}

	staleSeen := false
	for c.done < 2 {
		fills := c.sys.FillsDelivered
		wasParked := s.valid && s.parked && s.reason == reasonMemData
		c.tick()
		if c.sys.FillsDelivered != fills && wasParked && s.parked {
			// A fill was delivered to this SM and the parked warp slept
			// through it: that was block 0's.
			staleSeen = true
			if s.busyMem&(1<<isa.R2) == 0 || s.loadRem[isa.R2] == 0 {
				t.Fatal("the stale fill cleared the new occupant's scoreboard")
			}
		}
		if c.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if !staleSeen {
		t.Fatal("block 0's fill never arrived while block 1's warp was parked")
	}
	if got := c.mem.Load(buf + 4096 + 8); got != 10 {
		t.Fatalf("block 1 stored %d, want 10: it ran ahead of its own load", got)
	}
}

// TestCapacityCountersTrackSlots pins the O(1) capacity checks against
// dispatch and block retirement.
func TestCapacityCountersTrackSlots(t *testing.T) {
	c := newCheckedRig(t)
	k := countKernel(t, c.mem, 64*6)
	c.sm.SetKernel(k)
	if got := c.sm.ResidentWarps(); got != 0 {
		t.Fatalf("fresh SM has %d resident warps", got)
	}
	placed := 0
	for placed < k.GridDim && c.sm.CanAcceptBlock() {
		c.sm.DispatchBlock(placed, placed*2, 0)
		placed++
		if got := c.sm.ResidentWarps(); got != placed*2 {
			t.Fatalf("after %d blocks: %d resident warps", placed, got)
		}
	}
	c.runToEnd(placed)
	if got := c.sm.ResidentWarps(); got != 0 || c.sm.freeSlots != len(c.sm.slots) {
		t.Fatalf("after retirement: %d resident, %d free of %d", got, c.sm.freeSlots, len(c.sm.slots))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DispatchBlock without capacity did not panic")
		}
	}()
	for {
		c.sm.DispatchBlock(placed, placed*2, c.now) // runs past MaxBlocksPerSM
		placed++
	}
}
