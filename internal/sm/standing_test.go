package sm

import (
	"testing"

	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/simt"
	"cawa/internal/state"
)

// Directed tests of per-warp verdicts (readiness.go): each pins one
// input that makes a warp's verdict re-run, and checks the verdicts of
// the warps it does not touch stand. The readiness oracle runs after
// every tick, so a verdict that stood when it should not have fails
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

// aluRun emits n independent register writes.
func aluRun(b *isa.Builder, n int) {
	for k := 0; k < n; k++ {
		b.MovI(isa.Reg(8+k%40), int64(k))
	}
}

// aluLoop emits iters rounds of eight independent register writes: a
// warp that never waits on its operands, and after its first round
// never misses in the L1I.
func aluLoop(b *isa.Builder, iters int64) {
	top := b.FreshLabel("alu")
	b.MovI(isa.R5, iters)
	b.Label(top)
	b.SubI(isa.R5, isa.R5, 1)
	aluRun(b, 8)
	b.CBra(isa.R5, top)
}

// verdict is where a slot's standing verdict sits, with the cycle its
// debt runs from: a re-run readiness restarts the debt at its cycle.
type verdict struct {
	set   byte // 'o' open, 'l' lsuWait, 'f' fetchWait
	since int64
}

// standing returns every candidate whose verdict stands, by slot.
func standing(m *SM) map[int]verdict {
	out := map[int]verdict{}
	for i := range m.slots {
		v := verdict{since: m.slots[i].since}
		switch {
		case m.open.has(i):
			v.set = 'o'
		case m.lsuWait.has(i):
			v.set = 'l'
		case m.fetchWait.has(i):
			v.set = 'f'
		default:
			continue
		}
		out[i] = v
	}
	return out
}

// untouched fails unless every verdict of before that is not in moved,
// and whose gate neither opened nor closed, still stands unchanged in m.
func untouched(t *testing.T, m *SM, before map[int]verdict, what string, moved ...int) {
	t.Helper()
	now := standing(m)
outer:
	for i, v := range before {
		for _, j := range moved {
			if i == j {
				continue outer
			}
		}
		lsuBusy := m.lsuBusyUntil > m.cycle
		switch {
		case v.set == 'l' && !lsuBusy, v.set == 'f' && m.icBusy <= m.cycle, v.set == 'o' && lsuBusy && m.gated.has(i):
			continue // moved by its gate
		}
		if now[i] != v {
			t.Fatalf("%s: slot %d's verdict %c since %d became %c since %d", what, i, v.set, v.since, now[i].set, now[i].since)
		}
	}
}

// TestStandingOwnIssue: a warp's own issue, and nothing else, makes its
// verdict re-run. Four warps run independent ALU writes, two per unit:
// each tick one warp per unit issues and the other's open verdict must
// stand through the tick, stamped ready again with its debt untouched.
func TestStandingOwnIssue(t *testing.T) {
	c := newCheckedRig(t)
	b := isa.NewBuilder("alu")
	aluLoop(b, 20)
	b.Exit()
	k := &simt.Kernel{Name: "alu", Program: b.MustBuild(), GridDim: 1, BlockDim: 128}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	stood := 0
	for c.done == 0 {
		before, misses := standing(c.sm), c.sm.l1i.Misses
		c.tick()
		if c.sm.l1i.Misses != misses {
			continue // an I-miss re-runs every open verdict
		}
		var issued []int
		for i := range c.sm.slots {
			if s := &c.sm.slots[i]; s.issuedCycle == c.now {
				issued = append(issued, i)
				if !c.sm.fresh.has(i) {
					t.Fatalf("cycle %d: slot %d issued and its verdict stands", c.now, i)
				}
			}
		}
		untouched(t, c.sm, before, "an ALU tick", issued...)
		stood += len(before) - len(issued)
		if c.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if stood == 0 {
		t.Fatal("no verdict ever stood through a tick: the test witnesses nothing")
	}
}

// oneWaiter emits the dispatch of a four-warp block whose warp 0 runs
// waiter and whose warp 2, its unit-0 peer, exits at once: warp 0 has
// its unit to itself. Warps 1 and 3 (unit 1) run ALU writes, and each
// tick one of them issues while the other's verdict stands.
func oneWaiter(b *isa.Builder, waiter func()) {
	b.SReg(isa.R0, isa.SRWarp)
	b.CBraZ(isa.R0, "waiter")
	b.SetEQI(isa.R1, isa.R0, 2)
	b.CBra(isa.R1, "exit")
	aluLoop(b, 60)
	b.Exit()
	b.Label("waiter")
	waiter()
	b.Label("exit")
	b.Exit()
}

// TestStandingFillWake: a fill makes the parked warp it wakes fresh and
// touches no other verdict, and the warp's verdict runs in the fill's
// cycle.
func TestStandingFillWake(t *testing.T) {
	c := newCheckedRig(t)
	buf := c.mem.Alloc(8)
	b := isa.NewBuilder("fill")
	oneWaiter(b, func() {
		b.Param(isa.R1, 0)
		b.Ld(isa.R2, isa.R1, 0)
		b.AddI(isa.R3, isa.R2, 1)
	})
	k := &simt.Kernel{Name: "fill", Program: b.MustBuild(), GridDim: 1, BlockDim: 128, Params: []int64{buf}}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	s := &c.sm.slots[0]
	for !s.parked || s.reason != reasonMemData {
		c.tick()
		if c.now > 10000 {
			t.Fatal("warp 0 never parked on its load")
		}
	}
	for s.parked {
		c.now++
		before := standing(c.sm)
		c.sys.Cycle(c.now) // delivers the fill, if due
		if !s.parked {
			if !c.sm.fresh.has(0) || !c.sm.cand.has(0) {
				t.Fatal("the fill woke warp 0 without making it a fresh candidate")
			}
			untouched(t, c.sm, before, "the fill wake")
			if len(before) == 0 {
				t.Fatal("no other verdict stood at the wake: the test witnesses nothing")
			}
		}
		c.sm.Cycle(c.now)
		if err := c.chk.AfterTick(c.now); err != nil {
			t.Fatal(err)
		}
		if c.now > 10000 {
			t.Fatal("the fill never woke warp 0")
		}
	}
	if s.since != c.now && s.issuedCycle != c.now {
		t.Errorf("woken at %d, evaluated at %d, issued at %d", c.now, s.since, s.issuedCycle)
	}
	c.runToEnd(1)
}

// TestStandingWritebackWake: a compute writeback wakes the warp parked
// on it into fresh in its own tick, and it issues then; the verdicts of
// the warps that did not issue stand. Warp 0 waits on a slow SFU result.
func TestStandingWritebackWake(t *testing.T) {
	c := newCheckedRig(t)
	b := isa.NewBuilder("wb")
	oneWaiter(b, func() {
		aluLoop(b, 10)
		b.MovF(isa.R1, 4)
		b.FSqrt(isa.R2, isa.R1)
		b.FAdd(isa.R3, isa.R2, isa.R2)
	})
	k := &simt.Kernel{Name: "wb", Program: b.MustBuild(), GridDim: 1, BlockDim: 128}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	s := &c.sm.slots[0]
	fadd := opPC(t, k.Program, isa.OpFAdd)
	for !s.parked || s.pc != fadd {
		c.tick()
		if c.now > 10000 {
			t.Fatal("warp 0 never parked on the compute result")
		}
	}
	due := s.wbMin
	for c.now < due-1 {
		c.tick()
	}
	before := standing(c.sm)
	c.tick()
	if s.parked || s.issuedCycle != due {
		t.Fatalf("writeback due at %d: warp 0 parked=%v, issued at %d", due, s.parked, s.issuedCycle)
	}
	var issued []int
	for i := range c.sm.slots {
		if c.sm.slots[i].issuedCycle == due {
			issued = append(issued, i)
		}
	}
	untouched(t, c.sm, before, "the writeback tick", issued...)
	if len(before) == 0 {
		t.Fatal("no other verdict stood at the writeback tick: the test witnesses nothing")
	}
	c.runToEnd(1)
}

// TestStandingBarrierRelease: a barrier release makes the parked warps it
// wakes fresh. A release by unit 0's issue reaches a unit 1 warp before
// its unit's turn, so its verdict runs in the release tick; a release by
// unit 1's issue reaches a unit 0 warp after its unit's turn, so it is
// still fresh at the tick's end. Block 1's two warps run ALU writes throughout; their
// verdicts are touched only by their own issues.
func TestStandingBarrierRelease(t *testing.T) {
	for late := 0; late < 2; late++ {
		c := newCheckedRig(t)
		b := isa.NewBuilder("release")
		b.SReg(isa.R0, isa.SRCtaid)
		b.SReg(isa.R1, isa.SRWarp)
		b.CBra(isa.R0, "alu")
		b.SetEQI(isa.R2, isa.R1, int64(late))
		b.CBraZ(isa.R2, "bar") // the early warp goes straight to the barrier
		b.MovI(isa.R5, 12)
		b.Label("spin")
		b.SubI(isa.R5, isa.R5, 1)
		b.CBra(isa.R5, "spin")
		b.Label("bar")
		b.Bar()
		b.Exit()
		b.Label("alu")
		aluRun(b, 200)
		b.Exit()
		k := &simt.Kernel{Name: "release", Program: b.MustBuild(), GridDim: 2, BlockDim: 64}
		c.sm.SetKernel(k)
		c.sm.DispatchBlock(0, 0, 0)
		c.sm.DispatchBlock(1, 2, 0)
		bar := opPC(t, k.Program, isa.OpBar)
		early := 1 - late
		for {
			pc, before := c.sm.slots[late].pc, standing(c.sm)
			c.tick()
			if pc != bar || c.sm.slots[late].issuedCycle != c.now {
				if c.now > 100000 {
					t.Fatal("timeout")
				}
				continue
			}
			s := &c.sm.slots[early]
			if s.parked {
				t.Fatalf("release at %d: warp %d still parked", c.now, early)
			}
			if evaluated := s.since == c.now || s.issuedCycle == c.now; late == 0 && !evaluated {
				t.Errorf("released by unit 0 at %d: unit 1's warp not evaluated in the release tick (since %d)", c.now, s.since)
			}
			if late == 1 && (!c.sm.fresh.has(early) || s.since == c.now) {
				t.Errorf("released by unit 1 at %d: unit 0's warp fresh=%v since %d, want fresh and not evaluated", c.now, c.sm.fresh.has(early), s.since)
			}
			var issued []int
			for i := range c.sm.slots {
				if c.sm.slots[i].issuedCycle == c.now {
					issued = append(issued, i)
				}
			}
			untouched(t, c.sm, before, "the release tick", issued...)
			break
		}
		c.runToEnd(2)
	}
}

// TestStandingLSUExpiry: a warp gated on the load-store unit waits in
// lsuWait while the LSU is busy, its verdict untouched, and re-runs at
// exactly the cycle lsuBusyUntil passes, issuing then. Warp 0 issues a
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
	waited := 0
	var since int64 = -2
	for c.done == 0 {
		pc0, pc1 := c.sm.slots[0].pc, c.sm.slots[1].pc
		c.tick()
		if pc0 == ld && c.sm.slots[0].issuedCycle == c.now {
			expiry = c.sm.lsuBusyUntil
		}
		if !c.sm.lsuWait.has(1) {
			since = -2
		} else {
			if since == -2 {
				since = c.sm.slots[1].since
			} else if c.sm.slots[1].since != since {
				t.Fatalf("cycle %d: slot 1's verdict re-ran while it waited on the LSU", c.now)
			}
			waited++
		}
		if pc1 == sts && c.sm.slots[1].issuedCycle == c.now {
			stored = c.now
		}
		if c.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if expiry == 0 || waited < 2 {
		t.Fatalf("LSU busy until %d, slot 1 waited on it %d ticks: the test witnesses nothing", expiry, waited)
	}
	if stored != expiry {
		t.Errorf("the gated shared store issued at %d, the LSU freed at %d", stored, expiry)
	}
}

// TestStandingIMissForcesReevaluation: an I-miss taken in unit 0's pass
// may evict the line any open verdict names and blocks every fetch, so
// unit 1's open warp — refused by a full MSHR table, its verdict
// otherwise standing tick after tick — must re-run in the same tick and
// wait on the fetch. Four warps: the odd ones (unit 1) load four lines
// each into four MSHRs, so warp 3 stays refused; the even ones (unit 0)
// run straight-line code across several L1I lines.
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
	aluRun(b, 80)
	b.Exit()
	k := &simt.Kernel{Name: "imiss", Program: b.MustBuild(), GridDim: 1, BlockDim: 128, Params: []int64{buf}}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)

	witnessed := 0
	for c.done == 0 {
		misses, before := c.sm.l1i.Misses, standing(c.sm)
		c.tick()
		if c.sm.l1i.Misses == misses {
			continue
		}
		for i, v := range before {
			if v.set != 'o' || i%2 != 1 || c.sm.slots[i].issuedCycle == c.now {
				continue
			}
			if !c.sm.fetchWait.has(i) || c.sm.slots[i].since != c.now {
				t.Fatalf("cycle %d: unit 1's open slot %d did not re-run in the I-miss tick (fetchWait=%v since=%d)",
					c.now, i, c.sm.fetchWait.has(i), c.sm.slots[i].since)
			}
			witnessed++
		}
		if c.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if witnessed == 0 {
		t.Fatal("unit 0 never took an I-miss while unit 1 held an open verdict: the test witnesses nothing")
	}
}

// TestStandingDispatchFinishAndKernel covers the inputs at a warp's
// ends. A finishing warp is fresh after its exit issue and leaves the
// candidates at its next evaluation, touching no other verdict; a block
// dispatched into the slots its predecessor freed starts fresh there; no
// candidate is left standing when the next kernel is installed.
func TestStandingDispatchFinishAndKernel(t *testing.T) {
	c := newCheckedRig(t)
	b := isa.NewBuilder("ends")
	b.SReg(isa.R0, isa.SRWarp)
	b.CBra(isa.R0, "long")
	aluRun(b, 5)
	b.Exit()
	b.Label("long")
	aluLoop(b, 10)
	b.Exit()
	k := &simt.Kernel{Name: "ends", Program: b.MustBuild(), GridDim: 2, BlockDim: 128}
	c.sm.SetKernel(k)
	c.sm.DispatchBlock(0, 0, 0)
	finished := false
	for c.done == 0 {
		before, misses := standing(c.sm), c.sm.l1i.Misses
		c.tick()
		var issued []int
		for i := range c.sm.slots {
			if s := &c.sm.slots[i]; s.issuedCycle == c.now {
				issued = append(issued, i)
				if s.done && !c.sm.fresh.has(i) {
					t.Fatalf("cycle %d: slot %d finished and its verdict stands", c.now, i)
				}
			}
		}
		if len(issued) > 0 && c.sm.slots[0].done && c.sm.cand.has(0) {
			finished = true
			c.tick()
			if c.sm.cand.has(0) || c.sm.fresh.has(0) {
				t.Fatal("the finished warp is still a candidate a tick after its exit")
			}
			continue
		}
		if c.sm.l1i.Misses == misses {
			untouched(t, c.sm, before, "a tick", issued...)
		}
	}
	if !finished {
		t.Fatal("warp 0 never finished ahead of its block")
	}
	c.sm.DispatchBlock(1, 4, c.now)
	for i := 0; i < 4; i++ {
		if !c.sm.fresh.has(i) || !c.sm.cand.has(i) {
			t.Fatalf("slot %d of the block dispatched into freed slots is not a fresh candidate", i)
		}
	}
	c.runToEnd(2)
	c.tick()
	c.sm.SetKernel(k)
	if got := standing(c.sm); len(got) != 0 {
		t.Fatalf("verdicts %v stand across a kernel switch", got)
	}
}

// TestStandingArchiveLoad: an SM loaded from a mid-run Archive holds no
// standing verdict — every resident warp is a fresh candidate — and,
// ticked on under the readiness oracle, finishes with the records of
// the SM that was never interrupted.
func TestStandingArchiveLoad(t *testing.T) {
	build := func() (*checkedRig, *simt.Kernel) {
		c := checkedRigWith(t, func(cfg *config.Config) { cfg.L1D.MSHRs = 4 })
		buf := c.mem.Alloc(4 * 512)
		b := isa.NewBuilder("load")
		b.SReg(isa.R0, isa.SRWarp)
		fourLineLoad(b, isa.R0)
		aluRun(b, 20)
		fourLineLoad(b, isa.R0)
		b.Exit()
		k := &simt.Kernel{Name: "load", Program: b.MustBuild(), GridDim: 1, BlockDim: 128, Params: []int64{buf}}
		c.sm.SetKernel(k)
		c.sm.DispatchBlock(0, 0, 0)
		return c, k
	}
	want, _ := build()
	want.runToEnd(1)

	c, k := build()
	for c.now < 40 || len(standing(c.sm)) == 0 {
		c.tick()
		if c.done > 0 {
			t.Fatal("no verdict stood after cycle 40: the test witnesses nothing")
		}
	}
	save := state.NewSaver(0)
	c.sys.Archive(save)
	c.sm.Archive(save, nil)
	c.mem.Archive(save)

	r := &rig{cfg: c.cfg, mem: memory.New(1 << 22), sys: memsys.New(c.cfg)}
	r.sm = New(Options{ID: 0, Config: c.cfg, Memory: r.mem, MemSys: r.sys})
	r.sm.OnBlockDone = func(int, int64) { r.done++ }
	load := state.NewLoader(save.Bytes())
	r.sys.Archive(load)
	r.sm.Archive(load, k)
	r.mem.Archive(load)
	if load.Err() != nil {
		t.Fatal(load.Err())
	}
	if got := standing(r.sm); len(got) != 0 {
		t.Fatalf("loaded SM has standing verdicts %v", got)
	}
	for i := range r.sm.slots {
		if r.sm.cand.has(i) != r.sm.fresh.has(i) {
			t.Fatalf("loaded slot %d: candidate=%v fresh=%v", i, r.sm.cand.has(i), r.sm.fresh.has(i))
		}
	}
	// The oracle's shadow account starts at dispatch, so the resumed SM
	// is held to the invariants alone.
	chk := NewReadinessChecker(r.sm)
	for now := c.now + 1; r.done == 0; now++ {
		r.sys.Cycle(now)
		r.sm.Cycle(now)
		if err := chk.Invariants(); err != nil {
			t.Fatal(err)
		}
		if now > 100000 {
			t.Fatal("timeout")
		}
	}
	if len(r.sm.Finished) != len(want.sm.Finished) {
		t.Fatalf("%d warps finished after the load, %d uninterrupted", len(r.sm.Finished), len(want.sm.Finished))
	}
	for i := range want.sm.Finished {
		if r.sm.Finished[i] != want.sm.Finished[i] {
			t.Errorf("warp record %d: resumed %+v, uninterrupted %+v", i, r.sm.Finished[i], want.sm.Finished[i])
		}
	}
}
