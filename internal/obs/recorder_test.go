package obs

import (
	"context"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
	"cawa/internal/sm"
)

// newRecorder returns one SM's recorder of a fresh collector whose
// rings hold capacity events, decorating inner (nil: the null
// provider).
func newRecorder(inner sm.CriticalityProvider, capacity int) *recorder {
	var factory func() sm.CriticalityProvider
	if inner != nil {
		factory = func() sm.CriticalityProvider { return inner }
	}
	return NewCollector(capacity).Wrap(factory)().(*recorder)
}

// issueAt pushes one event for the warp in slot at the given cycle.
func issueAt(r *recorder, slot int, pc int32, cycle int64) {
	st := &simt.Step{PC: pc, Instr: isa.Instr{Op: isa.OpAdd}, Lanes: 32}
	r.OnIssue(slot, st, 0, cycle)
}

// countGID returns how many of evs belong to warp gid.
func countGID(evs []Event, gid int) int {
	n := 0
	for _, e := range evs {
		if e.GID == gid {
			n++
		}
	}
	return n
}

func TestRecorderRingBuffer(t *testing.T) {
	r := newRecorder(nil, 4)
	w := simt.NewWarp(7, 0, 0, 32, 32, 10)
	r.OnWarpArrived(2, w)
	st := &simt.Step{PC: 1, Instr: isa.Instr{Op: isa.OpAdd}, Lanes: 32}
	for i := int64(0); i < 6; i++ {
		st.PC = int32(i)
		r.OnIssue(2, st, i, 100+i)
	}
	if r.total != 6 {
		t.Fatalf("total %d", r.total)
	}
	evs := r.appendEvents(nil)
	if len(evs) != 4 {
		t.Fatalf("retained %d", len(evs))
	}
	// Oldest two were overwritten: first retained is cycle 102.
	if evs[0].Cycle != 102 || evs[3].Cycle != 105 {
		t.Fatalf("ring order broken: %+v", evs)
	}
	if n := countGID(evs, 7); n != 4 {
		t.Fatalf("%d of 4 retained events carry gid 7: %+v", n, evs)
	}
}

// TestRecorderRingWraparound pins the bounded-ring semantics: overwrite
// order is oldest-first, the total keeps counting past the capacity,
// and events recorded after a slot is reused carry the new occupant's
// gid while retained events keep the gid that was live when they were
// recorded.
func TestRecorderRingWraparound(t *testing.T) {
	const capacity = 3
	r := newRecorder(nil, capacity)
	r.OnWarpArrived(0, simt.NewWarp(10, 0, 0, 32, 32, 8))

	// Fill the ring exactly; nothing overwritten yet.
	for c := int64(1); c <= capacity; c++ {
		issueAt(r, 0, int32(c), c)
	}
	if got := r.appendEvents(nil); len(got) != capacity || got[0].Cycle != 1 || got[2].Cycle != 3 {
		t.Fatalf("pre-wrap events wrong: %+v", got)
	}

	// Two more events overwrite cycles 1 and 2.
	issueAt(r, 0, 4, 4)
	issueAt(r, 0, 5, 5)
	if r.total != 5 {
		t.Fatalf("total = %d, want 5 (overwritten events still count)", r.total)
	}
	evs := r.appendEvents(nil)
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want %d", len(evs), capacity)
	}
	for i, want := range []int64{3, 4, 5} {
		if evs[i].Cycle != want {
			t.Fatalf("wrap order broken at %d: got cycle %d, want %d (%+v)", i, evs[i].Cycle, want, evs)
		}
	}

	// Slot 0 is reused by a new warp: retained events keep gid 10,
	// post-reuse events map to gid 20.
	r.OnWarpFinished(0)
	r.OnWarpArrived(0, simt.NewWarp(20, 1, 0, 32, 32, 8))
	issueAt(r, 0, 6, 6)
	evs = r.appendEvents(nil)
	for i, want := range []int64{4, 5, 6} {
		if evs[i].Cycle != want {
			t.Fatalf("post-reuse order broken at %d: %+v", i, evs)
		}
	}
	if evs[0].GID != 10 || evs[1].GID != 10 {
		t.Fatalf("retained events lost their original gid: %+v", evs)
	}
	if evs[2].GID != 20 {
		t.Fatalf("post-reuse event has gid %d, want 20", evs[2].GID)
	}
	if n10, n20 := countGID(evs, 10), countGID(evs, 20); n10 != 2 || n20 != 1 {
		t.Fatalf("gid 10 has %d events, gid 20 has %d; want 2 and 1", n10, n20)
	}

	// Keep wrapping: after capacity more events only gid-20 events
	// survive and order is still oldest-first.
	for c := int64(7); c < 7+capacity; c++ {
		issueAt(r, 0, int32(c), c)
	}
	evs = r.appendEvents(nil)
	for i := range evs {
		if evs[i].GID != 20 {
			t.Fatalf("stale gid survived full wrap: %+v", evs)
		}
		if i > 0 && evs[i].Cycle <= evs[i-1].Cycle {
			t.Fatalf("order not monotonic after full wrap: %+v", evs)
		}
	}
	if r.total != 9 {
		t.Fatalf("total = %d, want 9", r.total)
	}
}

func TestRecorderDelegates(t *testing.T) {
	inner := core.NewCPL()
	r := newRecorder(inner, 16)
	w := simt.NewWarp(3, 0, 0, 32, 32, 10)
	r.OnWarpArrived(0, w)
	st := &simt.Step{PC: 0, Instr: isa.Instr{Op: isa.OpAdd}, Lanes: 32}
	r.OnIssue(0, st, 40, 50)
	if got := r.Criticality(0); got != inner.Criticality(0) || got == 0 {
		t.Fatalf("criticality not delegated: %v", got)
	}
	if !r.IsCritical(0) {
		t.Fatal("IsCritical not delegated (lone warp is critical)")
	}
	r.OnWarpFinished(0)
	if r.Criticality(0) != 0 {
		t.Fatal("finish not delegated")
	}
}

// TestRecorderEndToEnd launches a loop kernel with a collector
// wrapping CPL: every committed instruction is recorded once, and the
// hot-PC report ranks the loop body above the prologue.
func TestRecorderEndToEnd(t *testing.T) {
	mem := memory.New(1 << 16)
	b := isa.NewBuilder("t")
	b.SReg(isa.R0, isa.SRGTid)
	b.MovI(isa.R1, 5)
	b.Label("head")
	b.SubI(isa.R1, isa.R1, 1)
	b.CBra(isa.R1, "head")
	b.Exit()
	k := &simt.Kernel{Name: "t", Program: b.MustBuild(), GridDim: 2, BlockDim: 64}

	c := NewCollector(1 << 12)
	g, err := gpu.New(gpu.Options{
		Config:      config.Small(),
		Memory:      mem,
		Criticality: c.Wrap(func() sm.CriticalityProvider { return core.NewCPL() }),
	})
	if err != nil {
		t.Fatal(err)
	}
	launch, err := g.Launch(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != uint64(launch.Instructions) {
		t.Fatalf("recorded %d events, launch committed %d instructions", c.Total(), launch.Instructions)
	}
	hot := c.HotPCs(0)
	if len(hot) == 0 {
		t.Fatal("no hot PCs")
	}
	// The loop body (pc 2,3) must dominate issue counts.
	byPC := map[int32]PCProfile{}
	for _, p := range hot {
		byPC[p.PC] = p
	}
	if byPC[2].Issues <= byPC[0].Issues {
		t.Fatalf("loop body issues %d not above prologue %d", byPC[2].Issues, byPC[0].Issues)
	}
}
