package trace

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

func TestRecorderRingBuffer(t *testing.T) {
	r := NewRecorder(nil, 4)
	w := simt.NewWarp(7, 0, 0, 32, 32, 10)
	r.OnWarpArrived(2, w)
	st := &simt.Step{PC: 1, Instr: isa.Instr{Op: isa.OpAdd}, Lanes: 32}
	for i := int64(0); i < 6; i++ {
		st.PC = int32(i)
		r.OnIssue(2, st, i, 100+i)
	}
	if r.Total() != 6 {
		t.Fatalf("total %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d", len(evs))
	}
	// Oldest two were overwritten: first retained is cycle 102.
	if evs[0].Cycle != 102 || evs[3].Cycle != 105 {
		t.Fatalf("ring order broken: %+v", evs)
	}
	if evs[0].GID != 7 {
		t.Fatalf("gid %d", evs[0].GID)
	}
	if tl := r.WarpTimeline(7); len(tl) != 4 {
		t.Fatalf("timeline %d", len(tl))
	}
	if tl := r.WarpTimeline(99); len(tl) != 0 {
		t.Fatalf("phantom timeline %d", len(tl))
	}
}

func TestRecorderDelegates(t *testing.T) {
	inner := core.NewCPL()
	r := NewRecorder(inner, 16)
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

	recs := make([]*Recorder, 0, 2)
	g, err := gpu.New(gpu.Options{
		Config: config.Small(),
		Memory: mem,
		Criticality: func() sm.CriticalityProvider {
			r := NewRecorder(core.NewCPL(), 1<<12)
			recs = append(recs, r)
			return r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	launch, err := g.Launch(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, r := range recs {
		total += r.Total()
	}
	if total != uint64(launch.Instructions) {
		t.Fatalf("recorded %d events, launch committed %d instructions", total, launch.Instructions)
	}
	hot := recs[0].HotPCs()
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
