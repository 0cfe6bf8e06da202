package simt

import (
	"reflect"
	"testing"
	"testing/quick"

	"cawa/internal/isa"
	"cawa/internal/memory"
)

func ctxFor(mem *memory.Memory, blockDim int) *ExecContext {
	return &ExecContext{
		Mem:      mem,
		Shared:   make([]int64, 256),
		Params:   []int64{memory.Base, 1000, -7},
		BlockID:  2,
		GridDim:  4,
		BlockDim: blockDim,
	}
}

// run executes the warp to completion, returning the executed steps.
func run(t *testing.T, prog *isa.Program, w *Warp, ctx *ExecContext) []Step {
	t.Helper()
	var steps []Step
	for i := 0; !w.Done(); i++ {
		if i > 100000 {
			t.Fatal("runaway warp")
		}
		if w.AtBarrier {
			w.AtBarrier = false // single-warp tests self-release
		}
		steps = append(steps, Exec(w, prog, ctx))
	}
	return steps
}

func TestUniformArithmetic(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.MovI(isa.R1, 20)
	b.MovI(isa.R2, 3)
	b.Add(isa.R3, isa.R1, isa.R2) // 23
	b.Sub(isa.R4, isa.R1, isa.R2) // 17
	b.Mul(isa.R5, isa.R1, isa.R2) // 60
	b.Div(isa.R6, isa.R1, isa.R2) // 6
	b.Rem(isa.R7, isa.R1, isa.R2) // 2
	b.MovI(isa.R8, 0)
	b.Div(isa.R9, isa.R1, isa.R8)  // div by zero -> 0
	b.Rem(isa.R10, isa.R1, isa.R8) // rem by zero -> 0
	b.Min(isa.R11, isa.R1, isa.R2)
	b.Max(isa.R12, isa.R1, isa.R2)
	b.ShlI(isa.R13, isa.R2, 4) // 48
	b.ShrI(isa.R14, isa.R1, 2) // 5
	b.MovI(isa.R15, -9)
	b.Abs(isa.R16, isa.R15) // 9
	b.SetLT(isa.R17, isa.R2, isa.R1)
	b.Sel(isa.R17, isa.R1, isa.R2) // predicate true -> R1
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 1, 32, int32(prog.Len()))
	run(t, prog, w, ctxFor(memory.New(1<<16), 32))

	want := map[isa.Reg]int64{
		isa.R3: 23, isa.R4: 17, isa.R5: 60, isa.R6: 6, isa.R7: 2,
		isa.R9: 0, isa.R10: 0, isa.R11: 3, isa.R12: 20,
		isa.R13: 48, isa.R14: 5, isa.R16: 9, isa.R17: 20,
	}
	for r, v := range want {
		if got := w.Reg(0, r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestFloatOps(t *testing.T) {
	b := isa.NewBuilder("fpu")
	b.MovF(isa.R1, 2.0)
	b.MovF(isa.R2, 0.5)
	b.FAdd(isa.R3, isa.R1, isa.R2)
	b.FSub(isa.R4, isa.R1, isa.R2)
	b.FMul(isa.R5, isa.R1, isa.R2)
	b.FDiv(isa.R6, isa.R1, isa.R2)
	b.FSqrt(isa.R7, isa.R1)
	b.MovF(isa.R8, 3.0)
	b.FMad(isa.R8, isa.R1, isa.R2) // 2*0.5+3 = 4
	b.CvtFI(isa.R9, isa.R3)        // int(2.5) = 2
	b.MovI(isa.R10, 7)
	b.CvtIF(isa.R11, isa.R10)
	b.FNeg(isa.R12, isa.R1)
	b.FAbs(isa.R13, isa.R12)
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 1, 32, int32(prog.Len()))
	run(t, prog, w, ctxFor(memory.New(1<<16), 32))

	wantF := map[isa.Reg]float64{
		isa.R3: 2.5, isa.R4: 1.5, isa.R5: 1.0, isa.R6: 4.0,
		isa.R7: 1.4142135623730951, isa.R8: 4.0, isa.R11: 7.0,
		isa.R12: -2.0, isa.R13: 2.0,
	}
	for r, v := range wantF {
		if got := isa.B2F(w.Reg(0, r)); got != v {
			t.Errorf("r%d = %v, want %v", r, got, v)
		}
	}
	if got := w.Reg(0, isa.R9); got != 2 {
		t.Errorf("cvt.fi = %d, want 2", got)
	}
}

func TestSpecialRegisters(t *testing.T) {
	b := isa.NewBuilder("sregs")
	b.SReg(isa.R1, isa.SRTid)
	b.SReg(isa.R2, isa.SRNtid)
	b.SReg(isa.R3, isa.SRCtaid)
	b.SReg(isa.R4, isa.SRNctaid)
	b.SReg(isa.R5, isa.SRLane)
	b.SReg(isa.R6, isa.SRWarp)
	b.SReg(isa.R7, isa.SRGTid)
	b.Exit()
	prog := b.MustBuild()
	// Warp 3 of a 128-thread block in block 2 of a 4-block grid.
	w := NewWarp(11, 2, 3, 32, 32, int32(prog.Len()))
	run(t, prog, w, ctxFor(memory.New(1<<16), 128))
	for lane := 0; lane < 32; lane++ {
		tid := int64(3*32 + lane)
		checks := map[isa.Reg]int64{
			isa.R1: tid, isa.R2: 128, isa.R3: 2, isa.R4: 4,
			isa.R5: int64(lane), isa.R6: 3, isa.R7: 2*128 + tid,
		}
		for r, v := range checks {
			if got := w.Reg(lane, r); got != v {
				t.Fatalf("lane %d r%d = %d, want %d", lane, r, got, v)
			}
		}
	}
}

func TestDivergenceAndReconvergence(t *testing.T) {
	// Odd lanes take the branch; both sides write distinct values, and
	// after the join every lane runs the tail.
	b := isa.NewBuilder("div")
	b.SReg(isa.R0, isa.SRLane)
	b.AndI(isa.R1, isa.R0, 1)
	b.CBra(isa.R1, "odd")
	b.MovI(isa.R2, 100) // even path
	b.Bra("join")
	b.Label("odd")
	b.MovI(isa.R2, 200)
	b.Label("join")
	b.AddI(isa.R3, isa.R2, 1)
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 32, 32, int32(prog.Len()))
	steps := run(t, prog, w, ctxFor(memory.New(1<<16), 32))

	var sawDivergent bool
	for _, st := range steps {
		if st.Divergent {
			sawDivergent = true
		}
	}
	if !sawDivergent {
		t.Fatal("expected a divergent branch")
	}
	for lane := 0; lane < 32; lane++ {
		want := int64(100)
		if lane%2 == 1 {
			want = 200
		}
		if got := w.Reg(lane, isa.R2); got != want {
			t.Fatalf("lane %d r2 = %d, want %d", lane, got, want)
		}
		if got := w.Reg(lane, isa.R3); got != want+1 {
			t.Fatalf("lane %d r3 = %d, want %d (tail must run for all lanes)", lane, got, want+1)
		}
	}
	if w.StackDepth() != 0 {
		t.Fatalf("stack depth %d after completion", w.StackDepth())
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Each lane loops lane+1 times; divergence increases as lanes
	// finish at different trip counts.
	b := isa.NewBuilder("divloop")
	b.SReg(isa.R0, isa.SRLane)
	b.AddI(isa.R1, isa.R0, 1) // counter
	b.MovI(isa.R2, 0)         // accumulator
	b.Label("head")
	b.AddI(isa.R2, isa.R2, 1)
	b.SubI(isa.R1, isa.R1, 1)
	b.CBra(isa.R1, "head")
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 8, 32, int32(prog.Len()))
	run(t, prog, w, ctxFor(memory.New(1<<16), 32))
	for lane := 0; lane < 8; lane++ {
		if got := w.Reg(lane, isa.R2); got != int64(lane+1) {
			t.Fatalf("lane %d looped %d times, want %d", lane, got, lane+1)
		}
	}
}

func TestPartialExit(t *testing.T) {
	// Lanes below 16 exit early; the rest continue.
	b := isa.NewBuilder("pexit")
	b.SReg(isa.R0, isa.SRLane)
	b.SetGEI(isa.R1, isa.R0, 16)
	b.CBra(isa.R1, "cont")
	b.Exit() // lanes 0-15 leave here
	b.Label("cont")
	b.MovI(isa.R2, 5)
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 32, 32, int32(prog.Len()))
	run(t, prog, w, ctxFor(memory.New(1<<16), 32))
	for lane := 16; lane < 32; lane++ {
		if got := w.Reg(lane, isa.R2); got != 5 {
			t.Fatalf("lane %d r2 = %d, want 5", lane, got)
		}
	}
	for lane := 0; lane < 16; lane++ {
		if got := w.Reg(lane, isa.R2); got != 0 {
			t.Fatalf("lane %d r2 = %d, want 0 (exited before write)", lane, got)
		}
	}
	if w.ExitedMask() != 0xFFFFFFFF {
		t.Fatalf("exited mask %#x", w.ExitedMask())
	}
}

func TestGlobalMemoryAccess(t *testing.T) {
	mem := memory.New(1 << 16)
	base := mem.Alloc(64)
	for i := 0; i < 32; i++ {
		mem.Store(base+int64(i)*8, int64(i*11))
	}
	b := isa.NewBuilder("gmem")
	b.SReg(isa.R0, isa.SRLane)
	b.MulI(isa.R1, isa.R0, 8)
	b.Param(isa.R2, 0)
	b.Add(isa.R1, isa.R1, isa.R2)
	b.Ld(isa.R3, isa.R1, 0)
	b.AddI(isa.R3, isa.R3, 1)
	b.St(isa.R1, 256, isa.R3)
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 32, 32, int32(prog.Len()))
	ctx := ctxFor(mem, 32)
	ctx.Params = []int64{base}
	steps := run(t, prog, w, ctx)

	var loads, stores int
	for _, st := range steps {
		if st.Kind == StepMem {
			if st.IsLoad {
				loads++
				if len(st.Accesses) != 32 {
					t.Fatalf("load accesses = %d", len(st.Accesses))
				}
			} else {
				stores++
			}
		}
	}
	if loads != 1 || stores != 1 {
		t.Fatalf("loads=%d stores=%d", loads, stores)
	}
	for i := 0; i < 32; i++ {
		if got := mem.Load(base + 256 + int64(i)*8); got != int64(i*11+1) {
			t.Fatalf("store result [%d] = %d", i, got)
		}
	}
}

func TestSharedMemoryAndBounds(t *testing.T) {
	b := isa.NewBuilder("smem")
	b.SReg(isa.R0, isa.SRLane)
	b.MulI(isa.R1, isa.R0, 8)
	b.AddI(isa.R2, isa.R0, 40)
	b.StS(isa.R1, 0, isa.R2)
	b.LdS(isa.R3, isa.R1, 0)
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 4, 32, int32(prog.Len()))
	run(t, prog, w, ctxFor(memory.New(1<<16), 32))
	for lane := 0; lane < 4; lane++ {
		if got := w.Reg(lane, isa.R3); got != int64(lane+40) {
			t.Fatalf("lane %d shared roundtrip = %d", lane, got)
		}
	}

	// Out-of-bounds shared access panics (simulation fault).
	b2 := isa.NewBuilder("smem_oob")
	b2.MovI(isa.R1, 1<<20)
	b2.LdS(isa.R2, isa.R1, 0)
	b2.Exit()
	prog2 := b2.MustBuild()
	w2 := NewWarp(0, 0, 0, 1, 32, int32(prog2.Len()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range shared access")
		}
	}()
	Exec(w2, prog2, ctxFor(memory.New(1<<16), 32))
	Exec(w2, prog2, ctxFor(memory.New(1<<16), 32))
}

func TestBarrierStep(t *testing.T) {
	b := isa.NewBuilder("bar")
	b.Bar()
	b.MovI(isa.R1, 1)
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 32, 32, int32(prog.Len()))
	st := Exec(w, prog, ctxFor(memory.New(1<<16), 32))
	if st.Kind != StepBarrier || !w.AtBarrier {
		t.Fatal("barrier step did not park the warp")
	}
	w.AtBarrier = false
	Exec(w, prog, ctxFor(memory.New(1<<16), 32))
	if got := w.Reg(0, isa.R1); got != 1 {
		t.Fatal("post-barrier instruction did not run")
	}
}

func TestKernelValidate(t *testing.T) {
	b := isa.NewBuilder("k")
	b.Exit()
	p := b.MustBuild()
	good := &Kernel{Name: "k", Program: p, GridDim: 1, BlockDim: 32}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	bad := []*Kernel{
		{Name: "no-prog", GridDim: 1, BlockDim: 32},
		{Name: "no-grid", Program: p, BlockDim: 32},
		{Name: "no-block", Program: p, GridDim: 1},
		{Name: "neg-shared", Program: p, GridDim: 1, BlockDim: 1, SharedWords: -1},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("%s: expected validation error", k.Name)
		}
	}
	if got := good.WarpsPerBlock(32); got != 1 {
		t.Errorf("WarpsPerBlock = %d", got)
	}
	k := &Kernel{Name: "x", Program: p, GridDim: 3, BlockDim: 100}
	if got := k.WarpsPerBlock(32); got != 4 {
		t.Errorf("WarpsPerBlock(100 threads) = %d, want 4", got)
	}
	if got := k.TotalThreads(); got != 300 {
		t.Errorf("TotalThreads = %d", got)
	}
}

// TestSelConsistency checks Sel against its definition on random
// operands (property test).
func TestSelConsistency(t *testing.T) {
	f := func(p bool, a, c int64) bool {
		b := isa.NewBuilder("sel")
		pv := int64(0)
		if p {
			pv = 1
		}
		b.MovI(isa.R1, pv)
		b.MovI(isa.R2, a)
		b.MovI(isa.R3, c)
		b.Mov(isa.R4, isa.R1)
		b.Sel(isa.R4, isa.R2, isa.R3)
		b.Exit()
		prog := b.MustBuild()
		w := NewWarp(0, 0, 0, 1, 32, int32(prog.Len()))
		for !w.Done() {
			Exec(w, prog, ctxFor(memory.New(1<<12), 32))
		}
		want := c
		if p {
			want = a
		}
		return w.Reg(0, isa.R4) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExecIntoOverwritesEveryStepField: ExecInto sets the fields of the
// recycled Step one by one, so a field it missed would carry the last
// instruction's value into the next record. Every field is made
// non-zero first and must come out as a fresh Exec leaves it.
func TestExecIntoOverwritesEveryStepField(t *testing.T) {
	var poison func(v reflect.Value)
	poison = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(3)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(3)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			poison(v.Index(0))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				poison(v.Field(i))
			}
		default:
			t.Fatalf("kind %s: extend poison", v.Kind())
		}
	}
	prog := &isa.Program{Name: "nop", Instrs: []isa.Instr{{Op: isa.OpNop}, {Op: isa.OpExit}}}
	want := Exec(NewWarp(0, 0, 0, 32, 32, 2), prog, &ExecContext{})
	var got Step
	poison(reflect.ValueOf(&got).Elem())
	ExecInto(NewWarp(0, 0, 0, 32, 32, 2), prog, &ExecContext{}, &got)
	if len(got.Accesses) != 0 {
		t.Fatalf("Accesses %v, want none", got.Accesses)
	}
	got.Accesses = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recycled Step %+v, fresh %+v", got, want)
	}
}
