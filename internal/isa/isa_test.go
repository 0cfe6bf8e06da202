package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpMetadata(t *testing.T) {
	for op := OpNop; op < opCount; op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if !OpLd.IsLoad() || !OpLdS.IsLoad() || OpSt.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !OpSt.IsStore() || !OpStS.IsStore() || OpLd.IsStore() {
		t.Error("IsStore misclassifies")
	}
	if !OpCBra.IsCondBranch() || !OpCBraZ.IsCondBranch() || OpBra.IsCondBranch() {
		t.Error("IsCondBranch misclassifies")
	}
	if !OpBra.IsBranch() || OpBar.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if OpSt.HasDst() || OpBar.HasDst() || !OpAdd.HasDst() || !OpLd.HasDst() {
		t.Error("HasDst misclassifies")
	}
	if !OpMad.ReadsDst() || !OpSel.ReadsDst() || OpAdd.ReadsDst() {
		t.Error("ReadsDst misclassifies")
	}
	if OpMovI.ReadsA() || !OpMov.ReadsA() || !OpSt.ReadsA() {
		t.Error("ReadsA misclassifies")
	}
	if !OpSt.ReadsB() || OpLd.ReadsB() || !OpAdd.ReadsB() {
		t.Error("ReadsB misclassifies")
	}
}

func TestOpClasses(t *testing.T) {
	cases := map[Op]Class{
		OpAdd:   ClassALU,
		OpFAdd:  ClassFPU,
		OpDiv:   ClassSFU,
		OpFSqrt: ClassSFU,
		OpLd:    ClassMem,
		OpLdS:   ClassSMem,
		OpBra:   ClassCtrl,
		OpBar:   ClassCtrl,
	}
	for op, want := range cases {
		if got := op.Class(); got != want {
			t.Errorf("%s class = %d, want %d", op, got, want)
		}
	}
}

func TestBuilderLabelResolution(t *testing.T) {
	b := NewBuilder("t")
	b.MovI(R0, 5)
	b.Label("loop")
	b.SubI(R0, R0, 1)
	b.CBra(R0, "loop")
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pc, ok := p.LabelPC("loop"); !ok || pc != 1 {
		t.Fatalf("label loop at %d (ok=%v), want 1", pc, ok)
	}
	if got := p.At(2).Target(); got != 1 {
		t.Fatalf("branch target = %d, want 1", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := map[string]func(*Builder){
		"undefined label": func(b *Builder) { b.Bra("nowhere"); b.Exit() },
		"empty":           func(b *Builder) {},
		"no exit":         func(b *Builder) { b.MovI(R0, 1); b.Nop() },
		"duplicate label": func(b *Builder) { b.Label("x"); b.Nop(); b.Label("x"); b.Exit() },
	}
	for name, build := range cases {
		b := NewBuilder(name)
		build(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBuilderPanicsOnBadRegister(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range register")
		}
	}()
	NewBuilder("bad").Mov(Reg(NumRegs), R0)
}

func TestReconvergenceIfElse(t *testing.T) {
	b := NewBuilder("ifelse")
	b.CBra(R0, "then") // 0
	b.MovI(R1, 1)      // 1 else
	b.Bra("join")      // 2
	b.Label("then")
	b.MovI(R1, 2) // 3
	b.Label("join")
	b.MovI(R2, 3) // 4
	b.Exit()      // 5
	p := b.MustBuild()
	if got := p.At(0).Rpc; got != 4 {
		t.Fatalf("if/else reconvergence = %d, want 4 (join)", got)
	}
}

func TestReconvergenceLoop(t *testing.T) {
	b := NewBuilder("loop")
	b.MovI(R0, 3)   // 0
	b.Label("head") // 1
	b.SubI(R0, R0, 1)
	b.CBra(R0, "head") // 2
	b.MovI(R1, 9)      // 3
	b.Exit()           // 4
	p := b.MustBuild()
	if got := p.At(2).Rpc; got != 3 {
		t.Fatalf("loop back-edge reconvergence = %d, want 3 (loop exit)", got)
	}
}

func TestReconvergenceAtExit(t *testing.T) {
	// Divergent paths that never rejoin before exit.
	b := NewBuilder("noexitjoin")
	b.CBra(R0, "a") // 0
	b.Exit()        // 1
	b.Label("a")
	b.Exit() // 2
	p := b.MustBuild()
	if got := p.At(0).Rpc; got != ReconvAtExit(p) {
		t.Fatalf("reconvergence = %d, want exit sentinel %d", got, ReconvAtExit(p))
	}
}

func TestReconvergenceNested(t *testing.T) {
	b := NewBuilder("nested")
	b.CBra(R0, "outer_t") // 0
	b.CBra(R1, "inner_t") // 1
	b.MovI(R2, 1)         // 2
	b.Label("inner_t")
	b.MovI(R2, 2) // 3 inner join
	b.Label("outer_t")
	b.MovI(R3, 3) // 4 outer join
	b.Exit()      // 5
	p := b.MustBuild()
	if got := p.At(0).Rpc; got != 4 {
		t.Fatalf("outer reconvergence = %d, want 4", got)
	}
	if got := p.At(1).Rpc; got != 3 {
		t.Fatalf("inner reconvergence = %d, want 3", got)
	}
}

// TestReconvergencePostDominates verifies, on randomized structured
// programs, the defining property: every conditional branch's Rpc is
// reachable from both outcomes, and the instruction range skipped by
// the branch lies before the reconvergence point.
func TestReconvergencePostDominates(t *testing.T) {
	f := func(seedLens [6]uint8) bool {
		b := NewBuilder("rand")
		// Build a chain of if/else blocks with variable body lengths.
		for i, l := range seedLens {
			thenLabel := b.FreshLabel("t")
			joinLabel := b.FreshLabel("j")
			b.CBra(Reg(i%8), thenLabel)
			for j := 0; j < int(l%5); j++ {
				b.AddI(R9, R9, 1)
			}
			b.Bra(joinLabel)
			b.Label(thenLabel)
			for j := 0; j < int(l%3); j++ {
				b.AddI(R10, R10, 1)
			}
			b.Label(joinLabel)
		}
		b.Exit()
		p, err := b.Build()
		if err != nil {
			return false
		}
		for pc := int32(0); pc < int32(p.Len()); pc++ {
			in := p.At(pc)
			if !in.Op.IsCondBranch() {
				continue
			}
			rpc := in.Rpc
			if rpc < 0 || rpc > ReconvAtExit(p) {
				return false
			}
			if !reaches(p, in.Target(), rpc) || !reaches(p, pc+1, rpc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// reaches does a DFS from pc to target over the CFG.
func reaches(p *Program, from, target int32) bool {
	seen := make(map[int32]bool)
	stack := []int32{from}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pc == target {
			return true
		}
		if pc >= int32(p.Len()) || seen[pc] {
			continue
		}
		seen[pc] = true
		stack = append(stack, p.Successors(pc)...)
	}
	return target == ReconvAtExit(p) // exit sentinel is reached by falling off
}

func TestDisasmRoundTrip(t *testing.T) {
	b := NewBuilder("disasm")
	b.SReg(R0, SRGTid)
	b.MovI(R1, 42)
	b.AddI(R2, R0, 7)
	b.Ld(R3, R2, 16)
	b.St(R2, 8, R3)
	b.CBraZ(R3, "end")
	b.FMul(R4, R3, R1)
	b.Label("end")
	b.Exit()
	p := b.MustBuild()
	d := p.Disasm()
	for _, want := range []string{"sreg", "movi", "ld.global", "st.global", "cbraz", "fmul", "exit", "end:"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

// TestDisasmSharedPCLabelsOrdered: labels that resolve to one PC print
// in name order, identically on every call (tpacf's corr kernel has
// done: and exit: on one instruction).
func TestDisasmSharedPCLabelsOrdered(t *testing.T) {
	b := NewBuilder("shared")
	b.MovI(R1, 1)
	b.CBraZ(R1, "zeta")
	b.CBraZ(R1, "alpha")
	b.Label("zeta")
	b.Label("alpha")
	b.Exit()
	p := b.MustBuild()
	first := p.Disasm()
	if !strings.Contains(first, "alpha:\nzeta:\n") {
		t.Fatalf("labels at one PC not in name order:\n%s", first)
	}
	for i := 0; i < 20; i++ {
		if d := p.Disasm(); d != first {
			t.Fatalf("call %d differs:\n%s\nvs\n%s", i, d, first)
		}
	}
}

func TestFloatBits(t *testing.T) {
	for _, f := range []float64{0, 1, -1, math.Pi, math.Inf(1), 1e-300} {
		if got := B2F(F2B(f)); got != f {
			t.Errorf("roundtrip %v -> %v", f, got)
		}
	}
	if !math.IsNaN(B2F(F2B(math.NaN()))) {
		t.Error("NaN roundtrip failed")
	}
}

func TestSuccessors(t *testing.T) {
	b := NewBuilder("succ")
	b.CBra(R0, "x") // 0
	b.Bra("y")      // 1
	b.Label("x")
	b.Nop() // 2
	b.Label("y")
	b.Exit() // 3
	p := b.MustBuild()
	if s := p.Successors(0); len(s) != 2 || s[0] != 2 || s[1] != 1 {
		t.Fatalf("cond branch successors = %v", s)
	}
	if s := p.Successors(1); len(s) != 1 || s[0] != 3 {
		t.Fatalf("bra successors = %v", s)
	}
	if s := p.Successors(3); s != nil {
		t.Fatalf("exit successors = %v", s)
	}
}
