package isa

import (
	"fmt"
	"maps"
)

// Builder assembles a Program. Emit instructions through the typed
// helpers, mark positions with Label, and reference labels from branches;
// Build resolves labels, validates the program and computes reconvergence
// PCs for all conditional branches.
//
// Builder methods panic on malformed operands (out-of-range registers);
// structural errors (unknown labels, missing exit) are reported by Build.
type Builder struct {
	name     string
	instrs   []Instr
	labels   map[string]int32
	fixups   []fixup // branches whose Imm is a label reference
	pcFixups []pcFixup
	errs     []error
	nextLbl  int
}

type fixup struct {
	pc    int32
	label string
}

// pcFixup binds a synthetic label to an absolute PC (text assembler's
// "@12" form).
type pcFixup struct {
	name string
	pc   int32
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int32)}
}

func (b *Builder) pc() int32 { return int32(len(b.instrs)) }

func (b *Builder) emit(in Instr) *Builder {
	b.instrs = append(b.instrs, in)
	return b
}

func checkReg(r Reg) {
	if r >= NumRegs {
		panic(fmt.Sprintf("isa: register r%d out of range", r))
	}
}

// Label binds name to the next emitted instruction's PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
		return b
	}
	b.labels[name] = b.pc()
	return b
}

// FreshLabel returns a unique label name, for structured-control helpers.
func (b *Builder) FreshLabel(prefix string) string {
	b.nextLbl++
	return fmt.Sprintf(".%s%d", prefix, b.nextLbl)
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: OpNop}) }

// Mov emits dst = a.
func (b *Builder) Mov(dst, a Reg) *Builder {
	checkReg(dst)
	checkReg(a)
	return b.emit(Instr{Op: OpMov, Dst: dst, A: a})
}

// MovI emits dst = imm.
func (b *Builder) MovI(dst Reg, imm int64) *Builder {
	checkReg(dst)
	return b.emit(Instr{Op: OpMovI, Dst: dst, Imm: imm})
}

// MovF emits dst = float immediate f (stored as bits).
func (b *Builder) MovF(dst Reg, f float64) *Builder { return b.MovI(dst, F2B(f)) }

// SReg emits dst = special register sr.
func (b *Builder) SReg(dst Reg, sr SpecialReg) *Builder {
	checkReg(dst)
	return b.emit(Instr{Op: OpSReg, Dst: dst, Imm: int64(sr)})
}

// Param emits dst = kernel parameter at index.
func (b *Builder) Param(dst Reg, index int) *Builder {
	checkReg(dst)
	if index < 0 {
		panic("isa: negative parameter index")
	}
	return b.emit(Instr{Op: OpParam, Dst: dst, Imm: int64(index)})
}

func (b *Builder) bin(op Op, dst, a, src Reg) *Builder {
	checkReg(dst)
	checkReg(a)
	checkReg(src)
	return b.emit(Instr{Op: op, Dst: dst, A: a, B: src})
}

func (b *Builder) binI(op Op, dst, a Reg, imm int64) *Builder {
	checkReg(dst)
	checkReg(a)
	return b.emit(Instr{Op: op, Dst: dst, A: a, BImm: true, Imm: imm})
}

// Integer ALU helpers (register second operand).

func (b *Builder) Add(dst, a, c Reg) *Builder { return b.bin(OpAdd, dst, a, c) }
func (b *Builder) Sub(dst, a, c Reg) *Builder { return b.bin(OpSub, dst, a, c) }
func (b *Builder) Mul(dst, a, c Reg) *Builder { return b.bin(OpMul, dst, a, c) }
func (b *Builder) Mad(dst, a, c Reg) *Builder { return b.bin(OpMad, dst, a, c) }
func (b *Builder) Div(dst, a, c Reg) *Builder { return b.bin(OpDiv, dst, a, c) }
func (b *Builder) Rem(dst, a, c Reg) *Builder { return b.bin(OpRem, dst, a, c) }
func (b *Builder) Min(dst, a, c Reg) *Builder { return b.bin(OpMin, dst, a, c) }
func (b *Builder) Max(dst, a, c Reg) *Builder { return b.bin(OpMax, dst, a, c) }
func (b *Builder) And(dst, a, c Reg) *Builder { return b.bin(OpAnd, dst, a, c) }
func (b *Builder) Or(dst, a, c Reg) *Builder  { return b.bin(OpOr, dst, a, c) }
func (b *Builder) Xor(dst, a, c Reg) *Builder { return b.bin(OpXor, dst, a, c) }
func (b *Builder) Shl(dst, a, c Reg) *Builder { return b.bin(OpShl, dst, a, c) }
func (b *Builder) Shr(dst, a, c Reg) *Builder { return b.bin(OpShr, dst, a, c) }
func (b *Builder) Abs(dst, a Reg) *Builder {
	checkReg(dst)
	checkReg(a)
	return b.emit(Instr{Op: OpAbs, Dst: dst, A: a})
}

// Integer ALU helpers (immediate second operand).

func (b *Builder) AddI(dst, a Reg, imm int64) *Builder { return b.binI(OpAdd, dst, a, imm) }
func (b *Builder) SubI(dst, a Reg, imm int64) *Builder { return b.binI(OpSub, dst, a, imm) }
func (b *Builder) MulI(dst, a Reg, imm int64) *Builder { return b.binI(OpMul, dst, a, imm) }
func (b *Builder) DivI(dst, a Reg, imm int64) *Builder { return b.binI(OpDiv, dst, a, imm) }
func (b *Builder) RemI(dst, a Reg, imm int64) *Builder { return b.binI(OpRem, dst, a, imm) }
func (b *Builder) AndI(dst, a Reg, imm int64) *Builder { return b.binI(OpAnd, dst, a, imm) }
func (b *Builder) OrI(dst, a Reg, imm int64) *Builder  { return b.binI(OpOr, dst, a, imm) }
func (b *Builder) XorI(dst, a Reg, imm int64) *Builder { return b.binI(OpXor, dst, a, imm) }
func (b *Builder) ShlI(dst, a Reg, imm int64) *Builder { return b.binI(OpShl, dst, a, imm) }
func (b *Builder) ShrI(dst, a Reg, imm int64) *Builder { return b.binI(OpShr, dst, a, imm) }
func (b *Builder) MinI(dst, a Reg, imm int64) *Builder { return b.binI(OpMin, dst, a, imm) }
func (b *Builder) MaxI(dst, a Reg, imm int64) *Builder { return b.binI(OpMax, dst, a, imm) }

// Comparisons.

func (b *Builder) SetLT(dst, a, c Reg) *Builder { return b.bin(OpSetLT, dst, a, c) }
func (b *Builder) SetLE(dst, a, c Reg) *Builder { return b.bin(OpSetLE, dst, a, c) }
func (b *Builder) SetEQ(dst, a, c Reg) *Builder { return b.bin(OpSetEQ, dst, a, c) }
func (b *Builder) SetNE(dst, a, c Reg) *Builder { return b.bin(OpSetNE, dst, a, c) }
func (b *Builder) SetGT(dst, a, c Reg) *Builder { return b.bin(OpSetGT, dst, a, c) }
func (b *Builder) SetGE(dst, a, c Reg) *Builder { return b.bin(OpSetGE, dst, a, c) }

func (b *Builder) SetLTI(dst, a Reg, imm int64) *Builder { return b.binI(OpSetLT, dst, a, imm) }
func (b *Builder) SetLEI(dst, a Reg, imm int64) *Builder { return b.binI(OpSetLE, dst, a, imm) }
func (b *Builder) SetEQI(dst, a Reg, imm int64) *Builder { return b.binI(OpSetEQ, dst, a, imm) }
func (b *Builder) SetNEI(dst, a Reg, imm int64) *Builder { return b.binI(OpSetNE, dst, a, imm) }
func (b *Builder) SetGTI(dst, a Reg, imm int64) *Builder { return b.binI(OpSetGT, dst, a, imm) }
func (b *Builder) SetGEI(dst, a Reg, imm int64) *Builder { return b.binI(OpSetGE, dst, a, imm) }

// Sel emits dst = (dst != 0) ? a : c.
func (b *Builder) Sel(dst, a, c Reg) *Builder { return b.bin(OpSel, dst, a, c) }

// Floating point.

func (b *Builder) FAdd(dst, a, c Reg) *Builder { return b.bin(OpFAdd, dst, a, c) }
func (b *Builder) FSub(dst, a, c Reg) *Builder { return b.bin(OpFSub, dst, a, c) }
func (b *Builder) FMul(dst, a, c Reg) *Builder { return b.bin(OpFMul, dst, a, c) }
func (b *Builder) FMad(dst, a, c Reg) *Builder { return b.bin(OpFMad, dst, a, c) }
func (b *Builder) FDiv(dst, a, c Reg) *Builder { return b.bin(OpFDiv, dst, a, c) }
func (b *Builder) FMin(dst, a, c Reg) *Builder { return b.bin(OpFMin, dst, a, c) }
func (b *Builder) FMax(dst, a, c Reg) *Builder { return b.bin(OpFMax, dst, a, c) }

func (b *Builder) unary(op Op, dst, a Reg) *Builder {
	checkReg(dst)
	checkReg(a)
	return b.emit(Instr{Op: op, Dst: dst, A: a})
}

func (b *Builder) FSqrt(dst, a Reg) *Builder { return b.unary(OpFSqrt, dst, a) }
func (b *Builder) FAbs(dst, a Reg) *Builder  { return b.unary(OpFAbs, dst, a) }
func (b *Builder) FNeg(dst, a Reg) *Builder  { return b.unary(OpFNeg, dst, a) }
func (b *Builder) FExp(dst, a Reg) *Builder  { return b.unary(OpFExp, dst, a) }
func (b *Builder) FLog(dst, a Reg) *Builder  { return b.unary(OpFLog, dst, a) }
func (b *Builder) CvtIF(dst, a Reg) *Builder { return b.unary(OpCvtIF, dst, a) }
func (b *Builder) CvtFI(dst, a Reg) *Builder { return b.unary(OpCvtFI, dst, a) }

func (b *Builder) FSetLT(dst, a, c Reg) *Builder { return b.bin(OpFSetLT, dst, a, c) }
func (b *Builder) FSetLE(dst, a, c Reg) *Builder { return b.bin(OpFSetLE, dst, a, c) }
func (b *Builder) FSetGT(dst, a, c Reg) *Builder { return b.bin(OpFSetGT, dst, a, c) }
func (b *Builder) FSetGE(dst, a, c Reg) *Builder { return b.bin(OpFSetGE, dst, a, c) }
func (b *Builder) FSetEQ(dst, a, c Reg) *Builder { return b.bin(OpFSetEQ, dst, a, c) }

// Memory. offset is a byte offset added to the base register.

func (b *Builder) Ld(dst, addr Reg, offset int64) *Builder {
	checkReg(dst)
	checkReg(addr)
	return b.emit(Instr{Op: OpLd, Dst: dst, A: addr, Imm: offset})
}

func (b *Builder) St(addr Reg, offset int64, val Reg) *Builder {
	checkReg(addr)
	checkReg(val)
	return b.emit(Instr{Op: OpSt, A: addr, B: val, Imm: offset})
}

func (b *Builder) LdS(dst, addr Reg, offset int64) *Builder {
	checkReg(dst)
	checkReg(addr)
	return b.emit(Instr{Op: OpLdS, Dst: dst, A: addr, Imm: offset})
}

func (b *Builder) StS(addr Reg, offset int64, val Reg) *Builder {
	checkReg(addr)
	checkReg(val)
	return b.emit(Instr{Op: OpStS, A: addr, B: val, Imm: offset})
}

// Control flow.

// Bra emits an unconditional jump to label.
func (b *Builder) Bra(label string) *Builder {
	b.fixups = append(b.fixups, fixup{b.pc(), label})
	return b.emit(Instr{Op: OpBra})
}

// CBra emits a jump to label taken when cond != 0.
func (b *Builder) CBra(cond Reg, label string) *Builder {
	checkReg(cond)
	b.fixups = append(b.fixups, fixup{b.pc(), label})
	return b.emit(Instr{Op: OpCBra, A: cond, Rpc: NoReconv})
}

// CBraZ emits a jump to label taken when cond == 0.
func (b *Builder) CBraZ(cond Reg, label string) *Builder {
	checkReg(cond)
	b.fixups = append(b.fixups, fixup{b.pc(), label})
	return b.emit(Instr{Op: OpCBraZ, A: cond, Rpc: NoReconv})
}

// Bar emits a block-wide barrier.
func (b *Builder) Bar() *Builder { return b.emit(Instr{Op: OpBar}) }

// Exit emits a thread exit.
func (b *Builder) Exit() *Builder { return b.emit(Instr{Op: OpExit}) }

// Build resolves labels, validates the program, computes reconvergence
// PCs, and returns the immutable Program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.instrs) == 0 {
		return nil, fmt.Errorf("isa: program %q is empty", b.name)
	}
	instrs := make([]Instr, len(b.instrs))
	copy(instrs, b.instrs)
	for _, pf := range b.pcFixups {
		if _, dup := b.labels[pf.name]; dup {
			continue
		}
		if pf.pc < 0 || pf.pc > int32(len(instrs)) {
			return nil, fmt.Errorf("isa: program %q: absolute branch target %d out of range", b.name, pf.pc)
		}
		b.labels[pf.name] = pf.pc
	}
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: program %q: undefined label %q", b.name, f.label)
		}
		if pc >= int32(len(instrs)) {
			return nil, fmt.Errorf("isa: program %q: label %q points past the end", b.name, f.label)
		}
		instrs[f.pc].Imm = int64(pc)
	}
	// Every path must end in Exit; conservatively require the last
	// instruction to be Exit or an unconditional branch.
	last := instrs[len(instrs)-1]
	if last.Op != OpExit && last.Op != OpBra {
		return nil, fmt.Errorf("isa: program %q: must end with exit or bra, got %s", b.name, last.Op)
	}
	hasExit := false
	for _, in := range instrs {
		if in.Op == OpExit {
			hasExit = true
			break
		}
	}
	if !hasExit {
		return nil, fmt.Errorf("isa: program %q has no exit instruction", b.name)
	}

	p := &Program{Name: b.name, Instrs: instrs, labels: maps.Clone(b.labels)}
	if err := computeReconvergence(p); err != nil {
		return nil, fmt.Errorf("isa: program %q: %w", b.name, err)
	}
	p.precompute()
	return p, nil
}

// MustBuild is Build but panics on error; intended for statically known
// kernels constructed at package initialization.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
