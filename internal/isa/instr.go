package isa

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// NoReconv marks a branch with no (or not yet computed) reconvergence PC.
const NoReconv int32 = -1

// Instr is one decoded instruction. Instructions are fixed-format: an
// opcode, a destination register, two source operands (the second may be
// an immediate) and an immediate field whose meaning depends on the
// opcode (memory offset, branch target, parameter index, ...).
type Instr struct {
	Op   Op
	Dst  Reg
	A    Reg
	B    Reg
	BImm bool  // B operand is Imm rather than a register
	Imm  int64 // immediate / branch target PC / offset / selector
	Rpc  int32 // reconvergence PC for conditional branches, else NoReconv
}

// Target returns the branch target PC; valid only for branch opcodes.
func (in Instr) Target() int32 { return int32(in.Imm) }

// String renders the instruction in an assembly-like syntax.
func (in Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", in.Op)
	switch in.Op {
	case OpNop, OpBar, OpExit:
	case OpMovI:
		fmt.Fprintf(&b, "r%d, %d", in.Dst, in.Imm)
	case OpSReg:
		fmt.Fprintf(&b, "r%d, %%%s", in.Dst, sregName(SpecialReg(in.Imm)))
	case OpParam:
		fmt.Fprintf(&b, "r%d, param[%d]", in.Dst, in.Imm)
	case OpMov, OpAbs, OpFAbs, OpFNeg, OpFSqrt, OpFExp, OpFLog, OpCvtIF, OpCvtFI:
		fmt.Fprintf(&b, "r%d, r%d", in.Dst, in.A)
	case OpLd, OpLdS:
		fmt.Fprintf(&b, "r%d, [r%d%+d]", in.Dst, in.A, in.Imm)
	case OpSt, OpStS:
		fmt.Fprintf(&b, "[r%d%+d], %s", in.A, in.Imm, in.operandB())
	case OpBra:
		fmt.Fprintf(&b, "@%d", in.Imm)
	case OpCBra:
		fmt.Fprintf(&b, "r%d, @%d (rpc=%d)", in.A, in.Imm, in.Rpc)
	case OpCBraZ:
		fmt.Fprintf(&b, "!r%d, @%d (rpc=%d)", in.A, in.Imm, in.Rpc)
	default:
		fmt.Fprintf(&b, "r%d, r%d, %s", in.Dst, in.A, in.operandB())
	}
	return strings.TrimRight(b.String(), " ")
}

func (in Instr) operandB() string {
	if in.BImm {
		return fmt.Sprintf("%d", in.Imm)
	}
	return fmt.Sprintf("r%d", in.B)
}

func sregName(s SpecialReg) string {
	switch s {
	case SRTid:
		return "tid"
	case SRNtid:
		return "ntid"
	case SRCtaid:
		return "ctaid"
	case SRNctaid:
		return "nctaid"
	case SRLane:
		return "lane"
	case SRWarp:
		return "warp"
	case SRGTid:
		return "gtid"
	}
	return fmt.Sprintf("sreg%d", int64(s))
}

// Program is a validated instruction sequence with reconvergence points
// resolved. Programs are immutable after Build.
type Program struct {
	Name   string
	Instrs []Instr
	labels map[string]int32
	meta   []InstrMeta // precomputed issue metadata, index-parallel with Instrs
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// At returns the instruction at pc.
func (p *Program) At(pc int32) Instr { return p.Instrs[pc] }

// LabelPC returns the PC a label resolved to, for tests and tooling.
func (p *Program) LabelPC(name string) (int32, bool) {
	pc, ok := p.labels[name]
	return pc, ok
}

// Disasm renders the whole program with PCs and label annotations;
// labels that share a PC print in name order.
func (p *Program) Disasm() string {
	names := make([]string, 0, len(p.labels))
	for name := range p.labels {
		names = append(names, name)
	}
	sort.Strings(names)
	byPC := make(map[int32][]string)
	for _, name := range names {
		byPC[p.labels[name]] = append(byPC[p.labels[name]], name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// program %s (%d instrs)\n", p.Name, len(p.Instrs))
	for pc, in := range p.Instrs {
		for _, l := range byPC[int32(pc)] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %4d: %s\n", pc, in)
	}
	return b.String()
}

// Value helpers: the ISA stores floats as IEEE-754 bit patterns in int64
// registers and memory words.

// F2B converts a float64 to its register bit pattern.
func F2B(f float64) int64 { return int64(math.Float64bits(f)) }

// B2F converts a register bit pattern to float64.
func B2F(b int64) float64 { return math.Float64frombits(uint64(b)) }
