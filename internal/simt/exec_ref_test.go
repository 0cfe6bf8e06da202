package simt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"cawa/internal/isa"
	"cawa/internal/memory"
)

// This file keeps the interpreter ExecInto replaced — one lane at a
// time, the opcode switch re-run per lane, over a lane-major register
// file — as the oracle the warp-wide execute is compared against. The
// bodies are the old code unchanged except that the register file is a
// parameter and cvt.fi goes through cvtFI (the old bare conversion was
// host-dependent; see cvtFI).

// refExecInto is the per-lane ExecInto. w supplies identity and the
// reconvergence stack (code the rewrite did not touch); regs is the
// lane-major register file.
func refExecInto(w *Warp, regs [][isa.NumRegs]int64, prog *isa.Program, ctx *ExecContext, out *Step) {
	w.popReconverged()
	e := w.top()
	pc := e.PC
	mask := e.Mask
	in := prog.At(pc)

	st := out
	*st = Step{PC: pc, Instr: in, Mask: mask, Lanes: bits.OnesCount64(mask), Kind: StepCompute,
		Accesses: st.Accesses[:0]}

	switch in.Op {
	case isa.OpBra:
		e.PC = in.Target()

	case isa.OpCBra, isa.OpCBraZ:
		st.CondBranch = true
		var taken uint64
		for lane := 0; lane < w.Size; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			v := regs[lane][in.A]
			if (in.Op == isa.OpCBra) == (v != 0) {
				taken |= 1 << uint(lane)
			}
		}
		st.TakenMask = taken
		switch {
		case taken == mask:
			e.PC = in.Target()
		case taken == 0:
			e.PC = pc + 1
		default:
			st.Divergent = true
			rpc := in.Rpc
			e.PC = rpc
			w.stack = append(w.stack,
				StackEntry{PC: pc + 1, RPC: rpc, Mask: mask &^ taken},
				StackEntry{PC: in.Target(), RPC: rpc, Mask: taken},
			)
		}

	case isa.OpBar:
		st.Kind = StepBarrier
		w.AtBarrier = true
		e.PC = pc + 1

	case isa.OpExit:
		st.Kind = StepExit
		w.exitLanes(mask)

	case isa.OpLd, isa.OpSt:
		st.Kind = StepMem
		st.IsLoad = in.Op == isa.OpLd
		for lane := 0; lane < w.Size; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			addr := regs[lane][in.A] + in.Imm
			st.Accesses = append(st.Accesses, MemAccess{Lane: lane, Addr: addr})
			switch {
			case st.IsLoad && ctx.Log != nil:
				regs[lane][in.Dst] = ctx.Log.Load(addr)
			case st.IsLoad:
				regs[lane][in.Dst] = ctx.Mem.Load(addr)
			case ctx.Log != nil:
				ctx.Log.Store(addr, regs[lane][in.B])
			default:
				ctx.Mem.Store(addr, regs[lane][in.B])
			}
		}
		e.PC = pc + 1

	case isa.OpLdS, isa.OpStS:
		st.Kind = StepSMem
		st.IsLoad = in.Op == isa.OpLdS
		for lane := 0; lane < w.Size; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			addr := regs[lane][in.A] + in.Imm
			idx := addr / 8
			if idx < 0 || idx >= int64(len(ctx.Shared)) {
				panic(fmt.Sprintf("simt: %s: shared-memory address %#x out of range (block %d, lane %d, pc %d)",
					prog.Name, addr, ctx.BlockID, lane, pc))
			}
			st.Accesses = append(st.Accesses, MemAccess{Lane: lane, Addr: addr})
			if st.IsLoad {
				regs[lane][in.Dst] = ctx.Shared[idx]
			} else {
				ctx.Shared[idx] = regs[lane][in.B]
			}
		}
		e.PC = pc + 1

	default:
		for lane := 0; lane < w.Size; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			refExecALU(w, regs, lane, in, ctx)
		}
		e.PC = pc + 1
	}

	if w.Done() {
		st.NextPC = -1
	} else {
		st.NextPC = w.PC()
	}
}

// refExecALU computes one lane's result for a non-memory, non-control
// instruction.
func refExecALU(w *Warp, regs [][isa.NumRegs]int64, lane int, in isa.Instr, ctx *ExecContext) {
	r := &regs[lane]
	a := r[in.A]
	var b int64
	if in.BImm {
		b = in.Imm
	} else {
		b = r[in.B]
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpMov:
		r[in.Dst] = a
	case isa.OpMovI:
		r[in.Dst] = in.Imm
	case isa.OpSReg:
		r[in.Dst] = refSpecialReg(w, lane, isa.SpecialReg(in.Imm), ctx)
	case isa.OpParam:
		idx := int(in.Imm)
		if idx >= len(ctx.Params) {
			panic(fmt.Sprintf("simt: parameter index %d out of range (have %d)", idx, len(ctx.Params)))
		}
		r[in.Dst] = ctx.Params[idx]
	case isa.OpAdd:
		r[in.Dst] = a + b
	case isa.OpSub:
		r[in.Dst] = a - b
	case isa.OpMul:
		r[in.Dst] = a * b
	case isa.OpMad:
		r[in.Dst] = a*b + r[in.Dst]
	case isa.OpDiv:
		if b == 0 {
			r[in.Dst] = 0
		} else {
			r[in.Dst] = a / b
		}
	case isa.OpRem:
		if b == 0 {
			r[in.Dst] = 0
		} else {
			r[in.Dst] = a % b
		}
	case isa.OpMin:
		r[in.Dst] = min(a, b)
	case isa.OpMax:
		r[in.Dst] = max(a, b)
	case isa.OpAnd:
		r[in.Dst] = a & b
	case isa.OpOr:
		r[in.Dst] = a | b
	case isa.OpXor:
		r[in.Dst] = a ^ b
	case isa.OpShl:
		r[in.Dst] = a << clampShift(b)
	case isa.OpShr:
		r[in.Dst] = a >> clampShift(b)
	case isa.OpAbs:
		if a < 0 {
			r[in.Dst] = -a
		} else {
			r[in.Dst] = a
		}
	case isa.OpSetLT:
		r[in.Dst] = b2i(a < b)
	case isa.OpSetLE:
		r[in.Dst] = b2i(a <= b)
	case isa.OpSetEQ:
		r[in.Dst] = b2i(a == b)
	case isa.OpSetNE:
		r[in.Dst] = b2i(a != b)
	case isa.OpSetGT:
		r[in.Dst] = b2i(a > b)
	case isa.OpSetGE:
		r[in.Dst] = b2i(a >= b)
	case isa.OpSel:
		if r[in.Dst] != 0 {
			r[in.Dst] = a
		} else {
			r[in.Dst] = b
		}
	case isa.OpFAdd:
		r[in.Dst] = isa.F2B(isa.B2F(a) + isa.B2F(b))
	case isa.OpFSub:
		r[in.Dst] = isa.F2B(isa.B2F(a) - isa.B2F(b))
	case isa.OpFMul:
		r[in.Dst] = isa.F2B(isa.B2F(a) * isa.B2F(b))
	case isa.OpFMad:
		r[in.Dst] = isa.F2B(isa.B2F(a)*isa.B2F(b) + isa.B2F(r[in.Dst]))
	case isa.OpFDiv:
		r[in.Dst] = isa.F2B(isa.B2F(a) / isa.B2F(b))
	case isa.OpFSqrt:
		r[in.Dst] = isa.F2B(math.Sqrt(isa.B2F(a)))
	case isa.OpFMin:
		r[in.Dst] = isa.F2B(math.Min(isa.B2F(a), isa.B2F(b)))
	case isa.OpFMax:
		r[in.Dst] = isa.F2B(math.Max(isa.B2F(a), isa.B2F(b)))
	case isa.OpFAbs:
		r[in.Dst] = isa.F2B(math.Abs(isa.B2F(a)))
	case isa.OpFNeg:
		r[in.Dst] = isa.F2B(-isa.B2F(a))
	case isa.OpFExp:
		r[in.Dst] = isa.F2B(math.Exp(isa.B2F(a)))
	case isa.OpFLog:
		r[in.Dst] = isa.F2B(math.Log(isa.B2F(a)))
	case isa.OpCvtIF:
		r[in.Dst] = isa.F2B(float64(a))
	case isa.OpCvtFI:
		r[in.Dst] = cvtFI(isa.B2F(a))
	case isa.OpFSetLT:
		r[in.Dst] = b2i(isa.B2F(a) < isa.B2F(b))
	case isa.OpFSetLE:
		r[in.Dst] = b2i(isa.B2F(a) <= isa.B2F(b))
	case isa.OpFSetGT:
		r[in.Dst] = b2i(isa.B2F(a) > isa.B2F(b))
	case isa.OpFSetGE:
		r[in.Dst] = b2i(isa.B2F(a) >= isa.B2F(b))
	case isa.OpFSetEQ:
		r[in.Dst] = b2i(isa.B2F(a) == isa.B2F(b))
	default:
		panic(fmt.Sprintf("simt: unimplemented opcode %s", in.Op))
	}
}

func refSpecialReg(w *Warp, lane int, sr isa.SpecialReg, ctx *ExecContext) int64 {
	tid := int64(w.IndexInBlock*w.Size + lane)
	switch sr {
	case isa.SRTid:
		return tid
	case isa.SRNtid:
		return int64(ctx.BlockDim)
	case isa.SRCtaid:
		return int64(ctx.BlockID)
	case isa.SRNctaid:
		return int64(ctx.GridDim)
	case isa.SRLane:
		return int64(lane)
	case isa.SRWarp:
		return int64(w.IndexInBlock)
	case isa.SRGTid:
		return int64(ctx.BlockID)*int64(ctx.BlockDim) + tid
	}
	panic(fmt.Sprintf("simt: unknown special register %d", int64(sr)))
}

// Geometry of the differential world: a global memory just past
// memory.Base, a small shared memory, four parameters.
const (
	refGlobalWords = 64
	refSharedWords = 32
)

// execCase is one instruction executed once from one initial state.
type execCase struct {
	in     isa.Instr
	size   int
	lanes  int    // lanes that exist (lanes < size is a partial last warp)
	mask   uint64 // active lanes; ANDed with the existing ones, all of them if that leaves none
	useLog bool   // global traffic goes through a StoreLog
	// reg is the initial value of register r in lane; it is called for
	// every register of every lane below size, existing or not.
	reg func(lane int, r isa.Reg) int64
}

// refWorld is one side of the comparison.
type refWorld struct {
	w     *Warp
	ctx   ExecContext
	step  Step
	panic string // recovered panic message, "" if none
}

func newRefWorld(c execCase) *refWorld {
	// The instruction sits at PC 0 of an otherwise inert program; branch
	// targets and reconvergence PCs are only ever stored, never fetched.
	x := &refWorld{w: NewWarp(5, 3, 1, c.lanes, c.size, 4)}
	if m := c.mask & x.w.initial; m != 0 {
		x.w.stack[0].Mask = m
	}
	mem := memory.New(memory.Base + refGlobalWords*memory.WordBytes)
	for i := int64(0); i < refGlobalWords; i++ {
		mem.Store(memory.Base+i*memory.WordBytes, 1000+i)
	}
	x.ctx = ExecContext{
		Mem:      mem,
		Shared:   make([]int64, refSharedWords),
		Params:   []int64{11, -22, math.MinInt64, 44},
		BlockID:  3,
		GridDim:  7,
		BlockDim: 2*c.size + 5,
	}
	for i := range x.ctx.Shared {
		x.ctx.Shared[i] = int64(2000 + i)
	}
	if c.useLog {
		x.ctx.Log = memory.NewStoreLog(mem)
		x.ctx.Log.Store(memory.Base+8, -77) // something to forward from
	}
	return x
}

// run executes f, recording a panic instead of propagating it.
func (x *refWorld) run(f func()) {
	defer func() {
		if r := recover(); r != nil {
			x.panic = fmt.Sprint(r)
		}
	}()
	f()
}

// diffExec executes c with ExecInto and with the per-lane reference and
// returns a description of the first difference, "" if there is none:
// every register of every lane, the Step record, the reconvergence
// stack and warp flags, shared and global memory. When both sides panic
// with the same message the Step is not compared (it is garbage), the
// state still is.
func diffExec(c execCase) string {
	prog := &isa.Program{Name: "ref", Instrs: []isa.Instr{c.in, {Op: isa.OpExit}, {Op: isa.OpExit}, {Op: isa.OpExit}}}
	got, want := newRefWorld(c), newRefWorld(c)
	regs := make([][isa.NumRegs]int64, c.size)
	for lane := 0; lane < c.size; lane++ {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			v := c.reg(lane, r)
			got.w.SetReg(lane, r, v)
			regs[lane][r] = v
		}
	}
	got.run(func() { ExecInto(got.w, prog, &got.ctx, &got.step) })
	want.run(func() { refExecInto(want.w, regs, prog, &want.ctx, &want.step) })

	if got.panic != want.panic {
		return fmt.Sprintf("panic %q, reference %q", got.panic, want.panic)
	}
	for lane := 0; lane < c.size; lane++ {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if g, w := got.w.Reg(lane, r), regs[lane][r]; g != w {
				active := got.step.Mask&(1<<uint(lane)) != 0
				return fmt.Sprintf("lane %d (active=%v) r%d = %#x, reference %#x", lane, active, r, g, w)
			}
		}
	}
	if got.panic == "" {
		g, w := &got.step, &want.step
		switch {
		case g.PC != w.PC || g.Instr != w.Instr || g.Kind != w.Kind || g.Mask != w.Mask || g.Lanes != w.Lanes || g.IsLoad != w.IsLoad:
			return fmt.Sprintf("step header %+v, reference %+v", *g, *w)
		case g.CondBranch != w.CondBranch || g.Divergent != w.Divergent || g.TakenMask != w.TakenMask:
			return fmt.Sprintf("branch outcome cond=%v div=%v taken=%#x, reference cond=%v div=%v taken=%#x",
				g.CondBranch, g.Divergent, g.TakenMask, w.CondBranch, w.Divergent, w.TakenMask)
		case g.NextPC != w.NextPC:
			return fmt.Sprintf("NextPC %d, reference %d", g.NextPC, w.NextPC)
		case !slices.Equal(g.Accesses, w.Accesses):
			return fmt.Sprintf("Accesses %v, reference %v", g.Accesses, w.Accesses)
		}
	}
	if !slices.Equal(got.w.stack, want.w.stack) || got.w.exited != want.w.exited || got.w.AtBarrier != want.w.AtBarrier {
		return fmt.Sprintf("warp stack %v exited=%#x bar=%v, reference %v exited=%#x bar=%v",
			got.w.stack, got.w.exited, got.w.AtBarrier, want.w.stack, want.w.exited, want.w.AtBarrier)
	}
	if !slices.Equal(got.ctx.Shared, want.ctx.Shared) {
		return fmt.Sprintf("shared memory %v, reference %v", got.ctx.Shared, want.ctx.Shared)
	}
	// Global memory as a load sees it, then as the flushed log leaves it.
	for pass := 0; pass < 2; pass++ {
		for addr := int64(0); addr < got.ctx.Mem.Size(); addr += memory.WordBytes {
			g, w := got.ctx.Mem.Load(addr), want.ctx.Mem.Load(addr)
			if c.useLog && pass == 0 {
				g, w = got.ctx.Log.Load(addr), want.ctx.Log.Load(addr)
			}
			if g != w {
				return fmt.Sprintf("global memory %#x = %d, reference %d (pass %d)", addr, g, w, pass)
			}
		}
		if !c.useLog {
			break
		}
		// A logged store to an unmapped address panics only here.
		got.run(func() { got.ctx.Log.FlushThrough(0) })
		want.run(func() { want.ctx.Log.FlushThrough(0) })
		if got.panic != want.panic {
			return fmt.Sprintf("flush panic %q, reference %q", got.panic, want.panic)
		}
	}
	return ""
}

// edgeValues are the operand words the differential table is built from:
// integer extremes, shift counts below 0 and at or past 64, divisors 0
// and -1, and the bit patterns of NaN (quiet, and signaling with a
// payload), the infinities, -0 and floats at and beyond the int64 range.
var edgeValues = []int64{
	0, -1, 1, 2, 7, -5, 63, 64, 65, 200, -64,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 1 << 32, -(1 << 31),
	isa.F2B(math.NaN()), isa.F2B(math.Inf(1)), isa.F2B(math.Inf(-1)), isa.F2B(math.Copysign(0, -1)),
	isa.F2B(1.5), isa.F2B(-2.9), isa.F2B(1e19), isa.F2B(-1e19), isa.F2B(0x1p63), isa.F2B(-0x1p63),
	isa.F2B(math.Nextafter(0x1p63, 0)), isa.F2B(math.SmallestNonzeroFloat64), isa.F2B(math.MaxFloat64),
	0x7ff0_0000_0000_0abc,
}

func edge(i int) int64 { return edgeValues[((i%len(edgeValues))+len(edgeValues))%len(edgeValues)] }

// filler is a register value that names its lane and register, so a
// write to the wrong place shows.
func filler(lane int, r isa.Reg) int64 { return 0x5a5a_0000_0000 + int64(lane)<<8 + int64(r) }

// refMask is one of the mask shapes every case is run under.
type refMask struct {
	name  string
	lanes func(size int) int
	mask  func(size int) uint64
}

var refMasks = []refMask{
	{"full", func(size int) int { return size }, func(int) uint64 { return ^uint64(0) }},
	{"single", func(size int) int { return size }, func(size int) uint64 { return 1 << uint(size/2+1) }},
	{"sparse", func(size int) int { return size }, func(int) uint64 { return 0x8421_a5c3_8421_a5c3 }},
	// The top lane alone: lane 63 of a 64-wide warp.
	{"top", func(size int) int { return size }, func(size int) uint64 { return 1 << uint(size-1) }},
	// A partial last warp: the lanes at and above size-3 never existed.
	{"partial", func(size int) int { return size - 3 }, func(int) uint64 { return ^uint64(0) }},
}

var refSizes = []int{8, 32, 64}

// refAddrPatterns are the address rows the memory cases and the fuzz
// seeds are built from: word returns the word a lane names, counted from
// the first valid one, for a warp of size lanes (the callers wrap it to
// the memory's size). With 8-byte words a 128-byte line holds 16 of them.
var refAddrPatterns = []struct {
	name string
	word func(lane, size int) int64
}{
	// Every lane one word: a load reads it once; a store collides.
	{"uniform", func(int, int) int64 { return 1 }},
	{"unit", func(lane, _ int) int64 { return int64(lane) }},
	{"descending", func(lane, size int) int64 { return int64(size - 1 - lane) }},
	// Distinct words of one line, out of order.
	{"one-line", func(lane, _ int) int64 { return int64(lane*5) % 16 }},
	// Two lines, alternating lane by lane.
	{"two-lines", func(lane, _ int) int64 { return int64(lane&1)*16 + int64(lane>>1)%16 }},
	{"scattered", func(lane, _ int) int64 { return int64(lane) * 5 }},
}

// aluOps are the opcodes execALU handles (everything below the memory
// and control-flow group).
func aluOps() []isa.Op {
	var ops []isa.Op
	for op := isa.OpNop; op < isa.OpLd; op++ {
		ops = append(ops, op)
	}
	return ops
}

// refAliasings are the operand-register assignments: distinct, and every
// way two or three of them can coincide.
var refAliasings = []struct {
	name      string
	dst, a, b isa.Reg
}{
	{"distinct", 9, 4, 61},
	{"dst=a", 9, 9, 61},
	{"dst=b", 9, 4, 9},
	{"a=b", 9, 4, 4},
	{"all", 63, 63, 63},
}

// TestExecMatchesPerLaneReference is the semantics check of the
// warp-wide execute: every opcode against the per-lane interpreter it
// replaced, under every mask shape, warp width, operand aliasing and
// immediate form, over the edge values. All 64 registers of all lanes
// are compared, so an inactive or non-existent lane that changed fails.
func TestExecMatchesPerLaneReference(t *testing.T) {
	n := 0
	check := func(name string, c execCase) {
		t.Helper()
		n++
		if d := diffExec(c); d != "" {
			t.Errorf("%s: %s size=%d lanes=%d mask=%#x log=%v: %s", name, c.in, c.size, c.lanes, c.mask, c.useLog, d)
		}
	}

	// Shapes: every ALU opcode x mask x width x aliasing x BImm, operands
	// walking the edge values.
	for _, op := range aluOps() {
		for _, m := range refMasks {
			for _, size := range refSizes {
				for _, al := range refAliasings {
					for _, bimm := range []bool{false, true} {
						k := n
						in := isa.Instr{Op: op, Dst: al.dst, A: al.a, B: al.b, BImm: bimm, Imm: edge(k), Rpc: isa.NoReconv}
						switch op {
						case isa.OpSReg:
							in.Imm = int64(k % 7)
						case isa.OpParam:
							in.Imm = int64(k % 4)
						}
						check(m.name+"/"+al.name, execCase{in: in, size: size, lanes: m.lanes(size), mask: m.mask(size),
							reg: func(lane int, r isa.Reg) int64 {
								switch r {
								case al.a:
									return edge(k + lane)
								case al.b:
									return edge(3*k + 5*lane)
								case al.dst:
									return edge(7*k + 11*lane)
								}
								return filler(lane, r)
							}})
					}
				}
			}
		}
	}

	// Values: every ALU opcode over every (a, b) pair of edge values, in
	// register form (pairs packed 32 to a warp) and immediate form (b is
	// the immediate, the lanes carry every a), Dst rotating through the
	// edge values for the opcodes that read it.
	ne := len(edgeValues)
	for _, op := range aluOps() {
		if op == isa.OpSReg || op == isa.OpParam {
			continue // their immediates are selectors, covered below
		}
		for dshift := 0; dshift < 3; dshift++ {
			for base := 0; base < ne*ne; base += 32 {
				in := isa.Instr{Op: op, Dst: 2, A: 0, B: 1, Rpc: isa.NoReconv}
				check("pairs", execCase{in: in, size: 32, lanes: 32, mask: ^uint64(0),
					reg: func(lane int, r isa.Reg) int64 {
						p := base + lane
						switch r {
						case 0:
							return edge(p / ne)
						case 1:
							return edge(p % ne)
						case 2:
							return edge(p + 7*dshift)
						}
						return filler(lane, r)
					}})
			}
			for bi := 0; bi < ne; bi++ {
				in := isa.Instr{Op: op, Dst: 2, A: 0, BImm: true, Imm: edge(bi), Rpc: isa.NoReconv}
				check("imm", execCase{in: in, size: 32, lanes: 32, mask: ^uint64(0),
					reg: func(lane int, r isa.Reg) int64 {
						switch r {
						case 0:
							return edge(lane)
						case 2:
							return edge(lane + bi + 7*dshift)
						}
						return filler(lane, r)
					}})
			}
		}
	}

	// Selectors, including the ones that panic, and an opcode past the
	// last one.
	for _, m := range refMasks {
		for _, size := range refSizes {
			fill := execCase{size: size, lanes: m.lanes(size), mask: m.mask(size), reg: filler}
			for sel := int64(-1); sel <= 8; sel++ {
				fill.in = isa.Instr{Op: isa.OpSReg, Dst: 5, Imm: sel}
				check(m.name+"/sreg", fill)
				fill.in = isa.Instr{Op: isa.OpParam, Dst: 5, Imm: sel}
				check(m.name+"/param", fill)
			}
			fill.in = isa.Instr{Op: isa.OpExit + 1, Dst: 5, A: 6, B: 7}
			check(m.name+"/unimplemented", fill)
			for _, op := range []isa.Op{isa.OpBra, isa.OpBar, isa.OpExit} {
				fill.in = isa.Instr{Op: op, Imm: 2, Rpc: isa.NoReconv}
				check(m.name+"/control", fill)
			}
		}
	}

	// Conditional branches: uniform taken, uniform not taken, divergent by
	// lane parity, and the edge values as predicates.
	preds := []func(lane int) int64{
		func(int) int64 { return 0 },
		func(int) int64 { return math.MinInt64 },
		func(lane int) int64 { return int64(lane & 1) },
		func(lane int) int64 { return edge(lane) },
	}
	for _, op := range []isa.Op{isa.OpCBra, isa.OpCBraZ} {
		for _, m := range refMasks {
			for _, size := range refSizes {
				for _, pred := range preds {
					for _, tgt := range []int64{1, 3} {
						check(m.name+"/branch", execCase{
							in:   isa.Instr{Op: op, A: 12, Imm: tgt, Rpc: 3},
							size: size, lanes: m.lanes(size), mask: m.mask(size),
							reg: func(lane int, r isa.Reg) int64 {
								if r == 12 {
									return pred(lane)
								}
								return filler(lane, r)
							}})
					}
				}
			}
		}
	}

	// Memory: every address pattern of refAddrPatterns (among them the
	// uniform row a load reads once and a store collides on, which the
	// last lane must win), plus unaligned and one lane out of range (the
	// panic names it); global traffic direct and through a store log;
	// address, data and destination registers aliased.
	type memShape struct {
		op    isa.Op
		base  int64 // first valid byte address
		words int64
	}
	shapes := []memShape{
		{isa.OpLd, memory.Base, refGlobalWords}, {isa.OpSt, memory.Base, refGlobalWords},
		{isa.OpLdS, 0, refSharedWords}, {isa.OpStS, 0, refSharedWords},
	}
	for _, sh := range shapes {
		for _, m := range refMasks {
			for _, size := range refSizes {
				for _, pat := range refAddrPatterns {
					for _, al := range refAliasings {
						for _, variant := range []string{"", "log", "unaligned", "oob"} {
							const imm = 24
							check(m.name+"/"+pat.name+"/"+al.name+"/"+variant, execCase{
								in:   isa.Instr{Op: sh.op, Dst: al.dst, A: al.a, B: al.b, Imm: imm},
								size: size, lanes: m.lanes(size), mask: m.mask(size), useLog: variant == "log",
								reg: func(lane int, r isa.Reg) int64 {
									switch {
									case r == al.a:
										addr := sh.base + pat.word(lane, size)%sh.words*memory.WordBytes - imm
										if variant == "unaligned" {
											addr += 3
										}
										if variant == "oob" && lane == size/2+1 {
											addr += sh.words * memory.WordBytes
										}
										return addr
									case r == al.b:
										return 9000 + int64(lane)
									}
									return filler(lane, r)
								}})
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", n)
}

// FuzzExecAgainstPerLane: one arbitrary instruction from an arbitrary
// register state must leave ExecInto and the per-lane reference with the
// same registers in every lane, Step, stack and memory, or make both
// panic with the same message.
func FuzzExecAgainstPerLane(f *testing.F) {
	words := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	all := words(edgeValues...)
	// geom: width = refSizes[geom%3], lanes = 1 + geom/3 % width, store log from 128 up.
	for op := isa.OpNop; op <= isa.OpExit+1; op++ {
		f.Add(uint8(op), uint8(9), uint8(4), uint8(61), false, int64(2), ^uint64(0), uint8(94), all)                   // 32 of 32 lanes
		f.Add(uint8(op), uint8(9), uint8(9), uint8(61), false, int64(16), ^uint64(0), uint8(21), all)                  // 8 of 8, Dst==A
		f.Add(uint8(op), uint8(9), uint8(9), uint8(9), true, int64(-1), uint64(0x8421_a5c3_8421_a5c3), uint8(62), all) // 21 of 64, sparse, all aliased
		f.Add(uint8(op), uint8(63), uint8(4), uint8(63), true, int64(math.MinInt64), uint64(1)<<63, uint8(191), words(math.MinInt64, -1, 0))
	}
	// Memory: every address pattern, and unit stride with one lane out of
	// range, under a full, a partial and a sparse mask at every width,
	// with and without a store log. Operands are (A, B, Dst) per lane,
	// with A = 8 * the folded word index.
	geomFor := func(size int, log bool) uint8 { // the geom with the most lanes that width and log allow
		best := -1
		for g := 0; g < 256; g++ {
			if refSizes[g%3] == size && (g >= 128) == log && (best < 0 || g/3%size > best/3%size) {
				best = g
			}
		}
		return uint8(best)
	}
	for _, op := range []isa.Op{isa.OpLd, isa.OpSt, isa.OpLdS, isa.OpStS} {
		valid, first := int64(refGlobalWords), int64(0) // valid words, and the fold index of the first
		if op == isa.OpLdS || op == isa.OpStS {
			valid, first = refSharedWords, 1
		}
		for _, size := range refSizes {
			for p := 0; p <= len(refAddrPatterns); p++ {
				var row []int64
				for lane := 0; lane < size; lane++ {
					idx := first + int64(lane)%valid
					switch {
					case p < len(refAddrPatterns):
						idx = first + refAddrPatterns[p].word(lane, size)%valid
					case lane == size/2+1:
						idx = first + valid // one past the last valid word
					}
					row = append(row, 8*idx, 9000+int64(lane), filler(lane, 9))
				}
				for _, mask := range []uint64{^uint64(0), ^uint64(0) >> (64 - size/2), 0x8421_a5c3_8421_a5c3} {
					for _, log := range []bool{false, true} {
						f.Add(uint8(op), uint8(9), uint8(4), uint8(61), false, int64(24), mask, geomFor(size, log), words(row...))
					}
				}
			}
		}
	}
	for sel := int64(-1); sel <= 7; sel++ { // every selector, and one past each end
		f.Add(uint8(isa.OpSReg), uint8(5), uint8(0), uint8(0), false, sel, uint64(0xa5c3), uint8(62), all)
		f.Add(uint8(isa.OpParam), uint8(5), uint8(0), uint8(0), false, sel, uint64(0xa5c3), uint8(62), all)
	}
	f.Fuzz(func(t *testing.T, op, dst, a, b uint8, bimm bool, imm int64, mask uint64, geom uint8, operands []byte) {
		size := refSizes[geom%3]
		c := execCase{
			in: isa.Instr{Op: isa.Op(op), Dst: isa.Reg(dst % isa.NumRegs), A: isa.Reg(a % isa.NumRegs), B: isa.Reg(b % isa.NumRegs),
				BImm: bimm, Imm: imm, Rpc: int32(imm>>32) % 4},
			size: size, lanes: 1 + int(geom/3)%size, mask: mask, useLog: geom >= 128,
		}
		word := func(i int) int64 {
			if len(operands) < 8 {
				return int64(i)
			}
			var v uint64
			for k := 0; k < 8; k++ {
				v |= uint64(operands[(8*i+k)%len(operands)]) << (8 * k)
			}
			return int64(v)
		}
		// Memory opcodes get their address words folded to just around the
		// valid range, so most lanes hit memory and some fall off it: bits
		// 3 and up pick the word (two past the valid ones, or one below
		// and one past for shared memory), the low three a byte in it, so
		// an operand of 8*i names word i and equal operands one address.
		fold := func(v int64) int64 { return v }
		switch c.in.Op {
		case isa.OpLd, isa.OpSt:
			fold = func(v int64) int64 {
				return memory.Base - imm + ((v>>3)%(refGlobalWords+2)+refGlobalWords+2)%(refGlobalWords+2)*memory.WordBytes + v&7
			}
		case isa.OpLdS, isa.OpStS:
			fold = func(v int64) int64 {
				return -imm + (((v>>3)%(refSharedWords+2)+refSharedWords+2)%(refSharedWords+2)-1)*memory.WordBytes + v&7
			}
		}
		c.reg = func(lane int, r isa.Reg) int64 {
			switch r {
			case c.in.A:
				return fold(word(3 * lane))
			case c.in.B:
				return word(3*lane + 1)
			case c.in.Dst:
				return word(3*lane + 2)
			}
			return filler(lane, r)
		}
		if d := diffExec(c); d != "" {
			t.Fatalf("%s size=%d lanes=%d mask=%#x log=%v: %s", c.in, c.size, c.lanes, c.mask, c.useLog, d)
		}
	})
}
