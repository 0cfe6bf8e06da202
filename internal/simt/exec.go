package simt

import (
	"fmt"
	"math"
	"math/bits"

	"cawa/internal/isa"
)

// StepKind classifies what the timing model must do with an executed
// instruction.
type StepKind uint8

// Step kinds.
const (
	// StepCompute is an ALU/FPU/SFU instruction: occupy the unit for the
	// class latency.
	StepCompute StepKind = iota
	// StepMem is a global-memory access: coalesce and access the L1D.
	StepMem
	// StepSMem is a shared-memory access: fixed low latency.
	StepSMem
	// StepBarrier parked the warp at the block barrier.
	StepBarrier
	// StepExit terminated the active lanes.
	StepExit
)

// MemAccess is one lane's memory request.
type MemAccess struct {
	Lane int
	Addr int64
}

// Step reports everything the timing model and the criticality predictor
// need to know about one executed warp instruction.
type Step struct {
	PC    int32
	Instr isa.Instr
	Kind  StepKind
	Mask  uint64 // lanes that executed
	Lanes int    // popcount of Mask

	// Memory information (Kind==StepMem or StepSMem).
	IsLoad   bool
	Accesses []MemAccess

	// Branch information, consumed by the criticality prediction logic
	// (Section 3.1, Algorithm 2).
	CondBranch bool
	Divergent  bool   // lanes split between taken and fall-through
	TakenMask  uint64 // lanes that took the branch
	NextPC     int32  // PC the warp continues at (-1 when done)
}

// Exec executes the next instruction of the warp functionally and
// returns its Step record. The caller must ensure the warp is not done
// and not waiting at a barrier.
func Exec(w *Warp, prog *isa.Program, ctx *ExecContext) Step {
	var st Step
	ExecInto(w, prog, ctx, &st)
	return st
}

// ExecInto executes the next instruction of the warp functionally,
// overwriting *out with its Step record. The previous occupant's
// Accesses backing array is reused, so a caller that recycles one Step
// across issues executes allocation-free in the steady state. The
// caller must ensure the warp is not done and not waiting at a barrier.
func ExecInto(w *Warp, prog *isa.Program, ctx *ExecContext, out *Step) {
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
		a := w.row(in.A)
		var taken uint64
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if (a[l] != 0) == (in.Op == isa.OpCBra) {
				taken |= 1 << uint(l)
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
			w.stack = append(w.stack, // depth bounded by divergence nesting
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
		// Ascending lanes: Accesses order is the L1D access order, and the last lane wins a store collision.
		a, acc := w.row(in.A), st.Accesses
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			acc = append(acc, MemAccess{Lane: l, Addr: a[l] + in.Imm})
		}
		st.Accesses = acc
		switch d, b := w.row(in.Dst), w.row(in.B); {
		case st.IsLoad && ctx.Log != nil:
			for _, x := range acc {
				d[x.Lane] = ctx.Log.Load(x.Addr)
			}
		case st.IsLoad:
			for _, x := range acc {
				d[x.Lane] = ctx.Mem.Load(x.Addr)
			}
		case ctx.Log != nil:
			for _, x := range acc {
				ctx.Log.Store(x.Addr, b[x.Lane])
			}
		default:
			for _, x := range acc {
				ctx.Mem.Store(x.Addr, b[x.Lane])
			}
		}
		e.PC = pc + 1

	case isa.OpLdS, isa.OpStS:
		st.Kind = StepSMem
		st.IsLoad = in.Op == isa.OpLdS
		a, v := w.row(in.A), w.row(in.B)
		if st.IsLoad {
			v = w.row(in.Dst)
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			addr := a[l] + in.Imm
			idx := addr / 8
			if idx < 0 || idx >= int64(len(ctx.Shared)) {
				panic(fmt.Sprintf("simt: %s: shared-memory address %#x out of range (block %d, lane %d, pc %d)",
					prog.Name, addr, ctx.BlockID, l, pc))
			}
			st.Accesses = append(st.Accesses, MemAccess{Lane: l, Addr: addr})
			if st.IsLoad {
				v[l] = ctx.Shared[idx]
			} else {
				ctx.Shared[idx] = v[l]
			}
		}
		e.PC = pc + 1

	default:
		execALU(w, mask, in, ctx)
		e.PC = pc + 1
	}

	if w.Done() {
		st.NextPC = -1
	} else {
		st.NextPC = w.PC()
	}
}

// execALU computes a non-memory, non-control instruction: one opcode dispatch, then
// one loop over the set bits of mask, so a lane outside it is never written.
func execALU(w *Warp, mask uint64, in isa.Instr, ctx *ExecContext) {
	a, b, d := w.row(in.A), w.row(in.B), w.row(in.Dst)
	if in.BImm {
		var imm [MaxWarpSize]int64 // a broadcast row gives the immediate form the register form's loop
		b = imm[:w.Size]
		for i := range b {
			b[i] = in.Imm
		}
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpMov:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l]
		}
	case isa.OpMovI:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = in.Imm
		}
	case isa.OpSReg:
		var base, step int64 // every special register is base + step*lane
		switch sr := isa.SpecialReg(in.Imm); sr {
		case isa.SRTid:
			base, step = int64(w.IndexInBlock*w.Size), 1
		case isa.SRNtid:
			base = int64(ctx.BlockDim)
		case isa.SRCtaid:
			base = int64(ctx.BlockID)
		case isa.SRNctaid:
			base = int64(ctx.GridDim)
		case isa.SRLane:
			step = 1
		case isa.SRWarp:
			base = int64(w.IndexInBlock)
		case isa.SRGTid:
			base, step = int64(ctx.BlockID)*int64(ctx.BlockDim)+int64(w.IndexInBlock*w.Size), 1
		default:
			panic(fmt.Sprintf("simt: unknown special register %d", int64(sr)))
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = base + step*int64(l)
		}
	case isa.OpParam:
		idx := int(in.Imm)
		if idx >= len(ctx.Params) {
			panic(fmt.Sprintf("simt: parameter index %d out of range (have %d)", idx, len(ctx.Params)))
		}
		v := ctx.Params[idx]
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = v
		}
	case isa.OpAdd:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] + b[l]
		}
	case isa.OpSub:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] - b[l]
		}
	case isa.OpMul:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] * b[l]
		}
	case isa.OpMad:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l]*b[l] + d[l]
		}
	case isa.OpDiv:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			var v int64
			if y := b[l]; y != 0 {
				v = a[l] / y
			}
			d[l] = v
		}
	case isa.OpRem:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			var v int64
			if y := b[l]; y != 0 {
				v = a[l] % y
			}
			d[l] = v
		}
	case isa.OpMin:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = min(a[l], b[l])
		}
	case isa.OpMax:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = max(a[l], b[l])
		}
	case isa.OpAnd:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] & b[l]
		}
	case isa.OpOr:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] | b[l]
		}
	case isa.OpXor:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] ^ b[l]
		}
	case isa.OpShl:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] << clampShift(b[l])
		}
	case isa.OpShr:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = a[l] >> clampShift(b[l])
		}
	case isa.OpAbs:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = max(a[l], -a[l])
		}
	case isa.OpSetLT:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(a[l] < b[l])
		}
	case isa.OpSetLE:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(a[l] <= b[l])
		}
	case isa.OpSetEQ:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(a[l] == b[l])
		}
	case isa.OpSetNE:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(a[l] != b[l])
		}
	case isa.OpSetGT:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(a[l] > b[l])
		}
	case isa.OpSetGE:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(a[l] >= b[l])
		}
	case isa.OpSel:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if d[l] != 0 {
				d[l] = a[l]
			} else {
				d[l] = b[l]
			}
		}
	case isa.OpFAdd:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(isa.B2F(a[l]) + isa.B2F(b[l]))
		}
	case isa.OpFSub:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(isa.B2F(a[l]) - isa.B2F(b[l]))
		}
	case isa.OpFMul:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(isa.B2F(a[l]) * isa.B2F(b[l]))
		}
	case isa.OpFMad:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(isa.B2F(a[l])*isa.B2F(b[l]) + isa.B2F(d[l]))
		}
	case isa.OpFDiv:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(isa.B2F(a[l]) / isa.B2F(b[l]))
		}
	case isa.OpFSqrt:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(math.Sqrt(isa.B2F(a[l])))
		}
	case isa.OpFMin:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(math.Min(isa.B2F(a[l]), isa.B2F(b[l])))
		}
	case isa.OpFMax:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(math.Max(isa.B2F(a[l]), isa.B2F(b[l])))
		}
	case isa.OpFAbs:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(math.Abs(isa.B2F(a[l])))
		}
	case isa.OpFNeg:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(-isa.B2F(a[l]))
		}
	case isa.OpFExp:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(math.Exp(isa.B2F(a[l])))
		}
	case isa.OpFLog:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(math.Log(isa.B2F(a[l])))
		}
	case isa.OpCvtIF:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = isa.F2B(float64(a[l]))
		}
	case isa.OpCvtFI:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = cvtFI(isa.B2F(a[l]))
		}
	case isa.OpFSetLT:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(isa.B2F(a[l]) < isa.B2F(b[l]))
		}
	case isa.OpFSetLE:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(isa.B2F(a[l]) <= isa.B2F(b[l]))
		}
	case isa.OpFSetGT:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(isa.B2F(a[l]) > isa.B2F(b[l]))
		}
	case isa.OpFSetGE:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(isa.B2F(a[l]) >= isa.B2F(b[l]))
		}
	case isa.OpFSetEQ:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			d[l] = b2i(isa.B2F(a[l]) == isa.B2F(b[l]))
		}
	default:
		panic(fmt.Sprintf("simt: unimplemented opcode %s", in.Op))
	}
}

// cvtFI is cvt.fi: truncation toward zero, and math.MinInt64 for NaN,
// ±Inf and anything outside [-2^63, 2^63). Go leaves those conversions
// to the host (amd64 yields MinInt64, arm64 saturates and maps NaN to
// 0); pinning the amd64 answer keeps memory and digests host-independent.
func cvtFI(f float64) int64 {
	if !(f >= -0x1p63 && f < 0x1p63) {
		return math.MinInt64
	}
	return int64(f)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func clampShift(b int64) uint {
	if b < 0 {
		return 0
	}
	if b > 63 {
		return 63
	}
	return uint(b)
}
