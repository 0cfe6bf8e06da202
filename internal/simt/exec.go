package simt

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

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

	// Every field of the record, set in place: a composite literal would
	// be built on the stack and copied over.
	st := out
	st.PC, st.Instr, st.Kind, st.Mask, st.Lanes = pc, in, StepCompute, mask, bits.OnesCount64(mask)
	st.IsLoad, st.Accesses = false, st.Accesses[:0]
	st.CondBranch, st.Divergent, st.TakenMask, st.NextPC = false, false, 0, 0

	switch in.Op {
	case isa.OpBra:
		e.PC = in.Target()

	case isa.OpCBra, isa.OpCBraZ:
		st.CondBranch = true
		var nonzero uint64 // the whole row's predicate bits; the mask applies once
		for i, v := range w.row(in.A) {
			nonzero |= uint64(b2i(v != 0)) << uint(i)
		}
		taken := mask & nonzero
		if in.Op == isa.OpCBraZ {
			taken = mask &^ nonzero
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
		uniform := true // every active lane names one address
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			addr := a[l] + in.Imm
			acc = append(acc, MemAccess{Lane: l, Addr: addr})
			uniform = uniform && addr == acc[0].Addr
		}
		st.Accesses = acc
		switch d, b := w.row(in.Dst), w.row(in.B); {
		case st.IsLoad && uniform:
			// One read, broadcast: every lane would read this word.
			var v int64
			if ctx.Log != nil {
				v = ctx.Log.Load(acc[0].Addr)
			} else {
				v = ctx.Mem.Load(acc[0].Addr)
			}
			for _, x := range acc {
				d[x.Lane] = v
			}
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

// execALU computes a non-memory, non-control instruction: one opcode
// dispatch, then one loop over the row, and the mask applied once, at
// write-back. Under a full mask the loop covers the whole row and writes
// the destination row itself. Under any other it covers lanes lo..hi-1,
// from the lowest lane in mask to the highest, into a work row of ctx,
// and only the lanes in mask are copied out, so a lane outside it is
// never written. Computing the inactive lanes in between is safe because
// every kernel below is total on any int64 (division by zero and shift
// counts are guarded, cvtFI is pinned, floats do not trap) and reads
// nothing but its rows.
func execALU(w *Warp, mask uint64, in isa.Instr, ctx *ExecContext) {
	if in.Op == isa.OpNop {
		return
	}
	a, b, d := w.row(in.A), w.row(in.B), w.row(in.Dst)
	out, lo := d, 0
	full := mask == w.fullMask()
	if !full {
		hi := MaxWarpSize - bits.LeadingZeros64(mask)
		lo = bits.TrailingZeros64(mask)
		a, b, d, out = a[lo:hi], b[lo:hi], d[lo:hi], ctx.work[0][lo:hi]
	}
	if in.BImm {
		b = ctx.work[1][:len(out)] // a broadcast row gives the immediate form the register form's loop
		for i := range b {
			b[i] = in.Imm
		}
	}
	a, b, d = a[:len(out)], b[:len(out)], d[:len(out)]

	switch in.Op {
	case isa.OpMov:
		for i := range out {
			out[i] = a[i]
		}
	case isa.OpMovI:
		for i := range out {
			out[i] = in.Imm
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
		base += step * int64(lo) // out[0] is lane lo
		for i := range out {
			out[i] = base + step*int64(i)
		}
	case isa.OpParam:
		idx := int(in.Imm)
		if idx >= len(ctx.Params) {
			panic(fmt.Sprintf("simt: parameter index %d out of range (have %d)", idx, len(ctx.Params)))
		}
		v := ctx.Params[idx]
		for i := range out {
			out[i] = v
		}
	case isa.OpAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case isa.OpSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case isa.OpMul:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case isa.OpMad:
		for i := range out {
			out[i] = a[i]*b[i] + d[i]
		}
	case isa.OpDiv:
		for i := range out {
			var v int64
			if y := b[i]; y != 0 {
				v = a[i] / y
			}
			out[i] = v
		}
	case isa.OpRem:
		for i := range out {
			var v int64
			if y := b[i]; y != 0 {
				v = a[i] % y
			}
			out[i] = v
		}
	case isa.OpMin:
		for i := range out {
			out[i] = min(a[i], b[i])
		}
	case isa.OpMax:
		for i := range out {
			out[i] = max(a[i], b[i])
		}
	case isa.OpAnd:
		for i := range out {
			out[i] = a[i] & b[i]
		}
	case isa.OpOr:
		for i := range out {
			out[i] = a[i] | b[i]
		}
	case isa.OpXor:
		for i := range out {
			out[i] = a[i] ^ b[i]
		}
	case isa.OpShl:
		for i := range out {
			out[i] = a[i] << clampShift(b[i])
		}
	case isa.OpShr:
		for i := range out {
			out[i] = a[i] >> clampShift(b[i])
		}
	case isa.OpAbs:
		for i := range out {
			out[i] = max(a[i], -a[i])
		}
	case isa.OpSetLT:
		for i := range out {
			out[i] = b2i(a[i] < b[i])
		}
	case isa.OpSetLE:
		for i := range out {
			out[i] = b2i(a[i] <= b[i])
		}
	case isa.OpSetEQ:
		for i := range out {
			out[i] = b2i(a[i] == b[i])
		}
	case isa.OpSetNE:
		for i := range out {
			out[i] = b2i(a[i] != b[i])
		}
	case isa.OpSetGT:
		for i := range out {
			out[i] = b2i(a[i] > b[i])
		}
	case isa.OpSetGE:
		for i := range out {
			out[i] = b2i(a[i] >= b[i])
		}
	case isa.OpSel:
		for i := range out {
			if d[i] != 0 {
				out[i] = a[i]
			} else {
				out[i] = b[i]
			}
		}
	case isa.OpFAdd:
		for i := range out {
			x, y := isa.B2F(a[i]), isa.B2F(b[i])
			out[i] = isa.F2B(pinNaN(x+y, x, y))
		}
	case isa.OpFSub:
		for i := range out {
			out[i] = isa.F2B(isa.B2F(a[i]) - isa.B2F(b[i]))
		}
	case isa.OpFMul:
		for i := range out {
			x, y := isa.B2F(a[i]), isa.B2F(b[i])
			if fmulNaNFirst {
				out[i] = isa.F2B(pinNaN(x*y, x, y))
			} else {
				out[i] = isa.F2B(pinNaN(x*y, y, x))
			}
		}
	case isa.OpFMad:
		for i := range out {
			x, y := isa.B2F(a[i]), isa.B2F(b[i])
			p := pinNaN(float64(x*y), y, x)
			out[i] = isa.F2B(pinNaN(p+isa.B2F(d[i]), p, isa.B2F(d[i])))
		}
	case isa.OpFDiv:
		for i := range out {
			out[i] = isa.F2B(isa.B2F(a[i]) / isa.B2F(b[i]))
		}
	case isa.OpFSqrt:
		for i := range out {
			out[i] = isa.F2B(math.Sqrt(isa.B2F(a[i])))
		}
	case isa.OpFMin:
		for i := range out {
			out[i] = isa.F2B(math.Min(isa.B2F(a[i]), isa.B2F(b[i])))
		}
	case isa.OpFMax:
		for i := range out {
			out[i] = isa.F2B(math.Max(isa.B2F(a[i]), isa.B2F(b[i])))
		}
	case isa.OpFAbs:
		for i := range out {
			out[i] = isa.F2B(math.Abs(isa.B2F(a[i])))
		}
	case isa.OpFNeg:
		for i := range out {
			out[i] = isa.F2B(-isa.B2F(a[i]))
		}
	case isa.OpFExp:
		for i := range out {
			out[i] = isa.F2B(math.Exp(isa.B2F(a[i])))
		}
	case isa.OpFLog:
		for i := range out {
			out[i] = isa.F2B(math.Log(isa.B2F(a[i])))
		}
	case isa.OpCvtIF:
		for i := range out {
			out[i] = isa.F2B(float64(a[i]))
		}
	case isa.OpCvtFI:
		for i := range out {
			out[i] = cvtFI(isa.B2F(a[i]))
		}
	case isa.OpFSetLT:
		for i := range out {
			out[i] = b2i(isa.B2F(a[i]) < isa.B2F(b[i]))
		}
	case isa.OpFSetLE:
		for i := range out {
			out[i] = b2i(isa.B2F(a[i]) <= isa.B2F(b[i]))
		}
	case isa.OpFSetGT:
		for i := range out {
			out[i] = b2i(isa.B2F(a[i]) > isa.B2F(b[i]))
		}
	case isa.OpFSetGE:
		for i := range out {
			out[i] = b2i(isa.B2F(a[i]) >= isa.B2F(b[i]))
		}
	case isa.OpFSetEQ:
		for i := range out {
			out[i] = b2i(isa.B2F(a[i]) == isa.B2F(b[i]))
		}
	default:
		panic(fmt.Sprintf("simt: unimplemented opcode %s", in.Op))
	}
	if !full {
		for m := mask >> uint(lo); m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			d[i] = out[i]
		}
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

// fmulNaNFirst is true where fmul keeps its first operand's NaN (pinNaN).
const fmulNaNFirst = runtime.GOARCH == "386"

// pinNaN returns r, the result of a commutative float op, unless r is a
// NaN: then first's NaN if first is one, else second's, quieted. amd64
// returns the NaN of whichever operand sits in the destination register,
// and Go leaves that choice to the register allocator, which may swap a
// commutative op's operands in one compilation of a loop and not in
// another (a coverage-instrumented build of the row kernels did). The
// order each caller passes is the per-lane reference's, as each host's
// compiler built it before the row kernels: fmad's product prefers the
// second operand, fadd and fmad's sum the first, and fmul the second
// on amd64 but the first on 386 (fmulNaNFirst). A NaN made from numbers
// (Inf-Inf, 0*Inf) is left as computed.
func pinNaN(r, first, second float64) float64 {
	if r == r {
		return r
	}
	const quiet = 1 << 51
	switch {
	case first != first:
		return isa.B2F(isa.F2B(first) | quiet)
	case second != second:
		return isa.B2F(isa.F2B(second) | quiet)
	}
	return r
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
