package simt

import (
	"fmt"

	"cawa/internal/isa"
)

// MaxWarpSize bounds the SIMD width (lane masks are uint64).
const MaxWarpSize = 64

// StackEntry is one level of the PDOM reconvergence stack.
type StackEntry struct {
	PC   int32  // next instruction for the threads in Mask
	RPC  int32  // PC at which this entry reconverges and pops
	Mask uint64 // active lanes
}

// Warp holds the architectural state of one warp: the register file and
// the SIMT reconvergence stack.
type Warp struct {
	// GID is the warp's global identifier (unique across the launch).
	GID int
	// Block is the thread-block index in the grid.
	Block int
	// IndexInBlock is the warp's index within its block.
	IndexInBlock int
	// Size is the warp width in threads.
	Size int

	// regs is register-major, regs[r*Size+lane]: an instruction streams
	// three contiguous rows. It holds the rows the program names
	// (isa.Program.Rows), not all isa.NumRegs.
	regs    []int64
	stack   []StackEntry
	exited  uint64 // lanes that have executed OpExit
	initial uint64 // lanes that exist (partial last warp has fewer)

	// AtBarrier is set while the warp waits at a block barrier; the
	// block-level barrier logic clears it.
	AtBarrier bool
}

// NewWarp creates a warp with lanes [0,lanes) active at PC 0 and a
// register file of all isa.NumRegs registers. The reconvergence PC of
// the bottom stack entry is the program length (thread exit).
func NewWarp(gid, block, indexInBlock, lanes, size int, progLen int32) *Warp {
	w := &Warp{}
	w.Reset(gid, block, indexInBlock, lanes, size, progLen, isa.NumRegs)
	return w
}

// Reset re-initialises w in place as NewWarp's fresh warp, with a
// register file of rows registers (the kernel's isa.Program.Rows), all
// zero: registers are architecturally zero at launch. The previous
// occupant's register and stack storage is reused when large enough,
// so an SM that recycles its warps dispatches without allocating.
func (w *Warp) Reset(gid, block, indexInBlock, lanes, size int, progLen int32, rows int) {
	if lanes <= 0 || lanes > size || size > MaxWarpSize || rows > isa.NumRegs {
		panic(fmt.Sprintf("simt: bad warp geometry lanes=%d size=%d rows=%d", lanes, size, rows))
	}
	mask := uint64(1)<<uint(lanes) - 1
	if lanes == 64 {
		mask = ^uint64(0)
	}
	regs := w.regs
	if n := rows * size; cap(regs) >= n {
		regs = regs[:n]
		clear(regs)
	} else {
		regs = make([]int64, n)
	}
	*w = Warp{
		GID:          gid,
		Block:        block,
		IndexInBlock: indexInBlock,
		Size:         size,
		regs:         regs,
		stack:        append(w.stack[:0], StackEntry{PC: 0, RPC: progLen, Mask: mask}),
		initial:      mask,
	}
}

// Done reports whether every lane has exited.
func (w *Warp) Done() bool { return len(w.stack) == 0 }

// PC returns the next instruction address, popping any reconverged stack
// entries first. Calling PC on a done warp panics.
func (w *Warp) PC() int32 {
	w.popReconverged()
	return w.top().PC
}

// ActiveMask returns the lanes that will execute the next instruction.
func (w *Warp) ActiveMask() uint64 {
	if w.Done() {
		return 0
	}
	w.popReconverged()
	return w.top().Mask
}

// StackDepth exposes the reconvergence-stack depth (tests, stats).
func (w *Warp) StackDepth() int { return len(w.stack) }

// Reg returns the value of register r in the given lane.
func (w *Warp) Reg(lane int, r isa.Reg) int64 { return w.row(r)[lane] }

// SetReg sets register r in the given lane.
func (w *Warp) SetReg(lane int, r isa.Reg, v int64) { w.row(r)[lane] = v }

// row returns the Size lanes of register r.
func (w *Warp) row(r isa.Reg) []int64 { return w.regs[int(r)*w.Size:][:w.Size] }

// Row returns register r's Size lanes, lane l at index l. The slice
// aliases the register file: callers read it and must not write it.
func (w *Warp) Row(r isa.Reg) []int64 { return w.row(r) }

// fullMask is the mask with all Size lanes set.
func (w *Warp) fullMask() uint64 { return ^uint64(0) >> (MaxWarpSize - uint(w.Size)) }

func (w *Warp) top() *StackEntry { return &w.stack[len(w.stack)-1] }

func (w *Warp) popReconverged() {
	for len(w.stack) > 0 {
		t := w.top()
		if t.Mask != 0 && t.PC != t.RPC {
			return
		}
		w.stack = w.stack[:len(w.stack)-1]
	}
}

// exitLanes removes lanes from every stack entry (thread exit under
// divergence) and drops entries that became empty.
func (w *Warp) exitLanes(mask uint64) {
	w.exited |= mask
	kept := w.stack[:0]
	for _, e := range w.stack {
		e.Mask &^= mask
		if e.Mask != 0 {
			kept = append(kept, e)
		}
	}
	w.stack = kept
}

// ExitedMask returns lanes that have terminated.
func (w *Warp) ExitedMask() uint64 { return w.exited }
