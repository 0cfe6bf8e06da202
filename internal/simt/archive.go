package simt

import (
	"cawa/internal/isa"
	"cawa/internal/state"
)

// Archive walks one warp's architectural state: identity, registers and
// reconvergence stack. A loader starts from a zero Warp, sized by Size,
// and gives it a file of rows registers (the kernel's isa.Program.Rows).
// Registers travel lane-major, isa.NumRegs words per lane, the order
// and width the format has always had: a saver transposes the
// register-major file and pads each lane with zeros above its rows, and
// a loader refuses a nonzero word there.
func (w *Warp) Archive(a *state.Archive, rows int) {
	state.Int(a, &w.GID, &w.Block, &w.IndexInBlock, &w.Size)
	if a.Loading() {
		if w.Size <= 0 || w.Size > MaxWarpSize || rows > isa.NumRegs {
			a.Failf("simt: warp gid=%d has bad width %d or register rows %d", w.GID, w.Size, rows)
			return
		}
		w.regs = make([]int64, rows*w.Size)
	} else {
		rows = len(w.regs) / w.Size
	}
	var lane [isa.NumRegs]int64
	for l := 0; l < w.Size; l++ {
		for r := range rows {
			lane[r] = w.regs[r*w.Size+l]
		}
		a.Words(lane[:])
		for r := range rows {
			w.regs[r*w.Size+l] = lane[r]
		}
		for r := rows; r < isa.NumRegs; r++ {
			if lane[r] != 0 {
				a.Failf("simt: warp gid=%d lane %d: register r%d is %d, above the kernel's %d rows",
					w.GID, l, r, lane[r], rows)
				return
			}
		}
	}
	state.Slice(a, &w.stack, (*StackEntry).Archive)
	state.Int(a, &w.exited, &w.initial)
	a.Bool(&w.AtBarrier)
}

// Archive walks one reconvergence-stack entry.
func (e *StackEntry) Archive(a *state.Archive) {
	state.Int(a, &e.PC, &e.RPC)
	state.Int(a, &e.Mask)
}
