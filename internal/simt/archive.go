package simt

import (
	"cawa/internal/isa"
	"cawa/internal/state"
)

// Archive walks one warp's architectural state: identity, registers and
// reconvergence stack. A loader starts from a zero Warp, sized by Size.
func (w *Warp) Archive(a *state.Archive) {
	state.Int(a, &w.GID, &w.Block, &w.IndexInBlock, &w.Size)
	if a.Loading() {
		if w.Size <= 0 || w.Size > MaxWarpSize {
			a.Failf("simt: warp gid=%d has bad width %d", w.GID, w.Size)
			return
		}
		w.regs = make([][isa.NumRegs]int64, w.Size)
	}
	for i := range w.regs {
		a.Words(w.regs[i][:])
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
