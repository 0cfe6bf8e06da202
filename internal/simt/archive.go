package simt

import (
	"cawa/internal/isa"
	"cawa/internal/state"
)

// Archive walks one warp's architectural state: identity, registers and
// reconvergence stack. A loader starts from a zero Warp, sized by Size.
// Registers travel lane-major (one lane's NumRegs words at a time), the
// order the format has always had, by transposing the register-major file.
func (w *Warp) Archive(a *state.Archive) {
	state.Int(a, &w.GID, &w.Block, &w.IndexInBlock, &w.Size)
	if a.Loading() {
		if w.Size <= 0 || w.Size > MaxWarpSize {
			a.Failf("simt: warp gid=%d has bad width %d", w.GID, w.Size)
			return
		}
		w.regs = make([]int64, isa.NumRegs*w.Size)
	}
	var lane [isa.NumRegs]int64
	for l := 0; l < w.Size; l++ {
		for r := range lane {
			lane[r] = w.regs[r*w.Size+l]
		}
		a.Words(lane[:])
		for r := range lane {
			w.regs[r*w.Size+l] = lane[r]
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
