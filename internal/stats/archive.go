package stats

import "cawa/internal/state"

// Archive walks one warp record (SMs checkpoint the records of resident
// and finished warps).
func (w *WarpRecord) Archive(a *state.Archive) {
	state.Int(a, &w.GID, &w.SM, &w.Block, &w.IndexInBlock)
	state.Int(a, &w.DispatchCycle, &w.FinishCycle, &w.Instructions, &w.ThreadInstrs, &w.IssueCycles,
		&w.SchedStall, &w.MemStall, &w.ALUStall, &w.BarrierStall, &w.EmptyStall, &w.DivergentBranches)
}
