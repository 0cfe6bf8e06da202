package checkpoint

import (
	"fmt"

	"cawa/internal/memory"
	"cawa/internal/simt"
)

// FunctionalLaunch executes one kernel launch functionally — correct
// memory effects, no timing model. It is the fast-forward half of
// checkpoint/restore: the launches that precede a restore point replay
// here in milliseconds, leaving the functional memory exactly as the
// timed engines would (the workloads are data-race-free across blocks,
// which the per-workload Verify references check end to end).
//
// Blocks run sequentially; within a block, live warps round-robin one
// instruction at a time and barriers release when every live warp has
// arrived — the same semantics the SM model enforces, minus the clock.
func FunctionalLaunch(k *simt.Kernel, mem *memory.Memory, warpSize int) error {
	if err := k.Validate(); err != nil {
		return err
	}
	warpsPerBlock := k.WarpsPerBlock(warpSize)
	progLen := int32(k.Program.Len())
	warps := make([]*simt.Warp, warpsPerBlock)
	var step simt.Step

	for block := 0; block < k.GridDim; block++ {
		var shared []int64
		if k.SharedWords > 0 {
			shared = make([]int64, k.SharedWords)
		}
		ctx := simt.ExecContext{
			Mem:      mem,
			Shared:   shared,
			Params:   k.Params,
			BlockID:  block,
			GridDim:  k.GridDim,
			BlockDim: k.BlockDim,
		}
		for i := 0; i < warpsPerBlock; i++ {
			lanes := k.BlockDim - i*warpSize
			if lanes > warpSize {
				lanes = warpSize
			}
			warps[i] = simt.NewWarp(block*warpsPerBlock+i, block, i, lanes, warpSize, progLen)
		}
		for {
			progressed := false
			live := 0
			atBarrier := 0
			for _, w := range warps {
				if w.Done() {
					continue
				}
				live++
				if w.AtBarrier {
					atBarrier++
					continue
				}
				simt.ExecInto(w, k.Program, &ctx, &step)
				progressed = true
			}
			if live == 0 {
				break
			}
			if atBarrier == live {
				for _, w := range warps {
					if !w.Done() {
						w.AtBarrier = false
					}
				}
				continue
			}
			if !progressed {
				return fmt.Errorf("checkpoint: kernel %s block %d deadlocked (%d live, %d at barrier)",
					k.Name, block, live, atBarrier)
			}
		}
	}
	return nil
}
