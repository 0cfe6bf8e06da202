// Package simt implements the functional side of SIMT execution: warps
// with PDOM reconvergence stacks and register-major register files, and
// the semantics of every ISA instruction, executed a warp at a time. The
// timing model (internal/sm) drives Step and decides *when* instructions
// issue; this package decides *what* they do.
package simt

import (
	"errors"
	"fmt"

	"cawa/internal/isa"
	"cawa/internal/isa/analysis"
	"cawa/internal/memory"
)

// Kernel is a launchable GPU program: code plus launch geometry and
// parameters (buffer base addresses and scalars).
type Kernel struct {
	// Name labels the kernel in reports.
	Name string
	// Program is the assembled code.
	Program *isa.Program
	// GridDim is the number of thread-blocks.
	GridDim int
	// BlockDim is the number of threads per block.
	BlockDim int
	// Params are the kernel arguments read by OpParam.
	Params []int64
	// SharedWords is the per-block shared memory requirement in words.
	SharedWords int
	// RegsPerThread, when positive, is enforced against the SM register
	// file during block dispatch (occupancy limiting). Zero disables the
	// register constraint.
	RegsPerThread int
}

// Validate reports whether the launch geometry is usable and runs the
// static verifier over the program: def-before-use, unreachable code,
// divergent barriers, reconvergence consistency, and launch-dependent
// affine bounds all fail the launch before a single cycle simulates.
func (k *Kernel) Validate() error {
	if err := k.CheckGeometry(); err != nil {
		return err
	}
	if err := analysis.Verify(k.Program, analysis.Options{Launch: k.AnalysisLaunch()}); err != nil {
		return fmt.Errorf("simt: kernel %s: %w", k.Name, err)
	}
	return nil
}

// CheckGeometry is Validate without the static verifier: the kernel has
// a program, a positive grid and block, and no negative shared memory.
// A GPU launch checks this and then verifies the program once, against
// the launch context only it knows.
func (k *Kernel) CheckGeometry() error {
	switch {
	case k.Program == nil:
		return errors.New("simt: kernel has no program")
	case k.GridDim <= 0:
		return fmt.Errorf("simt: kernel %s: GridDim %d must be positive", k.Name, k.GridDim)
	case k.BlockDim <= 0:
		return fmt.Errorf("simt: kernel %s: BlockDim %d must be positive", k.Name, k.BlockDim)
	case k.SharedWords < 0:
		return fmt.Errorf("simt: kernel %s: negative shared memory", k.Name)
	}
	return nil
}

// AnalysisLaunch translates the kernel's geometry into the verifier's
// launch description. GlobalBytes is unknown at this layer (the GPU
// fills it in at Launch time, where the memory size is known).
func (k *Kernel) AnalysisLaunch() *analysis.Launch {
	return &analysis.Launch{
		GridDim:     k.GridDim,
		BlockDim:    k.BlockDim,
		SharedWords: k.SharedWords,
		Params:      k.Params,
	}
}

// TotalThreads returns GridDim*BlockDim.
func (k *Kernel) TotalThreads() int { return k.GridDim * k.BlockDim }

// WarpsPerBlock returns the number of warps a block occupies for the
// given warp size.
func (k *Kernel) WarpsPerBlock(warpSize int) int {
	return (k.BlockDim + warpSize - 1) / warpSize
}

// ExecContext carries the environment one warp executes against.
type ExecContext struct {
	// Mem is the global memory.
	Mem *memory.Memory
	// Log, when non-nil, intercepts global-memory traffic: stores are
	// deferred into the log and loads forward from it before falling
	// back to Mem. The span engine (internal/gpu) installs one log per
	// SM for the length of a launch, so SMs running a span never write
	// Mem directly (the replay flushes the logs in cycle → SM-id order).
	// Nil executes directly against Mem.
	Log *memory.StoreLog
	// Shared is the owning block's shared memory.
	Shared []int64
	// Params are the kernel arguments.
	Params []int64
	// BlockID, GridDim, BlockDim describe the launch point.
	BlockID  int
	GridDim  int
	BlockDim int

	// work holds execute's two scratch rows, a partial-mask result and a
	// broadcast immediate, so that no instruction clears a fresh pair on
	// its stack. Every lane an instruction reads from them it wrote first.
	// A context therefore serves one executing warp at a time.
	work [2][MaxWarpSize]int64
}
