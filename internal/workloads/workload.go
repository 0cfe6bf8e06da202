// Package workloads ports the paper's twelve GPGPU benchmarks (Table 2;
// Rodinia and Parboil suites) to the mini ISA. Each workload owns its
// memory image, produces a sequence of kernel launches (several
// benchmarks are iterative), and verifies the simulated results against
// a plain Go reference implementation.
//
// Input sizes are scaled down from the paper's (documented per
// workload) so cycle-level simulation completes in seconds; every
// working set remains much larger than the 16KB L1D so the cache
// pressure and criticality behaviour the paper studies is preserved.
// The Params.Scale knob restores larger inputs.
package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

// Params tunes workload construction.
type Params struct {
	// Scale multiplies the default problem size (1.0 = default; the
	// paper's sizes are roughly 16-64x).
	Scale float64
	// Seed drives the deterministic input generators.
	Seed int64
}

// DefaultParams returns Scale 1, Seed 1.
func DefaultParams() Params { return Params{Scale: 1, Seed: 1} }

// CheckScale rejects a command-line -scale that is not a positive
// finite number: scaled would quietly run Scale 1 for zero or a
// negative value, and size-1 inputs for NaN or +Inf.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale %v: want a positive finite number", scale)
	}
	return nil
}

func (p Params) scaled(n int) int {
	if p.Scale <= 0 {
		return n
	}
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (p Params) rng() *rand.Rand { return rand.New(rand.NewSource(p.Seed)) }

// Workload is one benchmark instance. Workloads are single-use: create
// a fresh instance per simulated run.
type Workload interface {
	// Name is the benchmark name as in Table 2.
	Name() string
	// Sensitive reports the paper's Sens/Non-sens classification.
	Sensitive() bool
	// Mem is the memory image kernels execute against.
	Mem() *memory.Memory
	// Next returns the next kernel launch, or ok=false when the
	// application has finished. Iterative benchmarks inspect memory
	// between launches, so Next must be called after the previous
	// kernel completed.
	Next() (k *simt.Kernel, ok bool)
	// Verify checks the simulated results against a Go reference.
	Verify() error
}

// Builder creates a workload.
type Builder func(Params) Workload

type entry struct {
	name      string
	sensitive bool
	build     Builder
}

var registry []entry

func register(name string, sensitive bool, b Builder) {
	for _, e := range registry {
		if e.name == name {
			panic(fmt.Sprintf("workloads: duplicate %q", name))
		}
	}
	registry = append(registry, entry{name, sensitive, b})
	sort.Slice(registry, func(i, j int) bool { return registry[i].name < registry[j].name })
}

// New builds the named workload.
func New(name string, p Params) (Workload, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(p), nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
}

// Names lists registered workloads, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Sensitive lists the paper's scheduler/cache sensitive benchmarks.
func Sensitive() []string {
	var out []string
	for _, e := range registry {
		if e.sensitive {
			out = append(out, e.name)
		}
	}
	return out
}

// NonSensitive lists the remaining benchmarks.
func NonSensitive() []string {
	var out []string
	for _, e := range registry {
		if !e.sensitive {
			out = append(out, e.name)
		}
	}
	return out
}

// base embeds the bookkeeping common to all workloads.
type base struct {
	name      string
	sensitive bool
	mem       *memory.Memory
}

func (b *base) Name() string        { return b.name }
func (b *base) Sensitive() bool     { return b.sensitive }
func (b *base) Mem() *memory.Memory { return b.mem }

// Assembly helpers shared by the kernels.

// ldElem emits dst = mem[base + idx*8] using tmp as scratch.
func ldElem(b *isa.Builder, dst, baseR, idx, tmp isa.Reg) {
	b.MulI(tmp, idx, 8)
	b.Add(tmp, tmp, baseR)
	b.Ld(dst, tmp, 0)
}

// stElem emits mem[base + idx*8] = val using tmp as scratch.
func stElem(b *isa.Builder, baseR, idx, val, tmp isa.Reg) {
	b.MulI(tmp, idx, 8)
	b.Add(tmp, tmp, baseR)
	b.St(tmp, 0, val)
}

// guardRange emits the standard "if tid >= n: exit" prologue. tid and n
// must already be loaded; tmp is scratch.
func guardRange(b *isa.Builder, tid, n, tmp isa.Reg) {
	b.SetGE(tmp, tid, n)
	b.CBra(tmp, "exit")
}

// launchKernel is one launch of a program the workload built once and
// runs with new parameters each time (needle, pathfinder).
func launchKernel(name string, prog *isa.Program, grid, block int, params []int64) *simt.Kernel {
	return &simt.Kernel{Name: name, Program: prog, GridDim: grid, BlockDim: block, Params: params}
}

// mustKernel builds the kernel or panics; workload programs are static.
// Neither it nor launchKernel runs the static verifier: the GPU verifies
// every launch against its parameters (gpu.verifyLaunch), and
// `cawadis -lint -workload all` verifies every workload's kernels.
func mustKernel(name string, b *isa.Builder, grid, block int, params []int64, sharedWords int) *simt.Kernel {
	return &simt.Kernel{
		Name:        name,
		Program:     b.MustBuild(),
		GridDim:     grid,
		BlockDim:    block,
		Params:      params,
		SharedWords: sharedWords,
	}
}
