package sm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/sched"
	"cawa/internal/simt"
	"cawa/internal/sm"
)

// refusedKernel has each warp load, iters times, lines cache lines of
// its own (lane&(lines-1) picks the line), so a small MSHR table keeps
// refusing most warps' loads for runs of cycles.
func refusedKernel(mem *memory.Memory, warps, lines, iters int) *simt.Kernel {
	const lineBytes = 128
	buf := mem.Alloc(warps * iters * lines * lineBytes / 8)
	b := isa.NewBuilder("refused")
	b.SReg(isa.R0, isa.SRGTid)
	b.DivI(isa.R1, isa.R0, 32)
	b.MulI(isa.R1, isa.R1, int64(iters*lines*lineBytes))
	b.Param(isa.R2, 0)
	b.Add(isa.R1, isa.R1, isa.R2)
	b.SReg(isa.R3, isa.SRLane)
	b.AndI(isa.R3, isa.R3, int64(lines-1))
	b.MulI(isa.R3, isa.R3, lineBytes)
	b.Add(isa.R1, isa.R1, isa.R3)
	b.MovI(isa.R5, 0)
	b.MovI(isa.R7, 0)
	b.Label("loop")
	b.MulI(isa.R6, isa.R5, int64(lines*lineBytes))
	b.Add(isa.R6, isa.R6, isa.R1)
	b.Ld(isa.R4, isa.R6, 0)
	b.Add(isa.R7, isa.R7, isa.R4)
	b.AddI(isa.R5, isa.R5, 1)
	b.SetLTI(isa.R8, isa.R5, int64(iters))
	b.CBra(isa.R8, "loop")
	b.Exit()
	return &simt.Kernel{Name: "refused", Program: b.MustBuild(), GridDim: 1, BlockDim: 32 * warps, Params: []int64{buf}}
}

// sleepRig is one SM on a memory system of its own.
type sleepRig struct {
	sys  *memsys.System
	sm   *sm.SM
	done int
}

func newSleepRig(cfg config.Config, policy string, provider func() sm.CriticalityProvider, k func(*memory.Memory) *simt.Kernel) *sleepRig {
	mem := memory.New(1 << 22)
	kernel := k(mem)
	factory, _ := sched.Lookup(policy)
	r := &sleepRig{sys: memsys.New(cfg)}
	opt := sm.Options{Config: cfg, Memory: mem, MemSys: r.sys, PolicyFactory: factory}
	if provider != nil {
		opt.Criticality = provider()
	}
	r.sm = sm.New(opt)
	r.sm.OnBlockDone = func(int, int64) { r.done++ }
	r.sm.SetKernel(kernel)
	r.sm.DispatchBlock(0, 0, 1)
	return r
}

// TestSleepMatchesTicking drives random refused runs — warp count, lines
// per load, MSHR table and loop length drawn per seed — on two copies
// of one SM in lockstep, one sleeping through refused ticks and one
// ticking every cycle, under every registered policy and the CPL
// design point. The sleeping copy gets its cycles as Cycle calls
// or, inside the wake bound and with no fill due, as AccountSkipped,
// and is read at random cycles as a checkpoint or a sampler would read
// it: after a settle, its stall buckets, classifications, L1I counters
// and LRU stamps and policy Archive bytes must equal the ticking copy's.
func TestSleepMatchesTicking(t *testing.T) {
	type point struct {
		name, policy string
		provider     func() sm.CriticalityProvider
	}
	var points []point
	for _, name := range sched.Names() {
		points = append(points, point{name: name, policy: name})
	}
	points = append(points,
		point{name: "gcaws+cpl", policy: "gcaws", provider: func() sm.CriticalityProvider { return core.NewCPL() }})
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			var slept int64
			for seed := int64(1); seed <= int64(seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := config.Small()
				warps := 4 + rng.Intn(13)
				lines := 1 << rng.Intn(3)
				cfg.L1D.MSHRs = lines + rng.Intn(3) // a load needs all its lines' entries at once
				iters := 2 + rng.Intn(4)
				k := func(mem *memory.Memory) *simt.Kernel { return refusedKernel(mem, warps, lines, iters) }
				a := newSleepRig(cfg, p.policy, p.provider, k)
				b := newSleepRig(cfg, p.policy, p.provider, k)
				sm.SetSleeps(a.sm, true)
				wake := int64(0)
				for now := int64(1); a.done == 0 || b.done == 0; now++ {
					if now > 200_000 {
						t.Fatalf("seed %d: no finish by cycle %d", seed, now)
					}
					fills := a.sm.L1D().Fills()
					a.sys.Cycle(now)
					if sm.Owed(a.sm) > 0 && now < wake && a.sm.L1D().Fills() == fills && rng.Intn(2) == 0 {
						a.sm.AccountSkipped(1)
					} else {
						wake = a.sm.Cycle(now)
					}
					b.sys.Cycle(now)
					b.sm.Cycle(now)
					if rng.Intn(40) == 0 || a.done != 0 {
						if sm.Owed(a.sm) > 0 {
							slept++
						}
						sm.Settle(a.sm)
						if va, vb := sm.ViewSleep(a.sm), sm.ViewSleep(b.sm); !reflect.DeepEqual(va, vb) {
							t.Fatalf("seed %d (%d warps, %d lines, %d MSHRs) cycle %d: sleeping SM\n %+v\nticking SM\n %+v",
								seed, warps, lines, cfg.L1D.MSHRs, now, va, vb)
						}
					}
				}
				if a.done != b.done || !reflect.DeepEqual(a.sm.Finished, b.sm.Finished) {
					t.Fatalf("seed %d: finished warp records differ", seed)
				}
			}
			if slept == 0 {
				t.Error("no reading met a sleeping SM with ticks owed: the comparison witnessed nothing")
			}
		})
	}
}
