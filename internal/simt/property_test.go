package simt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cawa/internal/isa"
	"cawa/internal/memory"
)

// randProgram builds a random structured program: straight-line ALU
// blocks interleaved with lane-data-dependent if/else regions and
// bounded loops, using registers r0..r7 (r0 seeds from the lane id).
func randProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder("prop")
	b.SReg(isa.R0, isa.SRLane)
	// r6 and r7 are reserved for loop counters and predicates so random
	// ALU writes cannot corrupt control flow.
	reg := func() isa.Reg { return isa.Reg(rng.Intn(6)) }
	emitALU := func(n int) {
		for i := 0; i < n; i++ {
			dst, a, c := reg(), reg(), reg()
			switch rng.Intn(7) {
			case 0:
				b.Add(dst, a, c)
			case 1:
				b.Sub(dst, a, c)
			case 2:
				b.MulI(dst, a, int64(rng.Intn(7))-3)
			case 3:
				b.Xor(dst, a, c)
			case 4:
				b.Min(dst, a, c)
			case 5:
				b.AddI(dst, a, int64(rng.Intn(100)))
			case 6:
				b.SetLT(dst, a, c)
			}
		}
	}
	for blk := 0; blk < 2+rng.Intn(4); blk++ {
		emitALU(1 + rng.Intn(4))
		switch rng.Intn(3) {
		case 0: // if/else on a lane-dependent predicate
			b.AndI(isa.R7, reg(), 1)
			thenL, joinL := b.FreshLabel("t"), b.FreshLabel("j")
			b.CBra(isa.R7, thenL)
			emitALU(1 + rng.Intn(3))
			b.Bra(joinL)
			b.Label(thenL)
			emitALU(1 + rng.Intn(3))
			b.Label(joinL)
		case 1: // bounded lane-data-dependent loop (0..3 iterations)
			b.AndI(isa.R6, reg(), 3)
			head, done := b.FreshLabel("h"), b.FreshLabel("d")
			b.Label(head)
			b.CBraZ(isa.R6, done)
			emitALU(1 + rng.Intn(2))
			b.SubI(isa.R6, isa.R6, 1)
			b.Bra(head)
			b.Label(done)
		default:
			emitALU(2)
		}
	}
	b.Exit()
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// TestWarpEqualsPerLaneExecution is the SIMT lane-independence property:
// a 8-lane warp executing a divergent program must produce, per lane,
// exactly the registers of a 1-lane warp running the same program. Both
// sides run the same warp-wide execute, so this checks that divergence,
// reconvergence and masking keep lanes from affecting each other — not
// what an opcode computes; TestExecMatchesPerLaneReference checks that
// against the per-lane interpreter.
func TestWarpEqualsPerLaneExecution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randProgram(rng)
		ctx := &ExecContext{
			Mem:      memory.New(1 << 12),
			Shared:   make([]int64, 16),
			BlockDim: 8,
			GridDim:  1,
		}
		const lanes = 8
		warp := NewWarp(0, 0, 0, lanes, 32, int32(prog.Len()))
		for guard := 0; !warp.Done(); guard++ {
			if guard > 100000 {
				return false
			}
			Exec(warp, prog, ctx)
		}
		for lane := 0; lane < lanes; lane++ {
			solo := NewWarp(0, 0, 0, 1, 32, int32(prog.Len()))
			// The solo warp must see the same lane id: shift via SRLane
			// is impossible for lane > 0 in a 1-lane warp, so instead
			// seed r0 manually after the first instruction executes.
			ctx2 := &ExecContext{
				Mem:      memory.New(1 << 12),
				Shared:   make([]int64, 16),
				BlockDim: 8,
				GridDim:  1,
			}
			first := true
			for guard := 0; !solo.Done(); guard++ {
				if guard > 100000 {
					return false
				}
				Exec(solo, prog, ctx2)
				if first {
					solo.SetReg(0, isa.R0, int64(lane))
					first = false
				}
			}
			for r := isa.R0; r < 6; r++ {
				if warp.Reg(lane, r) != solo.Reg(0, r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
