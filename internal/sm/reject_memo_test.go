package sm

import (
	"testing"

	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/simt"
)

// scatterRig builds one SM whose L1D has only two MSHRs and a kernel in
// which each of eight warps loads a cache line of its own: two loads
// fill the MSHR table and the other warps get refused, cycle after
// cycle, until a fill frees an entry.
func scatterRig(t *testing.T) (*rig, *simt.Kernel) {
	t.Helper()
	cfg := config.Small()
	cfg.L1D.MSHRs = 2
	r := &rig{cfg: cfg, mem: memory.New(1 << 22), sys: memsys.New(cfg)}
	r.sm = New(Options{ID: 0, Config: cfg, Memory: r.mem, MemSys: r.sys})
	r.sm.OnBlockDone = func(int, int64) { r.done++ }

	buf := r.mem.Alloc(8 * 32) // words: 8 warps x 2 lines of 16 words
	b := isa.NewBuilder("scatter")
	b.SReg(isa.R0, isa.SRGTid)
	b.DivI(isa.R1, isa.R0, 32)  // warp index
	b.MulI(isa.R1, isa.R1, 256) // two lines apart
	b.Param(isa.R2, 0)
	b.Add(isa.R1, isa.R1, isa.R2)
	b.Ld(isa.R4, isa.R1, 0)
	b.AddI(isa.R4, isa.R4, 1)
	b.Exit()
	return r, &simt.Kernel{Name: "scatter", Program: b.MustBuild(), GridDim: 1, BlockDim: 256,
		Params: []int64{buf}}
}

// refused returns the first slot holding a memoised refusal, or -1.
func (m *SM) refused() int {
	for i := range m.slots {
		if m.slots[i].valid && m.slots[i].rejectedAt != 0 {
			return i
		}
	}
	return -1
}

// TestRejectMemoFollowsL1DFills pins the reject memo's contract from
// the SM's side. A refusal is stamped with the L1D's fill count plus
// the load's deficit; until the count reaches the stamp the refused
// warp retries without probing and does not issue, and once it does the
// warp probes again and the block drains. The invalidation is
// load-bearing: with the refusal re-stamped past every fill — what a
// fill path that forgot to count would leave behind — the warp stays
// refused although the L1D would now accept it, and the kernel wedges.
func TestRejectMemoFollowsL1DFills(t *testing.T) {
	for _, mutant := range []bool{false, true} {
		r, k := scatterRig(t)
		r.sm.SetKernel(k)
		r.sm.DispatchBlock(0, 0, 0)
		l1 := r.sm.L1D()

		var now int64
		tick := func() {
			now++
			r.sys.Cycle(now)
			r.sm.Cycle(now)
		}
		for r.sm.refused() < 0 {
			if tick(); now > 1000 {
				t.Fatal("no warp was ever refused: the kernel does not pressure the MSHRs")
			}
		}
		i := r.sm.refused()
		s := &r.sm.slots[i]
		d := l1.Deficit(s.peekBuf)
		if d == 0 {
			t.Fatal("memoised refusal for lines the L1D accepts")
		}
		if s.rejectedAt != l1.Fills()+uint64(d) {
			t.Fatalf("refusal stamped %d, want fill count %d + deficit %d", s.rejectedAt, l1.Fills(), d)
		}

		// Too few fills to close the deficit: the refusal stands unprobed.
		stamp, issued := s.rejectedAt, s.rec.Instructions
		for l1.Fills() < stamp {
			if tick(); now > 5000 {
				t.Fatal("the L1D never retired an MSHR entry under a refused warp")
			}
			if s.rec.Instructions != issued || s.rejectedAt != stamp {
				t.Fatal("refused warp issued or re-probed before the deficit could close")
			}
		}

		if !mutant {
			// The fills invalidated the memo: the block drains.
			for r.done == 0 {
				if tick(); now > 50000 {
					t.Fatal("block never drained after the refusal lifted")
				}
			}
			continue
		}
		// Mutant: every time the L1D retires an entry, pretend it did not.
		wedged := false
		for n := 0; n < 20000 && r.done == 0; n++ {
			if s.valid && s.rejectedAt != 0 {
				s.rejectedAt = l1.Fills() + 1
			}
			tick()
			if s.valid && s.rejectedAt != 0 && l1.MSHROccupancy() == 0 && r.sys.Drained() {
				// Nothing in flight, so nothing will ever fill again; the
				// L1D would take the load, the memo says no.
				if !l1.CanAccept(s.peekBuf) {
					t.Fatal("idle L1D refuses the load for real")
				}
				wedged = true
				break
			}
		}
		if !wedged {
			t.Fatal("a stale refusal did not wedge the warp: the memo's invalidation is not what lets it issue, so this test witnesses nothing")
		}
	}
}
