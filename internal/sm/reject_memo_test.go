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

// TestRejectMemoFollowsL1DMutations pins the reject memo's contract
// from the SM's side. While the L1D stands still a refused warp retries
// without probing (the memo answers); once a fill moves the L1D's
// mutation count the warp probes again and issues. And the invalidation
// is load-bearing: with the refusal re-stamped to the post-fill count —
// exactly what a fill path that forgot to bump the counter would leave
// behind — the warp stays refused although the L1D would now accept
// it, and the kernel wedges.
func TestRejectMemoFollowsL1DMutations(t *testing.T) {
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
		if l1.CanAccept(s.peekBuf) {
			t.Fatal("memoised refusal for lines the L1D accepts")
		}

		// L1D standing still: the refusal stands, stamped with the same count.
		stamp, issued := s.rejectedAt, s.rec.Instructions
		for s.rejectedAt == l1.Mutations()+1 {
			if tick(); now > 5000 {
				t.Fatal("the L1D never changed under a refused warp")
			}
			if s.rec.Instructions != issued {
				t.Fatal("refused warp issued while the L1D stood still")
			}
		}
		if l1.Mutations()+1 <= stamp {
			t.Fatalf("mutation count went from %d to %d", stamp-1, l1.Mutations())
		}

		if !mutant {
			// The fill invalidated the memo: the block drains.
			r.run(t, 1, 50000)
			continue
		}
		// Mutant: every time the L1D moves, pretend it did not.
		wedged := false
		for n := 0; n < 20000 && r.done == 0; n++ {
			if s.valid && s.rejectedAt != 0 {
				s.rejectedAt = l1.Mutations() + 1
			}
			tick()
			if s.valid && s.rejectedAt != 0 && l1.MSHROccupancy() == 0 && r.sys.Drained() {
				// Nothing in flight, so nothing will ever bump the count
				// again; the L1D would take the load, the memo says no.
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
