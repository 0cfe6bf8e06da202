package isa

import "fmt"

// ReconvAtExit is the reconvergence PC used when two divergent paths only
// rejoin at thread exit: one past the last instruction.
func ReconvAtExit(p *Program) int32 { return int32(len(p.Instrs)) }

// Successors returns the control-flow successors of the instruction at pc.
// OpExit has none. The slice is freshly allocated.
func (p *Program) Successors(pc int32) []int32 {
	in := p.Instrs[pc]
	switch in.Op {
	case OpExit:
		return nil
	case OpBra:
		return []int32{in.Target()}
	case OpCBra, OpCBraZ:
		if in.Target() == pc+1 {
			return []int32{pc + 1}
		}
		return []int32{in.Target(), pc + 1}
	default:
		return []int32{pc + 1}
	}
}

// bitset is a fixed-capacity bit set used by the post-dominator analysis.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// fill sets the first n bits and clears any tail bits so that set algebra
// never sees garbage beyond the node count.
func (b bitset) fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if tail := uint(n) % 64; tail != 0 {
		b[len(b)-1] = (1 << tail) - 1
	}
}

func (b bitset) copyFrom(o bitset) { copy(b, o) }

func (b bitset) intersect(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// isSubset reports whether every element of b is in o.
func (b bitset) isSubset(o bitset) bool {
	for i := range b {
		if b[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// computeReconvergence fills Rpc of every conditional branch with the PC
// of the branch's immediate post-dominator: the earliest point where the
// taken and not-taken paths are guaranteed to rejoin. Divergent warps use
// this PC to pop their SIMT stack (Section 2.1 of the paper; the standard
// PDOM mechanism GPGPU-sim implements).
func computeReconvergence(p *Program) error {
	for pc := range p.Instrs {
		for _, t := range p.Successors(int32(pc)) {
			if t < 0 || int(t) >= len(p.Instrs) {
				return fmt.Errorf("branch at pc %d targets out-of-range pc %d", pc, t)
			}
		}
	}
	ipdom := p.ImmediatePostDominators()
	for pc := range p.Instrs {
		if in := &p.Instrs[pc]; in.Op.IsCondBranch() {
			in.Rpc = ipdom[pc]
		}
	}
	return nil
}

// ImmediatePostDominators returns, for every instruction, the PC of its
// immediate post-dominator: the closest instruction every path from it
// to thread exit passes through, or ReconvAtExit when the paths only
// rejoin at exit. The builder stores a conditional branch's entry as its
// Rpc and the static verifier (internal/isa/analysis) checks Rpc against
// it. Every successor must be in range or one past the last instruction,
// as Build, NewProgram and the verifier's preflight have checked.
func (p *Program) ImmediatePostDominators() []int32 {
	n := len(p.Instrs)
	exit := n // virtual exit node
	total := n + 1

	// Post-dominator sets, one bitset per node: pdom(exit) = {exit}; all
	// others start full.
	pdom := make([]bitset, total)
	for i := range pdom {
		pdom[i] = newBitset(total)
		if i != exit {
			pdom[i].fill(total)
		}
	}
	pdom[exit].set(exit)

	succs := make([][]int32, n)
	for pc := range succs {
		if succs[pc] = p.Successors(int32(pc)); succs[pc] == nil {
			succs[pc] = []int32{int32(exit)}
		}
	}

	tmp := newBitset(total)
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			tmp.fill(total)
			for _, s := range succs[pc] {
				tmp.intersect(pdom[s])
			}
			tmp.set(pc)
			if !tmp.equal(pdom[pc]) {
				pdom[pc].copyFrom(tmp)
				changed = true
			}
		}
	}

	// The immediate post-dominator is the strict post-dominator d whose
	// own post-dominator set contains every other strict post-dominator
	// (i.e. the closest one). An instruction no path leads from to exit
	// other than through itself has none and keeps the exit node.
	ipdom := make([]int32, n)
	strict := newBitset(total)
	for pc := range ipdom {
		ipdom[pc] = int32(exit)
		strict.copyFrom(pdom[pc])
		strict[pc/64] &^= 1 << (uint(pc) % 64)
		for d := 0; d < total; d++ {
			if strict.has(d) && strict.isSubset(pdom[d]) {
				ipdom[pc] = int32(d)
				break
			}
		}
	}
	return ipdom
}
