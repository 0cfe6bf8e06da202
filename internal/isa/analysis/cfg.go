package analysis

import "cawa/internal/isa"

// Block is one basic block: a maximal straight-line instruction run
// [Start, End) entered only at Start and left only at End-1.
type Block struct {
	ID    int   `json:"id"`
	Start int32 `json:"start"`
	End   int32 `json:"end"`
	Succs []int `json:"succs,omitempty"`
	Preds []int `json:"preds,omitempty"`
	// Idom is the immediate dominator block, -1 for the entry block and
	// unreachable blocks.
	Idom int `json:"idom"`
	// LoopHead reports whether some back edge targets this block (a
	// natural-loop header under the dominator tree).
	LoopHead bool `json:"loopHead,omitempty"`
}

// cfg is the per-program analysis context shared by all passes.
type cfg struct {
	p         *isa.Program
	n         int // instruction count; node n is the virtual exit
	blocks    []Block
	blockOf   []int  // pc -> block ID
	reachable []bool // per block, from block 0
	// ipdom[pc] is the instruction-level immediate post-dominator of pc
	// (n for "reconverges only at thread exit").
	ipdom []int32
}

// bitset is a fixed-capacity bit set for the block-level dominator solve.
type bitset []uint64

func newBitset(n int) bitset       { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)         { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)       { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool    { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) copyFrom(o bitset) { copy(b, o) }

func (b bitset) fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if tail := uint(n) % 64; tail != 0 {
		b[len(b)-1] = (1 << tail) - 1
	}
}

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

func (b bitset) isSubset(o bitset) bool {
	for i := range b {
		if b[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// succsOf returns the successors of pc with the virtual exit node n
// substituted for "off the end" and OpExit. Callers must have verified
// targets are in range (preflight).
func (c *cfg) succsOf(pc int32) []int32 {
	s := c.p.Successors(pc)
	if s == nil {
		return []int32{int32(c.n)}
	}
	return s
}

// buildCFG partitions the program into basic blocks and links them.
// The program must have passed preflight (all successors in [0, n]).
func buildCFG(p *isa.Program) *cfg {
	n := p.Len()
	c := &cfg{p: p, n: n}

	leader := make([]bool, n+1)
	leader[0] = true
	for pc := 0; pc < n; pc++ {
		op := p.At(int32(pc)).Op
		if op.IsBranch() || op == isa.OpExit {
			leader[pc+1] = true
			if op.IsBranch() {
				if t := p.At(int32(pc)).Target(); t >= 0 && int(t) < n {
					leader[t] = true
				}
			}
		}
	}

	c.blockOf = make([]int, n)
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			c.blocks = append(c.blocks, Block{ID: len(c.blocks), Start: int32(pc), Idom: -1})
		}
		c.blockOf[pc] = len(c.blocks) - 1
	}
	for i := range c.blocks {
		if i+1 < len(c.blocks) {
			c.blocks[i].End = c.blocks[i+1].Start
		} else {
			c.blocks[i].End = int32(n)
		}
	}

	// Edges from each block's terminator.
	for i := range c.blocks {
		b := &c.blocks[i]
		for _, t := range c.succsOf(b.End - 1) {
			if int(t) == n {
				continue // virtual exit
			}
			sb := c.blockOf[t]
			if !containsInt(b.Succs, sb) {
				b.Succs = append(b.Succs, sb)
			}
		}
	}
	for i := range c.blocks {
		for _, s := range c.blocks[i].Succs {
			c.blocks[s].Preds = append(c.blocks[s].Preds, i)
		}
	}

	// Reachability from the entry block.
	c.reachable = make([]bool, len(c.blocks))
	stack := []int{0}
	c.reachable[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.blocks[b].Succs {
			if !c.reachable[s] {
				c.reachable[s] = true
				stack = append(stack, s)
			}
		}
	}

	c.computeDominators()
	c.ipdom = p.ImmediatePostDominators()
	return c
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// computeDominators solves block-level dominators iteratively with
// bitsets and derives immediate dominators and natural-loop headers.
func (c *cfg) computeDominators() {
	nb := len(c.blocks)
	dom := make([]bitset, nb)
	for i := range dom {
		dom[i] = newBitset(nb)
		if i == 0 {
			dom[i].set(0)
		} else {
			dom[i].fill(nb)
		}
	}
	tmp := newBitset(nb)
	for changed := true; changed; {
		changed = false
		for i := 1; i < nb; i++ {
			if !c.reachable[i] {
				continue
			}
			tmp.fill(nb)
			any := false
			for _, pr := range c.blocks[i].Preds {
				if !c.reachable[pr] {
					continue
				}
				tmp.intersect(dom[pr])
				any = true
			}
			if !any {
				continue
			}
			tmp.set(i)
			if !tmp.equal(dom[i]) {
				dom[i].copyFrom(tmp)
				changed = true
			}
		}
	}

	// Immediate dominator: the strict dominator dominated by every
	// other strict dominator.
	for i := 1; i < nb; i++ {
		if !c.reachable[i] {
			continue
		}
		strict := newBitset(nb)
		strict.copyFrom(dom[i])
		strict.clear(i)
		for d := 0; d < nb; d++ {
			if strict.has(d) && strict.isSubset(dom[d]) {
				c.blocks[i].Idom = d
				break
			}
		}
	}

	// Back edge b -> h with h dominating b marks h as a loop header.
	for i := 0; i < nb; i++ {
		if !c.reachable[i] {
			continue
		}
		for _, s := range c.blocks[i].Succs {
			if dom[i].has(s) {
				c.blocks[s].LoopHead = true
			}
		}
	}
}

// region returns the set of PCs strictly inside the divergent region of
// the conditional branch at pc: everything reachable from the branch's
// successors without passing through the reconvergence point rpc. The
// rpc itself is excluded — at rpc the warp has already reconverged.
func (c *cfg) region(pc, rpc int32) []bool {
	in := make([]bool, c.n)
	var stack []int32
	push := func(t int32) {
		if int(t) >= c.n || t == rpc || in[t] {
			return
		}
		in[t] = true
		stack = append(stack, t)
	}
	for _, s := range c.succsOf(pc) {
		push(s)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.succsOf(t) {
			push(s)
		}
	}
	return in
}
