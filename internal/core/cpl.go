// Package core implements the paper's contribution, CAWA: the
// criticality prediction logic (CPL, Section 3.1), the greedy
// criticality-aware warp scheduler glue (gCAWS consumes CPL through the
// scheduler context), and criticality-aware cache prioritization
// (CACP, Section 3.3) with its critical cache block predictor (CCBP)
// and modified signature-based hit predictor (SHiP).
package core

import (
	"cawa/internal/simt"
)

// warpCrit is the CPL state of one resident warp.
type warpCrit struct {
	gid   int
	block int

	nInst    float64 // predicted remaining-instruction disparity
	nStall   float64 // accumulated stall cycles (Algorithm 3)
	issues   int64   // committed warp instructions
	arrive   int64   // dispatch cycle
	lastSeen int64   // cycle of the latest issue

	crit float64 // criticality(), stored whenever an input above changes
}

// criticality evaluates Equation 1: nInst * CPI_avg + nStall. The
// stall term is accounted lazily, at the warp's next issue (Algorithm
// 3) — an experiment with accruing the currently-pending stall into the
// ranking turned gCAWS into longest-wait-first (round-robin-like
// fairness) and destroyed the greedy concentration that produces the
// paper's cache benefits, so the lagging update is kept deliberately.
// Its inputs change only at arrival and at an issue, which store the
// result in crit; queries read crit.
func (w *warpCrit) criticality() float64 {
	cpi := 1.0
	if w.issues > 0 && w.lastSeen > w.arrive {
		cpi = float64(w.lastSeen-w.arrive) / float64(w.issues)
	}
	// The conversion rounds the product before the sum: no target may
	// fuse it into one multiply-add, whose single rounding would move
	// the value gCAWS ranks warps by (scripts/check.sh checks arm64).
	return float64(w.nInst*cpi) + w.nStall
}

// CPL is the per-SM criticality prediction logic. It maintains one
// criticality counter per resident warp, updated from branch-path
// instruction disparity (Algorithm 2) and from stall cycles between
// consecutive issues (Algorithm 3). CPL implements
// sm.CriticalityProvider.
type CPL struct {
	slots  []*warpCrit         // indexed by SM slot, nil when free
	blocks map[int][]*warpCrit // blockID -> resident peers
	now    int64               // latest cycle observed via OnIssue

	// DisableInstTerm / DisableStallTerm support the ablation benches
	// (DESIGN.md decision 1).
	DisableInstTerm  bool
	DisableStallTerm bool
}

// NewCPL returns an empty predictor for one SM.
func NewCPL() *CPL {
	return &CPL{blocks: make(map[int][]*warpCrit)}
}

func (c *CPL) at(slot int) *warpCrit {
	if slot < 0 || slot >= len(c.slots) {
		return nil
	}
	return c.slots[slot]
}

// OnWarpArrived implements sm.CriticalityProvider.
func (c *CPL) OnWarpArrived(slot int, w *simt.Warp) {
	for slot >= len(c.slots) {
		c.slots = append(c.slots, nil)
	}
	wc := &warpCrit{gid: w.GID, block: w.Block, lastSeen: c.now}
	wc.crit = wc.criticality()
	c.slots[slot] = wc
	c.blocks[w.Block] = append(c.blocks[w.Block], wc)
}

// OnWarpFinished implements sm.CriticalityProvider.
func (c *CPL) OnWarpFinished(slot int) {
	wc := c.at(slot)
	if wc == nil {
		return
	}
	c.slots[slot] = nil
	peers := c.blocks[wc.block]
	for i, p := range peers {
		if p == wc {
			peers = append(peers[:i], peers[i+1:]...)
			break
		}
	}
	if len(peers) == 0 {
		delete(c.blocks, wc.block)
	} else {
		c.blocks[wc.block] = peers
	}
}

// OnIssue implements sm.CriticalityProvider: Algorithm 3's stall
// accumulation, the per-commit decrement, and Algorithm 2's branch-path
// disparity update.
func (c *CPL) OnIssue(slot int, st *simt.Step, stallCycles, cycle int64) {
	wc := c.at(slot)
	if wc == nil {
		return
	}
	if wc.issues == 0 {
		wc.arrive = cycle - stallCycles - 1
	}
	wc.issues++
	wc.lastSeen = cycle
	if cycle > c.now {
		c.now = cycle
	}
	if !c.DisableStallTerm {
		wc.nStall += float64(stallCycles)
	}
	if !c.DisableInstTerm {
		// Commit balancing: every committed instruction reduces the
		// predicted remaining disparity.
		if wc.nInst > 0 {
			wc.nInst--
		}
		if st.CondBranch {
			wc.nInst += branchPathLength(st)
		}
	}
	wc.crit = wc.criticality()
}

// branchPathLength infers, from the branch outcome, how many
// instructions the warp is about to execute before reaching the
// reconvergence point — the dynamic-instruction disparity signal of
// Algorithm 2. Divergent warps pay for both paths.
func branchPathLength(st *simt.Step) float64 {
	rpc := st.Instr.Rpc
	target := st.Instr.Target()
	fall := st.PC + 1
	switch {
	case st.Divergent:
		return pathLen(target, rpc) + pathLen(fall, rpc)
	case st.TakenMask != 0:
		return pathLen(target, rpc)
	default:
		return pathLen(fall, rpc)
	}
}

// pathLen estimates instructions from pc to the reconvergence point.
// Backward targets (loops) count the full loop body ahead.
func pathLen(from, rpc int32) float64 {
	if rpc <= from {
		return 0
	}
	return float64(rpc - from)
}

// Criticality implements sm.CriticalityProvider.
func (c *CPL) Criticality(slot int) float64 {
	wc := c.at(slot)
	if wc == nil {
		return 0
	}
	return wc.crit
}

// IsCritical implements sm.CriticalityProvider: a warp is predicted
// critical ("slow", Section 5.2) when its criticality exceeds that of
// more than half of its thread-block peers.
func (c *CPL) IsCritical(slot int) bool {
	wc := c.at(slot)
	if wc == nil {
		return false
	}
	blk := c.blocks[wc.block]
	if len(blk) <= 1 {
		return true // lone warp dominates its block
	}
	mine := wc.crit
	below := 0
	for _, peer := range blk {
		if peer != wc && peer.crit < mine {
			below++
		}
	}
	// Critical when ranked within the slower half of its peers, the
	// half the paper's accuracy metric counts as critical.
	return float64(below) >= float64(len(blk))*0.5
}

// GID returns the warp occupying a slot (-1 when free); used by
// sampling harnesses to attribute criticality snapshots.
func (c *CPL) GID(slot int) int {
	if wc := c.at(slot); wc != nil {
		return wc.gid
	}
	return -1
}

// Rank returns the slot's criticality rank within its block: 0 is the
// least critical, n-1 the most critical of n resident peers (Figure 12).
func (c *CPL) Rank(slot int) (rank, peers int) {
	wc := c.at(slot)
	if wc == nil {
		return 0, 0
	}
	blk := c.blocks[wc.block]
	mine := wc.crit
	below := 0
	for _, peer := range blk {
		if peer != wc && peer.crit < mine {
			below++
		}
	}
	return below, len(blk)
}
