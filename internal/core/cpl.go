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

// warpCrit is the Equation 1 state of one resident warp.
type warpCrit struct {
	nInst    float64 // predicted remaining-instruction disparity
	nStall   float64 // accumulated stall cycles (Algorithm 3)
	issues   int64   // committed warp instructions
	arrive   int64   // dispatch cycle
	lastSeen int64   // cycle of the latest issue
}

// criticality evaluates Equation 1: nInst * CPI_avg + nStall. The
// stall term is accounted lazily, at the warp's next issue (Algorithm
// 3) — an experiment with accruing the currently-pending stall into the
// ranking turned gCAWS into longest-wait-first (round-robin-like
// fairness) and destroyed the greedy concentration that produces the
// paper's cache benefits, so the lagging update is kept deliberately.
// Its inputs change only at arrival and at an issue, which store the
// result in the slot table; queries read it there.
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
// consecutive issues (Algorithm 3), and ranks it among the warp's block
// peers through the slot table. CPL implements
// sm.CriticalityProvider.
type CPL struct {
	slotTable
	warps []warpCrit // by SM slot; every live slot has one
	now   int64      // latest cycle observed via OnIssue

	// DisableInstTerm / DisableStallTerm support the ablation benches
	// (DESIGN.md decision 1).
	DisableInstTerm  bool
	DisableStallTerm bool
}

// NewCPL returns an empty predictor for one SM.
func NewCPL() *CPL { return &CPL{} }

// OnWarpArrived implements sm.CriticalityProvider.
func (c *CPL) OnWarpArrived(slot int, w *simt.Warp) {
	c.admit(slot, w.GID, w.Block, warpCrit{lastSeen: c.now})
}

// admit installs a warp's counters in slot and ranks its criticality.
func (c *CPL) admit(slot, gid, block int, wc warpCrit) {
	for slot >= len(c.warps) {
		c.warps = append(c.warps, warpCrit{})
	}
	c.warps[slot] = wc
	c.arrive(slot, gid, block, wc.criticality())
}

// OnIssue implements sm.CriticalityProvider: Algorithm 3's stall
// accumulation, the per-commit decrement, and Algorithm 2's branch-path
// disparity update.
func (c *CPL) OnIssue(slot int, st *simt.Step, stallCycles, cycle int64) {
	if !c.live(slot) {
		return
	}
	wc := &c.warps[slot]
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
	c.slots[slot].crit = wc.criticality()
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
