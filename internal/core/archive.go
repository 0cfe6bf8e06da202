package core

import (
	"cawa/internal/config"
	"cawa/internal/state"
)

// Archive walks of the CAWA state machines. Configuration (CACPConfig,
// the CPL ablation flags, the oracle's static profile table) is not
// archived: the restoring side builds the providers from the same
// SystemConfig and the walk overlays the dynamic state.

// Archive walks the predictor: the clock, then each slot up to the
// highest ever occupied: whether it is live and, if so, its warp and
// counters. A warp's criticality is not archived (a loader recomputes
// it), nor are the block peer sets — a loader rebuilds them in slot
// order, which is equivalent for every query (peer scans only count
// strict comparisons, never positions).
func (c *CPL) Archive(a *state.Archive) {
	a.Tag("cpl")
	state.Int(a, &c.now)
	n := a.Len(len(c.slots))
	if a.Loading() {
		if n > config.MaxSlots {
			a.Failf("core: CPL walks %d slots, an SM has at most %d", n, config.MaxSlots)
			return
		}
		c.reset(n)
	}
	for slot := 0; slot < n && a.Err() == nil; slot++ {
		live := c.live(slot)
		if a.Bool(&live); !live {
			continue
		}
		var e slotEntry
		var wc warpCrit
		if !a.Loading() {
			e, wc = c.slots[slot], c.warps[slot]
		}
		state.Int(a, &e.gid, &e.block)
		a.Float64(&wc.nInst)
		a.Float64(&wc.nStall)
		state.Int(a, &wc.issues, &wc.arrive, &wc.lastSeen)
		if a.Loading() {
			c.admit(slot, e.gid, e.block, wc)
		}
	}
}

// Archive walks the CCBP and SHiP tables, six zero words, the bimodal
// fill counter and the prediction statistics. The zeros stand where a
// runtime partition controller, since retired, kept its boundary and
// counters; they keep checkpoint format 2 unchanged, and a loader
// refuses a checkpoint in which that controller had run.
func (c *CACP) Archive(a *state.Archive) {
	a.Tag("cacp")
	state.Table(a, "CCBP entry", c.ccbp[:], state.IntElem[uint8])
	state.Table(a, "SHiP entry", c.ship[:], state.IntElem[uint8])
	var retired [6]int64
	for i := range retired {
		if state.Int(a, &retired[i]); retired[i] != 0 {
			a.Failf("core: CACP partition controller word %d is %d; only a static partition exists", i, retired[i])
			return
		}
	}
	state.Int(a, &c.fills, &c.PredCritical, &c.PredNonCritical, &c.CCBPDemotions, &c.SHiPDemotions)
}

// Archive walks the provider's resident warps: their count, then each
// one's slot, in ascending order, with its warp and criticality. A
// loader rejects a slot out of order or beyond an SM's.
func (o *Oracle) Archive(a *state.Archive) {
	a.Tag("oracle")
	live := 0
	for _, e := range o.slots {
		if e.live {
			live++
		}
	}
	n := a.Len(live)
	if a.Loading() {
		o.reset(0)
	}
	for i, slot := 0, -1; i < n && a.Err() == nil; i++ {
		prev := slot
		var e slotEntry
		if !a.Loading() {
			for slot++; !o.live(slot); slot++ {
			}
			e = o.slots[slot]
		}
		state.Int(a, &slot, &e.gid, &e.block)
		a.Float64(&e.crit)
		if !a.Loading() {
			continue
		}
		if slot <= prev || slot >= config.MaxSlots {
			a.Failf("core: oracle slot %d after %d (an SM has %d)", slot, prev, config.MaxSlots)
			return
		}
		o.arrive(slot, e.gid, e.block, e.crit)
	}
}
