package core

import (
	"cawa/internal/sm"
	"cawa/internal/state"
)

// Archive walks of the CAWA state machines. Configuration (CACPConfig,
// the CPL ablation flags, the oracle's static profile table) is not
// archived: the restoring side builds the providers from the same
// SystemConfig and the walk overlays the dynamic state.

// slotted walks one entry of a slot-indexed table of pointers: whether
// the slot is occupied, then the occupant, which a loader allocates.
func slotted[T any](fields func(*T, *state.Archive)) func(**T, *state.Archive) {
	return func(p **T, a *state.Archive) {
		valid := *p != nil
		if a.Bool(&valid); !valid {
			return
		}
		if a.Loading() {
			*p = new(T)
		}
		fields(*p, a)
	}
}

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
		if n > sm.MaxSlots {
			a.Failf("core: CPL walks %d slots, an SM has at most %d", n, sm.MaxSlots)
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

// Archive walks the CCBP and SHiP tables, the partition controller, the
// bimodal fill counter and the prediction statistics.
func (c *CACP) Archive(a *state.Archive) {
	a.Tag("cacp")
	state.Table(a, "CCBP entry", c.ccbp[:], state.IntElem[uint8])
	state.Table(a, "SHiP entry", c.ship[:], state.IntElem[uint8])
	state.Int(a, &c.dyn.ways, &c.dyn.totalWays)
	state.Int(a, &c.dyn.fills, &c.dyn.hitsCrit, &c.dyn.hitsNon, &c.dyn.Adjustments, &c.fills,
		&c.PredCritical, &c.PredNonCritical, &c.CCBPDemotions, &c.SHiPDemotions)
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
		if slot <= prev || slot >= sm.MaxSlots {
			a.Failf("core: oracle slot %d after %d (an SM has %d)", slot, prev, sm.MaxSlots)
			return
		}
		o.arrive(slot, e.gid, e.block, e.crit)
	}
}

// Archive walks the lost-locality scores and victim tag arrays by slot;
// a loader rebuilds the by-GID index.
func (p *CCWSProvider) Archive(a *state.Archive) {
	a.Tag("ccws")
	if a.Loading() {
		p.byGID = make(map[int]*ccwsWarp)
	}
	state.Slice(a, &p.slots, slotted(func(w *ccwsWarp, a *state.Archive) {
		state.Int(a, &w.gid)
		a.Float64(&w.lls)
		state.Slice(a, &w.victims, state.IntElem[int64])
		if a.Loading() {
			p.byGID[w.gid] = w
		}
	}))
}

// Archive walks the policy's round-robin pointer (topK is scratch).
func (p *CCWSPolicy) Archive(a *state.Archive) {
	a.Tag("ccws-policy")
	p.lrr.Archive(a)
}
