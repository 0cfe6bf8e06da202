package core

import "cawa/internal/state"

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

// Archive walks the predictor: the clock and each slot's counters. A
// warp's stored criticality is not archived (a loader recomputes it),
// nor is the blocks index — a loader rebuilds it from the slot
// array in slot order, which is equivalent for every CPL query (peer
// scans only count strict comparisons, never positions).
func (c *CPL) Archive(a *state.Archive) {
	a.Tag("cpl")
	state.Int(a, &c.now)
	if a.Loading() {
		c.blocks = make(map[int][]*warpCrit)
	}
	state.Slice(a, &c.slots, slotted(func(wc *warpCrit, a *state.Archive) {
		state.Int(a, &wc.gid, &wc.block)
		a.Float64(&wc.nInst)
		a.Float64(&wc.nStall)
		state.Int(a, &wc.issues, &wc.arrive, &wc.lastSeen)
		if a.Loading() {
			wc.crit = wc.criticality()
			c.blocks[wc.block] = append(c.blocks[wc.block], wc)
		}
	}))
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

// Archive walks the provider's resident-warp index by slot; a loader
// rebuilds the per-block peer sets as the pairs arrive.
func (o *Oracle) Archive(a *state.Archive) {
	a.Tag("oracle")
	if a.Loading() {
		o.blocks = make(map[int]map[int]*oracleWarp)
	}
	var slot int // the key of the pair being walked
	state.Map(a, &o.slots,
		func(k *int, a *state.Archive) {
			state.Int(a, k)
			slot = *k
		},
		func(p **oracleWarp, a *state.Archive) {
			if a.Loading() {
				*p = &oracleWarp{}
			}
			ow := *p
			state.Int(a, &ow.gid, &ow.block)
			a.Float64(&ow.crit)
			if a.Loading() {
				if o.blocks[ow.block] == nil {
					o.blocks[ow.block] = make(map[int]*oracleWarp)
				}
				o.blocks[ow.block][slot] = ow
			}
		})
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
