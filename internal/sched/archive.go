package sched

import "cawa/internal/state"

// Every policy archives its cross-cycle state behind a tag naming its
// kind, so a checkpoint restored onto a differently configured scheduler
// stops there. Scratch buffers are not state; CAWS keeps none at all.

func (p *LRR) Archive(a *state.Archive) {
	a.Tag("lrr")
	state.Int(a, &p.last)
}

func (p *GTO) Archive(a *state.Archive) {
	a.Tag("gto")
	state.Int(a, &p.current)
}

func (p *GCAWS) Archive(a *state.Archive) {
	a.Tag("gcaws")
	state.Int(a, &p.current)
}

func (*CAWS) Archive(a *state.Archive) { a.Tag("caws") }

func (p *TwoLevel) Archive(a *state.Archive) {
	a.Tag("2lvl")
	state.Int(a, &p.groupSize, &p.rr.last)
	state.Slice(a, &p.active, state.IntElem[int])
	state.Slice(a, &p.pending, state.IntElem[int])
	if a.Loading() {
		clear(p.member)
		for _, s := range p.active {
			if s < 0 || s >= 1<<16 {
				a.Failf("sched: active slot %d out of range", s)
				return
			}
			p.mark(s, true)
		}
	}
}
