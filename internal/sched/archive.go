package sched

import "cawa/internal/state"

// Every policy archives its cross-cycle state behind a tag naming its
// kind, so a checkpoint restored onto a differently configured scheduler
// stops there. Scratch buffers are not state; CAWS holds no warp, so
// its walk is the tag alone.

func (p *LRR) Archive(a *state.Archive) {
	a.Tag("lrr")
	state.Int(a, &p.last)
}

func (p *priority) Archive(a *state.Archive) {
	a.Tag(p.tag)
	if p.greedy {
		state.Int(a, &p.current)
	}
}

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
