package sched

import (
	"cawa/internal/config"
	"cawa/internal/state"
)

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

// TwoLevel writes its pending ring front first, as the slice it once
// was. A loader refuses a slot the SM cannot hold, a slot queued twice
// and an active set over the group size: Select indexes by slot.
func (p *TwoLevel) Archive(a *state.Archive) {
	a.Tag("2lvl")
	state.Int(a, &p.groupSize, &p.rr.last)
	state.Slice(a, &p.active, state.IntElem[int])
	if !a.Loading() {
		a.Len(p.n)
		for k := 0; k < p.n; k++ {
			s := p.ring[(p.head+k)%len(p.ring)]
			state.Int(a, &s)
		}
		return
	}
	p.ring = p.ring[:0] // keep the ring's storage: a sleeping SM reloads often
	state.Slice(a, &p.ring, state.IntElem[int])
	p.head, p.n = 0, len(p.ring)
	p.ring = p.ring[:cap(p.ring)]
	clear(p.member[:])
	clear(p.queued[:])
	if len(p.active) > p.groupSize {
		a.Failf("sched: %d active warps, group size %d", len(p.active), p.groupSize)
		return
	}
	for _, s := range p.active {
		p.claim(a, &p.member, s)
	}
	for _, s := range p.ring[:p.n] {
		p.claim(a, &p.queued, s)
	}
}

// claim adds a loaded slot to set, failing the load on a slot out of
// range or already in either set.
func (p *TwoLevel) claim(a *state.Archive, set *[config.MaxSlots / 64]uint64, s int) {
	if s < 0 || s >= config.MaxSlots {
		a.Failf("sched: slot %d out of range", s)
		return
	}
	bit := uint64(1) << (uint(s) & 63)
	if (p.member[s>>6]|p.queued[s>>6])&bit != 0 {
		a.Failf("sched: slot %d queued twice", s)
		return
	}
	set[s>>6] |= bit
	p.words = max(p.words, s>>6+1)
}
