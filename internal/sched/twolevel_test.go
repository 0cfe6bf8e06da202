package sched

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cawa/internal/config"
	"cawa/internal/state"
)

// refTwoLevel is the two-level scheduler as it was written before its
// pending queue became a ring and its waiting test a bitset: a demote
// and promote scan over the whole active and pending lists on every
// Select, asking waiting of each warp. The oracle the ring must match
// pick for pick and byte for byte.
type refTwoLevel struct {
	groupSize int
	active    []int
	pending   []int
	rr        LRR
}

func (p *refTwoLevel) Select(ctx *Context, waiting func(int) bool) int {
	kept := p.active[:0]
	for _, s := range p.active {
		if waiting(s) {
			p.pending = append(p.pending, s)
		} else {
			kept = append(kept, s)
		}
	}
	p.active = kept
	for scan := len(p.pending); scan > 0 && len(p.active) < p.groupSize && len(p.pending) > 0; scan-- {
		s := p.pending[0]
		p.pending = p.pending[:copy(p.pending, p.pending[1:])]
		if waiting(s) {
			p.pending = append(p.pending, s)
			continue
		}
		p.active = append(p.active, s)
	}
	var readyActive []int
	for _, s := range ctx.Ready {
		if slices.Contains(p.active, s) {
			readyActive = append(readyActive, s)
		}
	}
	sub := *ctx
	sub.Ready = readyActive
	return p.rr.Select(&sub)
}

func (p *refTwoLevel) OnWarpArrived(slot int) {
	if len(p.active) < p.groupSize {
		p.active = append(p.active, slot)
	} else {
		p.pending = append(p.pending, slot)
	}
}

func (p *refTwoLevel) OnWarpFinished(slot int) {
	p.active = remove(p.active, slot)
	p.pending = remove(p.pending, slot)
}

func (p *refTwoLevel) Archive(a *state.Archive) {
	a.Tag("2lvl")
	state.Int(a, &p.groupSize, &p.rr.last)
	state.Slice(a, &p.active, state.IntElem[int])
	state.Slice(a, &p.pending, state.IntElem[int])
}

// TestTwoLevelMatchesRescan drives the registered two-level policy and
// refTwoLevel in lockstep through seeded random streams: arrivals into
// full and empty active sets, finishes of active and pending warps,
// waiting sets that flip a few slots, mark every pending warp waiting or
// none, and selects over ready lists that are empty, in slot order or
// shuffled. Picks and Archive bytes must agree after every step, and a
// policy reloaded from those bytes must go on agreeing.
func TestTwoLevelMatchesRescan(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 1 + rng.Intn(96)
		group := 1 + rng.Intn(8)
		p := NewTwoLevel(group)
		ref := &refTwoLevel{groupSize: group, rr: LRR{last: -1}}
		ctx := &Context{Waiting: make([]uint64, (slots+63)/64)}
		waiting := func(s int) bool { return ctx.Waiting[s>>6]&(1<<(s&63)) != 0 }
		setWaiting := func(s int, on bool) {
			if on {
				ctx.Waiting[s>>6] |= 1 << (s & 63)
			} else {
				ctx.Waiting[s>>6] &^= 1 << (s & 63)
			}
		}
		resident := map[int]bool{}
		for step := 0; step < 2000; step++ {
			s := rng.Intn(slots)
			switch r := rng.Intn(20); {
			case r < 4 && !resident[s]:
				resident[s] = true
				p.OnWarpArrived(s)
				ref.OnWarpArrived(s)
			case r < 6 && resident[s]:
				if r == 5 && len(ref.active) > 0 { // finish an active warp
					s = ref.active[rng.Intn(len(ref.active))]
				}
				delete(resident, s)
				p.OnWarpFinished(s)
				ref.OnWarpFinished(s)
			case r < 9:
				setWaiting(s, !waiting(s))
			case r == 9: // every pending warp waits
				for _, q := range ref.pending {
					setWaiting(q, true)
				}
			case r == 10: // nothing waits
				clear(ctx.Waiting)
			default:
				ctx.Ready = ctx.Ready[:0]
				if r != 11 {
					for i := 0; i < slots; i++ {
						if resident[i] && !waiting(i) && rng.Intn(4) != 0 {
							ctx.Ready = append(ctx.Ready, i)
						}
					}
				}
				if r == 12 {
					rng.Shuffle(len(ctx.Ready), func(i, j int) { ctx.Ready[i], ctx.Ready[j] = ctx.Ready[j], ctx.Ready[i] })
				}
				want := ref.Select(ctx, waiting)
				if got := p.Select(ctx); got != want {
					t.Fatalf("seed %d step %d: picked %d, the rescan picks %d (ready %v)", seed, step, got, want, ctx.Ready)
				}
			}
			got, want := state.NewSaver(0), state.NewSaver(0)
			p.Archive(got)
			ref.Archive(want)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d step %d: Archive bytes differ from the rescan's\n got %v\nwant %v (active %v pending %v)",
					seed, step, got.Bytes(), want.Bytes(), ref.active, ref.pending)
			}
			if step%97 == 0 {
				p = NewTwoLevel(1)
				l := state.NewLoader(want.Bytes())
				if p.Archive(l); l.Err() != nil {
					t.Fatalf("seed %d step %d: reload: %v", seed, step, l.Err())
				}
			}
		}
	}
}

// TestTwoLevelLoaderRefusesBadSlots: Select indexes its bitsets by slot,
// so a loaded slot outside the SM's slot range, a slot in both lists or
// twice in one, or an active list over the group size must fail the
// load, not a later Select.
func TestTwoLevelLoaderRefusesBadSlots(t *testing.T) {
	cases := []struct {
		name            string
		group           int
		active, pending []int
		errHas          string
	}{
		{"negative pending slot", 8, []int{1}, []int{-5}, "out of range"},
		{"negative active slot", 8, []int{-1}, nil, "out of range"},
		{"pending slot past MaxSlots", 8, nil, []int{config.MaxSlots}, "out of range"},
		{"active slot past MaxSlots", 8, []int{config.MaxSlots + 7}, nil, "out of range"},
		{"slot active and pending", 8, []int{3}, []int{4, 3}, "twice"},
		{"slot twice in pending", 8, nil, []int{9, 9}, "twice"},
		{"slot twice in active", 8, []int{2, 2}, nil, "twice"},
		{"active over the group size", 2, []int{0, 1, 2}, nil, "group size"},
		{"last slot of the range", 8, []int{config.MaxSlots - 1}, []int{0}, ""},
	}
	for _, c := range cases {
		save := state.NewSaver(0)
		(&refTwoLevel{groupSize: c.group, active: c.active, pending: c.pending, rr: LRR{last: -1}}).Archive(save)
		p := NewTwoLevel(8)
		l := state.NewLoader(save.Bytes())
		p.Archive(l)
		if c.errHas == "" {
			if l.Err() != nil {
				t.Errorf("%s: load failed: %v", c.name, l.Err())
			}
			continue
		}
		if l.Err() == nil || !strings.Contains(l.Err().Error(), c.errHas) {
			t.Errorf("%s: load error %v, want one containing %q", c.name, l.Err(), c.errHas)
		}
	}
}
