package sched

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cawa/internal/state"
)

// The three greedy/priority schedulers as they were written before one
// priority type served them all: the oracle the merged policy must
// match pick for pick and byte for byte.

type refGTO struct{ current int }

func (p *refGTO) Select(ctx *Context) int {
	if len(ctx.Ready) == 0 {
		return -1
	}
	for _, s := range ctx.Ready {
		if s == p.current {
			return s
		}
	}
	best, bestAge := -1, int64(0)
	for _, s := range ctx.Ready {
		if a := ctx.Age(s); best == -1 || a < bestAge {
			best, bestAge = s, a
		}
	}
	p.current = best
	return best
}

func (p *refGTO) OnWarpFinished(slot int) {
	if p.current == slot {
		p.current = -1
	}
}

func (p *refGTO) Archive(a *state.Archive) {
	a.Tag("gto")
	state.Int(a, &p.current)
}

type refGCAWS struct{ current int }

func (p *refGCAWS) Select(ctx *Context) int {
	if len(ctx.Ready) == 0 {
		return -1
	}
	for _, s := range ctx.Ready {
		if s == p.current {
			return s
		}
	}
	best := -1
	var bestCrit float64
	var bestAge int64
	for _, s := range ctx.Ready {
		c, a := ctx.Criticality(s), ctx.Age(s)
		if best == -1 || c > bestCrit || (c == bestCrit && a < bestAge) {
			best, bestCrit, bestAge = s, c, a
		}
	}
	p.current = best
	return best
}

func (p *refGCAWS) OnWarpFinished(slot int) {
	if p.current == slot {
		p.current = -1
	}
}

func (p *refGCAWS) Archive(a *state.Archive) {
	a.Tag("gcaws")
	state.Int(a, &p.current)
}

type refCAWS struct{}

func (*refCAWS) Select(ctx *Context) int {
	best := -1
	var bestCrit float64
	var bestAge int64
	for _, s := range ctx.Ready {
		c, a := ctx.Criticality(s), ctx.Age(s)
		if best == -1 || c > bestCrit || (c == bestCrit && a < bestAge) {
			best, bestCrit, bestAge = s, c, a
		}
	}
	return best
}

func (*refCAWS) OnWarpFinished(int) {}

func (*refCAWS) Archive(a *state.Archive) { a.Tag("caws") }

// TestPriorityMatchesSeparatePolicies drives the registered gto, gcaws
// and caws policies and their separate predecessors in lockstep through
// seeded random steps: selects over ready lists that are empty, hold or
// drop the greedy warp, come in slot order or shuffled, and tie on
// criticality and age (NaN criticality included), and finishes that
// often retire the held warp. Picks and Archive bytes must agree after
// every step, and gto must never read criticality.
func TestPriorityMatchesSeparatePolicies(t *testing.T) {
	type ref interface {
		Select(ctx *Context) int
		OnWarpFinished(slot int)
		Archive(a *state.Archive)
	}
	cases := []struct {
		name, display string
		ref           ref
	}{
		{"gto", "GTO", &refGTO{current: -1}},
		{"gcaws", "gCAWS", &refGCAWS{current: -1}},
		{"caws", "CAWS", &refCAWS{}},
	}
	const slots = 12
	crits := []float64{0, 0, 1, 2.5, 2.5, 7, math.NaN()}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(48))
			p := newPolicy(tc.name)
			if got := p.Name(); got != tc.display {
				t.Fatalf("Name() = %q, want %q", got, tc.display)
			}
			var age [slots]int64
			var crit [slots]float64
			ctx := &Context{
				Age: func(s int) int64 { return age[s] },
				Criticality: func(s int) float64 {
					if tc.name == "gto" {
						t.Fatal("gto read criticality")
					}
					return crit[s]
				},
			}
			mine, theirs := state.NewSaver(0), state.NewSaver(0)
			last := -1
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(10); {
				case r < 2:
					slot := rng.Intn(slots)
					if r == 0 && last >= 0 {
						slot = last // retire the warp the last pick held
					}
					p.OnWarpFinished(slot)
					tc.ref.OnWarpFinished(slot)
				default:
					ctx.Ready = ctx.Ready[:0]
					if rng.Intn(8) != 0 {
						for s := 0; s < slots; s++ {
							if rng.Intn(3) == 0 {
								ctx.Ready = append(ctx.Ready, s)
							}
						}
					}
					if rng.Intn(4) == 0 {
						rng.Shuffle(len(ctx.Ready), func(i, j int) {
							ctx.Ready[i], ctx.Ready[j] = ctx.Ready[j], ctx.Ready[i]
						})
					}
					for s := range age {
						age[s] = int64(rng.Intn(4))
						crit[s] = crits[rng.Intn(len(crits))]
					}
					got, want := p.Select(ctx), tc.ref.Select(ctx)
					if got != want {
						t.Fatalf("step %d: Select(%v) = %d, want %d", step, ctx.Ready, got, want)
					}
					last = got
				}
				mine.Reset(nil)
				theirs.Reset(nil)
				p.Archive(mine)
				tc.ref.Archive(theirs)
				if !bytes.Equal(mine.Bytes(), theirs.Bytes()) {
					t.Fatalf("step %d: Archive %x, want %x", step, mine.Bytes(), theirs.Bytes())
				}
			}
		})
	}
}
