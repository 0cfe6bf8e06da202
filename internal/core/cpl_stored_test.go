package core

import (
	"math"
	"math/rand"
	"testing"

	"cawa/internal/state"
)

// TestCPLStoredCriticalityMatchesRecomputed drives the CPL with random
// arrival, issue and finish streams under every ablation and checks,
// after every call, that each resident warp's stored criticality equals
// Equation 1 recomputed from its counters, bit for bit, and that a
// checkpoint round trip restores the same bits.
func TestCPLStoredCriticalityMatchesRecomputed(t *testing.T) {
	for seed, ab := range []struct{ noInst, noStall bool }{{}, {noInst: true}, {noStall: true}, {true, true}} {
		rng := rand.New(rand.NewSource(int64(7 + seed)))
		c := NewCPL()
		c.DisableInstTerm, c.DisableStallTerm = ab.noInst, ab.noStall
		const slots = 12
		gid := 0
		check := func(op string) {
			t.Helper()
			for s := range c.slots {
				if !c.live(s) {
					continue
				}
				if got, want := c.slots[s].crit, c.warps[s].criticality(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v after %s: slot %d stores %v (%#x), recomputed %v (%#x)",
						ab, op, s, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if c.Criticality(s) != c.slots[s].crit {
					t.Fatalf("%+v after %s: Criticality(%d) does not read the stored value", ab, op, s)
				}
			}
		}
		cycle := int64(1)
		for i := 0; i < 20000; i++ {
			s := rng.Intn(slots)
			switch r := rng.Intn(100); {
			case !c.live(s):
				c.OnWarpArrived(s, mkWarp(gid, s/4, s%4))
				gid++
				check("arrive")
			case r < 2:
				c.OnWarpFinished(s)
				check("finish")
			default:
				stall := int64(rng.Intn(400))
				cycle += stall + 1
				pc := int32(rng.Intn(200))
				st := computeStep(pc)
				if rng.Intn(4) == 0 {
					st = branchStep(pc, int32(rng.Intn(200)), int32(rng.Intn(220)),
						uint64(rng.Intn(3)), rng.Intn(2) == 0)
				}
				c.OnIssue(s, st, stall, cycle)
				check("issue")
			}
		}

		restored := roundTripCPL(t, c)
		for s, e := range c.slots {
			if !e.live {
				continue
			}
			if got := restored.slots[s].crit; math.Float64bits(got) != math.Float64bits(e.crit) {
				t.Fatalf("%+v: restored slot %d stores %v, saved %v", ab, s, got, e.crit)
			}
		}
	}
}

// roundTripCPL saves c and loads the bytes into a fresh predictor.
func roundTripCPL(t *testing.T, c *CPL) *CPL {
	t.Helper()
	save := state.NewSaver(0)
	c.Archive(save)
	out := NewCPL()
	load := state.NewLoader(save.Bytes())
	out.Archive(load)
	if err := load.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
