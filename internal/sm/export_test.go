package sm

import "cawa/internal/state"

// Hooks of the sleep through refused ticks (sleep.go) for the external
// tests.

// SetSettleSlack makes m settle every debt of refused ticks n ticks
// short: a broken settle, which the equivalence guards must catch.
func SetSettleSlack(m *SM, n int64) { m.settleSlack = n }

// SetSleeps lets m sleep through refused ticks, or not, whether or not
// it has a store log.
func SetSleeps(m *SM, on bool) { m.sleeps = on }

// Owed reports the refused ticks m has slept through and not settled.
func Owed(m *SM) int64 { return m.owed }

// Settle settles m's owed refused ticks, as any reader does.
func Settle(m *SM) { m.settle() }

// SleepView is what a settle must leave exactly as ticking would.
type SleepView struct {
	Stalls   [][5]int64 // per occupied slot: sched, mem, ALU, barrier, empty, owed cycles included
	Ready    [][2]int64 // per occupied slot: classification, ready stamp
	L1I      []uint64   // accesses, hits, misses, then each line's LRU stamp and refs
	Policies [][]byte   // each unit's policy Archive bytes
}

// ViewSleep returns m's SleepView without settling its refused ticks
// first. The stall buckets include the cycles each warp owes lazily
// (readiness.go), which a ticking SM and a settled one split between
// record and debt differently.
func ViewSleep(m *SM) SleepView {
	var v SleepView
	for i := range m.slots {
		if s := &m.slots[i]; s.valid {
			b := m.effective(s)
			v.Stalls = append(v.Stalls, [5]int64{b.Sched, b.Mem, b.ALU, b.Barrier, b.Empty})
			v.Ready = append(v.Ready, [2]int64{int64(s.reason), s.readyCycle})
		}
	}
	c := m.l1i
	v.L1I = append(v.L1I, c.Accesses, c.Hits, c.Misses)
	for set := 0; set < c.Sets(); set++ {
		for _, l := range c.Set(set) {
			v.L1I = append(v.L1I, l.LRU, uint64(l.Refs))
		}
	}
	for u := range m.units {
		a := state.NewSaver(64)
		m.units[u].policy.Archive(a)
		v.Policies = append(v.Policies, a.Bytes())
	}
	return v
}
