package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cawa/internal/cache"
	"cawa/internal/config"
)

// TestAllAcceptedLoadsComplete is the memory-system liveness property:
// every load accepted (hit or miss) must deliver its token exactly
// once, regardless of the access mix, and the system must drain.
func TestAllAcceptedLoadsComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.Small()
		cfg.L1D.MSHRs = 4
		cfg.L1D.MSHRTargets = 3
		s := New(cfg)

		delivered := make(map[int64]int)
		var l1 *L1D
		l1 = s.NewL1D(cache.LRU{}, func(_ int64, tokens []int64) {
			for _, tok := range tokens {
				delivered[tok]++
			}
		})

		pendingMiss := make(map[int64]bool)
		hits := 0
		now := int64(0)
		var token int64
		for i := 0; i < 300; i++ {
			now++
			s.Cycle(now)
			addr := int64(rng.Intn(64)) * 128
			if rng.Intn(4) == 0 {
				l1.AccessStore(cache.Request{Addr: addr, Warp: 1}, now)
				continue
			}
			token++
			switch l1.AccessLoad(cache.Request{Addr: addr, Warp: 1}, token, now) {
			case Hit:
				hits++
			case Miss:
				pendingMiss[token] = true
			case Reject:
				// Rejected tokens must never be delivered.
			}
		}
		// Drain.
		for i := 0; i < 1_000_000 && !s.Drained(); i++ {
			now++
			s.Cycle(now)
		}
		if !s.Drained() {
			return false
		}
		if len(delivered) != len(pendingMiss) {
			return false
		}
		for tok, n := range delivered {
			if n != 1 || !pendingMiss[tok] {
				return false
			}
		}
		return l1.MSHROccupancy() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyBounds: every miss completes no earlier than the L2
// minimum latency and no later than a loose upper bound under light
// load.
func TestLatencyBounds(t *testing.T) {
	cfg := config.Small()
	s := New(cfg)
	type rec struct{ issued, done int64 }
	outstanding := make(map[int64]*rec)
	var l1 *L1D
	now := int64(0)
	l1 = s.NewL1D(cache.LRU{}, func(_ int64, tokens []int64) {
		for _, tok := range tokens {
			outstanding[tok].done = now
		}
	})
	for now = 0; now < 16*500; now++ {
		s.Cycle(now)
		if now%500 == 0 { // light load: no queueing
			tok := now / 500
			outstanding[tok] = &rec{issued: now}
			if got := l1.AccessLoad(cache.Request{Addr: tok * 100000, Warp: 0}, tok, now); got != Miss {
				t.Fatalf("expected miss, got %v", got)
			}
		}
	}
	for i := 0; i < 1_000_000 && !s.Drained(); i++ {
		now++
		s.Cycle(now)
	}
	for tok, r := range outstanding {
		if r.done == 0 {
			t.Fatalf("token %d never completed", tok)
		}
		lat := r.done - r.issued
		if lat < int64(cfg.L2Latency) {
			t.Fatalf("token %d latency %d below L2 minimum", tok, lat)
		}
		if lat > int64(cfg.DRAMLatency)+100 {
			t.Fatalf("token %d latency %d unreasonably high under light load", tok, lat)
		}
	}
}

// TestCanAcceptFlipsOnlyWithMutation is the contract the SM's reject
// memo rests on: CanAccept is a pure function of the tag array and the
// MSHR table, and Mutations counts every change to either, so a "no"
// can only turn into a "yes" if the count moved in between. The driver
// mixes loads, stores and both fill paths (a direct handleFill from
// System.Cycle, and the span engine's PlanSpanFills / DeliverSpanFills
// pair) and watches a handful of line groups across every step. A fill
// path that forgets to bump the counter fails here on the first fill
// that frees an MSHR entry.
func TestCanAcceptFlipsOnlyWithMutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.Small()
		cfg.L1D.MSHRs = 3
		cfg.L1D.MSHRTargets = 2
		s := New(cfg)
		l1 := s.NewL1D(cache.LRU{}, nil)

		groups := make([][]int64, 12)
		for i := range groups {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				groups[i] = append(groups[i], int64(rng.Intn(48))*128)
			}
		}
		type seen struct {
			ok  bool
			mut uint64
		}
		last := make([]seen, len(groups))
		flips := 0
		check := func() bool {
			for i, g := range groups {
				now := seen{l1.CanAccept(g), l1.Mutations()}
				if now.ok && !last[i].ok && now.mut == last[i].mut {
					t.Logf("seed %d: CanAccept(%v) went from no to yes at mutation count %d", seed, g, now.mut)
					return false
				}
				if now.ok && !last[i].ok {
					flips++
				}
				last[i] = now
			}
			return true
		}
		for i := range groups {
			last[i] = seen{l1.CanAccept(groups[i]), l1.Mutations()}
		}

		now := int64(0)
		for i := 0; i < 2000; i++ {
			now++
			if rng.Intn(8) == 0 {
				// A short span: planned fills delivered by the "domain",
				// their System half applied by the replay.
				end := now + int64(rng.Intn(40))
				s.PlanSpanFills(end + 1)
				for ; now <= end; now++ {
					l1.DeliverSpanFills(now)
					if !check() {
						return false
					}
				}
				now = end
				for c := end - 40; c <= end; c++ {
					s.Cycle(c)
				}
				l1.ResetSpanFills()
			} else {
				s.Cycle(now)
			}
			if !check() {
				return false
			}
			addr := int64(rng.Intn(48)) * 128
			if rng.Intn(5) == 0 {
				l1.AccessStore(cache.Request{Addr: addr, Warp: 1}, now)
			} else {
				l1.AccessLoad(cache.Request{Addr: addr, Warp: 1}, int64(i), now)
			}
			if !check() {
				return false
			}
		}
		if flips == 0 {
			t.Logf("seed %d: no refusal ever lifted; the driver exercised nothing", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
