package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/state"
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

// rawDeficit is Deficit restated from the raw tag array and MSHR table:
// the new entries the missing lines need beyond the free ones, or 1 if
// a pending line has no target room, whichever is larger.
func rawDeficit(l *L1D, lines []int64) int {
	need, full := 0, 0
	for _, la := range lines {
		if _, _, hit := l.cache.Probe(la); hit {
			continue
		}
		if e := l.mshr.get(la); e == nil {
			need++
		} else if len(e.tokens) == l.cfgref.MSHRTargets {
			full = 1
		}
	}
	return max(need-(l.cfgref.MSHRs-l.mshr.n), full, 0)
}

// TestRefusalStandsUntilFills is the contract the SM's reject memo
// rests on: when a group of distinct lines gets deficit D at fill count
// F, CanAccept stays false for it at every later step while
// Fills() < F+D, and D is the shortfall counted from the raw structures.
// The driver mixes loads, stores, both fill paths (a direct handleFill
// from System.Cycle, and the span engine's PlanSpanFills /
// DeliverSpanFills pair) and a mid-run Archive save and load, and
// watches a dozen groups across every step. A fill path that forgets
// to count lets a refusal lift early; a deficit one too high, or one
// that ignores full merge targets, disagrees with the raw count.
func TestRefusalStandsUntilFills(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.Small()
		cfg.L1D.MSHRs = 3
		cfg.L1D.MSHRTargets = 2
		s := New(cfg)
		l1 := s.NewL1D(cache.LRU{}, nil)

		groups := make([][]int64, 12)
		for i := range groups {
			for _, line := range rng.Perm(48)[:1+rng.Intn(4)] {
				groups[i] = append(groups[i], int64(line)*128)
			}
		}
		// until[i]: the largest F+D over the group's refusals so far.
		until := make([]uint64, len(groups))
		lifted, deep := 0, 0
		check := func() bool {
			for i, g := range groups {
				d, fills := l1.Deficit(g), l1.Fills()
				if want := rawDeficit(l1, g); d != want {
					t.Logf("seed %d: Deficit(%v) = %d, raw count %d", seed, g, d, want)
					return false
				}
				if l1.CanAccept(g) != (d == 0) {
					t.Logf("seed %d: CanAccept(%v) disagrees with deficit %d", seed, g, d)
					return false
				}
				switch {
				case d == 0 && fills < until[i]:
					t.Logf("seed %d: CanAccept(%v) said yes at fill count %d, a refusal stands until %d", seed, g, fills, until[i])
					return false
				case d == 0 && until[i] > 0:
					lifted++
					until[i] = 0
				case d > 0:
					if d > 1 {
						deep++ // a refusal a single fill cannot lift
					}
					until[i] = max(until[i], fills+uint64(d))
				}
			}
			return true
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
			if i == 1000 {
				// Save and reload the whole memory system in place.
				a := state.NewSaver(0)
				s.Archive(a)
				if err := a.Err(); err != nil {
					t.Log(err)
					return false
				}
				ld := state.NewLoader(a.Bytes())
				if s.Archive(ld); ld.Err() != nil || len(ld.Bytes()) != 0 {
					t.Logf("reload: %v (%d bytes left)", ld.Err(), len(ld.Bytes()))
					return false
				}
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
		if lifted == 0 || deep == 0 {
			t.Logf("seed %d: %d refusals lifted, %d deficits above one; the driver exercised nothing", seed, lifted, deep)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
