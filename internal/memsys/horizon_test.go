package memsys

import (
	"testing"

	"cawa/internal/cache"
)

// TestSafeHorizonBounds pins the two horizon bounds: an idle system
// bounds only by span-issued accesses (now+1+L2Latency), and a pending
// internal event tightens the bound to its earliest derivable fill
// (t + L2Latency - icntLat).
func TestSafeHorizonBounds(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)

	l2lat := int64(cfg.L2Latency)
	now := int64(100)
	if got, want := s.SafeHorizon(now), now+1+l2lat; got != want {
		t.Fatalf("idle horizon %d, want %d", got, want)
	}

	// A miss at now schedules an L2 arrival at now+icntLat: the horizon
	// must shrink to (now+icntLat) + L2Latency - icntLat = now+L2Latency.
	if got := l1.AccessLoad(cache.Request{Addr: 0x4000}, 1, now); got != Miss {
		t.Fatalf("outcome %v, want miss", got)
	}
	if got, want := s.SafeHorizon(now), now+l2lat; got != want {
		t.Fatalf("horizon with pending L2 arrival %d, want %d", got, want)
	}

	// Draining the system restores the idle bound: the internals heap
	// mirror must shrink as events are processed.
	end := drive(s, col, now+1, 10_000)
	if !s.Drained() {
		t.Fatal("system did not drain")
	}
	if got, want := s.SafeHorizon(end), end+1+l2lat; got != want {
		t.Fatalf("post-drain horizon %d, want %d", got, want)
	}
}

// pendingFillTime digs the single pending evL1Fill out of the event
// heap (the white-box view the planner's heap scan uses).
func pendingFillTime(t *testing.T, s *System) int64 {
	t.Helper()
	ft := int64(-1)
	for i := range s.events {
		if s.events[i].kind == evL1Fill {
			if ft >= 0 {
				t.Fatal("more than one pending fill")
			}
			ft = s.events[i].time
		}
	}
	if ft < 0 {
		t.Fatal("no pending fill in the event heap")
	}
	return ft
}

// missUntilFillPending drives one load miss far enough that its fill
// event is pending, and returns (fill time, last processed cycle).
func missUntilFillPending(t *testing.T, s *System, l1 *L1D, col *collector, addr int64) (int64, int64) {
	t.Helper()
	if got := l1.AccessLoad(cache.Request{Addr: addr}, 7, 0); got != Miss {
		t.Fatalf("outcome %v, want miss", got)
	}
	now := int64(0)
	for !s.Drained() {
		now++
		hasFill := false
		for i := range s.events {
			if s.events[i].kind == evL1Fill {
				hasFill = true
			}
		}
		if hasFill && s.events[0].kind == evL1Fill {
			// Only the fill remains ahead: stop before processing it.
			return pendingFillTime(t, s), now - 1
		}
		col.now = now
		s.Cycle(now)
	}
	t.Fatal("miss drained without a pending fill")
	return 0, 0
}

// TestSpanFillDeliverAndReplay exercises the split delivery protocol
// end to end: planning copies the pending fill, DeliverSpanFills
// applies the L1/SM half on the "worker", and the event pop during the
// replay consumes the record and applies the System half exactly once.
func TestSpanFillDeliverAndReplay(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	ft, now := missUntilFillPending(t, s, l1, col, 0x4000)

	s.PlanSpanFills(ft + 1)
	if got := l1.NextSpanFill(); got != ft {
		t.Fatalf("NextSpanFill %d, want %d", got, ft)
	}

	// Worker half: the SM callback fires and the MSHR entry retires.
	col.now = ft
	l1.DeliverSpanFills(ft)
	if len(col.fills) != 1 || col.fills[0].addr != 0x4000 || col.fills[0].at != ft {
		t.Fatalf("worker delivery fills = %+v", col.fills)
	}
	if l1.MSHROccupancy() != 0 {
		t.Fatal("MSHR entry not retired by in-span delivery")
	}
	if l1.NextSpanFill() != -1 {
		t.Fatal("plan not consumed")
	}
	if s.FillsDelivered != 0 {
		t.Fatal("System half applied before the replay")
	}

	// Replay half: popping the event consumes the record instead of
	// double-delivering, and counts the fill exactly once.
	for c := now + 1; c <= ft; c++ {
		col.now = c
		s.Cycle(c)
	}
	if s.FillsDelivered != 1 {
		t.Fatalf("FillsDelivered = %d, want 1", s.FillsDelivered)
	}
	if len(col.fills) != 1 {
		t.Fatalf("replay re-delivered: %d SM callbacks", len(col.fills))
	}
	if !l1.SpanFillsDrained() {
		t.Fatal("delivery record not consumed by the replay")
	}
	if !s.Drained() {
		t.Fatal("events left pending")
	}
	l1.ResetSpanFills()
}

// TestSpanFillUndeliveredFallsBack proves a planned-but-undelivered
// fill (the owning SM drained mid-span) gets the ordinary full
// handleFill when its event pops: the plan alone must not change
// delivery.
func TestSpanFillUndeliveredFallsBack(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	ft, now := missUntilFillPending(t, s, l1, col, 0x4000)

	s.PlanSpanFills(ft + 1)
	// No DeliverSpanFills call: the worker skipped this SM.
	for c := now + 1; c <= ft; c++ {
		col.now = c
		s.Cycle(c)
	}
	if len(col.fills) != 1 || col.fills[0].at != ft {
		t.Fatalf("fallback delivery fills = %+v", col.fills)
	}
	if s.FillsDelivered != 1 {
		t.Fatalf("FillsDelivered = %d, want 1", s.FillsDelivered)
	}
	if l1.MSHROccupancy() != 0 {
		t.Fatal("MSHR entry not retired by the fallback path")
	}
	l1.ResetSpanFills()
	if l1.NextSpanFill() != -1 {
		t.Fatal("reset left plan entries behind")
	}
}

// TestSpanFillStaleDelivery pins the stale protocol: a planned fill
// whose MSHR entry is already gone records stale=true in-span, and the
// replay applies no System-side effects — matching the serial engine's
// handleFill early return.
func TestSpanFillStaleDelivery(t *testing.T) {
	cfg := testCfg()
	s := New(cfg)
	col := &collector{}
	l1 := s.NewL1D(cache.LRU{}, col.handler)
	ft, now := missUntilFillPending(t, s, l1, col, 0x4000)

	s.PlanSpanFills(ft + 1)
	// Force staleness the way store forwarding does: the entry retires
	// before the fill arrives.
	line := l1.cache.BlockAddr(0x4000)
	l1.mshr.take(line)

	col.now = ft
	l1.DeliverSpanFills(ft)
	if len(col.fills) != 0 {
		t.Fatalf("stale delivery invoked the SM callback: %+v", col.fills)
	}
	for c := now + 1; c <= ft; c++ {
		col.now = c
		s.Cycle(c)
	}
	if s.FillsDelivered != 0 {
		t.Fatalf("FillsDelivered = %d, want 0 for a stale fill", s.FillsDelivered)
	}
	if !l1.SpanFillsDrained() {
		t.Fatal("stale record not consumed")
	}
	if !s.Drained() {
		t.Fatal("events left pending")
	}
	l1.ResetSpanFills()
}
