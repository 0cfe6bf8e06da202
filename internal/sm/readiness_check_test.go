package sm

import (
	"fmt"

	"cawa/internal/stats"
)

// ReadinessChecker is the from-scratch oracle for the SM's event-driven
// readiness state. The ticked engine oracle calls the same SM.Cycle as
// the span engine, so no engine-equivalence test can see a bug inside
// the SM; this checker can. After a tick it recomputes, from the raw
// slot state alone (scoreboards, barrier flag, writeback queues, and a
// read-only L1I Probe for standing verdicts), everything the SM
// maintains incrementally: every verdict that stands into the next tick
// must equal a fresh readiness run there. It keeps a shadow of the
// per-warp stall buckets advanced the way an all-slot loop advanced them
// before readiness became event-driven — one bucket per warp per cycle —
// and every lazily accrued record, settled, must equal it.
//
// It lives in a _test.go file on purpose: the from-scratch classifier is
// the deleted rescan, and it must not be reachable from the simulator.
type ReadinessChecker struct {
	m            *SM
	shadow       []shadowWarp
	finishedSeen int

	// Residency, when set, also checks the identity issue cycles + stall
	// cycles == cycles resident for every live warp. It holds when warps
	// are dispatched at the head of their first tick, as the engine
	// dispatches them (not when a test dispatches at cycle 0 and first
	// ticks at 1).
	Residency bool

	// Standing counts the standing verdicts checkStanding re-derived.
	Standing int
}

// stallBuckets is the stall-accounting part of a warp record.
type stallBuckets struct{ Sched, Mem, ALU, Barrier, Empty int64 }

func (b *stallBuckets) credit(reason stallReason, n int64) {
	switch reason {
	case reasonReady:
		b.Sched += n
	case reasonBarrier:
		b.Barrier += n
	case reasonMemData, reasonMemStruct:
		b.Mem += n
	case reasonALU:
		b.ALU += n
	default:
		b.Empty += n
	}
}

func (b stallBuckets) sum() int64 { return b.Sched + b.Mem + b.ALU + b.Barrier + b.Empty }

func bucketsOf(r *stats.WarpRecord) stallBuckets {
	return stallBuckets{r.SchedStall, r.MemStall, r.ALUStall, r.BarrierStall, r.EmptyStall}
}

// shadowWarp is the per-tick account of one slot's current occupant.
type shadowWarp struct {
	gen int64
	gid int
	b   stallBuckets
}

// NewReadinessChecker attaches a checker to m. Attach before the first
// dispatch: the shadow account starts every warp at zero.
func NewReadinessChecker(m *SM) *ReadinessChecker {
	return &ReadinessChecker{m: m, shadow: make([]shadowWarp, len(m.slots))}
}

// operandVerdict classifies a live slot by the operand checks alone:
// the reason it would be parked for, or reasonNone if it would go on to
// the LSU gate and the fetch.
func (m *SM) operandVerdict(s *slot) stallReason {
	md := &m.meta[s.pc]
	switch {
	case s.warp.AtBarrier:
		return reasonBarrier
	case md.RegMask&s.busyMem != 0:
		return reasonMemData
	case md.RegMask&s.busyALU != 0:
		return reasonALU
	}
	return reasonNone
}

// effective returns the slot's stall buckets with the lazily accrued
// cycles it is owed through the SM's current cycle added in.
func (m *SM) effective(s *slot) stallBuckets {
	b := bucketsOf(&s.rec)
	if s.since >= 0 {
		b.credit(s.reason, m.cycle+1-s.since)
	}
	return b
}

// Invariants checks the maintained state against the raw slots. It may
// be called at any tick boundary; it settles a sleeping SM first.
func (c *ReadinessChecker) Invariants() error {
	m := c.m
	m.settle()
	free := 0
	earliest := NoWake
	for i := range m.slots {
		s := &m.slots[i]
		live := s.valid && !s.done
		if !s.valid {
			free++
		}
		if m.live.has(i) != live {
			return fmt.Errorf("sm %d slot %d: live set says %v, slot valid=%v done=%v",
				m.ID, i, m.live.has(i), s.valid, s.done)
		}
		if !m.units[i%len(m.units)].owned.has(i) {
			return fmt.Errorf("sm %d slot %d: not owned by unit %d", m.ID, i, i%len(m.units))
		}
		if m.wbPending.has(i) != (len(s.wb) > 0) {
			return fmt.Errorf("sm %d slot %d: wbPending says %v, queue holds %d",
				m.ID, i, m.wbPending.has(i), len(s.wb))
		}
		if err := c.checkSets(i); err != nil {
			return err
		}
		if m.waiting.has(i) != (waitingReasons>>s.reason&1 != 0) {
			return fmt.Errorf("sm %d slot %d: waiting set says %v, reason %d", m.ID, i, m.waiting.has(i), s.reason)
		}
		if len(s.wb) > 0 {
			first := NoWake
			for _, e := range s.wb {
				if e.time < first {
					first = e.time
				}
			}
			if s.wbMin != first {
				return fmt.Errorf("sm %d slot %d: wbMin %d, queue's earliest is %d", m.ID, i, s.wbMin, first)
			}
			if first < earliest {
				earliest = first
			}
		}
		switch {
		case s.parked:
			// parked => still blocked, for the recorded reason.
			if !live || m.cand.has(i) || s.since < 0 {
				return fmt.Errorf("sm %d slot %d: parked but live=%v candidate=%v since=%d",
					m.ID, i, live, m.cand.has(i), s.since)
			}
			if v := m.operandVerdict(s); v != s.reason {
				return fmt.Errorf("sm %d slot %d: parked for reason %d, raw state says %d (pc %d busyMem %#x busyALU %#x barrier %v)",
					m.ID, i, s.reason, v, s.pc, s.busyMem, s.busyALU, s.warp.AtBarrier)
			}
		case live && !m.cand.has(i):
			// blocked (or not) and not a candidate => must be parked.
			return fmt.Errorf("sm %d slot %d: live, not a candidate and not parked (raw verdict %d)",
				m.ID, i, m.operandVerdict(s))
		}
		if s.valid && s.atBarrier != s.warp.AtBarrier {
			return fmt.Errorf("sm %d slot %d: atBarrier mirror %v, warp says %v", m.ID, i, s.atBarrier, s.warp.AtBarrier)
		}
		if s.valid && s.since > m.cycle+1 {
			return fmt.Errorf("sm %d slot %d: accrues from cycle %d, SM is at %d", m.ID, i, s.since, m.cycle)
		}
		if live && c.Residency {
			resident := m.cycle - s.rec.DispatchCycle + 1
			if got := s.rec.IssueCycles + m.effective(s).sum(); got != resident {
				return fmt.Errorf("sm %d slot %d (warp %d): issue+stall cycles %d, resident %d cycles (dispatched %d, now %d)",
					m.ID, i, s.rec.GID, got, resident, s.rec.DispatchCycle, m.cycle)
			}
		}
	}
	if free != m.freeSlots || m.ResidentWarps() != len(m.slots)-free {
		return fmt.Errorf("sm %d: freeSlots %d, %d slots are free", m.ID, m.freeSlots, free)
	}
	if m.wbNext > earliest {
		return fmt.Errorf("sm %d: wbNext %d is past the earliest pending writeback %d", m.ID, m.wbNext, earliest)
	}
	return nil
}

// AfterTick must follow every SM.Cycle(now): it advances the shadow
// account by the bucket the all-slot accountStalls gave each warp for
// this cycle, compares it with the warp's record plus the cycles it is
// owed, and checks the invariants.
func (c *ReadinessChecker) AfterTick(now int64) error {
	m := c.m
	m.settle()
	if m.cycle != now {
		return fmt.Errorf("sm %d: AfterTick(%d) but the SM is at cycle %d", m.ID, now, m.cycle)
	}
	for i := range m.slots {
		s := &m.slots[i]
		if !s.valid {
			continue
		}
		sh := &c.shadow[i]
		if sh.gen != s.gen {
			*sh = shadowWarp{gen: s.gen, gid: s.rec.GID}
		}
		if !s.done && s.issuedCycle != now {
			if s.readyCycle == now {
				sh.b.Sched++
			} else {
				sh.b.credit(s.reason, 1)
			}
		}
		if got := m.effective(s); got != sh.b {
			return fmt.Errorf("sm %d slot %d (warp %d) cycle %d: record+owed %+v, per-tick account %+v (parked=%v reason=%d since=%d)",
				m.ID, i, s.rec.GID, now, got, sh.b, s.parked, s.reason, s.since)
		}
	}
	if err := c.checkFinished(); err != nil {
		return err
	}
	if err := c.checkStanding(now); err != nil {
		return err
	}
	return c.Invariants()
}

// checkSets checks slot i's membership of the candidate partition:
// a candidate sits in exactly one of fresh, open, lsuWait and fetchWait,
// and a standing one (not fresh) is live, unparked and accruing.
func (c *ReadinessChecker) checkSets(i int) error {
	m := c.m
	in := 0
	for _, set := range []slotSet{m.fresh, m.open, m.lsuWait, m.fetchWait} {
		if set.has(i) {
			in++
		}
	}
	want := 0
	if m.cand.has(i) {
		want = 1
	}
	if in != want {
		return fmt.Errorf("sm %d slot %d: candidate=%v, in %d of fresh/open/lsuWait/fetchWait (%v %v %v %v)",
			m.ID, i, m.cand.has(i), in, m.fresh.has(i), m.open.has(i), m.lsuWait.has(i), m.fetchWait.has(i))
	}
	if s := &m.slots[i]; in == 1 && !m.fresh.has(i) && (!s.valid || s.done || s.parked || s.since < 0) {
		return fmt.Errorf("sm %d slot %d: standing verdict on valid=%v done=%v parked=%v since=%d",
			m.ID, i, s.valid, s.done, s.parked, s.since)
	}
	return nil
}

// checkStanding re-derives, for every candidate whose verdict stands
// into the next tick (every candidate not fresh), the verdict a fresh
// readiness run would reach at the start of that tick, from the raw slot
// state: the operand checks, the LSU gate, the fetch path's busy time,
// and L1I residency of the warp's next instruction, checked with Probe.
// It must equal what the standing path gives the warp there: an open
// warp is ready with its fetch hit replayed at (icSet, icWay) unless it
// is LSU-gated while the LSU is busy (the pass moves it to lsuWait); a
// waiting warp is blocked by its gate, or the gate passes at that cycle
// and the tick makes it fresh. Nothing a standing verdict reads can
// change before its unit's turn without making it fresh: fills and
// writebacks that lift no check change no verdict, an earlier unit's
// issue moves the LSU busy time (which the pass reads) or barrier flags
// (of parked and fresh warps only), and an I-miss makes open warps fresh.
func (c *ReadinessChecker) checkStanding(now int64) error {
	m := c.m
	next := now + 1
	for i := range m.slots {
		if !m.cand.has(i) || m.fresh.has(i) {
			continue
		}
		s := &m.slots[i]
		if v := m.operandVerdict(s); v != reasonNone {
			return fmt.Errorf("sm %d cycle %d: slot %d has a standing verdict, raw state parks it for reason %d", m.ID, now, i, v)
		}
		gated := m.meta[s.pc].LSUGated
		lsuBlocked := gated && m.lsuBusyUntil > next
		switch {
		case m.open.has(i):
			if m.gated.has(i) != gated {
				return fmt.Errorf("sm %d cycle %d: open slot %d gated=%v, its instruction LSUGated=%v", m.ID, now, i, m.gated.has(i), gated)
			}
			if lsuBlocked {
				break
			}
			if m.icBusy > next {
				return fmt.Errorf("sm %d cycle %d: slot %d stands open while an I-miss blocks fetch until %d", m.ID, now, i, m.icBusy)
			}
			set, way, hit := m.l1i.Probe(int64(s.pc) * instrBytes)
			if !hit {
				return fmt.Errorf("sm %d cycle %d: slot %d stands open while its fetch misses", m.ID, now, i)
			}
			if int32(set) != s.icSet || int32(way) != s.icWay {
				return fmt.Errorf("sm %d cycle %d: slot %d would replay its fetch at (%d, %d), the line is at (%d, %d)",
					m.ID, now, i, s.icSet, s.icWay, set, way)
			}
			if s.reason != reasonReady && s.reason != reasonMemStruct {
				return fmt.Errorf("sm %d cycle %d: open slot %d has reason %d", m.ID, now, i, s.reason)
			}
		case m.lsuWait.has(i):
			if !gated {
				return fmt.Errorf("sm %d cycle %d: slot %d waits on the LSU, its instruction does not use it", m.ID, now, i)
			}
			if m.lsuBusyUntil <= next {
				continue // fresh by its unit's turn
			}
			if s.reason != reasonMemStruct {
				return fmt.Errorf("sm %d cycle %d: slot %d waits on the LSU with reason %d", m.ID, now, i, s.reason)
			}
		case m.fetchWait.has(i):
			if m.icBusy <= next {
				continue // fresh by its unit's turn
			}
			if s.reason != reasonMemStruct {
				return fmt.Errorf("sm %d cycle %d: slot %d waits on fetch with reason %d", m.ID, now, i, s.reason)
			}
		}
		c.Standing++
	}
	return nil
}

// Skipped must accompany every SM.AccountSkipped(span): the all-slot
// version credited span cycles to every live warp under its last
// classification.
func (c *ReadinessChecker) Skipped(span int64) {
	for i := range c.m.slots {
		if s := &c.m.slots[i]; s.valid && !s.done {
			c.shadow[i].b.credit(s.reason, span)
		}
	}
}

// checkFinished compares the records filed since the last call with the
// shadow account of the warp that filed them. A finishing warp's slot
// may already have retired with its block, so the lookup is by warp id.
func (c *ReadinessChecker) checkFinished() error {
	m := c.m
	if len(m.Finished) < c.finishedSeen {
		c.finishedSeen = 0 // drained at a launch boundary
	}
	for ; c.finishedSeen < len(m.Finished); c.finishedSeen++ {
		r := &m.Finished[c.finishedSeen]
		found := false
		for i := range c.shadow {
			if sh := &c.shadow[i]; sh.gid == r.GID && sh.gen != 0 {
				if got := bucketsOf(r); got != sh.b {
					return fmt.Errorf("sm %d warp %d: finished with %+v, per-tick account %+v", m.ID, r.GID, got, sh.b)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sm %d warp %d: finished but never seen resident", m.ID, r.GID)
		}
	}
	return nil
}
