package sm

// Event-driven readiness with per-warp verdicts.
//
// A tick does not rescan the warp slots. The SM keeps a candidate set —
// the unparked warps, each owned by one scheduler unit (schedUnit.owned)
// — and a warp that fails an operand check (at a barrier, a register
// awaiting load data, a register awaiting a compute writeback) is
// parked: removed from the set with its verdict recorded in slot.reason.
// Nothing but an event can lift such a check, so the events wake the
// warp instead of the tick rediscovering it:
//
//	handleFill clears the last busyMem bit the warp waits on   MemData
//	retireWritebacks clears the last busyALU bit it waits on   ALU
//	maybeReleaseBarrier opens its block's barrier              Barrier
//	DispatchBlock, a loading Archive                           (start unparked)
//
// A candidate keeps its verdict, too, until one of its own inputs moves.
// Each candidate sits in exactly one of four sets:
//
//	fresh      readiness runs at its unit's next turn: the warp was woken,
//	           dispatched, issued (pc, scoreboard and barrier flag moved)
//	           or finished, or an SM-wide input below moved under it
//	open       it passed every check; its fetch hits the L1I at
//	           (icSet, icWay). gated marks the LSU-gated ones
//	lsuWait    it passed the operand checks and waits on the LSU alone
//	fetchWait  it passed those and waits on an I-miss's fill
//
// The SM-wide gates move whole groups. While lsuBusyUntil is ahead, a
// unit's pass moves its gated open warps to lsuWait; once it has passed,
// the tick moves lsuWait to fresh. An I-miss fills the L1I, which may
// evict the line an open warp's verdict names, and blocks every fetch:
// it moves open to fresh; the fetchWait it leaves goes to fresh when
// icBusy passes. A unit's pass (issueFrom) runs readiness on its fresh
// warps and re-offers its open ones, in ascending slot order: an open
// warp's fetch hit is replayed every tick, because the L1I's LRU stamps
// and hit counters are observable and the rescan this replaces probed
// in that order.
//
// A wake in the middle of a tick (a barrier released by another warp's
// issue) needs no special case. Units evaluate in index order, each
// reading the sets as they stand at its turn; a slot woken before its
// unit's turn is evaluated this tick, one woken after is evaluated the
// next — exactly when a rescan of unit 0 then unit 1 would first have
// seen the open barrier.
//
// Stall accounting is lazy for every warp. A live candidate or parked
// warp owes the cycles from slot.since on to the bucket of its verdict
// (reasonReady: scheduler delay). The debt settles when the verdict
// changes — at a readiness run, a park, an issue, a refused pick, a
// gate moving the warp — and the issuing cycle is owed to no bucket.
// Skipped cycles (AccountSkipped) therefore only advance the cycle. The
// readers of a live warp's buckets, a saving Archive and the tests,
// settle every debt first (settleStalls); a finishing warp has just
// settled at its issue, so its record is complete when it is filed.

import "math/bits"

// notAccruing is slot.since for a warp that owes no stall cycles: one
// not yet evaluated since it issued, was dispatched, or finished.
const notAccruing int64 = -1

// slotSet is a set of warp-slot indices, one bit per slot. Iterating the
// words with bits.TrailingZeros64 visits members in ascending order.
type slotSet []uint64

func newSlotSet(slots int) slotSet { return make(slotSet, (slots+63)/64) }

func (b slotSet) add(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b slotSet) remove(i int)   { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b slotSet) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b slotSet) clear() {
	for w := range b {
		b[w] = 0
	}
}

// moveTo adds every member of b to dst and empties b.
func (b slotSet) moveTo(dst slotSet) {
	for w, word := range b {
		dst[w] |= word
		b[w] = 0
	}
}

// creditStall adds n stall cycles to the bucket reason selects.
func (s *slot) creditStall(reason stallReason, n int64) {
	switch reason {
	case reasonReady:
		s.rec.SchedStall += n
	case reasonBarrier:
		s.rec.BarrierStall += n
	case reasonMemData, reasonMemStruct:
		s.rec.MemStall += n
	case reasonALU:
		s.rec.ALUStall += n
	default:
		s.rec.EmptyStall += n
	}
}

// settleDebt credits the cycles s owes before now to its verdict's
// bucket.
func (s *slot) settleDebt(now int64) {
	if s.since >= 0 {
		s.creditStall(s.reason, now-s.since)
	}
}

// setVerdict settles slot i's debt and records the verdict reason from
// now on.
func (m *SM) setVerdict(i int, s *slot, reason stallReason, now int64) {
	s.settleDebt(now)
	m.setReason(i, s, reason)
	s.since = now
}

// setReason records slot i's classification, keeping the waiting set
// (the policies' Context.Waiting) in step: every write of slot.reason
// goes through here, or clears the slot's bit along with the slot.
func (m *SM) setReason(i int, s *slot, reason stallReason) {
	s.reason = reason
	bit := uint64(1) << (uint(i) & 63)
	w := &m.waiting[i>>6]
	*w = *w&^bit | bit&-(waitingReasons>>reason&1)
}

// waitingReasons has bit r set for each verdict r that blocks a warp on
// a long-latency event: a global-memory access or a block barrier.
const waitingReasons uint64 = 1<<reasonMemData | 1<<reasonMemStruct | 1<<reasonBarrier

// park takes slot i, blocked at cycle now for reason, out of the
// candidate set until an event wakes it.
func (m *SM) park(i int, s *slot, reason stallReason, now int64) {
	m.setVerdict(i, s, reason, now)
	s.parked = true
	m.cand.remove(i)
	m.events++
}

// wake returns parked slot i to the candidate set. The stall cycles it
// is owed stay owed: the evaluation that follows settles them, so a warp
// woken after its unit's turn this tick is still charged this tick under
// the verdict it was parked with.
func (m *SM) wake(i int, s *slot) {
	s.parked = false
	m.cand.add(i)
	m.fresh.add(i)
	m.events++
}

// reopenGates re-evaluates the waiting warps whose gate has passed:
// lsuWait once the LSU is free, fetchWait once the I-miss has filled.
func (m *SM) reopenGates(now int64) {
	if m.lsuBusyUntil <= now {
		m.lsuWait.moveTo(m.fresh)
	}
	if m.icBusy <= now {
		m.fetchWait.moveTo(m.fresh)
	}
}

// settleStalls credits every lazily accruing warp the stall cycles it
// is owed through the SM's current cycle and restarts the debt at the
// next one, leaving each record as if every cycle had been accounted
// when it happened.
func (m *SM) settleStalls() {
	next := m.cycle + 1
	for w, word := range m.live {
		for ; word != 0; word &= word - 1 {
			s := &m.slots[w<<6|bits.TrailingZeros64(word)]
			if s.since >= 0 {
				s.settleDebt(next)
				s.since = next
			}
		}
	}
}
