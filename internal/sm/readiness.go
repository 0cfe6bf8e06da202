package sm

// Event-driven warp readiness.
//
// A tick does not rescan the warp slots. The SM keeps a candidate set —
// the slots to evaluate this tick, each by the scheduler unit that owns
// it (schedUnit.owned) — and a warp that fails an operand check (at a
// barrier, a register awaiting load data, a register awaiting a compute
// writeback) is parked: removed from the set with its verdict recorded
// in slot.reason. Nothing but an event can lift such a check, so the
// events wake the warp instead of the tick rediscovering it:
//
//	handleFill clears the last busyMem bit the warp waits on   MemData
//	retireWritebacks clears the last busyALU bit it waits on   ALU
//	maybeReleaseBarrier opens its block's barrier              Barrier
//	DispatchBlock, a loading Archive                           (start unparked)
//
// The checks that depend on SM-wide state — the load-store unit, the
// fetch path, MSHR capacity — never park: a warp past the operand
// checks stays a candidate, and its fetch hit is replayed every tick,
// in ascending slot order. That is the order the rescan evaluated in,
// and the fetch's LRU and hit counters are observable.
//
// A unit's verdicts stand until an input moves (issueFrom): operand
// state, pc, barrier flag, cand, busy times, L1I tags and kernel change
// only at an issue, park, wake, finished warp leaving cand, I-miss,
// dispatch or SetKernel, each counted in SM.events, or by time.
//
// A wake in the middle of a tick (a barrier released by another warp's
// issue) needs no special case. Units evaluate in index order, each
// reading the set as it stands at its turn; a slot added before its
// unit's turn is evaluated this tick, one added after is evaluated the
// next — exactly when a rescan of unit 0 then unit 1 would first have
// seen the open barrier.
//
// Stall accounting follows the same split. Candidates are charged tick
// by tick (accountStalls, AccountSkipped). A parked warp instead notes
// the cycle it parked in slot.since and is owed every cycle from there
// to its next evaluation, all to the bucket of its recorded verdict;
// the evaluation settles the debt before it reclassifies the warp. The
// one reader of a live warp's buckets, a saving Archive, settles every debt
// first (settleStalls). A finishing warp has just been evaluated, so
// its record is complete when it is filed.

import "math/bits"

// notAccruing is slot.since for a warp charged tick by tick.
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

// creditStall adds n stall cycles to the bucket reason selects.
func (s *slot) creditStall(reason stallReason, n int64) {
	switch reason {
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

// park takes slot i, blocked at cycle now for reason, out of the
// candidate set until an event wakes it.
func (m *SM) park(i int, s *slot, reason stallReason, now int64) {
	s.reason = reason
	s.parked = true
	s.since = now
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
	m.events++
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
				s.creditStall(s.reason, next-s.since)
				s.since = next
			}
		}
	}
}
