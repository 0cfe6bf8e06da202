package sm

// Sleeping through refused ticks.
//
// In a memory-bound kernel most ticks are refused: every unit re-offers
// its open warps (issueFrom, readiness.go) and the MSHRs refuse every
// pick. Such a tick changes little, and all of it is a function of how
// many refused ticks came before it:
//
//   - each listed warp's ready stamp and classification, and its stall
//     bucket: MemStruct for a refused pick, SchedStall for the rest;
//   - each listed warp's L1I hit, replayed in slot order;
//   - each unit's policy state, through its Select calls.
//
// So once a tick shows that the next ones will be refused too, the SM
// falls asleep: Cycle and AccountSkipped only count the ticks it owes,
// and settle accounts for them in bulk before the next real tick and
// before any reader looks (Archive, ObsState, L1I, Policies, the
// readiness checker). Settling is byte-identical to ticking: the
// engine-equivalence matrix compares settled runs against the ticked
// oracle, whose SMs never sleep (SetStoreLog).
//
// When the SM may fall asleep after a tick (fallAsleep):
//
//   - every unit's ready list will stand: the tick moved no event (no
//     issue, park, wake or I-miss), so no verdict is fresh and each
//     unit's next pass re-offers the same open warps in the same order;
//   - every pick is foreseen refused: each is a warp holding a standing
//     load refusal, its next instruction a global load whose coalescing
//     peek is memoized at its pc, and the L1D's fill count below its
//     refusal stamp. A pick is probed for one when it is first foreseen;
//     that is a pure read of the L1D, and recording a refusal ahead of
//     the warp's real pick changes no outcome (SM.loadRefused).
//
// The picks are foreseen by replay. A unit's refused tick is a function
// of its policy's state alone, so the SM replays ticks through the
// unchanged Select, snapshotting the policy's Archive after each, until
// the bytes repeat a state seen before: from there the ticks repeat for
// ever. Archive is a policy's whole Select state — it is what a
// checkpoint restores a policy from, and a restored run must pick as the
// uninterrupted one does — so equal bytes mean equal futures. Then the
// policy is restored to its state after the real tick, and a settle
// restores it to the foreseen state of the last tick it covers,
// multiplying out the whole periods in between. If a foreseen pick would
// be accepted, or no state repeats within foresight ticks, the SM stays
// awake and tries again only after an event.
//
// Four things end the sleep, checked at every cycle it owes, at O(1)
// unless a fill came: the event count moves (a fill wakes a warp, a
// block is dispatched; both settle first, handleFill and DispatchBlock),
// a foreseen pick's refusal lapses (after L1D.Fills() moves,
// refusalsHold re-probes the stamps it reached), a writeback falls due,
// or the fetch or LSU busy time runs out. Until then nothing a
// refused tick reads can change: operand state, pcs, parked verdicts,
// busy times and the L1I only move at an event or at those times, a
// refusal only at a fill, and Select reads nothing but the ready list,
// the slots' ages, criticality (which moves only at an issue or an L1D
// access) and classifications (reset each tick for the listed warps,
// constant for the rest). The warps off the lists keep their verdicts
// and accrue their stall cycles lazily, so a settle touches only the
// listed warps.

import (
	"bytes"
	"fmt"
	"math/bits"

	"cawa/internal/cache"
	"cawa/internal/state"
)

// foresight bounds the refused ticks a falling-asleep SM replays
// looking for its policies' period.
const foresight = 32

// fallAsleep decides, after the real tick at now, whether the SM may
// sleep, and if so starts owing the ticks after it.
func (m *SM) fallAsleep(now int64) bool {
	if m.events == m.sleepless {
		return false
	}
	if m.picks == nil {
		m.allocSleep()
	}
	m.sleepAt, m.slept, m.owed = now, 0, 0
	m.probed.clear()
	m.touchSeq = m.touchSeq[:0]
	periodic := true
	for u := range m.units {
		un := &m.units[u]
		un.pickLog, un.tickAt = un.pickLog[:0], append(un.tickAt[:0], 0)
		for _, i := range un.list {
			s := &m.slots[i]
			m.touchSeq = append(m.touchSeq, cache.Ref{Set: s.icSet, Way: s.icWay})
			if s.readyCycle < 0 {
				un.pickLog = append(un.pickLog, int32(i)) // refused this tick
			}
		}
		un.tickAt = append(un.tickAt, len(un.pickLog))
	}
	for u := range m.units {
		if un := &m.units[u]; len(un.list) > 0 && periodic {
			periodic = m.foresee(un)
			m.resume(un, 0)
		}
	}
	if !periodic {
		// The same lists and refusals would foresee the same: wait for
		// an event before trying again.
		m.sleepless = m.events
		return false
	}
	m.asleep = true
	m.sleepEvents, m.sleepFills = m.events, m.l1d.Fills()
	return true
}

// allocSleep makes the buffers a sleep reuses, once an SM first tries
// to sleep: most SMs of an issue-bound kernel never do.
func (m *SM) allocSleep() {
	m.probed = newSlotSet(len(m.slots))
	m.touchSeq = make([]cache.Ref, 0, len(m.slots))
	m.picks = make([]int64, len(m.slots))
	m.loader = state.NewLoader(nil)
	for i := range m.units {
		u := &m.units[i]
		u.snap = state.NewSaver(1 << 12)
		u.snapAt = make([]int, 0, foresight+2)
		u.pickLog = make([]int32, 0, (foresight+2)*(maxRejects+1))
		u.tickAt = make([]int, 0, foresight+2)
	}
}

// ticks is how many refused ticks u's record foresees.
func (u *schedUnit) ticks() int64 { return int64(len(u.tickAt) - 2) }

// foresee replays unit u's refused ticks after the real tick into its
// record until the policy's state repeats, reporting whether it did
// within foresight ticks with every pick refused. The replays leave the
// policy and the listed warps as they go (resume puts them back).
func (m *SM) foresee(u *schedUnit) bool {
	a := u.snap
	a.Reset(nil)
	u.policy.Archive(a)
	u.snapAt = append(u.snapAt[:0], 0, len(a.Bytes()))
	for t := int64(1); t <= foresight; t++ {
		mark := len(u.pickLog)
		m.replayTick(u, m.sleepAt+t)
		for _, i := range u.pickLog[mark:] {
			if !m.refuses(int(i)) {
				u.pickLog = u.pickLog[:mark]
				return false
			}
		}
		u.tickAt = append(u.tickAt, len(u.pickLog))
		u.policy.Archive(a)
		b := a.Bytes()
		u.snapAt = append(u.snapAt, len(b))
		for i := int64(0); i < t; i++ {
			if bytes.Equal(b[u.snapAt[i]:u.snapAt[i+1]], b[u.snapAt[t]:]) {
				u.loop, u.period = i, t-i
				return true
			}
		}
	}
	return false
}

// refuses reports whether slot i holds a standing load refusal, probing
// it the first time fallAsleep meets it (a pick found not refused ends
// the attempt, so every probed slot refuses).
func (m *SM) refuses(i int) bool {
	if m.probed.has(i) {
		return true
	}
	m.probed.add(i)
	s := &m.slots[i]
	return m.meta[s.pc].GlobalLoad && m.loadRefused(s)
}

// refusalsHold reports whether every foreseen pick still holds a
// standing refusal. Only a fill can lapse one: after fills, each
// refusal whose stamp the fill count has reached is probed again.
func (m *SM) refusalsHold() bool {
	fills := m.l1d.Fills()
	if fills == m.sleepFills {
		return true
	}
	for w, word := range m.probed {
		for ; word != 0; word &= word - 1 {
			if s := &m.slots[w<<6|bits.TrailingZeros64(word)]; fills >= s.rejectedAt && !m.loadRefused(s) {
				return false
			}
		}
	}
	m.sleepFills = fills
	return true
}

// wakeUp settles the debt and ends the sleep, before something changes
// what a refused tick would do.
func (m *SM) wakeUp() {
	if m.asleep {
		m.settle()
		m.asleep = false
	}
}

// settle accounts for the owed refused ticks, leaving the SM as ticking
// through them would have. The sleep goes on.
func (m *SM) settle() {
	if m.owed == 0 {
		return
	}
	from := m.slept
	m.slept += m.owed
	m.settled += m.owed
	m.owed = 0
	to := m.slept - m.settleSlack
	if to <= from {
		return
	}
	n := to - from
	m.l1i.TouchRepeat(m.touchSeq, uint64(n))
	for u := range m.units {
		un := &m.units[u]
		if len(un.list) == 0 {
			continue
		}
		m.countPicks(un, to, 1)
		m.countPicks(un, from, -1)
		for _, i := range un.list {
			// The listed warp's debt runs through the last tick settled
			// before; the n ticks after it are credited here, so it owes
			// nothing before the tick after to.
			s := &m.slots[i]
			s.settleDebt(m.sleepAt + from + 1)
			s.rec.MemStall += m.picks[i]
			s.rec.SchedStall += n - m.picks[i]
			s.since = m.sleepAt + to + 1
			m.picks[i] = 0
		}
		m.resume(un, to)
	}
	// Every other warp keeps its verdict throughout and accrues lazily.
}

// foreseen maps tick k after sleepAt to the foreseen tick with the same
// picks and the same policy state after it.
func (u *schedUnit) foreseen(k int64) int64 {
	if k <= u.ticks() {
		return k
	}
	return u.loop + (k-u.loop-1)%u.period + 1
}

// countPicks adds sign times each warp's picks in the first k ticks
// after sleepAt to m.picks.
func (m *SM) countPicks(u *schedUnit, k, sign int64) {
	e := u.foreseen(k)
	for _, i := range u.pickLog[u.tickAt[1]:u.tickAt[e+1]] {
		m.picks[i] += sign
	}
	if k > e {
		periods := (k - e) / u.period
		for _, i := range u.pickLog[u.tickAt[u.loop+1]:u.tickAt[u.loop+u.period+1]] {
			m.picks[i] += sign * periods
		}
	}
}

// resume leaves unit u's policy and listed warps as tick k after
// sleepAt does.
func (m *SM) resume(u *schedUnit, k int64) {
	e := u.foreseen(k)
	m.restore(u, e)
	m.classify(u, u.pickLog[u.tickAt[e]:u.tickAt[e+1]], m.sleepAt+k)
}

// restore sets unit u's policy to its state after foreseen tick k.
func (m *SM) restore(u *schedUnit, k int64) {
	m.loader.Reset(u.snap.Bytes()[u.snapAt[k]:u.snapAt[k+1]])
	if u.policy.Archive(m.loader); m.loader.Err() != nil {
		panic(fmt.Sprintf("sm %d: restoring %s: %v", m.ID, u.policy.Name(), m.loader.Err()))
	}
}

// classify leaves unit u's listed warps as a refused tick at cycle now
// that picked picks does.
func (m *SM) classify(u *schedUnit, picks []int32, now int64) {
	for _, i := range u.list {
		m.slots[i].reason, m.slots[i].readyCycle = reasonReady, now
	}
	for _, i := range picks {
		m.slots[i].reason, m.slots[i].readyCycle = reasonMemStruct, -1
	}
}

// replayTick is one refused tick of unit u at cycle now without its L1I
// hits: the standing re-offer's stamps, then the policy's picks, logged.
func (m *SM) replayTick(u *schedUnit, now int64) {
	m.classify(u, nil, now)
	m.offer(u, now, true)
}

// SettledTicks counts the refused ticks this SM slept through and
// settled in bulk: engine statistics, not simulated state (never
// archived, and 0 on the ticked reference loop).
func (m *SM) SettledTicks() int64 { return m.settled }
