package sm

import (
	"slices"

	"cawa/internal/simt"
	"cawa/internal/state"
	"cawa/internal/stats"
)

// The archive walk of one SM's pipeline state. Checkpoints fire at the
// engine-clean PerCycle boundary, where every engine variant has already
// flushed its store log and committed its stage buffer, so the walk
// never meets staged traffic. Deliberately NOT part of it:
//
//   - The L1 data cache: walked with the memory system (its MSHR tokens
//     reference slot generations, which ARE walked here).
//   - The memoized coalescing peek (peekPC/peekInstr/peekBuf, and the
//     L1D refusal remembered beside it): derived from warp registers and
//     L1D state, recomputed on the next issue. A loader resets each
//     slot, which invalidates the memo by construction.
//   - A sleeping SM's owed refused ticks (sleep.go): a saver settles
//     them first, a loader wakes and ticks for real.
//   - The event-driven readiness state (readiness.go): the live,
//     candidate and writeback sets, which warps are parked, and the
//     stall cycles parked warps are owed. A saver settles the debt into
//     the warp records first, so the stream holds what ticking every
//     warp every cycle would have written; a loader makes every resident
//     warp an unparked, fresh candidate, so the first tick runs
//     readiness on every one and re-parks the blocked.
//   - Block execution contexts: a loader rebuilds them against the SM's
//     current memory and store-log wiring (the span engine binds a log
//     per SM, the ticked oracle none; a checkpoint restores onto either).

// Archive implements CriticalityProvider: the null provider keeps nothing.
func (NullCriticality) Archive(a *state.Archive) { a.Tag("null") }

// Archive walks the SM. k is the mid-flight kernel a loader installs;
// the SM must then be freshly built with the capturing configuration.
func (m *SM) Archive(a *state.Archive, k *simt.Kernel) {
	a.Tag("sm")
	loading := a.Loading()
	// Resident blocks in first-appearance slot order, so the stream is
	// canonical regardless of pointer values; slots name theirs by index.
	var blocks []*blockState
	if loading {
		m.SetKernel(k)
		m.asleep, m.owed = false, 0
	} else {
		m.settle()
		m.settleStalls()
		for i := range m.slots {
			if s := &m.slots[i]; s.valid && !slices.Contains(blocks, s.block) {
				blocks = append(blocks, s.block)
			}
		}
	}
	state.Slice(a, &blocks, func(p **blockState, a *state.Archive) {
		if loading {
			*p = &blockState{}
		}
		blk := *p
		state.Int(a, &blk.id, &blk.live, &blk.atBarrier)
		state.Slice(a, &blk.slots, state.IntElem[int])
		if n := a.Len(len(blk.shared)); loading {
			blk.shared = make([]int64, n)
			blk.ctx = m.blockContext(blk)
		}
		a.Words(blk.shared)
	})
	if loading {
		for _, set := range []slotSet{m.live, m.cand, m.fresh, m.open, m.gated, m.lsuWait, m.fetchWait, m.wbPending} {
			set.clear()
		}
		m.freeSlots = len(m.slots)
	}
	if n := a.Len(len(m.slots)); n != len(m.slots) {
		a.Failf("sm %d: slot count mismatch (have %d, checkpoint %d)", m.ID, len(m.slots), n)
		return
	}
	for i := range m.slots {
		s := &m.slots[i]
		if loading {
			*s = slot{since: notAccruing, wbMin: NoWake}
		}
		state.Int(a, &s.gen) // generations persist across occupancies
		if a.Bool(&s.valid); !s.valid {
			continue
		}
		bi := slices.Index(blocks, s.block)
		if state.Int(a, &bi); bi < 0 || bi >= len(blocks) {
			a.Failf("sm %d slot %d: block index %d out of range (%d blocks)", m.ID, i, bi, len(blocks))
			s.valid = false
			return
		}
		if loading {
			s.block, s.warp = blocks[bi], &simt.Warp{}
		}
		s.warp.Archive(a, m.prog.Rows())
		s.atBarrier = s.warp.AtBarrier
		s.rec.Archive(a)
		state.Int(a, &s.busyALU, &s.busyMem)
		state.Int(a, &s.age, &s.lastIssue, &s.readyCycle, &s.issuedCycle)
		state.Int(a, &s.pc)
		state.Int(a, &s.reason)
		a.Bool(&s.done)
		state.Table(a, "register", s.loadRem[:], state.IntElem[int32])
		state.Slice(a, &s.wb, func(e *wbEvent, a *state.Archive) {
			state.Int(a, &e.time)
			state.Int(a, &e.reg)
		})
		if loading {
			// A finished warp is a candidate too until the next tick
			// clears its classification (readiness).
			m.freeSlots--
			m.cand.add(i)
			m.fresh.add(i)
			if !s.done {
				m.live.add(i)
			}
			if len(s.wb) > 0 {
				m.wbPending.add(i)
			}
			for _, e := range s.wb {
				s.wbMin = min(s.wbMin, e.time)
			}
		}
	}
	state.Table(a, "scheduler", m.units, func(u *schedUnit, a *state.Archive) {
		a.Part("scheduler policy", u.policy)
		state.Int(a, &u.issued)
	})
	a.Part("criticality provider", m.crit)
	m.l1i.Archive(a)
	state.Int(a, &m.icBusy, &m.cycle, &m.lsuBusyUntil, &m.wbNext, &m.ageSeq,
		&m.Instructions, &m.ThreadInstrs, &m.MemInstrs, &m.MemTxns)
	state.Int(a, &m.residentBlocks, &m.sharedInUse, &m.regsInUse, &m.BlockStatsBase)
	state.Slice(a, &m.Finished, (*stats.WarpRecord).Archive)
}
