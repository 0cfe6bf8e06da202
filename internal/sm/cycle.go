package sm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cawa/internal/cache"
	"cawa/internal/isa"
	"cawa/internal/memsys"
	"cawa/internal/simt"
)

// NoWake is the Cycle return value meaning "this SM will never act
// again without external input" (a memory fill or a block dispatch).
const NoWake int64 = math.MaxInt64

// Cycle advances the SM by one cycle. The caller delivers the load
// fills due this cycle first (memsys.System.Cycle, or the span's
// planned fills).
//
// The return value is a conservative wakeup cycle for the span engine's
// per-SM dead-cycle skipping (gpu/domains.go): the earliest future cycle
// at which this SM's state can change on its own (a writeback retiring,
// the fetch or load-store path freeing). A return of now means the SM
// had at least one issuable warp this cycle — its schedulers must run
// the next cycle too. NoWake means the SM is idle or blocked entirely
// on external events. Skipping to the returned wake (clamped by the
// SM's next fill) and crediting the skipped span in bulk
// (AccountSkipped) is byte-identical to ticking every cycle, because a
// cycle in which no scheduler has a ready warp mutates nothing except
// the stall counters.
func (m *SM) Cycle(now int64) int64 {
	m.cycle = now
	if m.storeLog != nil {
		// Stamp deferred stores with their emitting cycle so the span
		// replay can flush them per cycle.
		m.storeLog.SetCycle(now)
	}
	m.retireWritebacks(now)
	// issueFrom's time condition: no skipped cycle, no busy time expiring.
	steady := m.ticked == now-1 && m.lsuBusyUntil != now && m.icBusy != now
	m.ticked = now
	anyReady := false
	for u := range m.units {
		if m.issueFrom(&m.units[u], now, steady) {
			anyReady = true
		}
	}
	m.accountStalls(now)
	if anyReady {
		return now
	}
	return m.nextWake(now)
}

// nextWake returns the earliest future cycle at which the SM's own
// state changes: a compute writeback retiring, the instruction-fetch
// path unblocking, or the load-store unit freeing. Barrier releases
// and load completions need no timer — the former requires an issue
// (so some warp must be ready first) and the latter rides a fill, which
// the domain folds into the skip separately (the SM's next planned fill).
func (m *SM) nextWake(now int64) int64 {
	wake := NoWake
	if m.icBusy > now {
		wake = m.icBusy
	}
	if m.lsuBusyUntil > now && m.lsuBusyUntil < wake {
		wake = m.lsuBusyUntil
	}
	if m.wbNext < wake {
		wake = m.wbNext
	}
	return wake
}

// AccountSkipped lives through span dead cycles at once: it credits
// span cycles of stall time to every candidate warp, reproducing what
// accountStalls would have recorded over span consecutive cycles in
// which no scheduler had a ready warp, and advances the cycle latch
// past them. Each warp's classification is the one computed by the
// last readiness evaluation; it cannot change during the skipped span
// because nothing issues, fills, or retires in it (the engine clamps
// the span to the next writeback, fetch/LSU release, and fill). Parked
// warps need nothing, nor does a candidate still owed cycles from a park
// (slot.since, as in accountStalls): those cycles are part of the debt
// the warp's next evaluation settles. No other SM state needs touching:
// readiness probes the I-cache only after the operand checks pass, and
// a warp whose operands clear or whose fetch path opens ends the span,
// so ticking performs zero I-cache probes across these cycles too.
func (m *SM) AccountSkipped(span int64) {
	if span <= 0 {
		return
	}
	m.cycle += span
	for w, word := range m.cand {
		for ; word != 0; word &= word - 1 {
			s := &m.slots[w<<6|bits.TrailingZeros64(word)]
			if s.since < 0 {
				s.creditStall(s.reason, span)
			}
		}
	}
}

// retireWritebacks clears scoreboard bits whose compute results are due
// and wakes the warps that were parked on them. m.wbNext caches a lower
// bound on the earliest pending writeback, so cycles with nothing due
// cost one compare; a due cycle visits only the slots with a queue and
// filters only the queues with something due (slot.wbMin).
func (m *SM) retireWritebacks(now int64) {
	if m.wbNext > now {
		return
	}
	next := NoWake
	for w, word := range m.wbPending {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			s := &m.slots[i]
			if s.wbMin > now {
				if s.wbMin < next {
					next = s.wbMin
				}
				continue
			}
			// Filter the queue in place, keeping the pending entries in
			// order (the order a checkpoint serializes).
			earliest, kept := NoWake, 0
			for _, e := range s.wb {
				if e.time <= now {
					s.busyALU &^= 1 << e.reg
					continue
				}
				s.wb[kept] = e
				kept++
				if e.time < earliest {
					earliest = e.time
				}
			}
			s.wb, s.wbMin = s.wb[:kept], earliest
			if kept == 0 {
				m.wbPending.remove(i)
			} else if earliest < next {
				next = earliest
			}
			if s.parked && s.reason == reasonALU && m.meta[s.pc].RegMask&s.busyALU == 0 {
				m.wake(i, s)
			}
		}
	}
	m.wbNext = next
}

// pushWB schedules a register writeback and keeps the earliest-pending
// cache current.
func (m *SM) pushWB(i int, s *slot, t int64, reg isa.Reg) {
	if len(s.wb) == 0 || t < s.wbMin {
		s.wbMin = t
	}
	s.wb = append(s.wb, wbEvent{time: t, reg: reg})
	m.wbPending.add(i)
	if t < m.wbNext {
		m.wbNext = t
	}
}

// readiness evaluates whether candidate slot i can issue at now and
// records the stall classification. A warp that fails an
// operand check is parked (readiness.go). MSHR capacity is not checked
// here (it is checked once at issue time); a rejected issue demotes the
// slot to a structural memory stall for the cycle.
//
// The instruction fetch is checked last, after the operand and LSU
// hazards: an operand-blocked warp performs no I-cache probe. This
// ordering is what lets the engine skip stalled spans without touching
// the I-cache — any warp that would probe during the
// span either becomes ready (ending the span) or takes an I-miss,
// which sets icBusy and therefore bounds the span at its own cycle.
func (m *SM) readiness(i int, now int64) bool {
	s := &m.slots[i]
	if !s.valid || s.done {
		// The warp finished at its last issue. It leaves the set here,
		// one tick later, because this is where its classification
		// clears — and a checkpoint in between serializes the old one.
		s.reason = reasonNone
		m.cand.remove(i)
		m.events++
		return false
	}
	if s.since >= 0 {
		s.creditStall(s.reason, now-s.since)
		s.since = notAccruing
	}
	if s.atBarrier {
		m.park(i, s, reasonBarrier, now)
		return false
	}
	md := &m.meta[s.pc]
	if md.RegMask&s.busyMem != 0 {
		m.park(i, s, reasonMemData, now)
		return false
	}
	if md.RegMask&s.busyALU != 0 {
		m.park(i, s, reasonALU, now)
		return false
	}
	if md.LSUGated && m.lsuBusyUntil > now {
		s.reason = reasonMemStruct
		return false
	}
	if !m.fetch(s, now) {
		s.reason = reasonMemStruct
		return false
	}
	s.reason = reasonReady
	s.readyCycle = now
	return true
}

// issueFrom lets one scheduler unit pick and issue a warp, returning
// whether any of its warps was issuable this cycle. A pick whose
// memory access cannot be accepted (MSHR full) is removed from the
// ready set and the policy re-selects, bounding retries by the ready
// count.
//
// While the SM is steady and its event count has not moved since the
// unit's last readiness pass began, that pass's verdicts stand
// (readiness.go): the unit re-offers its ready list with the pass's side
// effects, the ready stamps and each warp's L1I hit in slot order.
func (m *SM) issueFrom(u *schedUnit, now int64, steady bool) bool {
	if u.stood = steady && u.seen == m.events; u.stood {
		for _, i := range u.stand {
			s := &m.slots[i]
			s.reason = reasonReady
			s.readyCycle = now
			m.l1i.Touch(int(s.icSet), int(s.icWay), cache.Request{Addr: int64(s.pc) * instrBytes})
		}
	} else {
		u.seen = m.events
		u.stand = u.stand[:0]
		for w, own := range u.owned {
			for word := own & m.cand[w]; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if m.readiness(i, now) {
					u.stand = append(u.stand, i)
				}
			}
		}
	}
	ready := u.stand
	if len(ready) == 0 {
		return false
	}
	// Bound MSHR-reject retries: once the miss path is saturated,
	// further loads this cycle will almost surely reject too, and
	// probing them all is wasted work.
	const maxRejects = 2
	for rejects := 0; len(ready) > 0 && rejects <= maxRejects; rejects++ {
		u.ctx.Cycle = now
		u.ctx.Ready = ready
		pick := u.policy.Select(&u.ctx)
		if pick < 0 {
			return true
		}
		if m.tryIssue(pick, now) {
			u.issued++
			return true
		}
		// Structural reject: reclassify and let the policy try again, on
		// a copy (stand must outlive the tick).
		s := &m.slots[pick]
		s.reason = reasonMemStruct
		s.readyCycle = -1
		if rejects == 0 {
			ready = u.ready[:copy(u.ready[:cap(u.ready)], ready)]
		}
		j := slices.Index(ready, pick)
		ready = slices.Delete(ready, j, j+1)
	}
	return true
}

// tryIssue executes one instruction from the warp in slot i, unless its
// global-memory access cannot be accepted this cycle.
func (m *SM) tryIssue(i int, now int64) bool {
	s := &m.slots[i]
	w := s.warp
	blk := s.block

	pc := s.pc
	in := m.prog.At(pc)
	if m.meta[pc].GlobalLoad {
		if s.peekPC == pc && s.peekInstr == s.rec.Instructions && len(s.peekBuf) > 0 {
			if m.l1d.Fills() < s.rejectedAt {
				return false // too few fills to close the deficit yet
			}
			m.lineBuf = append(m.lineBuf[:0], s.peekBuf...)
		} else {
			m.peekLines(s, in)
			s.peekPC = pc
			s.peekInstr = s.rec.Instructions
			s.peekBuf = append(s.peekBuf[:0], m.lineBuf...)
			s.rejectedAt = 0
		}
		if d := m.l1d.Deficit(m.lineBuf); d > 0 {
			s.rejectedAt = m.l1d.Fills() + uint64(d)
			return false
		}
	}
	m.events++

	stall := now - s.lastIssue - 1
	if stall < 0 {
		stall = 0
	}
	st := &m.step
	simt.ExecInto(w, m.prog, &blk.ctx, st)
	s.lastIssue = now
	s.issuedCycle = now
	s.rec.IssueCycles++
	s.rec.Instructions++
	s.rec.ThreadInstrs += int64(st.Lanes)
	m.Instructions++
	m.ThreadInstrs += int64(st.Lanes)
	if st.Divergent {
		s.rec.DivergentBranches++
	}
	m.crit.OnIssue(i, st, stall, now)

	switch st.Kind {
	case simt.StepCompute:
		if st.Instr.Op.HasDst() {
			s.busyALU |= 1 << st.Instr.Dst
			m.pushWB(i, s, now+m.classLat[m.meta[pc].Class], st.Instr.Dst)
		}

	case simt.StepSMem:
		m.issueShared(i, s, st, now)

	case simt.StepMem:
		m.issueGlobal(i, s, st, now)

	case simt.StepBarrier:
		blk.atBarrier++
		m.maybeReleaseBarrier(blk)

	case simt.StepExit:
		if w.Done() {
			m.finishWarp(i, now)
		}
	}
	if w.Done() {
		s.done = true
	} else {
		s.pc = w.PC()
	}
	s.atBarrier = w.AtBarrier
	return true
}

// issueShared models shared-memory latency and bank conflicts: the LSU
// is occupied for one cycle per maximum bank-conflict degree across the
// 32 banks.
func (m *SM) issueShared(i int, s *slot, st *simt.Step, now int64) {
	const banks = 32
	var bankWord [banks]int64
	var bankCnt [banks]int
	degree := 1
	for _, a := range st.Accesses {
		word := a.Addr / 8
		b := int(word % banks)
		if bankCnt[b] == 0 || bankWord[b] != word {
			bankWord[b] = word
			bankCnt[b]++
			if bankCnt[b] > degree {
				degree = bankCnt[b]
			}
		}
	}
	m.lsuBusyUntil = now + int64(degree)
	if st.IsLoad {
		s.busyALU |= 1 << st.Instr.Dst
		m.pushWB(i, s, now+int64(m.cfg.SharedMemLatency)+int64(degree)-1, st.Instr.Dst)
	}
}

// peekLines fills m.lineBuf with the distinct cache lines the next
// memory instruction of slot s will access, without executing it.
func (m *SM) peekLines(s *slot, in isa.Instr) {
	w := s.warp
	lineSize := int64(m.cfg.L1D.LineBytes)
	m.lineBuf = m.lineBuf[:0]
	for mask := w.ActiveMask(); mask != 0; mask &= mask - 1 {
		addr := (w.Reg(bits.TrailingZeros64(mask), in.A) + in.Imm) &^ (lineSize - 1)
		// Fast path: consecutive lanes usually touch the same line.
		if n := len(m.lineBuf); n > 0 && m.lineBuf[n-1] == addr {
			continue
		}
		if !slices.Contains(m.lineBuf, addr) {
			m.lineBuf = append(m.lineBuf, addr)
		}
	}
}

// issueGlobal coalesces a global access into line transactions and
// sends them to the L1D. For loads, m.lineBuf was just filled by
// tryIssue and acceptance verified; stores recompute their lines (they
// never reject).
func (m *SM) issueGlobal(slotIdx int, s *slot, st *simt.Step, now int64) {
	if !st.IsLoad {
		lineSize := int64(m.cfg.L1D.LineBytes)
		m.lineBuf = m.lineBuf[:0]
		for _, a := range st.Accesses {
			la := a.Addr &^ (lineSize - 1)
			if !slices.Contains(m.lineBuf, la) {
				m.lineBuf = append(m.lineBuf, la)
			}
		}
	}
	m.lsuBusyUntil = now + int64(len(m.lineBuf))
	m.MemInstrs++
	m.MemTxns += int64(len(m.lineBuf))

	critical := m.crit.IsCritical(slotIdx)
	if st.IsLoad {
		tok := makeToken(slotIdx, s.gen, st.Instr.Dst)
		remaining := int32(0)
		for _, la := range m.lineBuf {
			req := cache.Request{Addr: la, PC: st.PC, Warp: s.warp.GID, Critical: critical}
			switch m.l1d.AccessLoad(req, tok, now) {
			case memsys.Hit:
			case memsys.Miss:
				remaining++
			case memsys.Reject:
				panic(fmt.Sprintf("sm %d: load rejected after CanAccept (line %#x)", m.ID, la))
			}
		}
		if remaining == 0 {
			s.busyALU |= 1 << st.Instr.Dst
			m.pushWB(slotIdx, s, now+int64(m.cfg.L1HitLatency), st.Instr.Dst)
		} else {
			s.busyMem |= 1 << st.Instr.Dst
			s.loadRem[st.Instr.Dst] = remaining
		}
		return
	}
	for _, la := range m.lineBuf {
		req := cache.Request{Addr: la, PC: st.PC, Warp: s.warp.GID, Critical: critical, Write: true}
		m.l1d.AccessStore(req, now)
	}
}

// handleFill receives completed L1 miss lines and unblocks loads,
// waking a warp parked on the data once the last register its next
// instruction waits for has arrived. A token whose slot generation no
// longer matches belongs to a warp that exited (or a block that
// retired) with the load still in flight; its fill is dropped, as the
// old occupant's scoreboard died with it.
func (m *SM) handleFill(_ int64, tokens []int64) {
	for _, t := range tokens {
		slotIdx, gen, reg := splitToken(t)
		s := &m.slots[slotIdx]
		if !s.valid || s.gen != gen || s.loadRem[reg] == 0 {
			continue
		}
		s.loadRem[reg]--
		if s.loadRem[reg] == 0 {
			s.busyMem &^= 1 << reg
			if s.parked && s.reason == reasonMemData && m.meta[s.pc].RegMask&s.busyMem == 0 {
				m.wake(slotIdx, s)
			}
		}
	}
}

// maybeReleaseBarrier opens the block barrier once every live warp has
// arrived, waking the ones parked at it.
func (m *SM) maybeReleaseBarrier(blk *blockState) {
	if blk.atBarrier < blk.live || blk.atBarrier == 0 {
		return
	}
	blk.atBarrier = 0
	for _, si := range blk.slots {
		s := &m.slots[si]
		if s.valid && s.block == blk {
			s.warp.AtBarrier, s.atBarrier = false, false
			if s.parked {
				m.wake(si, s)
			}
		}
	}
}

// finishWarp records the warp's completion. The slot stays allocated —
// a thread-block's resources (warp slots, registers, shared memory) are
// only released when every warp of the block has finished. This is the
// root of the warp criticality problem the paper studies: fast warps
// idle at the implicit kernel-exit barrier, wasting their resources,
// until the critical warp arrives (Section 2.2).
func (m *SM) finishWarp(i int, now int64) {
	s := &m.slots[i]
	s.done = true
	m.live.remove(i)
	s.rec.FinishCycle = now
	m.Finished = append(m.Finished, s.rec) // one per warp per launch; reused across launches
	blk := s.block

	m.units[i%len(m.units)].policy.OnWarpFinished(i)
	m.crit.OnWarpFinished(i)

	blk.live--
	if blk.live == 0 {
		m.retireBlock(blk, now)
		return
	}
	m.maybeReleaseBarrier(blk)
}

// retireBlock frees every slot of the block and returns its resources.
func (m *SM) retireBlock(blk *blockState, now int64) {
	for _, i := range blk.slots {
		s := &m.slots[i]
		if s.block != blk {
			continue
		}
		s.valid = false
		s.gen++
		s.warp = nil
		s.block = nil
		s.busyALU, s.busyMem = 0, 0
		s.wb = s.wb[:0] // keep the backing array for the next occupant
		m.wbPending.remove(i)
		m.freeSlots++
	}
	m.residentBlocks--
	m.sharedInUse -= len(blk.shared) * 8
	if m.kernel.RegsPerThread > 0 {
		m.regsInUse -= m.kernel.RegsPerThread * m.kernel.BlockDim
	}
	if m.OnBlockDone != nil {
		m.OnBlockDone(blk.id, now)
	}
}

// accountStalls classifies this cycle for every candidate warp that did
// not issue (Figures 2c and 4; CPL's stall term sees the same cycles
// via the per-issue stall delta). Parked warps, and a warp woken after
// its unit's turn this tick, are owed the cycle instead (slot.since).
func (m *SM) accountStalls(now int64) {
	for w, word := range m.cand {
		for ; word != 0; word &= word - 1 {
			s := &m.slots[w<<6|bits.TrailingZeros64(word)]
			switch {
			case s.since >= 0 || s.issuedCycle == now:
			case s.readyCycle == now:
				s.rec.SchedStall++
			default:
				s.creditStall(s.reason, 1)
			}
		}
	}
}

// Occupancy returns resident warps over capacity (statistics).
func (m *SM) Occupancy() float64 {
	return float64(m.ResidentWarps()) / float64(len(m.slots))
}
