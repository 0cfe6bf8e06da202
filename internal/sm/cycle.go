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
// per-SM skipping (gpu/domains.go): the earliest future cycle at which
// the SM must run a real tick again — a writeback retiring, the fetch
// or load-store path freeing — folded by the caller with the SM's next
// fill. A return of now means the SM had an issuable warp whose issue
// nothing yet rules out: the next cycle must tick too. NoWake means the
// SM is idle or blocked entirely on external events (a fill, a block
// dispatch).
//
// A later return means every cycle up to it is either dead — no
// scheduler has a ready warp, so nothing but the stall counters moves —
// or refused: the SM sleeps (sleep.go), every pick the MSHRs would
// refuse, and owes the ticks. Either way the caller may deliver those
// cycles one Cycle call at a time or in bulk through AccountSkipped,
// but in order and none missing; a sleeping SM counts each at O(1) and
// settles the debt before its next real tick or its next reader.
func (m *SM) Cycle(now int64) int64 {
	if m.asleep {
		if m.events == m.sleepEvents && m.wbNext > now && m.lsuBusyUntil != now &&
			m.icBusy != now && m.refusalsHold() {
			m.cycle = now
			m.owed++
			return m.nextWake(now)
		}
		m.wakeUp()
	}
	m.cycle = now
	if m.storeLog != nil {
		// Stamp deferred stores with their emitting cycle so the span
		// replay can flush them per cycle.
		m.storeLog.SetCycle(now)
	}
	m.retireWritebacks(now)
	m.reopenGates(now)
	anyReady, events := false, m.events
	for u := range m.units {
		if m.issueFrom(&m.units[u], now) {
			anyReady = true
		}
	}
	if !anyReady {
		return m.nextWake(now)
	}
	// A tick that moved the event count (an issue, a park, a wake, an
	// I-miss) leaves some verdict to re-run: it cannot be slept after.
	if m.sleeps && m.events == events && m.fallAsleep(now) {
		return m.nextWake(now)
	}
	return now
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

// AccountSkipped lives through span cycles at once, the cycles after
// the last one the SM saw, which its last Cycle return allowed the
// caller to skip. It advances the cycle latch past them.
//
// A sleeping SM owes them as refused ticks (sleep.go): they join its
// debt at O(1). Otherwise no scheduler had a ready warp, and every warp
// keeps its verdict through the span, because nothing issues, fills, or
// retires in it (the engine clamps the span to the next writeback,
// fetch/LSU release, and fill): the span joins each warp's lazily
// accrued debt (readiness.go) with no per-warp work. No other SM state
// needs touching: readiness probes the I-cache only after the operand
// checks pass, and a warp whose operands clear or whose fetch path opens
// ends the span, so ticking performs zero I-cache probes across these
// cycles too.
func (m *SM) AccountSkipped(span int64) {
	if span <= 0 {
		return
	}
	m.cycle += span
	if m.asleep {
		m.owed += span
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

// readiness evaluates whether fresh candidate slot i can issue at now,
// records its verdict and files it in the set that verdict belongs to
// (readiness.go). A warp that fails an operand check is parked. MSHR
// capacity is not checked here (it is checked once at issue time); a
// rejected issue demotes the slot to a structural memory stall for the
// cycle.
//
// The instruction fetch is checked last, after the operand and LSU
// hazards: an operand-blocked warp performs no I-cache probe. This
// ordering is what lets the engine skip stalled spans without touching
// the I-cache — any warp that would probe during the
// span either becomes ready (ending the span) or takes an I-miss,
// which sets icBusy and therefore bounds the span at its own cycle.
func (m *SM) readiness(i int, now int64) bool {
	m.fresh.remove(i)
	s := &m.slots[i]
	if !s.valid || s.done {
		// The warp finished at its last issue. It leaves the set here,
		// one tick later, because this is where its classification
		// clears — and a checkpoint in between serializes the old one.
		m.setReason(i, s, reasonNone)
		m.cand.remove(i)
		m.events++
		return false
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
		m.setVerdict(i, s, reasonMemStruct, now)
		m.lsuWait.add(i)
		return false
	}
	if !m.fetch(s, now) {
		m.setVerdict(i, s, reasonMemStruct, now)
		m.fetchWait.add(i)
		return false
	}
	m.setVerdict(i, s, reasonReady, now)
	s.readyCycle = now
	m.open.add(i)
	if md.LSUGated {
		m.gated.add(i)
	} else {
		m.gated.remove(i)
	}
	return true
}

// issueFrom lets one scheduler unit pick and issue a warp (offer),
// returning whether any of its warps was issuable this cycle.
//
// The unit's ready list is built in ascending slot order: readiness runs
// on its fresh warps, and its open warps stand — each is stamped ready
// and replays its L1I hit — unless the LSU is busy, which moves the
// LSU-gated ones to lsuWait. A fresh warp's I-miss moves every open warp
// to fresh (fetch), so the open warps after it in the pass are evaluated
// too.
func (m *SM) issueFrom(u *schedUnit, now int64) bool {
	u.list = u.list[:0]
	lsuBusy := m.lsuBusyUntil > now
	for w, own := range u.owned {
		for word := own & (m.fresh[w] | m.open[w]); word != 0; word &= word - 1 {
			bit := word & -word
			i := w<<6 | bits.TrailingZeros64(word)
			if m.fresh[w]&bit != 0 {
				if m.readiness(i, now) {
					u.list = append(u.list, i)
				}
				continue
			}
			s := &m.slots[i]
			if lsuBusy && m.gated[w]&bit != 0 {
				m.setVerdict(i, s, reasonMemStruct, now)
				m.open[w] &^= bit
				m.lsuWait[w] |= bit
				continue
			}
			if s.reason != reasonReady {
				m.setVerdict(i, s, reasonReady, now) // refused at its last tick
			}
			s.readyCycle = now
			m.l1i.TouchLRU(int(s.icSet), int(s.icWay))
			u.list = append(u.list, i)
		}
	}
	if len(u.list) == 0 {
		return false
	}
	m.offer(u, now, false)
	return true
}

// maxRejects bounds MSHR-reject retries per unit and tick: once the miss
// path is saturated, further loads this cycle will almost surely reject
// too, and probing them all is wasted work.
const maxRejects = 2

// offer lets the unit's policy pick from its ready list until a pick
// issues. A pick whose memory access cannot be accepted (MSHR full) is
// reclassified as a structural stall and struck from a copy of the list
// (list must outlive the tick: a sleep replays it), and the policy
// re-selects, bounding retries by maxRejects. A replay (sleep.go) issues
// nothing and leaves the stall debts alone: it logs each pick in
// u.pickLog and treats it as refused.
func (m *SM) offer(u *schedUnit, now int64, replay bool) {
	ready := u.list
	for rejects := 0; len(ready) > 0 && rejects <= maxRejects; rejects++ {
		u.ctx.Cycle = now
		u.ctx.Ready = ready
		pick := u.policy.Select(&u.ctx)
		if pick < 0 {
			return
		}
		if replay {
			u.pickLog = append(u.pickLog, int32(pick))
		} else if m.tryIssue(pick, now) {
			u.issued++
			return
		}
		s := &m.slots[pick]
		if replay {
			m.setReason(pick, s, reasonMemStruct)
		} else {
			m.setVerdict(pick, s, reasonMemStruct, now)
		}
		s.readyCycle = -1
		if rejects == 0 {
			ready = u.ready[:copy(u.ready[:cap(u.ready)], ready)]
		}
		j := slices.Index(ready, pick)
		ready = slices.Delete(ready, j, j+1)
	}
}

// tryIssue executes one instruction from the warp in slot i, unless its
// global-memory access cannot be accepted this cycle.
func (m *SM) tryIssue(i int, now int64) bool {
	s := &m.slots[i]
	w := s.warp
	blk := s.block

	pc := s.pc
	if m.meta[pc].GlobalLoad && m.loadRefused(s) {
		return false
	}
	m.events++
	// The issue settles the warp's debt; the issuing cycle is no stall,
	// and the warp owes nothing more until readiness re-runs on it.
	s.settleDebt(now)
	s.since = notAccruing
	m.fresh.add(i)
	m.open.remove(i)

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
	degree := int64(bankConflictDegree(st.Accesses))
	m.lsuBusyUntil = now + degree
	if st.IsLoad {
		s.busyALU |= 1 << st.Instr.Dst
		m.pushWB(i, s, now+int64(m.cfg.SharedMemLatency)+degree-1, st.Instr.Dst)
	}
}

// bankConflictDegree is the most distinct words any one of the 32 banks
// must serve for the accesses (at least 1): lanes reading one word share
// it, so words w1, w2, w1 in one bank cost two, not three. A bank's
// first word is new without a search; a later one is compared against
// the distinct words seen so far.
func bankConflictDegree(accesses []simt.MemAccess) int {
	const banks = 32
	var bankCnt [banks]int
	var seen [simt.MaxWarpSize]int64
	n, degree := 0, 1
	for _, a := range accesses {
		word := a.Addr / 8
		b := int(word % banks)
		if bankCnt[b] > 0 && slices.Contains(seen[:n], word) {
			continue
		}
		seen[n], n = word, n+1
		bankCnt[b]++
		degree = max(degree, bankCnt[b])
	}
	return degree
}

// loadRefused reports whether the L1D would refuse slot s's global load
// now. It memoizes the load's coalesced lines in s.peekBuf, valid until
// the warp issues, and a refusal in s.rejectedAt, which stands without
// a probe while L1D.Fills() is below it; an accepted load leaves its
// lines in m.lineBuf for issueGlobal. Recording either ahead of an
// issue attempt changes no outcome (the refusal contract, L1D.Deficit).
func (m *SM) loadRefused(s *slot) bool {
	if s.peekPC == s.pc && s.peekInstr == s.rec.Instructions && len(s.peekBuf) > 0 {
		if m.l1d.Fills() < s.rejectedAt {
			return true // too few fills to close the deficit yet
		}
		m.lineBuf = append(m.lineBuf[:0], s.peekBuf...)
	} else {
		in := m.prog.At(s.pc)
		m.coalesce(s.warp.Row(in.A), s.warp.ActiveMask(), in.Imm)
		s.peekPC = s.pc
		s.peekInstr = s.rec.Instructions
		s.peekBuf = append(s.peekBuf[:0], m.lineBuf...)
		s.rejectedAt = 0
	}
	if d := m.l1d.Deficit(m.lineBuf); d > 0 {
		s.rejectedAt = m.l1d.Fills() + uint64(d)
		return true
	}
	return false
}

// coalesce sets m.lineBuf to the distinct cache lines that register
// row addr plus imm names under mask: lanes in ascending order, each
// line where its first lane is. That order is the L1D access order, and
// it equals the distinct lines of the executed Step.Accesses, so the
// lines a load is checked against before it issues (loadRefused) are the
// ones it sends. A line equal to the previous lane's, or above every
// line so far while they ascend, is settled by one compare; only lanes
// that go backwards search the list, so uniform and strided rows cost
// one pass.
func (m *SM) coalesce(addr []int64, mask uint64, imm int64) {
	lineMask := ^(int64(m.cfg.L1D.LineBytes) - 1)
	lines, ascending := m.lineBuf[:0], true
	for ; mask != 0; mask &= mask - 1 {
		la := (addr[bits.TrailingZeros64(mask)] + imm) & lineMask
		n := len(lines)
		switch {
		case n > 0 && lines[n-1] == la:
		case ascending && (n == 0 || la > lines[n-1]):
			lines = append(lines, la)
		case !slices.Contains(lines, la):
			lines, ascending = append(lines, la), false
		}
	}
	m.lineBuf = lines
}

// issueGlobal sends a global access's line transactions to the L1D.
// For loads, m.lineBuf was filled before the load executed (its
// destination may overwrite the address row) and acceptance verified;
// stores coalesce now, from the address row they left alone (they never
// reject).
func (m *SM) issueGlobal(slotIdx int, s *slot, st *simt.Step, now int64) {
	if !st.IsLoad {
		m.coalesce(s.warp.Row(st.Instr.A), st.Mask, st.Instr.Imm)
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
	m.settle()
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
		s.block = nil // s.warp stays: the next occupant re-initialises it
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
	m.freeBlocks = append(m.freeBlocks, blk)
}
