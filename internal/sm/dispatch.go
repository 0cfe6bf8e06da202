package sm

import (
	"fmt"

	"cawa/internal/simt"
	"cawa/internal/stats"
)

// CanAcceptBlock reports whether a block of the installed kernel can be
// dispatched right now, honoring the occupancy limits of Table 1: warp
// slots, block slots, shared memory, and (when the kernel declares a
// per-thread register count) the register file.
func (m *SM) CanAcceptBlock() bool {
	k := m.kernel
	if k == nil {
		return false
	}
	if m.residentBlocks >= m.cfg.MaxBlocksPerSM {
		return false
	}
	if m.freeSlots < k.WarpsPerBlock(m.cfg.WarpSize) {
		return false
	}
	if m.sharedInUse+k.SharedWords*8 > m.cfg.SharedMemPerSM {
		return false
	}
	if k.RegsPerThread > 0 && m.regsInUse+k.RegsPerThread*k.BlockDim > m.cfg.RegistersPerSM {
		return false
	}
	return true
}

// blockContext builds a block's execution context against the installed
// kernel and the SM's current memory and store-log wiring.
func (m *SM) blockContext(blk *blockState) simt.ExecContext {
	return simt.ExecContext{
		Mem:      m.mem,
		Log:      m.storeLog,
		Shared:   blk.shared,
		Params:   m.kernel.Params,
		BlockID:  blk.id,
		GridDim:  m.kernel.GridDim,
		BlockDim: m.kernel.BlockDim,
	}
}

// DispatchBlock places block blockID of the installed kernel onto the
// SM. gidBase numbers the block's warps globally. The caller must have
// checked CanAcceptBlock. The block's warps start as candidates: their
// first evaluation classifies them.
//
// Dispatch allocates nothing once the SM is warm: each slot keeps its
// last occupant's *simt.Warp and re-initialises it in place with a
// cleared file of the kernel's register rows, and a retired block's
// state and shared memory are recycled (retireBlock).
func (m *SM) DispatchBlock(blockID, gidBase int, now int64) {
	k := m.kernel
	if k == nil || !m.CanAcceptBlock() {
		panic(fmt.Sprintf("sm %d: DispatchBlock without capacity", m.ID))
	}
	m.wakeUp()
	blk := m.newBlock(blockID, k.SharedWords)

	warps := k.WarpsPerBlock(m.cfg.WarpSize)
	progLen := int32(k.Program.Len())
	rows := k.Program.Rows()
	placed := 0
	for i := range m.slots {
		if placed == warps {
			break
		}
		s := &m.slots[i]
		if s.valid {
			continue
		}
		lanes := k.BlockDim - placed*m.cfg.WarpSize
		if lanes > m.cfg.WarpSize {
			lanes = m.cfg.WarpSize
		}
		m.ageSeq++
		w := s.warp
		if w == nil {
			w = new(simt.Warp)
		}
		w.Reset(gidBase+placed, blockID, placed, lanes, m.cfg.WarpSize, progLen, rows)
		*s = slot{
			valid:     true,
			gen:       s.gen + 1,
			warp:      w,
			block:     blk,
			age:       m.ageSeq,
			wb:        s.wb[:0],      // recycle the previous occupant's
			peekBuf:   s.peekBuf[:0], // backing arrays (steady-state
			lastIssue: now - 1,       // allocation-free dispatch)
			since:     notAccruing,
			rec: stats.WarpRecord{
				GID:           w.GID,
				SM:            m.ID,
				Block:         blockID + m.BlockStatsBase,
				IndexInBlock:  placed,
				DispatchCycle: now,
			},
		}
		m.waiting.remove(i) // the slot's reason is reasonNone again
		blk.slots = append(blk.slots, i)
		blk.live++
		m.live.add(i)
		m.cand.add(i)
		m.fresh.add(i)
		m.freeSlots--
		m.units[i%len(m.units)].policy.OnWarpArrived(i)
		m.crit.OnWarpArrived(i, w)
		placed++
	}
	if placed != warps {
		panic(fmt.Sprintf("sm %d: placed %d of %d warps", m.ID, placed, warps))
	}
	m.events++
	m.residentBlocks++
	m.sharedInUse += k.SharedWords * 8
	if k.RegsPerThread > 0 {
		m.regsInUse += k.RegsPerThread * k.BlockDim
	}
}

// newBlock returns the state of block id with a cleared shared memory
// of words words, bound to the SM's wiring: a retired block's state and
// storage when one is free, a new one otherwise.
func (m *SM) newBlock(id, words int) *blockState {
	var blk *blockState
	if n := len(m.freeBlocks); n > 0 {
		blk = m.freeBlocks[n-1]
		m.freeBlocks = m.freeBlocks[:n-1]
	} else {
		blk = &blockState{}
	}
	shared := blk.shared
	if cap(shared) >= words {
		shared = shared[:words]
		clear(shared)
	} else {
		shared = make([]int64, words)
	}
	*blk = blockState{id: id, shared: shared, slots: blk.slots[:0]}
	blk.ctx = m.blockContext(blk)
	return blk
}
