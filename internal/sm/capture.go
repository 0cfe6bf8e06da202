package sm

import (
	"fmt"

	"cawa/internal/cache"
	"cawa/internal/isa"
	"cawa/internal/sched"
	"cawa/internal/simt"
	"cawa/internal/stats"
)

// Serializable snapshots of one SM's pipeline state. Checkpoints fire
// at the engine-clean PerCycle boundary, where every engine variant has
// already flushed its store log and committed its stage buffer, so the
// snapshot never contains staged traffic. Three things are deliberately
// NOT part of the snapshot:
//
//   - The L1 data cache: it lives in internal/memsys and is captured
//     with the memory system (its MSHR tokens reference slot
//     generations, which IS captured here — Gen must round-trip).
//   - The criticality provider and L1 replacement policy: their
//     concrete types (internal/core) sit above this package, so the
//     checkpoint layer captures them via type switch.
//   - The memoized coalescing peek (peekPC/peekInstr/peekBuf, and the
//     L1D refusal remembered beside it): purely derived from warp
//     registers and L1D state, recomputed on the next issue. Restore
//     leaves peekBuf empty, which invalidates the memo by construction.
//   - The event-driven readiness state (readiness.go): the live,
//     candidate and writeback sets, which warps are parked, and the
//     stall cycles parked warps are owed. Capture settles the debt into
//     the warp records first, so the snapshot holds what ticking every
//     warp every cycle would have written; Restore rebuilds the sets
//     from the slots with every resident warp an unparked candidate,
//     and the first tick after it parks the blocked ones again.

// WBState is one pending register writeback.
type WBState struct {
	Time int64
	Reg  isa.Reg
}

// SlotState is the snapshot of one warp slot.
type SlotState struct {
	Valid bool
	Gen   int64
	Warp  simt.WarpState
	Block int // index into State.Blocks, -1 when free
	Age   int64

	BusyALU uint64
	BusyMem uint64
	WB      []WBState
	LoadRem [isa.NumRegs]int32

	LastIssue int64
	Rec       stats.WarpRecord

	PC          int32
	Done        bool
	Reason      uint8
	ReadyCycle  int64
	IssuedCycle int64
}

// BlockCapture is the snapshot of one resident block. The execution
// context is not serialized: it is rebuilt at restore time from the
// kernel and the restoring launch's store-log wiring (the span engine
// binds a log per SM, the ticked oracle none, and a checkpoint must
// restore onto either).
type BlockCapture struct {
	ID        int // grid-local block id
	Shared    []int64
	Live      int
	AtBarrier int
	Slots     []int
}

// UnitState is the snapshot of one scheduler unit.
type UnitState struct {
	Policy sched.State
	Issued int64
}

// State is the snapshot of one SM.
type State struct {
	Slots  []SlotState
	Blocks []BlockCapture
	Units  []UnitState

	L1I    cache.State
	ICBusy int64

	Cycle        int64
	LSUBusyUntil int64
	WBNext       int64
	AgeSeq       int64

	ResidentBlocks int
	SharedInUse    int
	RegsInUse      int

	Finished       []stats.WarpRecord
	BlockStatsBase int

	Instructions int64
	ThreadInstrs int64
	MemInstrs    int64
	MemTxns      int64
}

// Capture snapshots the SM's pipeline state.
func (m *SM) Capture() (State, error) {
	m.settleStalls()
	st := State{
		Slots:          make([]SlotState, len(m.slots)),
		Units:          make([]UnitState, len(m.units)),
		L1I:            m.l1i.Capture(),
		ICBusy:         m.icBusy,
		Cycle:          m.cycle,
		LSUBusyUntil:   m.lsuBusyUntil,
		WBNext:         m.wbNext,
		AgeSeq:         m.ageSeq,
		ResidentBlocks: m.residentBlocks,
		SharedInUse:    m.sharedInUse,
		RegsInUse:      m.regsInUse,
		Finished:       append([]stats.WarpRecord(nil), m.Finished...),
		BlockStatsBase: m.BlockStatsBase,
		Instructions:   m.Instructions,
		ThreadInstrs:   m.ThreadInstrs,
		MemInstrs:      m.MemInstrs,
		MemTxns:        m.MemTxns,
	}

	// Collect the resident blocks in first-appearance slot order so the
	// snapshot is canonical regardless of pointer values.
	blockIndex := make(map[*blockState]int)
	for i := range m.slots {
		s := &m.slots[i]
		if !s.valid {
			continue
		}
		if _, ok := blockIndex[s.block]; ok {
			continue
		}
		blockIndex[s.block] = len(st.Blocks)
		st.Blocks = append(st.Blocks, BlockCapture{
			ID:        s.block.id,
			Shared:    append([]int64(nil), s.block.shared...),
			Live:      s.block.live,
			AtBarrier: s.block.atBarrier,
			Slots:     append([]int(nil), s.block.slots...),
		})
	}
	if len(blockIndex) != m.residentBlocks {
		return State{}, fmt.Errorf("sm %d: capture found %d blocks via slots, %d resident",
			m.ID, len(blockIndex), m.residentBlocks)
	}

	for i := range m.slots {
		s := &m.slots[i]
		out := &st.Slots[i]
		out.Gen = s.gen // generations persist across occupancies
		if !s.valid {
			out.Block = -1
			continue
		}
		out.Valid = true
		out.Warp = s.warp.Capture()
		out.Block = blockIndex[s.block]
		out.Age = s.age
		out.BusyALU = s.busyALU
		out.BusyMem = s.busyMem
		out.WB = make([]WBState, len(s.wb))
		for j, e := range s.wb {
			out.WB[j] = WBState{Time: e.time, Reg: e.reg}
		}
		out.LoadRem = s.loadRem
		out.LastIssue = s.lastIssue
		out.Rec = s.rec
		out.PC = s.pc
		out.Done = s.done
		out.Reason = uint8(s.reason)
		out.ReadyCycle = s.readyCycle
		out.IssuedCycle = s.issuedCycle
	}

	for i := range m.units {
		ps, err := sched.Capture(m.units[i].policy)
		if err != nil {
			return State{}, fmt.Errorf("sm %d unit %d: %w", m.ID, i, err)
		}
		st.Units[i] = UnitState{Policy: ps, Issued: m.units[i].issued}
	}
	return st, nil
}

// Restore overwrites the SM's pipeline state from a snapshot, installing
// k as the mid-flight kernel. The SM must be freshly built with the same
// configuration; block execution contexts are rebuilt against the SM's
// current memory and store-log wiring, so the restoring engine may
// differ from the capturing one.
func (m *SM) Restore(st State, k *simt.Kernel) error {
	if len(st.Slots) != len(m.slots) {
		return fmt.Errorf("sm %d: restore slot count mismatch (have %d, snapshot %d)",
			m.ID, len(m.slots), len(st.Slots))
	}
	if len(st.Units) != len(m.units) {
		return fmt.Errorf("sm %d: restore unit count mismatch (have %d, snapshot %d)",
			m.ID, len(m.units), len(st.Units))
	}
	if err := m.l1i.Restore(st.L1I); err != nil {
		return err
	}

	m.kernel = k
	m.prog = k.Program
	m.meta = k.Program.Meta()

	blocks := make([]*blockState, len(st.Blocks))
	for i, bc := range st.Blocks {
		blk := &blockState{
			id:        bc.ID,
			shared:    append([]int64(nil), bc.Shared...),
			live:      bc.Live,
			atBarrier: bc.AtBarrier,
			slots:     append([]int(nil), bc.Slots...),
		}
		blk.ctx = simt.ExecContext{
			Mem:      m.mem,
			Log:      m.storeLog,
			Shared:   blk.shared,
			Params:   k.Params,
			BlockID:  blk.id,
			GridDim:  k.GridDim,
			BlockDim: k.BlockDim,
		}
		blocks[i] = blk
	}

	m.live.clear()
	m.cand.clear()
	m.wbPending.clear()
	m.freeSlots = len(m.slots)
	for i := range m.slots {
		in := &st.Slots[i]
		s := &m.slots[i]
		*s = slot{gen: in.Gen, since: notAccruing}
		if !in.Valid {
			continue
		}
		if in.Block < 0 || in.Block >= len(blocks) {
			return fmt.Errorf("sm %d slot %d: restore block index %d out of range (%d blocks)",
				m.ID, i, in.Block, len(blocks))
		}
		w, err := simt.NewWarpFromState(in.Warp)
		if err != nil {
			return err
		}
		s.valid = true
		s.warp = w
		s.block = blocks[in.Block]
		s.age = in.Age
		s.busyALU = in.BusyALU
		s.busyMem = in.BusyMem
		s.wb = make([]wbEvent, 0, len(in.WB))
		for _, e := range in.WB {
			m.pushWB(i, s, e.Time, e.Reg)
		}
		s.loadRem = in.LoadRem
		s.lastIssue = in.LastIssue
		s.rec = in.Rec
		s.pc = in.PC
		s.done = in.Done
		s.reason = stallReason(in.Reason)
		s.readyCycle = in.ReadyCycle
		s.issuedCycle = in.IssuedCycle

		// A finished warp is a candidate too until the next tick clears
		// its classification (readiness).
		m.freeSlots--
		m.cand.add(i)
		if !s.done {
			m.live.add(i)
		}
	}

	for i := range m.units {
		if err := sched.Restore(m.units[i].policy, st.Units[i].Policy); err != nil {
			return fmt.Errorf("sm %d unit %d: %w", m.ID, i, err)
		}
		m.units[i].issued = st.Units[i].Issued
	}

	m.icBusy = st.ICBusy
	m.cycle = st.Cycle
	m.lsuBusyUntil = st.LSUBusyUntil
	m.wbNext = st.WBNext
	m.ageSeq = st.AgeSeq
	m.residentBlocks = st.ResidentBlocks
	m.sharedInUse = st.SharedInUse
	m.regsInUse = st.RegsInUse
	m.Finished = append(m.Finished[:0], st.Finished...)
	m.BlockStatsBase = st.BlockStatsBase
	m.Instructions = st.Instructions
	m.ThreadInstrs = st.ThreadInstrs
	m.MemInstrs = st.MemInstrs
	m.MemTxns = st.MemTxns
	return nil
}
