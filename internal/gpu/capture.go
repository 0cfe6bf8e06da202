package gpu

import (
	"fmt"

	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/simt"
	"cawa/internal/sm"
)

// Serializable snapshot of the whole device mid-launch. Capture runs
// from the PerCycle hook, which fires only between spans: store logs
// flushed, stage buffers committed, span-fill plans drained, every SM's
// cycle latch on the hook's cycle (replay orders those before the hook;
// planHorizon ends its span at PerCycleWake). The snapshot is therefore
// independent of how the launch was run — a checkpoint written by the
// ticked oracle restores onto the span engine at any domain count and
// vice versa.
//
// Two things are NOT in the snapshot and must be handled by the caller
// (internal/checkpoint): the criticality providers and L1 replacement
// policies (their concrete types live in internal/core, above this
// package) and the functional memory's workload identity (Restore
// overwrites words into a memory rebuilt from the same Params).

// L1LaunchSnap is the per-SM L1 counter snapshot the launch statistics
// are deltas against.
type L1LaunchSnap struct {
	LoadAcc   uint64
	StoreAcc  uint64
	LoadMiss  uint64
	StoreMiss uint64
}

// LaunchProgress is the snapshot of the in-flight launch's progress.
type LaunchProgress struct {
	Kernel        string // sanity-checked against the resumed kernel
	WarpsPerBlock int
	Total         int
	NextBlock     int

	StartCycle  int64
	StartInstr  int64
	StartTInstr int64
	StartMemI   int64
	StartMemT   int64
	L1Snap      []L1LaunchSnap
	StartL2Acc  uint64
	StartL2Miss uint64

	RetiredBy  []int
	LastRetire []int64
}

// State is the snapshot of the whole device at a cycle boundary.
type State struct {
	Cycle     int64
	NextGID   int
	BlockBase int
	RR        int
	Spans     []LaunchSpan

	Launch LaunchProgress
	SMs    []sm.State
	Sys    memsys.State
	Mem    memory.State
}

// Capture snapshots the device. It must be called from inside a launch
// (normally from the PerCycle hook) — between launches there is nothing
// to checkpoint, the harness just replays completed launches
// functionally.
func (g *GPU) Capture() (State, error) {
	ls := g.launch
	if ls == nil {
		return State{}, fmt.Errorf("gpu: Capture outside a launch")
	}
	for _, l := range g.logs {
		if l.Len() != 0 {
			return State{}, fmt.Errorf("gpu: Capture with unflushed store log (%d entries)", l.Len())
		}
	}

	st := State{
		Cycle:     g.cycle,
		NextGID:   g.nextGID,
		BlockBase: g.blockBase,
		RR:        g.rr,
		Spans:     append([]LaunchSpan(nil), g.Spans...),
		Launch: LaunchProgress{
			Kernel:        ls.k.Name,
			WarpsPerBlock: ls.warpsPerBlock,
			Total:         ls.total,
			NextBlock:     ls.nextBlock,
			StartCycle:    ls.startCycle,
			StartInstr:    ls.startInstr,
			StartTInstr:   ls.startTInstr,
			StartMemI:     ls.startMemI,
			StartMemT:     ls.startMemT,
			L1Snap:        make([]L1LaunchSnap, len(ls.l1snap)),
			StartL2Acc:    ls.startL2Acc,
			StartL2Miss:   ls.startL2Miss,
			RetiredBy:     append([]int(nil), ls.retiredBy...),
			LastRetire:    append([]int64(nil), ls.lastRetire...),
		},
		SMs: make([]sm.State, len(g.sms)),
		Mem: g.mem.Capture(),
	}
	for i, snap := range ls.l1snap {
		st.Launch.L1Snap[i] = L1LaunchSnap{
			LoadAcc: snap.loadAcc, StoreAcc: snap.storeAcc,
			LoadMiss: snap.loadMiss, StoreMiss: snap.storeMiss,
		}
	}

	l1s := make([]*memsys.L1D, len(g.sms))
	for i, s := range g.sms {
		l1s[i] = s.L1D()
	}
	sys, err := g.sys.Capture(l1s)
	if err != nil {
		return State{}, err
	}
	st.Sys = sys
	for i, s := range g.sms {
		smState, err := s.Capture()
		if err != nil {
			return State{}, err
		}
		l1State, err := s.L1D().Capture()
		if err != nil {
			return State{}, err
		}
		st.SMs[i] = smState
		st.Sys.L1Ds = append(st.Sys.L1Ds, l1State)
	}
	return st, nil
}

// Restore overwrites a freshly built GPU (same configuration, same
// workload memory shape) with a snapshot and arms it for Resume. k must
// be the same kernel the snapshot was captured inside — the caller
// rebuilds it by replaying the workload's completed launches
// functionally.
func (g *GPU) Restore(st State, k *simt.Kernel) error {
	if g.launch != nil {
		return fmt.Errorf("gpu: Restore inside a launch")
	}
	if st.Launch.Kernel != k.Name {
		return fmt.Errorf("gpu: restore kernel mismatch (snapshot %q, resuming %q)",
			st.Launch.Kernel, k.Name)
	}
	if len(st.SMs) != len(g.sms) || len(st.Sys.L1Ds) != len(g.sms) ||
		len(st.Launch.L1Snap) != len(g.sms) ||
		len(st.Launch.RetiredBy) != len(g.sms) || len(st.Launch.LastRetire) != len(g.sms) {
		return fmt.Errorf("gpu: restore SM count mismatch (have %d SMs, snapshot %d/%d/%d)",
			len(g.sms), len(st.SMs), len(st.Sys.L1Ds), len(st.Launch.L1Snap))
	}
	if err := g.mem.Restore(st.Mem); err != nil {
		return err
	}
	l1s := make([]*memsys.L1D, len(g.sms))
	for i, s := range g.sms {
		l1s[i] = s.L1D()
	}
	if err := g.sys.Restore(st.Sys, l1s); err != nil {
		return err
	}
	for i, s := range g.sms {
		if err := s.L1D().Restore(st.Sys.L1Ds[i]); err != nil {
			return err
		}
		if err := s.Restore(st.SMs[i], k); err != nil {
			return err
		}
	}

	g.cycle = st.Cycle
	g.nextGID = st.NextGID
	g.blockBase = st.BlockBase
	g.rr = st.RR
	g.Spans = append(g.Spans[:0], st.Spans...)

	ls := &launchState{
		k:             k,
		warpsPerBlock: st.Launch.WarpsPerBlock,
		total:         st.Launch.Total,
		nextBlock:     st.Launch.NextBlock,
		startCycle:    st.Launch.StartCycle,
		startInstr:    st.Launch.StartInstr,
		startTInstr:   st.Launch.StartTInstr,
		startMemI:     st.Launch.StartMemI,
		startMemT:     st.Launch.StartMemT,
		l1snap:        make([]l1Snapshot, len(st.Launch.L1Snap)),
		startL2Acc:    st.Launch.StartL2Acc,
		startL2Miss:   st.Launch.StartL2Miss,
		retiredBy:     append([]int(nil), st.Launch.RetiredBy...),
		lastRetire:    append([]int64(nil), st.Launch.LastRetire...),
		dispatchStall: -1,
	}
	for i, snap := range st.Launch.L1Snap {
		ls.l1snap[i] = l1Snapshot{snap.LoadAcc, snap.StoreAcc, snap.LoadMiss, snap.StoreMiss}
	}
	ls.install(g)
	g.launch = ls
	return nil
}
