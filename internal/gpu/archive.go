package gpu

import (
	"cawa/internal/simt"
	"cawa/internal/state"
)

// The archive walk of the whole device mid-launch. A saver runs from the
// PerCycle hook, which fires only between spans: store logs flushed,
// stage buffers committed, span-fill plans drained, every SM's cycle
// latch on the hook's cycle (replay orders those before the hook;
// planHorizon ends its span at PerCycleWake). The stream is therefore
// independent of how the launch was run — a checkpoint written by the
// ticked oracle restores onto the span engine at any domain count and
// vice versa. Between launches the harness replays functionally instead.
//
// The memory's workload identity is NOT in the stream: a loader
// overwrites the words of a memory the caller rebuilt from the same
// Params, and k must be the kernel the checkpoint was taken inside,
// which the caller reaches by replaying the completed launches.

// Archive walks the device: a saver inside a launch (k is ignored), a
// loader a freshly built GPU of the same configuration, armed for Resume.
func (g *GPU) Archive(a *state.Archive, k *simt.Kernel) {
	a.Tag("gpu")
	ls := g.launch
	if a.Loading() == (ls != nil) {
		a.Failf("gpu: checkpoint outside a launch, or restore inside one")
		return
	}
	if a.Loading() {
		ls = newLaunchState(k, len(g.sms)) // the dispatch-stall memo is not captured
	}
	for _, l := range g.logs {
		if l.Len() != 0 {
			a.Failf("gpu: checkpoint with unflushed store log (%d entries)", l.Len())
			return
		}
	}
	a.Tag(ls.k.Name) // the kernel a checkpoint was taken inside is the one to resume
	if n := a.Len(len(g.sms)); n != len(g.sms) {
		a.Failf("gpu: SM count mismatch (have %d, checkpoint %d)", len(g.sms), n)
		return
	}
	state.Int(a, &g.cycle, &ls.startCycle, &ls.startInstr, &ls.startTInstr, &ls.startMemI, &ls.startMemT)
	state.Int(a, &g.nextGID, &g.blockBase, &g.rr, &ls.warpsPerBlock, &ls.total, &ls.nextBlock)
	state.Int(a, &ls.startL2Acc, &ls.startL2Miss)
	state.Slice(a, &g.Spans, (*LaunchSpan).Archive)
	g.mem.Archive(a)
	g.sys.Archive(a)
	for i, s := range g.sms {
		l1 := &ls.l1snap[i]
		state.Int(a, &l1.loadAcc, &l1.storeAcc, &l1.loadMiss, &l1.storeMiss)
		state.Int(a, &ls.retiredBy[i])
		state.Int(a, &ls.lastRetire[i])
		s.Archive(a, ls.k)
	}
	if a.Loading() && a.Err() == nil {
		ls.install(g) // closures do not serialize
		g.launch = ls
	}
}

// Archive walks one completed launch's cycle window.
func (s *LaunchSpan) Archive(a *state.Archive) {
	a.String(&s.Kernel)
	state.Int(a, &s.Start, &s.End)
}
