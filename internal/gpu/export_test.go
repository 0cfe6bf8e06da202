package gpu

import "cawa/internal/simt"

// BeginLaunch starts a launch of k without running it, for the external
// design-point allocation gate: step runs one span exactly as Launch
// would, retired reports the blocks retired so far, and stop tears the
// launch's domains down.
func (g *GPU) BeginLaunch(k *simt.Kernel) (step func(), retired func() int, stop func()) {
	ls := g.initLaunch(k, k.WarpsPerBlock(g.cfg.WarpSize))
	g.startDomains()
	return func() { g.runSpan(ls) }, ls.retired, g.stopDomains
}

// SettledTicks counts the refused ticks g's SMs have slept through and
// settled (sm.SM.SettledTicks).
func SettledTicks(g *GPU) int64 {
	n := int64(0)
	for _, s := range g.sms {
		n += s.SettledTicks()
	}
	return n
}

// ReplayedCycles counts the cycles g's span replays visited.
func ReplayedCycles(g *GPU) int64 { return g.replayed }
