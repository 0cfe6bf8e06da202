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
