// Package gpu is a stub so the engine-loop roots resolve.
package gpu

import (
	"cawa/internal/memsys"
	"cawa/internal/sm"
)

// GPU is the stub engine.
type GPU struct {
	sms []*sm.SM
	sys *memsys.System
}

// replay is the stub span replay.
func (g *GPU) replay() { g.sys.Cycle() }

// planHorizon is the stub span horizon planner.
func (g *GPU) planHorizon() int64 { return 1 }

// runSpan is the stub span path.
func (g *GPU) runSpan() {
	g.sys.PlanSpanFills(g.planHorizon())
	(&domainWorker{sms: g.sms}).stepSpan(0, 1)
	g.replay()
}

// domainWorker is the stub span domain.
type domainWorker struct {
	sms []*sm.SM
}

// stepSpan is the stub domain span body.
func (w *domainWorker) stepSpan(from, to int64) {
	for t := from; t <= to; t++ {
		for _, s := range w.sms {
			s.Cycle()
		}
	}
}

// Run drives the stub engine.
func (g *GPU) Run() {
	g.runSpan()
}
