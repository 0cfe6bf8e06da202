package main

import (
	"time"

	"cawa"
	"cawa/internal/core"
	"cawa/internal/harness"
	"cawa/internal/obs/perf"
)

// cell is one (application, design point) simulation.
type cell struct {
	app string
	sys core.SystemConfig
}

func cross(apps []string, systems ...core.SystemConfig) []cell {
	var out []cell
	for _, a := range apps {
		for _, s := range systems {
			out = append(out, cell{a, s})
		}
	}
	return out
}

var lrrGtoCawa = []core.SystemConfig{core.Baseline(), {Scheduler: "gto"}, core.CAWA()}

// simulate runs one engine job through the stable entry point
// (cawa.RunWith with only Workload, Params, System, Config, SMWorkers
// and Profiler set; SkipVerify is never set, so every job is checked
// against the workload's Go reference). It returns nil on failure.
func (r *run) simulate(c cell, p cawa.Params, cfg cawa.Config, smWorkers int, traced bool) (*cawa.Result, time.Duration) {
	var prof *perf.Profiler
	if traced {
		prof = harness.NewWallProfiler(0)
	}
	sp := r.tr.begin("harness", "RunWith "+c.app+"/"+c.sys.Label(), r.root, r.nextJob(), 0)
	t0 := time.Now()
	res, err := cawa.RunWith(cawa.RunOptions{
		Workload: c.app, Params: p, System: c.sys, Config: cfg,
		SMWorkers: smWorkers, Profiler: prof,
	})
	dt := time.Since(t0)
	sp.end()
	r.attempt(1)
	if err != nil {
		r.fail(1, "%s on %s: %v", c.app, c.sys.Label(), err)
		return nil, dt
	}
	r.checkDigest(cellKey(cfg, p, c.app, c.sys), res)
	if traced {
		r.obs.jobWall += dt
		r.obs.addResult(res, cfg.NumSMs)
		r.obs.addReport(prof.Report())
	}
	return res, dt
}

// engineWorkload times whole simulations on the full GTX480: a pass is
// every cell once, a job is one cell. With smWorkers > 1 the cells run
// on the parallel per-SM engine, and the warm-up first runs each cell
// serially so the digest check spans both engines.
func engineWorkload(apps []string, systems []core.SystemConfig, fullScale float64, parallel bool) func(r *run) (passFunc, func(), error) {
	return func(r *run) (passFunc, func(), error) {
		cells := cross(r.apps(apps), systems...)
		p := r.params(fullScale)
		cfg := cawa.GTX480()
		smWorkers := 0
		if parallel {
			smWorkers = r.clients
			for _, c := range cells {
				r.simulate(c, p, cfg, 0, false)
			}
		}
		pass := func(traced bool) (passStats, error) {
			var ps passStats
			for _, c := range cells {
				res, dt := r.simulate(c, p, cfg, smWorkers, traced)
				ps.jobMS = append(ps.jobMS, ms(dt))
				ps.wall += dt // jobs run back to back; the digest checks between them are not timed
				if res != nil {
					ps.cycles += res.Agg.Cycles
				}
			}
			return ps, nil
		}
		_, err := pass(false) // warm-up, discarded
		return pass, nil, err
	}
}
