package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"cawa"
	"cawa/internal/core"
	"cawa/internal/harness"
)

// The paper's Figure 9 Sens geometric means (EXPERIMENTS.md "GMEAN
// (Sens)" row): the reference the accuracy gap is stated against.
const (
	paperCAWASens = 1.23
	paperGTOSens  = 1.16
)

// fig9Systems is the design-point axis of the fig9 run matrix.
var fig9Systems = []core.SystemConfig{core.Baseline(), {Scheduler: "2lvl"}, {Scheduler: "gto"}, core.CAWA()}

const smallScale = 0.05 // fig9_sweep and serve_mix inputs on SmallConfig

// sweepSession builds a fresh fig9 session over the disk cache in dir,
// with as many workers as the run has clients.
func (r *run) sweepSession(dir string, traced bool) (*cawa.Session, error) {
	disk, err := harness.OpenDiskCache(dir)
	if err != nil {
		return nil, err
	}
	s := cawa.NewSession(cawa.SmallConfig(), r.params(smallScale))
	s.SetWorkers(r.clients)
	s.Disk = disk
	if r.smoke {
		s.Apps = smokeApps
	}
	if traced {
		s.EnableProfiling()
	}
	return s, nil
}

// sweep runs RunExperiment("fig9") on s and returns the table and the
// host time of the call: the paper-reproduction user's job.
func (r *run) sweep(s *cawa.Session, name string) (*cawa.Table, time.Duration) {
	sp := r.tr.begin("harness", name, r.root, r.nextJob(), 0)
	t0 := time.Now()
	tbl, err := cawa.RunExperiment("fig9", s)
	dt := time.Since(t0)
	sp.end()
	cells := len(r.paperApps()) * len(fig9Systems)
	r.attempt(cells)
	if err != nil {
		r.fail(cells, "%s: %v", name, err)
		return nil, dt
	}
	return tbl, dt
}

// sweepCells reads the 48 cached results back from the session (no
// simulation: they are memory-warm after the sweep), summing simulated
// cycles and, when verify is set, checking every cell's digest.
func (r *run) sweepCells(s *cawa.Session, verify, observe bool) (cycles int64) {
	for _, c := range cross(r.paperApps(), fig9Systems...) {
		res, err := s.Run(c.app, c.sys)
		if err != nil {
			r.fail(1, "%s on %s: %v", c.app, c.sys.Label(), err)
			continue
		}
		cycles += res.Agg.Cycles
		if verify {
			r.checkDigest(cellKey(s.Config, s.Params, c.app, c.sys), res)
		}
		if observe {
			r.obs.addResult(res, s.Config.NumSMs)
		}
	}
	return cycles
}

// observeSession folds a traced session's counters into the layer
// metrics: what the pool, the caches and the engine profiler saw.
func (r *run) observeSession(s *cawa.Session, wall time.Duration) {
	var simSeconds float64
	timings := s.Timings()
	for _, t := range timings {
		simSeconds += t.Seconds
	}
	r.obs.jobWall += time.Duration(simSeconds * float64(time.Second))
	r.obs.addReport(s.PerfReport())
	r.layer["harness.sims"] = float64(len(timings))
	r.layer["harness.disk_hits"] = float64(s.DiskHits())
	r.layer["harness.pool_efficiency"] = ratio(simSeconds, wall.Seconds()*float64(s.Workers()))
}

// accuracy states the sweep's error against the paper beside its speed:
// |GMEAN(Sens) - paper| in points, for CAWA and for GTO.
func (r *run) accuracy(tbl *cawa.Table) {
	col := map[string]int{}
	for i, c := range tbl.Columns[1:] {
		col[c] = i
	}
	for row := 0; row < tbl.Rows(); row++ {
		if tbl.Label(row) != "GMEAN(sens)" {
			continue
		}
		cawaV, _ := strconv.ParseFloat(tbl.Value(row, col["cawa"]), 64)
		gtoV, _ := strconv.ParseFloat(tbl.Value(row, col["gto"]), 64)
		r.layer["harness.fig9_paper_gap_pt"] = math.Abs(cawaV-paperCAWASens) * 100
		r.layer["harness.fig9_gto_gap_pt"] = math.Abs(gtoV-paperGTOSens) * 100
		fmt.Fprintf(os.Stderr, "cawaperf: %s: fig9 GMEAN(Sens) at scale %g (simulated): cawa %.3f (paper %.2f), gto %.3f (paper %.2f)\n",
			r.wl.name, r.scale(smallScale), cawaV, paperCAWASens, gtoV, paperGTOSens)
	}
}

// sweepWorkload is the paper-reproduction user's job: a pass is one
// RunExperiment("fig9") — 12 apps x {lrr, 2lvl, gto, cawa} on
// SmallConfig — and that sweep is the job. Cold passes start from a
// fresh session and an empty disk cache; disk-warm passes start from a
// fresh session over the directory the warm-up cold sweep populated.
func sweepWorkload(diskWarm bool) func(r *run) (passFunc, func(), error) {
	return func(r *run) (passFunc, func(), error) {
		base, err := os.MkdirTemp("", "cawaperf-sweep-")
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() { os.RemoveAll(base) }
		cells := len(r.paperApps()) * len(fig9Systems)

		// one sweeps from a fresh session over dir. Every table must
		// equal the first; verify also checks every cell's digest.
		var first string
		one := func(dir, name string, traced, verify bool) (passStats, error) {
			t0 := time.Now()
			s, err := r.sweepSession(dir, traced)
			if err != nil {
				return passStats{}, err
			}
			tbl, _ := r.sweep(s, "RunExperiment fig9 "+name)
			ps := passStats{wall: time.Since(t0)}
			ps.jobMS = []float64{ms(ps.wall)}
			if tbl == nil {
				return ps, nil
			}
			if first == "" {
				first = tbl.String()
			} else if tbl.String() != first {
				r.fail(1, "%s fig9 table differs from the first cold table", name)
			}
			if hits, sims := int(s.DiskHits()), len(s.Timings()); name == "disk-warm" && (hits != cells || sims != 0) {
				r.fail(1, "disk-warm pass simulated: %d disk hits, %d simulations (want %d, 0)", hits, sims, cells)
			}
			ps.cycles = r.sweepCells(s, verify, traced)
			if traced {
				r.observeSession(s, ps.wall)
				r.accuracy(tbl)
				_, mem := r.sweep(s, "RunExperiment fig9 mem-warm")
				r.layer["harness.memwarm_us"] = float64(mem.Nanoseconds()) / 1e3
			}
			return ps, nil
		}

		n := 0
		cold := func(traced bool) (passStats, error) {
			n++
			dir := fmt.Sprintf("%s/cold-%d", base, n)
			defer os.RemoveAll(dir)
			return one(dir, "cold", traced, true)
		}
		if !diskWarm {
			_, err := cold(false) // warm-up, discarded
			return cold, cleanup, err
		}
		dir := base + "/populated"
		if _, err := one(dir, "cold", false, true); err != nil {
			return nil, cleanup, err
		}
		verify := true // disk-loaded results are digest-checked on the warm-up pass only
		warm := func(traced bool) (passStats, error) {
			ps, err := one(dir, "disk-warm", traced, verify)
			verify = false
			return ps, err
		}
		_, err = warm(false)
		return warm, cleanup, err
	}
}
