package sm_test

import (
	"context"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/sm"
	"cawa/internal/workloads"
)

// readinessEngines are the ways the catalogue test drives the SMs. The
// first two observe every cycle, which is what the per-tick shadow
// account needs: the ticked oracle, and the span engine held to
// one-cycle spans by a hook with no wake hint (every fill wakes its warp
// from the engine goroutine's head drain). The third lets spans run: the
// SMs skip their dead cycles, fills planned into a span wake their warps
// from a domain's DeliverSpanFills — on a helper goroutine for half the
// SMs — and the invariants and the residency identity are checked
// wherever the hook lands.
var readinessEngines = []struct {
	name      string
	oracle    bool
	smWorkers int
	cadence   int64 // 0: observe every cycle with the shadow account
}{
	{name: "ticked", oracle: true},
	{name: "span-1cycle", smWorkers: 2},
	{name: "span-skipping", smWorkers: 2, cadence: 7},
}

// TestReadinessOracleAllWorkloads runs the from-scratch readiness
// oracle over every workload of the catalogue under lrr, gto and full
// CAWA on SmallConfig (-short: full CAWA only).
func TestReadinessOracleAllWorkloads(t *testing.T) {
	systems := []struct {
		name string
		sc   core.SystemConfig
	}{
		{"lrr", core.SystemConfig{Scheduler: "lrr"}},
		{"gto", core.SystemConfig{Scheduler: "gto"}},
		{"cawa", core.CAWA()},
	}
	standing := 0 // re-offered ready lists the checkers rebuilt
	for _, app := range workloads.Names() {
		for _, sys := range systems {
			for _, eng := range readinessEngines {
				if testing.Short() && sys.name != "cawa" {
					continue
				}
				app, sys, eng := app, sys, eng
				t.Run(app+"/"+sys.name+"/"+eng.name, func(t *testing.T) {
					wl, err := workloads.New(app, workloads.Params{Scale: 0.05, Seed: 3})
					if err != nil {
						t.Fatal(err)
					}
					g, err := sys.sc.NewGPU(config.Small(), wl.Mem())
					if err != nil {
						t.Fatal(err)
					}
					g.SMWorkers = eng.smWorkers
					if eng.oracle {
						g.UseTickedOracle()
					}
					checkers := make([]*sm.ReadinessChecker, len(g.SMs()))
					for i, s := range g.SMs() {
						checkers[i] = sm.NewReadinessChecker(s)
						checkers[i].Residency = true
					}
					var failed error
					g.PerCycle = func(_ *gpu.GPU, cycle int64) {
						for _, c := range checkers {
							var err error
							if eng.cadence == 0 {
								err = c.AfterTick(cycle)
							} else {
								err = c.Invariants()
							}
							if err != nil && failed == nil {
								failed = err
							}
						}
					}
					if eng.cadence > 0 {
						g.PerCycleWake = func(now int64) int64 { return now - now%eng.cadence + eng.cadence }
					}
					for failed == nil {
						k, ok := wl.Next()
						if !ok {
							break
						}
						if _, err := g.Launch(context.Background(), k); err != nil {
							t.Fatal(err)
						}
					}
					if failed != nil {
						t.Fatal(failed)
					}
					for _, c := range checkers {
						standing += c.Standing
					}
					if err := wl.Verify(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	if standing == 0 {
		t.Error("no unit ever re-offered a standing ready list on a checked tick: the standing check witnessed nothing")
	}
	t.Logf("%d standing ready lists rebuilt and matched", standing)
}
