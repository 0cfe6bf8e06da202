package sm_test

import (
	"context"
	"reflect"
	"testing"

	"cawa/internal/checkpoint"
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/obs/perf"
	"cawa/internal/sm"
	"cawa/internal/state"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

// The sleep through refused ticks against the engine's own guards, on
// two cells (Scale 0.05, seed 7) under the design points whose refusals
// it sleeps through: backprop on GTX480, where half the SM ticks or
// more are refused and a sleep runs for dozens of ticks, and heartwall
// on SmallConfig, where most refused runs end within a few ticks, so
// the sleep gate decides which of them are slept.

var sleepParams = workloads.Params{Scale: 0.05, Seed: 7}

// sleepCell is one workload on one configuration; at is the first
// cycle the checkpoint tests capture from.
type sleepCell struct {
	app string
	cfg func() config.Config
	at  int64
}

var sleepCells = []sleepCell{
	{"backprop", config.GTX480, 3000},
	{"heartwall", config.Small, 3000},
}

var sleepSystems = []struct {
	name string
	sc   core.SystemConfig
}{
	{"lrr", core.SystemConfig{Scheduler: "lrr"}},
	{"gto", core.SystemConfig{Scheduler: "gto"}},
	{"cawa", core.CAWA()},
	{"2lvl", core.SystemConfig{Scheduler: "2lvl"}},
}

// sleepGPU builds the GPU of one run of the cell: the ticked oracle, or
// the span engine with every SM settling slack ticks short. Every SM
// may sleep: 2lvl, which declines to (TwoLevel.Restless), too, so the
// sleep stays exact for its state.
func sleepGPU(t *testing.T, c sleepCell, sc core.SystemConfig, oracle bool, slack int64) (*gpu.GPU, workloads.Workload) {
	t.Helper()
	wl, err := workloads.New(c.app, sleepParams)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.NewGPU(c.cfg(), wl.Mem())
	if err != nil {
		t.Fatal(err)
	}
	if oracle {
		g.UseTickedOracle()
	}
	for _, s := range g.SMs() {
		sm.SetSettleSlack(s, slack)
		sm.LetSleep(s)
	}
	return g, wl
}

// runLaunches runs the workload's remaining launches on g.
func runLaunches(t *testing.T, g *gpu.GPU, wl workloads.Workload) []*stats.Launch {
	t.Helper()
	var out []*stats.Launch
	for {
		k, ok := wl.Next()
		if !ok {
			return out
		}
		l, err := g.Launch(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
}

// TestSettleSlackBreaksEquivalence: the oracle matrix compares settled
// runs against runs that really tick, and a settle one owed tick short
// must fail it — per-warp stall buckets and all — or the comparison
// witnesses nothing of the settle.
func TestSettleSlackBreaksEquivalence(t *testing.T) {
	for _, sys := range sleepSystems[:3] {
		t.Run(sys.name, func(t *testing.T) {
			for _, c := range sleepCells {
				g, wl := sleepGPU(t, c, sys.sc, true, 0)
				ticked := runLaunches(t, g, wl)
				for _, slack := range []int64{0, 1} {
					g, wl := sleepGPU(t, c, sys.sc, false, slack)
					span := runLaunches(t, g, wl)
					var settled int64
					for _, s := range g.SMs() {
						settled += s.SettledTicks()
					}
					if settled == 0 {
						t.Fatalf("%s: no SM slept: the comparison witnesses nothing", c.app)
					}
					if same := reflect.DeepEqual(span, ticked); same != (slack == 0) {
						t.Errorf("%s, settle slack %d: span engine equal to the ticked oracle = %v (%d ticks settled)", c.app, slack, same, settled)
					}
				}
			}
		})
	}
}

// captureAt runs the cell's workload on g and captures a checkpoint at
// the first cycle from at on where an SM sleeps with refused ticks owed
// (the hook observes every cycle), returning the snapshot, its cycle and
// launch index, and the walk state.Diff reads.
func captureAt(t *testing.T, c sleepCell, g *gpu.GPU, wl workloads.Workload, at int64, needSleep bool) (snap *checkpoint.Snapshot, cycle int64, launch int, walk *state.Archive) {
	t.Helper()
	ix := 0
	g.PerCycle = func(g *gpu.GPU, cyc int64) {
		if snap != nil || cyc < at {
			return
		}
		if needSleep {
			owed := false
			for _, s := range g.SMs() {
				owed = owed || sm.Owed(s) > 0
			}
			if !owed {
				return
			}
		}
		var err error
		if snap, err = checkpoint.Capture(g, checkpoint.Meta{Workload: c.app}); err != nil {
			t.Fatalf("capture at %d: %v", cyc, err)
		}
		cycle, launch, walk = cyc, ix, state.NewSaver(0)
		g.Archive(walk, nil)
	}
	for {
		k, ok := wl.Next()
		if !ok || snap != nil {
			break
		}
		if _, err := g.Launch(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		ix++
	}
	if snap == nil {
		t.Fatalf("no capture from cycle %d on", at)
	}
	g.PerCycle = nil
	return snap, cycle, launch, walk
}

// TestSettleSlackBreaksStateHash: a checkpoint that meets a sleeping SM
// settles its debt first, and the bytes must be those of the ticked
// oracle at that cycle; settled one tick short they must not be (the
// StateHash goldens pin such a capture, backprop at cycle 3000).
func TestSettleSlackBreaksStateHash(t *testing.T) {
	for _, c := range sleepCells {
		g, wl := sleepGPU(t, c, core.CAWA(), false, 0)
		snap, at, _, walk := captureAt(t, c, g, wl, c.at, true)
		g, wl = sleepGPU(t, c, core.CAWA(), true, 0)
		oracle, _, _, oracleWalk := captureAt(t, c, g, wl, at, false)
		if checkpoint.StateHash(snap) != checkpoint.StateHash(oracle) {
			t.Fatalf("%s cycle %d: the span engine's capture differs from the ticked oracle's: %s", c.app, at, state.Diff(walk, oracleWalk))
		}
		g, wl = sleepGPU(t, c, core.CAWA(), false, 1)
		short, _, _, _ := captureAt(t, c, g, wl, at, true)
		if checkpoint.StateHash(short) == checkpoint.StateHash(oracle) {
			t.Errorf("%s cycle %d: settled one owed tick short, the capture still hashes as the ticked oracle's", c.app, at)
		}
	}
}

// TestCheckpointMidSleep captures each cell while at least one SM
// sleeps with refused ticks owed and resumes it on a fresh GPU: a later
// capture and every launch's statistics must be byte-identical to the
// uninterrupted run's, under each policy the sleep replays.
func TestCheckpointMidSleep(t *testing.T) {
	for _, sys := range sleepSystems {
		t.Run(sys.name, func(t *testing.T) {
			for _, c := range sleepCells {
				g, wl := sleepGPU(t, c, sys.sc, false, 0)
				snap, at, launch, _ := captureAt(t, c, g, wl, c.at-1000, true)
				later := at + 700

				g, wl = sleepGPU(t, c, sys.sc, false, 0)
				want, _, _, wantWalk := captureAt(t, c, g, wl, later, false)
				g, wl = sleepGPU(t, c, sys.sc, false, 0)
				wantLaunches := runLaunches(t, g, wl)

				g, wl = sleepGPU(t, c, sys.sc, false, 0)
				for i := 0; i < launch; i++ {
					k, _ := wl.Next()
					if err := checkpoint.FunctionalLaunch(k, wl.Mem(), g.Config().WarpSize); err != nil {
						t.Fatal(err)
					}
				}
				k, _ := wl.Next()
				if err := checkpoint.Restore(snap, g, k); err != nil {
					t.Fatal(err)
				}
				var got *checkpoint.Snapshot
				gotWalk := state.NewSaver(0)
				g.PerCycle = func(g *gpu.GPU, cyc int64) {
					if cyc == later {
						var err error
						if got, err = checkpoint.Capture(g, checkpoint.Meta{Workload: c.app}); err != nil {
							t.Fatal(err)
						}
						g.Archive(gotWalk, nil)
					}
				}
				g.PerCycleWake = func(now int64) int64 { return max(later, now+1) }
				resumed, err := g.Resume(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				g.PerCycle, g.PerCycleWake = nil, nil
				if got == nil || checkpoint.StateHash(got) != checkpoint.StateHash(want) {
					t.Fatalf("%s resumed at cycle %d, the capture at %d differs from the uninterrupted run's: %s", c.app, at, later, state.Diff(gotWalk, wantWalk))
				}
				launches := append([]*stats.Launch{resumed}, runLaunches(t, g, wl)...)
				if !reflect.DeepEqual(launches, wantLaunches[launch:]) {
					t.Errorf("%s resumed at cycle %d, launch statistics differ from the uninterrupted run's", c.app, at)
				}
			}
		})
	}
}

// TestSleepCountsPinned pins the sleep's work counts on heartwall × lrr
// (SmallConfig, Scale 0.05, seed 7), where most refused runs are a few
// ticks long: the counts are exact, so a change to the gate, the
// foresight or the policies' Archive moves them here first. The
// engine's profile reports the same counts.
func TestSleepCountsPinned(t *testing.T) {
	c := sleepCells[1]
	g, wl := sleepGPU(t, c, core.SystemConfig{Scheduler: "lrr"}, false, 0)
	var clock int64
	g.Perf = perf.New(func() int64 { clock++; return clock })
	runLaunches(t, g, wl)
	var got sm.SleepCounts
	for _, s := range g.SMs() {
		got.Add(s.SleepCounts())
	}
	want := sm.SleepCounts{Gated: 30060, Accepted: 119, Slept: 464, Replayed: 1188, Settled: 16250}
	if got != want {
		t.Errorf("%s × lrr sleep counts\n got %+v\nwant %+v", c.app, got, want)
	}
	report := g.Perf.Report().Counts
	for name, n := range map[string]int64{
		"sm.sleep.gated":          got.Gated,
		"sm.sleep.accepted":       got.Accepted,
		"sm.sleep.no_period":      got.NoPeriod,
		"sm.sleep.slept":          got.Slept,
		"sm.sleep.replayed_ticks": got.Replayed,
		"sm.sleep.settled_ticks":  got.Settled,
	} {
		if report[name] != n {
			t.Errorf("perf report count %s = %d, the SMs count %d", name, report[name], n)
		}
	}
}
