package gpu_test

import (
	"context"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/workloads"
)

// TestReplayVisitsOnlyDueCycles runs two of the paper's workloads on the
// span engine and checks that the replay visited fewer cycles than the
// spans held: a cycle where no memory event falls due and no SM staged
// an access or deferred a store is skipped. Equivalence with ticking
// every cycle is the engine-equivalence matrix's and
// TestLookaheadByteIdentity's to prove; this only shows the skip fires.
func TestReplayVisitsOnlyDueCycles(t *testing.T) {
	for _, app := range []string{"tpacf", "backprop"} {
		wl, err := workloads.New(app, workloads.Params{Scale: 0.05, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.SystemConfig{Scheduler: "gto"}.NewGPU(config.Small(), wl.Mem())
		if err != nil {
			t.Fatal(err)
		}
		for k, ok := wl.Next(); ok; k, ok = wl.Next() {
			if _, err := g.Launch(context.Background(), k); err != nil {
				t.Fatal(err)
			}
		}
		if err := wl.Verify(); err != nil {
			t.Fatal(err)
		}
		cycles, visited := g.Cycle(), gpu.ReplayedCycles(g)
		t.Logf("%s: the replay visited %d of %d cycles (%.2f)", app, visited, cycles, float64(visited)/float64(cycles))
		if visited == 0 || visited >= cycles {
			t.Errorf("%s: the replay visited %d of %d cycles, want fewer than every one", app, visited, cycles)
		}
	}
}
