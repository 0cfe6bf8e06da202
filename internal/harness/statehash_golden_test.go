package harness

import (
	"context"
	"testing"

	"cawa/internal/checkpoint"
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/workloads"
)

// stateHashGoldens pins checkpoint.StateHash at a fixed mid-launch cycle
// of two full-CAWA runs on GTX480 (Scale 0.05, seed 7). They were
// recorded on the commit before the SM's readiness became event-driven
// (every tick rescanned every slot then), so a match proves that what
// the SM keeps lazily — parked classifications, stall accrual, the
// writeback set — is settled to the same bytes whenever a checkpoint
// looks: kmeans keeps a handful of warps live per SM, backprop keeps
// nearly every slot live and barrier-bound.
var stateHashGoldens = []struct {
	workload string
	cycle    int64
	hash     string
}{
	{"kmeans", 5000, "7414e1aaa338a65a41618f1cdcf0442a59c3d0d65d75b0edb5c7bc604c5b2dc8"},
	{"kmeans", 15000, "ce232e01216434d04a6219fb7ae672f74f1fc3bc37b270683b9c0fc9079e964e"},
	{"backprop", 3000, "faad1f7dd3c4f59845a2da3495381fababdc2c988793ac4b2d1df72017b3e4f0"},
	{"backprop", 9000, "257f18f9e7010d26ff7742cfac376d25c64838cc09775d0b6f5b22c18561430e"},
}

// stateHashAt runs workload under full CAWA and returns the StateHash of
// a checkpoint captured at the given global cycle.
func stateHashAt(t *testing.T, workload string, at int64, smWorkers int) string {
	t.Helper()
	wl, err := workloads.New(workload, workloads.Params{Scale: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CAWA().NewGPU(config.GTX480(), wl.Mem())
	if err != nil {
		t.Fatal(err)
	}
	g.SMWorkers = smWorkers
	hash := ""
	g.PerCycle = func(g *gpu.GPU, cycle int64) {
		if cycle != at {
			return
		}
		s, err := checkpoint.Capture(g, checkpoint.Meta{Workload: workload})
		if err != nil {
			t.Fatalf("capture at %d: %v", cycle, err)
		}
		if hash, err = checkpoint.StateHash(s); err != nil {
			t.Fatalf("hash at %d: %v", cycle, err)
		}
	}
	g.PerCycleWake = func(now int64) int64 {
		if now < at {
			return at
		}
		return now + (1 << 40) // observed: never wake the hook again
	}
	for hash == "" {
		k, ok := wl.Next()
		if !ok {
			t.Fatalf("%s finished before cycle %d", workload, at)
		}
		if _, err := g.Launch(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	return hash
}

// TestStateHashGoldens: checkpoint bytes did not move, and neither did
// the two version stamps that would excuse a move.
func TestStateHashGoldens(t *testing.T) {
	if checkpoint.FormatVersion != 1 {
		t.Errorf("checkpoint.FormatVersion = %d, want 1", checkpoint.FormatVersion)
	}
	if EngineVersion != "cawa-engine-6" {
		t.Errorf("EngineVersion = %q, want cawa-engine-6", EngineVersion)
	}
	for _, gold := range stateHashGoldens {
		for _, workers := range []int{1, 2} {
			if got := stateHashAt(t, gold.workload, gold.cycle, workers); got != gold.hash {
				t.Errorf("%s @%d (%d domains): StateHash %s, want %s",
					gold.workload, gold.cycle, workers, got, gold.hash)
			}
		}
	}
}
