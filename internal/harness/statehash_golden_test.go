package harness

import (
	"context"
	"testing"

	"cawa/internal/checkpoint"
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/obs"
	"cawa/internal/state"
	"cawa/internal/workloads"
)

// stateHashGoldens pins checkpoint.StateHash at a fixed mid-launch cycle
// of two full-CAWA runs on GTX480 (Scale 0.05, seed 7): kmeans keeps a
// handful of warps live per SM, backprop keeps nearly every slot live
// and barrier-bound, so a match proves that what the SM keeps lazily —
// parked classifications, stall accrual, the writeback set — is settled
// to the same bytes whenever a checkpoint looks, at one domain and two.
//
// The hashes are of FormatVersion 2 payloads. The version-1 (gob)
// goldens they replace were recorded on the commit before the SM's
// readiness became event-driven; PR 20 re-recorded them only after
// showing, with both capture layers in one tree, that a GPU restored
// from a version-2 payload hashes to the version-1 golden at all four
// points (the run is in CHANGES.md).
//
// The caws+oracle entry pins the CAWS baseline's provider walk, which
// full CAWA never archives: kmeans under caws with the oracle profiled
// from the session's baseline run of the same workload. The gto entry
// pins GTO's policy walk, the greedy hold without criticality. The
// traced entry is full CAWA with every provider wrapped by an issue
// recorder (obs.Collector.Wrap, as cawasim's traced runs are): it
// checkpoints, and to the untraced run's hash.
var stateHashGoldens = []struct {
	workload string
	point    string // "cawa", "cawa+traced", "caws+oracle" or "gto"
	cycle    int64
	hash     string
}{
	{"kmeans", "cawa", 5000, "9f55aacd5b78f6866391fdd11da54d535e17814f5eda54888ed733380c3dfae0"},
	{"kmeans", "cawa+traced", 5000, "9f55aacd5b78f6866391fdd11da54d535e17814f5eda54888ed733380c3dfae0"},
	{"kmeans", "cawa", 15000, "d3a5f245af1fea549262f2dc651d82ae10c4ce18c3c2284a59cd2629fb3a21c4"},
	{"backprop", "cawa", 3000, "cdb19d52a94d3342ba169f5c7e5374f01fabf2413fa19a3dc5eb83af30641157"},
	{"backprop", "cawa", 9000, "0bc48fab3ae4138b872b4eb32a4e0eff9c1d33e24dc9af3130ac19153700b6b5"},
	{"kmeans", "caws+oracle", 5000, "e5f59f703f8e8efff35efb3726691eaa290cba695da5a409bcb1e1ca4dc7abbf"},
	{"kmeans", "gto", 5000, "67f1cbfeef826a8d40718d5d7370ad326429d85448e42540139fa1231ae738fe"},
}

// stateHashAt runs workload at the design point (full CAWA, traced or
// not, caws with the baseline-profiled oracle, or plain gto) and
// returns the StateHash
// of a checkpoint captured at the given global cycle, with the device's
// walk by a saver of its own for state.Diff.
func stateHashAt(t *testing.T, workload, point string, at int64, smWorkers int) (string, *state.Archive) {
	t.Helper()
	params := workloads.Params{Scale: 0.05, Seed: 7}
	wl, err := workloads.New(workload, params)
	if err != nil {
		t.Fatal(err)
	}
	var sc core.SystemConfig
	var traced *obs.Collector
	switch point {
	case "cawa":
		sc = core.CAWA()
	case "cawa+traced":
		sc, traced = core.CAWA(), obs.NewCollector(64)
		sc.ProviderOverride, sc.Variant = traced.Wrap(sc.Providers()), "traced"
	case "caws+oracle":
		prof, err := NewSession(config.GTX480(), params).OracleFor(workload)
		if err != nil {
			t.Fatal(err)
		}
		sc = core.SystemConfig{Scheduler: "caws", Oracle: prof}
	case "gto":
		sc = core.SystemConfig{Scheduler: "gto"}
	default:
		t.Fatalf("unknown design point %q", point)
	}
	g, err := sc.NewGPU(config.GTX480(), wl.Mem())
	if err != nil {
		t.Fatal(err)
	}
	g.SMWorkers = smWorkers
	hash, walk := "", state.NewSaver(0)
	g.PerCycle = func(g *gpu.GPU, cycle int64) {
		if cycle != at {
			return
		}
		s, err := checkpoint.Capture(g, checkpoint.Meta{Workload: workload})
		if err != nil {
			t.Fatalf("capture at %d: %v", cycle, err)
		}
		hash = checkpoint.StateHash(s)
		g.Archive(walk, nil)
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
	if traced != nil && traced.Total() == 0 {
		t.Fatal("the traced run recorded no issue")
	}
	return hash, walk
}

// TestStateHashGoldens: checkpoint bytes did not move, and neither did
// the two version stamps that would excuse a move.
func TestStateHashGoldens(t *testing.T) {
	if checkpoint.FormatVersion != 2 {
		t.Errorf("checkpoint.FormatVersion = %d, want 2", checkpoint.FormatVersion)
	}
	if EngineVersion != "cawa-engine-6" {
		t.Errorf("EngineVersion = %q, want cawa-engine-6", EngineVersion)
	}
	// A golden is a hash, so a mismatch can only be located against the
	// other domain count's capture: where the two differ, or that they
	// agree and the change moved the state itself.
	for _, gold := range stateHashGoldens {
		one, oneWalk := stateHashAt(t, gold.workload, gold.point, gold.cycle, 1)
		two, twoWalk := stateHashAt(t, gold.workload, gold.point, gold.cycle, 2)
		if one == gold.hash && two == gold.hash {
			continue
		}
		where := "the two captures are identical"
		if d := state.Diff(oneWalk, twoWalk); d != "" {
			where = "one domain vs two: " + d
		}
		t.Errorf("%s (%s) @%d: StateHash %s (one domain), %s (two), want %s; %s",
			gold.workload, gold.point, gold.cycle, one, two, gold.hash, where)
	}
}
