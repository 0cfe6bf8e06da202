package harness

import (
	"context"
	"reflect"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/workloads"
)

// engineMatrixConfig is the architecture the equivalence matrix runs
// on: the quick 2-SM configuration widened to 4 SMs so the span engine
// exercises real multi-domain merges (with 2 SMs one barrier joins only
// two goroutines and the SM-id-ordered replay is trivial).
func engineMatrixConfig() config.Config {
	cfg := config.Small()
	cfg.NumSMs = 4
	return cfg
}

// matrixSystems are the design points the engine must agree with the
// oracle on.
var matrixSystems = []struct {
	name string
	sc   core.SystemConfig
}{
	{"lrr", core.Baseline()},
	{"gto", core.SystemConfig{Scheduler: "gto"}},
	{"cawa", core.CAWA()},
}

// oracleSession builds a session whose every run executes on the
// tick-every-cycle reference loop (gpu.GPU.UseTickedOracle): one
// goroutine, every SM ticked every cycle directly against the shared
// memory system — no spans, no staging, no skipping.
func oracleSession(cfg config.Config, params workloads.Params) *Session {
	s := NewSession(cfg, params)
	s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
		opt.tickedOracle = true
		return RunContext(ctx, opt)
	})
	return s
}

// TestEngineEquivalenceMatrix proves that the span engine is a pure
// wall-clock optimization. For each paper application on the baseline,
// GTO and full-CAWA design points, the engine must produce results
// byte-identical to the ticked oracle at every domain count:
//
//	span-1  one inline domain: the caller's goroutine, no barrier (what
//	        every cawabench/cawaserve run uses by default)
//	span-2  two domains: the inline one plus one helper goroutine
//	span-N  one domain per SM
//
// "Byte-identical" covers cycle counts, launch spans, every aggregate
// counter, every per-warp record including the stall-cycle buckets
// (bulk accounting across each SM's skipped cycles must land each cycle
// in the same bucket the oracle chose), and the per-warp L1 tallies.
// Session caching relies on this: the run cache is not keyed on the
// domain count.
func TestEngineEquivalenceMatrix(t *testing.T) {
	apps := PaperApps
	if testing.Short() {
		apps = apps[:4] // bfs, b+tree, heartwall, kmeans
	}
	if raceDetectorEnabled {
		// The detector multiplies simulation cost ~20x, and the barrier
		// and staging synchronization it audits is identical per app:
		// two applications already drive the engine through thousands
		// of spans. The full byte-identity sweep runs without -race.
		apps = apps[:2]
	}
	cfg := engineMatrixConfig()
	params := workloads.Params{Scale: 0.05, Seed: 3}

	spanSession := func(domains int) *Session {
		// Enough pool slots that every run gets its domains even on a
		// single-CPU host (NewSession sizes to runtime.NumCPU).
		return NewSession(cfg, params).SetWorkers(domains).SMParallel(domains)
	}
	ref := oracleSession(cfg, params)
	variants := []struct {
		name    string
		session *Session
	}{
		{"span-1", spanSession(1)},
		{"span-2", spanSession(2)},
		{"span-N", spanSession(cfg.NumSMs)},
	}

	var keys []RunKey
	for _, sys := range matrixSystems {
		keys = append(keys, matrix(apps, sys.sc)...)
	}
	if err := ref.Prewarm(keys); err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if err := v.session.Prewarm(keys); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}

	for _, sys := range matrixSystems {
		for _, app := range apps {
			app, sys := app, sys
			t.Run(sys.name+"/"+app, func(t *testing.T) {
				rr, err := ref.Run(app, sys.sc)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					vr, err := v.session.Run(app, sys.sc)
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					compareResults(t, v.name, vr, rr)
				}
			})
		}
	}
}

// compareResults asserts the engine variant's result is byte-identical
// to the reference.
func compareResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Launches != want.Launches {
		t.Errorf("%s: launches %d, reference %d", name, got.Launches, want.Launches)
	}
	if !reflect.DeepEqual(got.Spans, want.Spans) {
		t.Errorf("%s: launch spans diverge:\ngot       %+v\nreference %+v", name, got.Spans, want.Spans)
	}
	ga, wa := got.Agg, want.Agg
	// Compare the scalar aggregate first for a readable diff, then
	// every warp record (the sensitive part: stall accounting must land
	// each cycle in the same bucket the reference chose).
	gw, ww := ga.Warps, wa.Warps
	ga.Warps, wa.Warps = nil, nil
	if !reflect.DeepEqual(ga, wa) {
		t.Errorf("%s: aggregate counters diverge:\ngot       %+v\nreference %+v", name, ga, wa)
	}
	if len(gw) != len(ww) {
		t.Fatalf("%s: warp record count %d, reference %d", name, len(gw), len(ww))
	}
	for i := range gw {
		if gw[i] != ww[i] {
			t.Errorf("%s: warp %d diverges:\ngot       %+v\nreference %+v", name, gw[i].GID, gw[i], ww[i])
		}
	}
	if !reflect.DeepEqual(got.WarpL1Accesses, want.WarpL1Accesses) {
		t.Errorf("%s: per-warp L1 access tallies diverge", name)
	}
	if !reflect.DeepEqual(got.WarpL1Hits, want.WarpL1Hits) {
		t.Errorf("%s: per-warp L1 hit tallies diverge", name)
	}
}
