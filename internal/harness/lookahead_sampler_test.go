package harness

import (
	"encoding/json"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/obs"
	"cawa/internal/workloads"
)

// TestLookaheadSamplerSeriesBytes proves the observability cadence
// survives multi-cycle spans: a cadenced obs.Sampler wired through
// PerCycle/PerCycleWake must produce sampled series byte-identical to
// the ticked oracle's on one domain and on one per SM, because the
// horizon planner ends every span at the sampler's next wake cycle at
// the latest and an SM that slept through the sampled cycle still shows
// the state a real tick would have left. A missing clamp would shift or
// drop samples, not just reorder them, so comparing the marshaled
// series bytes is the sharpest check available.
func TestLookaheadSamplerSeriesBytes(t *testing.T) {
	cfg := config.Small()
	cfg.NumSMs = 4
	params := workloads.Params{Scale: 0.05, Seed: 3}

	sample := func(oracle bool, domains int) []byte {
		t.Helper()
		s := obs.NewSampler(nil, 50)
		opt := RunOptions{
			Workload:     "bfs",
			Params:       params,
			System:       core.Baseline(),
			Config:       cfg,
			PerCycle:     s.OnCycle,
			PerCycleWake: s.NextWake,
			SMWorkers:    domains,
			tickedOracle: oracle,
		}
		if _, err := Run(opt); err != nil {
			t.Fatal(err)
		}
		series := s.Series()
		if len(series) == 0 {
			t.Fatal("sampler bound no series")
		}
		total := 0
		for _, sr := range series {
			total += len(sr.Samples)
		}
		if total == 0 {
			t.Fatal("sampler took no samples")
		}
		b, err := json.Marshal(series)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	ref := sample(true, 1)
	if inline := sample(false, 1); string(ref) != string(inline) {
		t.Fatal("sampled series diverge between the ticked oracle and the span engine on one domain")
	}
	if par := sample(false, cfg.NumSMs); string(ref) != string(par) {
		t.Fatal("sampled series diverge between the ticked oracle and the span engine on one domain per SM")
	}
}
