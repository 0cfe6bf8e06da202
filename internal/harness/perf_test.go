package harness

import (
	"testing"

	"cawa/internal/core"
	"cawa/internal/workloads"
)

// TestProfilerEquivalence proves engine self-profiling is purely
// observational at the harness level: a profiled session (one domain —
// "serial" — and one per SM — "parallel") produces results
// byte-identical to an unprofiled reference, while its PerfReport
// carries the phase breakdown — and, for multi-domain runs, the
// per-shard compute/barrier-wait split.
func TestProfilerEquivalence(t *testing.T) {
	cfg := engineMatrixConfig()
	params := workloads.Params{Scale: 0.05, Seed: 3}
	apps := []string{"bfs", "kmeans"}
	sys := core.CAWA()

	newSess := func(parallel, profiled bool) *Session {
		s := NewSession(cfg, params)
		if parallel {
			s.SetWorkers(cfg.NumSMs).SMParallel(cfg.NumSMs)
		}
		if profiled {
			s.EnableProfiling()
		}
		return s
	}

	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			ref := newSess(parallel, false)
			prof := newSess(parallel, true)
			for _, app := range apps {
				rr, err := ref.Run(app, sys)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := prof.Run(app, sys)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, "profiled/"+app, pr, rr)
			}

			r := prof.PerfReport()
			if r == nil {
				t.Fatal("profiled session returned nil PerfReport")
			}
			if r.PhaseTotalNS("domain_compute") <= 0 {
				t.Error("no domain_compute time in session profile")
			}
			if r.PhaseTotalNS("memsys_drain") <= 0 {
				t.Error("no memsys_drain time in session profile")
			}
			if parallel {
				if r.Epochs <= 0 {
					t.Error("parallel session profile recorded no epochs")
				}
				if len(r.Shards) == 0 || r.Imbalance == nil {
					t.Fatalf("parallel session profile missing shard breakdown: %d shards", len(r.Shards))
				}
				if r.Imbalance.BarrierWaitFrac < 0 || r.Imbalance.BarrierWaitFrac >= 1 {
					t.Errorf("BarrierWaitFrac = %v out of range", r.Imbalance.BarrierWaitFrac)
				}
			}
		})
	}
}
