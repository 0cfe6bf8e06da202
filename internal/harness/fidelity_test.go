package harness

import (
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/workloads"
)

// TestFig9ReducedGmeanPinned pins the reduced-configuration CAWA
// geometric-mean speedup over the Sens applications so the headline
// fidelity number cannot drift silently. The simulator is
// deterministic, so the value is exactly reproducible; the band only
// absorbs float-ordering differences across platforms.
//
// Context (see the fig9 deviation callout in EXPERIMENTS.md): this
// reproduction's CAWA lands below GTO on the Sens gmean — full scale
// 1.039 vs 1.082, and at this reduced configuration 0.958 vs 0.988 —
// with bfs the main offender (CACP raises its MPKI, fig10). The pin
// covers both values so a change that moves either in *any* direction
// shows up as a conscious decision, not noise.
func TestFig9ReducedGmeanPinned(t *testing.T) {
	const (
		pinCAWA = 0.9579 // measured at Small config, Scale 0.1, Seed 7
		pinGTO  = 0.9876
		band    = 0.005
	)
	s := NewSession(config.Small(), workloads.Params{Scale: 0.1, Seed: 7})
	gto := core.SystemConfig{Scheduler: "gto"}
	if err := s.Prewarm(matrix(s.sensApps(), core.Baseline(), gto, core.CAWA())); err != nil {
		t.Fatal(err)
	}

	cawa, err := gmeanSpeedup(s, core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	gtoG, err := gmeanSpeedup(s, gto)
	if err != nil {
		t.Fatal(err)
	}
	if cawa < pinCAWA-band || cawa > pinCAWA+band {
		t.Errorf("CAWA gmean(sens) = %.4f, pinned at %.4f ± %.3f — if this moved on purpose, update the pin AND the fig9 deviation callout in EXPERIMENTS.md",
			cawa, pinCAWA, band)
	}
	if gtoG < pinGTO-band || gtoG > pinGTO+band {
		t.Errorf("GTO gmean(sens) = %.4f, pinned at %.4f ± %.3f", gtoG, pinGTO, band)
	}
}

// TestFig9SampledScalePinned re-measures the fig9 deviation at 4x the
// reduced pin's input scale, made affordable by sampled simulation
// (2 detailed warmup launches, then every 4th launch on the timing
// model). The hypothesis under test was that the CAWA < GTO and
// bfs < RR directions are artifacts of input scale. The evidence
// splits by absolute footprint: at GTX480 Scale 4 the bfs direction
// closes (1.001 >= RR) and the Sens gap collapses to 0.5 points
// (EXPERIMENTS.md "fig9 at sampled 4x scale"), but that sweep costs
// ~30 minutes; at this affordable Small/0.4 configuration — still far
// below GTX480 footprints in absolute terms — the ordering persists
// (CAWA 0.958 < GTO 0.983, bfs 0.944 < RR 1.000), so per the
// deviation callout the measured values are pinned here and the
// full-scale restoration is guarded by the CI fig9 artifact instead.
// Any change that moves these values must update both pins and the
// callout.
func TestFig9SampledScalePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled 4x-scale pin is too slow for -short")
	}
	const (
		pinCAWA = 0.9577 // measured at Small config, Scale 0.4, Seed 7, sampling 2+4
		pinGTO  = 0.9831
		pinBFS  = 0.9435 // bfs IPC speedup over RR under CAWA
		band    = 0.005
	)
	s := NewSession(config.Small(), workloads.Params{Scale: 0.4, Seed: 7})
	s.SampleWarmup = 2
	s.SampleInterval = 4
	gto := core.SystemConfig{Scheduler: "gto"}
	if err := s.Prewarm(matrix(s.sensApps(), core.Baseline(), gto, core.CAWA())); err != nil {
		t.Fatal(err)
	}

	cawa, err := gmeanSpeedup(s, core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	gtoG, err := gmeanSpeedup(s, gto)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Baseline("bfs")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run("bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	bfs := r.Agg.IPC() / base.Agg.IPC()

	if cawa < pinCAWA-band || cawa > pinCAWA+band {
		t.Errorf("sampled CAWA gmean(sens) = %.4f, pinned at %.4f ± %.3f — if this moved on purpose, update the pin AND the fig9 deviation callout in EXPERIMENTS.md",
			cawa, pinCAWA, band)
	}
	if gtoG < pinGTO-band || gtoG > pinGTO+band {
		t.Errorf("sampled GTO gmean(sens) = %.4f, pinned at %.4f ± %.3f", gtoG, pinGTO, band)
	}
	if bfs < pinBFS-band || bfs > pinBFS+band {
		t.Errorf("sampled bfs speedup under CAWA = %.4f, pinned at %.4f ± %.3f", bfs, pinBFS, band)
	}
}

// gmeanSpeedup is the Sens geometric-mean IPC speedup of sc over the RR
// baseline, read through the grid interpreter that builds fig9 and the
// ablation tables — so the pins above cover it too.
func gmeanSpeedup(s *Session, sc core.SystemConfig) (float64, error) {
	g := ablation("pin", "", "", "design", []gridCol{{sc: sc}})
	vals, err := g.values(s)
	if err != nil {
		return 0, err
	}
	return g.gmeans(s, vals, false)[0], nil
}
