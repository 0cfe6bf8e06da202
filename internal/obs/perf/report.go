package perf

import (
	"encoding/json"
	"io"
	"maps"
)

// ReportSchemaVersion stamps PerfReport JSON so downstream tooling
// (cawaperf, CI artifacts) can detect shape changes.
//
// Version history:
//  1. Initial shape (PR 7).
//  2. Lookahead engine (PR 9): sim_cycles + barriers_per_kcycle
//     top-level fields; the "lookahead" phase extends the per-sample
//     phase_ns array from 6 to 7 entries.
//  3. Totals only: phases drop p50_ns/p99_ns/max_ns/buckets, shards
//     drop p99_wait_ns/mean_epoch_compute_ns, and the samples array
//     (with its Chrome-trace rendering) is gone.
const ReportSchemaVersion = 3

// PhaseStats is one phase's totals in report form.
type PhaseStats struct {
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
}

// ShardStats summarizes one execution domain's compute/wait split.
type ShardStats struct {
	Shard     int     `json:"shard"`
	ComputeNS int64   `json:"compute_ns"`
	WaitNS    int64   `json:"wait_ns"`
	WaitFrac  float64 `json:"wait_frac"` // wait / (compute + wait)
}

// Imbalance is the run-level shard-imbalance summary of a multi-domain
// run.
type Imbalance struct {
	Shards        int   `json:"shards"`
	MeanComputeNS int64 `json:"mean_compute_ns"`
	MinComputeNS  int64 `json:"min_compute_ns"`
	MaxComputeNS  int64 `json:"max_compute_ns"`
	// Spread is max/mean shard compute — 1.0 is perfectly balanced.
	Spread float64 `json:"spread"`
	// BarrierWaitFrac is total shard wait over total shard wall
	// (compute+wait): the fraction of domain CPU the span barrier
	// burns.
	BarrierWaitFrac float64 `json:"barrier_wait_frac"`
}

// Report is the per-run (or merged per-session) PerfReport artifact.
type Report struct {
	SchemaVersion int   `json:"schema_version"`
	WallNS        int64 `json:"wall_ns"`
	Epochs        int64 `json:"epochs"`
	// SimCycles is the simulated cycles covered by the profile
	// (summed launch spans; see Profiler.AddSimCycles).
	SimCycles int64 `json:"sim_cycles"`
	// BarriersPerKcycle is span barriers per 1000 simulated cycles:
	// near 1000 while blocks wait for dispatch (one-cycle spans), 1000
	// over the mean span length afterwards. 0 on one inline domain (no
	// barrier) or when no cycles were accounted.
	BarriersPerKcycle float64      `json:"barriers_per_kcycle"`
	Phases            []PhaseStats `json:"phases"`
	Shards            []ShardStats `json:"shards,omitempty"`
	Imbalance         *Imbalance   `json:"imbalance,omitempty"`
	// Counts are the engine's work counts by name (Profiler.AddCount):
	// exact, and the same on every host, so two runs' counts diff to the
	// layer whose work changed.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Report snapshots the profiler into its serializable artifact. Phases
// with zero observations are omitted; shard stats and the imbalance
// summary appear only for multi-domain runs (EnsureShards > 0).
func (p *Profiler) Report() *Report {
	r := &Report{
		SchemaVersion: ReportSchemaVersion,
		WallNS:        p.clock() - p.startNS,
		Epochs:        p.epochs,
		SimCycles:     p.simCycles,
	}
	if len(p.counts) > 0 {
		r.Counts = maps.Clone(p.counts)
	}
	if p.simCycles > 0 {
		r.BarriersPerKcycle = float64(p.epochs) * 1000 / float64(p.simCycles)
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		t := p.phases[ph]
		if t.count == 0 {
			continue
		}
		r.Phases = append(r.Phases, PhaseStats{
			Phase:   ph.String(),
			Count:   t.count,
			TotalNS: t.sumNS,
			MeanNS:  float64(t.sumNS) / float64(t.count),
		})
	}
	if len(p.shards) > 0 {
		var imb Imbalance
		imb.Shards = len(p.shards)
		var totalCompute, totalWait int64
		imb.MinComputeNS = p.shards[0].totalNS
		for i := range p.shards {
			s := &p.shards[i]
			wall := s.totalNS + s.waitNS
			ss := ShardStats{Shard: i, ComputeNS: s.totalNS, WaitNS: s.waitNS}
			if wall > 0 {
				ss.WaitFrac = float64(s.waitNS) / float64(wall)
			}
			r.Shards = append(r.Shards, ss)
			totalCompute += s.totalNS
			totalWait += s.waitNS
			if s.totalNS < imb.MinComputeNS {
				imb.MinComputeNS = s.totalNS
			}
			if s.totalNS > imb.MaxComputeNS {
				imb.MaxComputeNS = s.totalNS
			}
		}
		imb.MeanComputeNS = totalCompute / int64(len(p.shards))
		if imb.MeanComputeNS > 0 {
			imb.Spread = float64(imb.MaxComputeNS) / float64(imb.MeanComputeNS)
		}
		if totalCompute+totalWait > 0 {
			imb.BarrierWaitFrac = float64(totalWait) / float64(totalCompute+totalWait)
		}
		r.Imbalance = &imb
	}
	return r
}

// BarrierWaitFrac is the report's headline imbalance number, or 0 for
// serial runs (no shards).
func (r *Report) BarrierWaitFrac() float64 {
	if r.Imbalance == nil {
		return 0
	}
	return r.Imbalance.BarrierWaitFrac
}

// Spread is the report's max/mean shard-compute ratio, or 0 for serial
// runs.
func (r *Report) Spread() float64 {
	if r.Imbalance == nil {
		return 0
	}
	return r.Imbalance.Spread
}

// PhaseTotalNS returns the total nanoseconds attributed to the named
// phase, or 0 when the phase never fired.
func (r *Report) PhaseTotalNS(name string) int64 {
	for _, ps := range r.Phases {
		if ps.Phase == name {
			return ps.TotalNS
		}
	}
	return 0
}

// WriteJSON writes the indented report artifact.
func (r *Report) WriteJSON(w io.Writer) error {
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	_, err = w.Write(doc)
	return err
}
