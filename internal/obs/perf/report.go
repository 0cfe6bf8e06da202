package perf

import (
	"encoding/json"
	"io"
	"sort"
)

// ReportSchemaVersion stamps PerfReport JSON so downstream tooling
// (cawaperf, CI artifacts) can detect shape changes.
//
// Version history:
//  1. Initial shape (PR 7).
//  2. Lookahead engine (PR 9): sim_cycles + barriers_per_kcycle
//     top-level fields; the "lookahead" phase extends the per-sample
//     phase_ns array from 6 to 7 entries.
const ReportSchemaVersion = 2

// PhaseStats is one phase's aggregated histogram in report form.
type PhaseStats struct {
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
	P50NS   int64   `json:"p50_ns"`
	P99NS   int64   `json:"p99_ns"`
	MaxNS   int64   `json:"max_ns"` // upper bound of the highest occupied bucket
	// Buckets maps the exclusive upper bound (ns) of each occupied
	// log2 bucket to its count; empty buckets are omitted.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one occupied histogram bucket: count of observations below
// UpperNS (and at or above the previous bucket's bound).
type Bucket struct {
	UpperNS int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// ShardStats summarizes one execution domain's compute/wait split.
type ShardStats struct {
	Shard       int     `json:"shard"`
	ComputeNS   int64   `json:"compute_ns"`
	WaitNS      int64   `json:"wait_ns"`
	WaitFrac    float64 `json:"wait_frac"` // wait / (compute + wait)
	P99WaitNS   int64   `json:"p99_wait_ns"`
	MeanEpochNS float64 `json:"mean_epoch_compute_ns"`
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

// Sample is one counter-track checkpoint: cumulative per-phase and
// per-shard nanoseconds at AtNS on the run's wall axis.
type Sample struct {
	AtNS    int64            `json:"at_ns"`
	Epoch   int64            `json:"epoch"`
	PhaseNS [NumPhases]int64 `json:"phase_ns"`
	Shards  []ShardSample    `json:"shards,omitempty"`
}

// ShardSample is one shard's cumulative split at a checkpoint.
type ShardSample struct {
	ComputeNS int64 `json:"compute_ns"`
	WaitNS    int64 `json:"wait_ns"`
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
	Samples           []Sample     `json:"samples,omitempty"`
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
		Samples:       p.samples,
	}
	if p.simCycles > 0 {
		r.BarriersPerKcycle = float64(p.epochs) * 1000 / float64(p.simCycles)
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		h := &p.phases[ph]
		if h.Count == 0 {
			continue
		}
		r.Phases = append(r.Phases, phaseStats(ph.String(), h))
	}
	if len(p.shards) > 0 {
		var imb Imbalance
		imb.Shards = len(p.shards)
		var totalCompute, totalWait int64
		imb.MinComputeNS = p.shards[0].totalNS
		for i := range p.shards {
			s := &p.shards[i]
			wall := s.totalNS + s.waitNS
			ss := ShardStats{
				Shard:       i,
				ComputeNS:   s.totalNS,
				WaitNS:      s.waitNS,
				P99WaitNS:   s.wait.QuantileNS(0.99),
				MeanEpochNS: s.compute.MeanNS(),
			}
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

func phaseStats(name string, h *Hist) PhaseStats {
	ps := PhaseStats{
		Phase:   name,
		Count:   h.Count,
		TotalNS: h.SumNS,
		MeanNS:  h.MeanNS(),
		P50NS:   h.QuantileNS(0.50),
		P99NS:   h.QuantileNS(0.99),
	}
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		ps.Buckets = append(ps.Buckets, Bucket{UpperNS: int64(1) << uint(i), Count: c})
		ps.MaxNS = int64(1) << uint(i)
	}
	return ps
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

// traceEvent mirrors the Chrome trace-event JSON shape. perf cannot
// import internal/obs (obs imports gpu which imports perf), so it
// carries its own minimal copy of the schema.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfPID namespaces the profiler's counter tracks away from the
// simulated-GPU tracks obs.WriteChromeTrace emits (gpuPID=1000).
const perfPID = 2000

// WriteChromeTrace renders the report's checkpoint samples as Chrome
// trace-event counter tracks ("ph":"C") — one track per phase plus a
// per-shard compute/wait pair — loadable in Perfetto next to (or
// instead of) the simulated-cycle trace. Counter values are cumulative
// milliseconds so the tracks read as "wall spent so far".
func (r *Report) WriteChromeTrace(w io.Writer) error {
	events := []traceEvent{{
		Name: "process_name", Phase: "M", PID: perfPID,
		Args: map[string]any{"name": "cawa engine profile"},
	}}
	for _, s := range r.Samples {
		ts := float64(s.AtNS) / 1e3
		phaseArgs := map[string]any{}
		for ph := Phase(0); ph < NumPhases; ph++ {
			phaseArgs[ph.String()] = float64(s.PhaseNS[ph]) / 1e6
		}
		events = append(events, traceEvent{
			Name: "phase_ms", Phase: "C", TS: ts, PID: perfPID, TID: 0, Args: phaseArgs,
		})
		for i, sh := range s.Shards {
			events = append(events, traceEvent{
				Name: "shard_ms", Phase: "C", TS: ts, PID: perfPID, TID: i + 1,
				Args: map[string]any{
					"compute": float64(sh.ComputeNS) / 1e6,
					"wait":    float64(sh.WaitNS) / 1e6,
				},
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	doc, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	_, err = w.Write(doc)
	return err
}
