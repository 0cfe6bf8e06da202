// Package obs is the simulator's observability layer on the
// simulated-cycle axis: a registry of named metric probes sampled on a
// cycle cadence, exporters that turn the sampled series and per-warp
// issue events into Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) or CSV/JSON time series, and run manifests that
// make whole harness sessions mechanically comparable. Wall-clock
// service metrics are not here: cawaserve renders its own /metrics
// (internal/serve).
//
// The layer is strictly read-only with respect to the simulation:
// every probe observes counters the pipeline already maintains, so
// enabling it never perturbs simulated timing, and leaving it disabled
// costs nothing (no sampler means no gpu.PerCycle hook).
package obs

import (
	"fmt"
	"sort"
)

// Kind says how a metric's probe values become samples.
type Kind uint8

const (
	// Gauge samples the probe value as-is (e.g. MSHR occupancy).
	Gauge Kind = iota
	// Rate samples the probe's delta per cycle since the previous
	// sample, turning cumulative counters into rates (instructions
	// become IPC).
	Rate
	// Ratio samples delta(num)/delta(den) over the sampling interval
	// (hits over accesses become a hit rate). Intervals where den does
	// not move sample as zero.
	Ratio
)

// GPUScope marks a metric as device-wide rather than per-SM.
const GPUScope = -1

// Metric is one registered probe.
type Metric struct {
	// Name identifies the series ("ipc", "active_warps", ...).
	Name string
	// SM is the owning streaming multiprocessor, or GPUScope.
	SM   int
	Kind Kind

	probe    func() float64 // Gauge and Rate
	num, den func() float64 // Ratio
}

// Label renders the canonical series name: "sm3/ipc" or "gpu/ipc".
func (m *Metric) Label() string {
	if m.SM == GPUScope {
		return "gpu/" + m.Name
	}
	return fmt.Sprintf("sm%d/%s", m.SM, m.Name)
}

// Registry holds the metrics a Sampler polls. Register everything
// before the first sample; registration is not safe during sampling.
type Registry struct {
	metrics  []Metric
	prepares []func()
}

// Gauge registers an instantaneous probe.
func (r *Registry) Gauge(name string, smID int, probe func() float64) {
	r.metrics = append(r.metrics, Metric{Name: name, SM: smID, Kind: Gauge, probe: probe})
}

// Rate registers a cumulative counter sampled as delta per cycle.
func (r *Registry) Rate(name string, smID int, probe func() float64) {
	r.metrics = append(r.metrics, Metric{Name: name, SM: smID, Kind: Rate, probe: probe})
}

// Ratio registers a pair of cumulative counters sampled as
// delta(num)/delta(den) per interval.
func (r *Registry) Ratio(name string, smID int, num, den func() float64) {
	r.metrics = append(r.metrics, Metric{Name: name, SM: smID, Kind: Ratio, num: num, den: den})
}

// Prepare registers a hook run once per sampling instant before any
// probe fires. Probes that share an expensive snapshot (one scan of
// the SM's warp slots feeding several gauges) refresh it here.
func (r *Registry) Prepare(fn func()) {
	r.prepares = append(r.prepares, fn)
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Names returns the canonical series labels, sorted.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i := range r.metrics {
		out[i] = r.metrics[i].Label()
	}
	sort.Strings(out)
	return out
}
