package core

import "cawa/internal/simt"

// Oracle is the criticality provider used by the PACT'14 CAWS baseline:
// warp criticality is known ahead of time (obtained offline from a
// profiling run of the same workload) instead of predicted. It
// implements sm.CriticalityProvider.
type Oracle struct {
	slotTable

	// values maps global warp id to its profiled criticality (the
	// warp's execution time from a baseline run).
	values map[int]float64
}

// NewOracle builds a provider around profiled per-warp execution times.
func NewOracle(values map[int]float64) *Oracle {
	return &Oracle{values: values}
}

// OnWarpArrived implements sm.CriticalityProvider.
func (o *Oracle) OnWarpArrived(slot int, w *simt.Warp) {
	o.arrive(slot, w.GID, w.Block, o.values[w.GID])
}

// OnIssue implements sm.CriticalityProvider (oracle state is static).
func (o *Oracle) OnIssue(int, *simt.Step, int64, int64) {}
