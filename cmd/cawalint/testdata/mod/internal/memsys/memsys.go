// Package memsys is a stub so the System.Cycle root resolves.
package memsys

// System is the stub shared memory system.
type System struct {
	n int
}

// Cycle processes due events (none, in the stub).
func (s *System) Cycle() { s.n++ }

// PlanSpanFills hands the pending in-span fills to their L1s (none, in
// the stub).
func (s *System) PlanSpanFills(horizon int64) {}
