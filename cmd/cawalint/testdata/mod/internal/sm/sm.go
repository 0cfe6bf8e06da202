// Package sm is the CLI tests' one-file module. The map range in Cycle
// is the fixture's one finding.
package sm

// SM is the stub streaming multiprocessor.
type SM struct {
	pending map[int64]int
	n       int
}

// Cycle simulates one cycle; ranging the map is a deliberate map-range
// finding the CLI tests assert on.
func (s *SM) Cycle() {
	for _, v := range s.pending {
		s.n += v
	}
}
