// Package sm is a stub of the real engine layout, just large enough
// for cawalint's default root set to resolve. The deliberate append in
// Cycle is the fixture's one finding.
package sm

// SM is the stub streaming multiprocessor.
type SM struct {
	buf []int
}

// Cycle simulates one cycle; the append is a deliberate hot-path
// allocation the CLI tests assert on.
func (s *SM) Cycle() {
	s.buf = append(s.buf, 1)
}

// handleFill receives completed miss lines (a cycle and domain root).
func (s *SM) handleFill(now int64, tokens []int64) {}
