package memory

import "cawa/internal/state"

// Archive walks the memory image: the bump-allocator break and the word
// array up to its last non-zero word (workloads size their memory with
// a megabyte or two to spare; a loader clears the tail). The restoring
// side rebuilds the workload from the same Params first, so the sizes
// must match: a mismatch means a different workload build.
func (m *Memory) Archive(a *state.Archive) {
	a.Tag("memory")
	state.Int(a, &m.brk)
	size, used := len(m.words), len(m.words)
	for used > 0 && m.words[used-1] == 0 {
		used--
	}
	state.Int(a, &size)
	if used = a.Len(used); size != len(m.words) || used > size {
		a.Failf("memory: size mismatch (have %d words, checkpoint %d of %d)", len(m.words), used, size)
		return
	}
	a.Words(m.words[:used])
	clear(m.words[used:])
}
