// Package state is the two-way archive the checkpoint layer walks the
// simulator with. A component lists its checkpointed fields once,
//
//	func (c *Component) Archive(a *state.Archive) {
//		a.Tag("component")
//		state.Int(a, &c.hits, &c.misses)
//		state.Slice(a, &c.items, (*item).Archive)
//	}
//
// and that walk writes them (a saver appends to a byte stream) or reads
// them back (a loader consumes one), so capture and restore cannot drift
// apart; it branches on Loading only where restore rebuilds something
// derived. Integers are zigzag varints, bools one byte, floats and bulk
// words eight little-endian bytes, strings and slices a varint length
// then the elements, maps a length then the pairs in ascending key order
// — a deterministic function of the state walked.
//
// The loader faces disk bytes. Its error is sticky: after the first
// failure every read returns zero and every length 0, so walks need no
// error plumbing and their loops end. And a length prefix is never
// trusted beyond the bytes that remain: slices and maps grow as elements
// are actually read.
package state

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Archiver is what a component implements to be checkpointable.
type Archiver interface {
	Archive(a *Archive)
}

// Archive is one walk's byte stream and direction.
type Archive struct {
	buf     []byte // saver: bytes written so far; loader: bytes not yet read
	loading bool
	err     error
	marks   []mark // a saver's section boundaries, for Diff
}

// mark: where a saver's Tag (name) or Part (name, part) begins, or a Part ends.
type mark struct {
	off  int
	name string
	part bool
}

// NewSaver returns an archive that writes (sizeHint presizes its
// buffer), NewLoader one that reads b.
func NewSaver(sizeHint int) *Archive { return &Archive{buf: make([]byte, 0, sizeHint)} }
func NewLoader(b []byte) *Archive    { return &Archive{buf: b, loading: true} }

// Reset readies a for another walk, keeping its buffers: a saver
// empties (b is ignored), a loader reads b.
func (a *Archive) Reset(b []byte) {
	if a.loading {
		a.buf, a.err = b, nil
		return
	}
	a.buf, a.marks, a.err = a.buf[:0], a.marks[:0], nil
}

// Loading reports whether the walk restores (true) or captures, Bytes
// what a saver has written (a loader: what is left), Err the walk's
// first failure.
func (a *Archive) Loading() bool { return a.loading }
func (a *Archive) Bytes() []byte { return a.buf }
func (a *Archive) Err() error    { return a.err }

// Failf records the walk's first failure; a loader then reads zeros.
func (a *Archive) Failf(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
	if a.loading {
		a.buf = nil
	}
}

// take consumes n bytes of a loader's input, nil when they are not there.
func (a *Archive) take(n int) []byte {
	if n > len(a.buf) {
		a.Failf("state: truncated: need %d bytes, %d left", n, len(a.buf))
		return nil
	}
	b := a.buf[:n]
	a.buf = a.buf[n:]
	return b
}

type integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Int archives integers of one type, each as a zigzag varint. A loader
// rejects a value its type cannot hold (a uint8 archived as 300, an
// int above 2^31 where int is 32 bits) instead of truncating it.
func Int[T integer](a *Archive, ps ...*T) {
	for _, p := range ps {
		if !a.loading {
			a.buf = binary.AppendVarint(a.buf, int64(*p))
			continue
		}
		v := a.varint()
		if int64(T(v)) != v {
			a.Failf("state: %d overflows %T", v, *p)
			v = 0
		}
		*p = T(v)
	}
}

// varint consumes one zigzag varint of a loader's input, 0 when it is
// truncated or malformed.
func (a *Archive) varint() int64 {
	v, n := binary.Varint(a.buf)
	if n <= 0 {
		a.Failf("state: truncated or malformed varint (%d bytes left)", len(a.buf))
		return 0
	}
	a.buf = a.buf[n:]
	return v
}

// Bool archives bools, a byte each.
func (a *Archive) Bool(ps ...*bool) {
	for _, p := range ps {
		var v uint8
		if *p {
			v = 1
		}
		Int(a, &v)
		*p = v != 0
	}
}

// Float64 archives one float as its eight IEEE-754 bytes.
func (a *Archive) Float64(p *float64) {
	w := [1]int64{int64(math.Float64bits(*p))}
	a.Words(w[:])
	*p = math.Float64frombits(uint64(w[0]))
}

// Words archives len(s) words in place, eight bytes each, no length
// prefix: the bulk path for memory images and register files.
func (a *Archive) Words(s []int64) {
	if !a.loading {
		n := len(a.buf)
		a.buf = slices.Grow(a.buf, 8*len(s))[:n+8*len(s)]
		for i, v := range s {
			binary.LittleEndian.PutUint64(a.buf[n+8*i:n+8*i+8], uint64(v))
		}
	} else if b := a.take(8 * len(s)); b != nil {
		for i := range s {
			s[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	} else {
		clear(s)
	}
}

// Len archives a length; a loader rejects one larger than the bytes left
// (every element costs at least one). It reads the full 64 bits first,
// so a hostile prefix fails the same way whatever the size of int.
func (a *Archive) Len(n int) int {
	if !a.loading {
		Int(a, &n)
		return n
	}
	v := a.varint()
	if v < 0 || v > int64(len(a.buf)) {
		a.Failf("state: length %d exceeds the %d bytes left", v, len(a.buf))
		return 0
	}
	return int(v)
}

// String archives one string.
func (a *Archive) String(p *string) {
	if n := a.Len(len(*p)); a.loading {
		*p = string(a.take(n))
	} else {
		a.buf = append(a.buf, *p...)
	}
}

// Tag starts a section: a saver writes the name, a loader fails unless
// the same name comes next (a policy of another kind, a walk out of step).
func (a *Archive) Tag(name string) {
	a.mark(name, false)
	if !a.loading {
		a.String(&name)
		return
	}
	// Compared in place: a loader that restores a small part over and
	// over (a sleeping SM's scheduler policy) allocates nothing.
	if got := a.take(a.Len(len(name))); string(got) != name && a.err == nil {
		a.Failf("state: tag %q where %q was expected", got, name)
	}
}

// mark notes a section boundary in a saver's stream.
func (a *Archive) mark(name string, part bool) {
	if !a.loading {
		a.marks = append(a.marks, mark{len(a.buf), name, part})
	}
}

// Part archives a pluggable part as a section of its own, named what.
func (a *Archive) Part(what string, part Archiver) {
	a.mark(what, true)
	part.Archive(a)
	a.mark("", false)
}

// Diff names the first byte at which two savers' streams differ: its
// offset, the Part/Tag path of the section holding it (Tags numbered per
// name, so "sm[3] > scheduler policy: gto[3]" is the fourth SM's policy)
// and each stream's bytes from there; "" if the streams are equal.
func Diff(a, b *Archive) string {
	x, y, i := a.buf, b.buf, 0
	for i < min(len(x), len(y)) && x[i] == y[i] {
		i++
	}
	if len(x) == len(y) && i == len(x) {
		return ""
	}
	type level struct{ prefix, path string } // an open Part: its path, then its latest Tag
	levels, seen, at := []level{{"", "the stream"}}, map[string]int{}, 0
	for _, m := range a.marks {
		if m.off > i {
			break
		}
		top := &levels[len(levels)-1]
		switch at = m.off; {
		case m.part:
			levels = append(levels, level{top.path + " > " + m.name + ": ", top.path + " > " + m.name})
		case m.name == "":
			levels = levels[:len(levels)-1]
		default:
			top.path = fmt.Sprintf("%s%s[%d]", top.prefix, m.name, seen[m.name])
			seen[m.name]++
		}
	}
	return fmt.Sprintf("first difference at byte %d, %d bytes into %s: % x vs % x",
		i, i-at, levels[len(levels)-1].path, x[i:min(len(x), i+8)], y[i:min(len(y), i+8)])
}

// Table archives a table whose size the restoring side fixes (cache
// lines, banks): the length, checked, then each element in place.
func Table[T any](a *Archive, what string, s []T, elem func(*T, *Archive)) {
	if n := a.Len(len(s)); n != len(s) {
		a.Failf("state: %s count mismatch (have %d, checkpoint %d)", what, len(s), n)
		return
	}
	for i := range s {
		elem(&s[i], a)
	}
}

// Slice archives a slice: its length, then each element (a loader appends).
func Slice[T any](a *Archive, s *[]T, elem func(*T, *Archive)) {
	n := a.Len(len(*s))
	if a.loading {
		*s = (*s)[:0]
	}
	for i := 0; i < n && a.err == nil; i++ {
		if a.loading {
			var zero T
			*s = append(*s, zero)
		}
		elem(&(*s)[i], a)
	}
}

// IntElem is Int as an element function for Table, Slice and Map.
func IntElem[T integer](p *T, a *Archive) { Int(a, p) }

// Map archives a map as its length and its pairs in ascending key order,
// whatever the iteration order. A loader builds a new map pair by pair.
func Map[K cmp.Ordered, V any](a *Archive, m *map[K]V, key func(*K, *Archive), val func(*V, *Archive)) {
	keys := make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := a.Len(len(keys))
	if a.loading {
		*m = make(map[K]V)
	}
	for i := 0; i < n && a.err == nil; i++ {
		var k K
		var v V
		if !a.loading {
			k, v = keys[i], (*m)[keys[i]]
		}
		key(&k, a)
		val(&v, a)
		if a.loading {
			(*m)[k] = v
		}
	}
}
