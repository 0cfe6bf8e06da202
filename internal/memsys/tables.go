package memsys

import (
	"cmp"
	"slices"

	"cawa/internal/state"
)

// The L1D's two lookup tables, both open-addressed with linear probing
// over a power-of-two array kept at most half full, and a Fibonacci
// hash of the key: a lookup is a multiply, a shift and a probe or two,
// with no call into the map runtime. Neither table's layout is state:
// the archive walks each in ascending key order, the order state.Map
// gave the Go maps they replace, so the bytes did not move.

// fib is 2^64 divided by the golden ratio: multiplying by it spreads
// keys that differ in their low bits (line addresses are multiples of
// the line size) across the high bits the tables index by.
const fib = 0x9E3779B97F4A7C15

// tableBits returns the index width of a table that holds n keys at most
// half full.
func tableBits(n int) uint {
	b := uint(1)
	for 1<<b < 2*n {
		b++
	}
	return b
}

// mshrTable maps the line address of each in-flight miss to its MSHR
// entry. Its size is fixed by the MSHR count, which bounds its keys.
type mshrTable struct {
	lines []int64
	ents  []*mshrEntry // nil: the position is empty
	shift uint
	n     int
}

func newMSHRTable(mshrs int) mshrTable {
	b := tableBits(mshrs)
	return mshrTable{lines: make([]int64, 1<<b), ents: make([]*mshrEntry, 1<<b), shift: 64 - b}
}

func (t *mshrTable) home(line int64) int { return int(uint64(line) * fib >> t.shift) }

// get returns line's entry, nil if it has none.
func (t *mshrTable) get(line int64) *mshrEntry {
	mask := len(t.ents) - 1
	for i := t.home(line); t.ents[i] != nil; i = (i + 1) & mask {
		if t.lines[i] == line {
			return t.ents[i]
		}
	}
	return nil
}

// put adds an entry for line, which has none; the table must have room.
func (t *mshrTable) put(line int64, e *mshrEntry) {
	mask := len(t.ents) - 1
	i := t.home(line)
	for t.ents[i] != nil {
		i = (i + 1) & mask
	}
	t.lines[i], t.ents[i] = line, e
	t.n++
}

// take removes and returns line's entry, nil if it has none. The keys
// after it in its probe run shift back over the gap (Knuth's algorithm
// R), so no tombstones accumulate.
func (t *mshrTable) take(line int64) *mshrEntry {
	mask := len(t.ents) - 1
	i := t.home(line)
	for t.ents[i] != nil && t.lines[i] != line {
		i = (i + 1) & mask
	}
	e := t.ents[i]
	if e == nil {
		return nil
	}
	for j := i; ; {
		j = (j + 1) & mask
		if t.ents[j] == nil {
			break
		}
		// The key at j stays if its home lies cyclically in (i, j].
		k, stays := t.home(t.lines[j]), false
		if i <= j {
			stays = i < k && k <= j
		} else {
			stays = i < k || k <= j
		}
		if stays {
			continue
		}
		t.lines[i], t.ents[i] = t.lines[j], t.ents[j]
		i = j
	}
	t.ents[i] = nil
	t.n--
	return e
}

// archive walks the table as state.Map walked map[int64]*mshrEntry: the
// count, then each line and entry in ascending line order.
func (t *mshrTable) archive(a *state.Archive) {
	if a.Loading() {
		clear(t.ents)
		t.n = 0
		n := a.Len(0)
		if n > len(t.ents)/2 {
			a.Failf("memsys: %d MSHR entries, the L1D holds %d", n, len(t.ents)/2)
			return
		}
		for k := 0; k < n && a.Err() == nil; k++ {
			var line int64
			state.Int(a, &line)
			e := &mshrEntry{}
			archiveEntry(a, e)
			if t.get(line) != nil {
				a.Failf("memsys: MSHR line %#x listed twice", line)
				return
			}
			t.put(line, e)
		}
		return
	}
	lines := make([]int64, 0, t.n)
	for i, e := range t.ents {
		if e != nil {
			lines = append(lines, t.lines[i])
		}
	}
	slices.Sort(lines)
	a.Len(len(lines))
	for _, line := range lines {
		state.Int(a, &line)
		archiveEntry(a, t.get(line))
	}
}

func archiveEntry(a *state.Archive, e *mshrEntry) {
	e.req.Archive(a)
	state.Slice(a, &e.tokens, state.IntElem[int64])
}

// WarpL1 is one warp's L1D access and hit counts (Figure 14).
type WarpL1 struct {
	GID            int32
	Accesses, Hits uint64
}

// warpCount is a warpTable position.
type warpCount struct {
	gid            int32
	used           bool
	accesses, hits uint64
}

// warpTable holds the per-warp counts of one L1D, keyed by global warp
// id. It doubles when it would pass half full.
type warpTable struct {
	slots []warpCount
	shift uint
	n     int
}

func (t *warpTable) home(gid int32) int { return int(uint64(uint32(gid)) * fib >> t.shift) }

// at returns gid's counts, adding zero counts if it has none.
func (t *warpTable) at(gid int32) *warpCount {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(t.n + 1)
	}
	mask := len(t.slots) - 1
	for i := t.home(gid); ; i = (i + 1) & mask {
		c := &t.slots[i]
		if !c.used {
			*c = warpCount{gid: gid, used: true}
			t.n++
			return c
		}
		if c.gid == gid {
			return c
		}
	}
}

// resize rebuilds the table with room for n keys.
func (t *warpTable) resize(n int) {
	old := t.slots
	b := max(tableBits(n), 6)
	t.slots, t.shift, t.n = make([]warpCount, 1<<b), 64-b, 0
	for _, c := range old {
		if c.used {
			*t.at(c.gid) = c
		}
	}
}

// sorted returns the counted warps in ascending id order.
func (t *warpTable) sorted() []WarpL1 {
	out := make([]WarpL1, 0, t.n)
	for _, c := range t.slots {
		if c.used {
			out = append(out, WarpL1{GID: c.gid, Accesses: c.accesses, Hits: c.hits})
		}
	}
	slices.SortFunc(out, func(x, y WarpL1) int { return cmp.Compare(x.GID, y.GID) })
	return out
}

// archive walks the table as the two maps it replaces, WarpAccesses and
// then WarpHits (map[int32]uint64), were walked: for each, the count of
// warps with a nonzero count, then each id and count in ascending id
// order. Counts only grow from zero, so neither map held a zero.
func (t *warpTable) archive(a *state.Archive) {
	if a.Loading() {
		t.slots, t.n = nil, 0
		for _, hits := range []bool{false, true} {
			n := a.Len(0)
			if n > 0 {
				t.resize(t.n + n)
			}
			for k := 0; k < n && a.Err() == nil; k++ {
				var gid int32
				var v uint64
				state.Int(a, &gid)
				state.Int(a, &v)
				if c := t.at(gid); hits {
					c.hits = v
				} else {
					c.accesses = v
				}
			}
		}
		return
	}
	all := t.sorted()
	for _, hits := range []bool{false, true} {
		n := 0
		for _, c := range all {
			if c.count(hits) != 0 {
				n++
			}
		}
		a.Len(n)
		for _, c := range all {
			if v := c.count(hits); v != 0 {
				state.Int(a, &c.GID)
				state.Int(a, &v)
			}
		}
	}
}

func (c WarpL1) count(hits bool) uint64 {
	if hits {
		return c.Hits
	}
	return c.Accesses
}
