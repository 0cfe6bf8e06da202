// Package reuse computes cache-line reuse (stack) distances over L1
// access streams, supporting the paper's characterization figures:
// Figure 3 (reuse distance of critical-warp lines), Figure 8 (per-PC
// reuse behaviour under 16KB vs 256KB caches), and Figure 15
// (zero-reuse critical lines).
//
// Distances are computed with Olken's algorithm: a Fenwick tree over
// access timestamps counts the distinct lines touched since a line's
// previous access, giving O(log n) per access.
package reuse

import "sort"

// Cold marks a first-touch access (infinite reuse distance).
const Cold int64 = -1

// DistanceTracker computes exact LRU stack distances for a stream of
// line identifiers.
type DistanceTracker struct {
	fenwick []int64
	last    map[int64]int
	time    int
}

// NewDistanceTracker returns an empty tracker.
func NewDistanceTracker() *DistanceTracker {
	return &DistanceTracker{
		fenwick: make([]int64, 1024),
		last:    make(map[int64]int),
	}
}

func (t *DistanceTracker) add(i int, v int64) {
	for i++; i <= len(t.fenwick); i += i & (-i) {
		t.fenwick[i-1] += v
	}
}

func (t *DistanceTracker) sum(i int) int64 {
	var s int64
	for i++; i > 0; i -= i & (-i) {
		s += t.fenwick[i-1]
	}
	return s
}

// Record registers an access to line and returns the LRU stack distance
// since its previous access: 0 means an immediate re-reference with no
// distinct intervening lines; Cold means first touch.
func (t *DistanceTracker) Record(line int64) int64 {
	if t.time >= len(t.fenwick) {
		t.grow()
	}
	dist := Cold
	if prev, seen := t.last[line]; seen {
		// Distinct lines touched strictly after prev and before now.
		dist = t.sum(t.time-1) - t.sum(prev)
		t.add(prev, -1)
	}
	t.add(t.time, 1)
	t.last[line] = t.time
	t.time++
	return dist
}

// UniqueLines returns the number of distinct lines seen.
func (t *DistanceTracker) UniqueLines() int { return len(t.last) }

// grow doubles the timestamp capacity, compacting live stamps so the
// tree stays proportional to the stream length.
func (t *DistanceTracker) grow() {
	// Compact: renumber live lines by their stamp order.
	type pair struct {
		line  int64
		stamp int
	}
	live := make([]pair, 0, len(t.last))
	for l, s := range t.last {
		live = append(live, pair{l, s})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].stamp < live[j].stamp })
	size := 2 * (len(live) + 1024)
	t.fenwick = make([]int64, size)
	t.time = 0
	for _, p := range live {
		t.add(t.time, 1)
		t.last[p.line] = t.time
		t.time++
	}
}

// Histogram buckets distances by powers of two: bucket i holds
// distances in [2^(i-1), 2^i) with bucket 0 = {0}; the last bucket
// accumulates everything larger, and Cold counts separately.
type Histogram struct {
	Buckets [22]uint64
	ColdN   uint64
	Total   uint64
}

// Add records one distance.
func (h *Histogram) Add(d int64) {
	h.Total++
	if d == Cold {
		h.ColdN++
		return
	}
	b := 0
	for d > 0 && b < len(h.Buckets)-1 {
		d >>= 1
		b++
	}
	h.Buckets[b]++
}

// Merge adds o's counts to h.
func (h *Histogram) Merge(o *Histogram) {
	for i, v := range o.Buckets {
		h.Buckets[i] += v
	}
	h.ColdN += o.ColdN
	h.Total += o.Total
}

// Reuses returns the number of non-cold accesses.
func (h *Histogram) Reuses() uint64 { return h.Total - h.ColdN }

// FracBeyond returns the fraction of reuses whose distance is >= limit
// — i.e. re-references an LRU cache holding limit lines (per set, or
// fully-associative, depending on how distances were computed) would
// miss. This is the "evicted before re-reference" measure of Figure 3.
func (h *Histogram) FracBeyond(limit int64) float64 {
	reuses := h.Reuses()
	if reuses == 0 {
		return 0
	}
	var beyond uint64
	lo := int64(1)
	for b := 1; b < len(h.Buckets); b++ {
		hi := lo * 2 // bucket b covers [lo, hi)
		switch {
		case lo >= limit:
			beyond += h.Buckets[b]
		case hi > limit:
			// Partial bucket: apportion uniformly.
			frac := float64(hi-limit) / float64(hi-lo)
			beyond += uint64(float64(h.Buckets[b]) * frac)
		}
		lo = hi
	}
	if limit <= 0 {
		beyond = reuses
	}
	return float64(beyond) / float64(reuses)
}
