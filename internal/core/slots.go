package core

import "slices"

// slotTable records, per SM warp slot, the resident warp, its block and
// its current criticality, and per resident block the block's occupied
// slots. It is the one place a warp is ranked among its block peers:
// CPL and Oracle differ only in where a criticality comes from, and
// both embed it for Criticality, IsCritical, Rank, GID and
// OnWarpFinished. Slots grow on demand to the highest one occupied, and
// a retired block's peer list serves the next block, so arrivals on a
// warm SM allocate nothing.
type slotTable struct {
	slots  []slotEntry
	blocks []peerSet // resident blocks; a set with no slots is free
}

// slotEntry is one slot's occupant.
type slotEntry struct {
	live  bool
	gid   int
	block int
	crit  float64
	set   int // the block's index in blocks
}

// peerSet lists one resident block's occupied slots.
type peerSet struct {
	block int
	slots []int
}

// live reports whether slot holds a warp.
func (t *slotTable) live(slot int) bool {
	return slot >= 0 && slot < len(t.slots) && t.slots[slot].live
}

// arrive records warp gid of block in slot with criticality crit.
func (t *slotTable) arrive(slot, gid, block int, crit float64) {
	t.OnWarpFinished(slot)
	for slot >= len(t.slots) {
		t.slots = append(t.slots, slotEntry{})
	}
	set := t.setOf(block)
	t.blocks[set].slots = append(t.blocks[set].slots, slot)
	t.slots[slot] = slotEntry{live: true, gid: gid, block: block, crit: crit, set: set}
}

// setOf returns block's peer set, claiming a free one (or a new one)
// when the block has no resident warp yet.
func (t *slotTable) setOf(block int) int {
	free := -1
	for i := range t.blocks {
		switch p := &t.blocks[i]; {
		case len(p.slots) > 0 && p.block == block:
			return i
		case len(p.slots) == 0 && free < 0:
			free = i
		}
	}
	if free < 0 {
		free = len(t.blocks)
		t.blocks = append(t.blocks, peerSet{})
	}
	t.blocks[free].block = block
	return free
}

// reset empties the table for a loader, keeping its storage, with n
// free slots.
func (t *slotTable) reset(n int) {
	t.slots = slices.Grow(t.slots[:0], n)[:n]
	clear(t.slots)
	for i := range t.blocks {
		t.blocks[i].slots = t.blocks[i].slots[:0]
	}
}

// OnWarpFinished implements sm.CriticalityProvider.
func (t *slotTable) OnWarpFinished(slot int) {
	if !t.live(slot) {
		return
	}
	p := &t.blocks[t.slots[slot].set]
	i := slices.Index(p.slots, slot)
	p.slots = slices.Delete(p.slots, i, i+1)
	t.slots[slot] = slotEntry{}
}

// Criticality implements sm.CriticalityProvider.
func (t *slotTable) Criticality(slot int) float64 {
	if !t.live(slot) {
		return 0
	}
	return t.slots[slot].crit
}

// Rank returns the slot's criticality rank within its block, the number
// of resident peers strictly less critical (0 is the least critical,
// n-1 the most critical of n distinct peers), and n (Figure 12).
func (t *slotTable) Rank(slot int) (rank, peers int) {
	if !t.live(slot) {
		return 0, 0
	}
	mine := t.slots[slot].crit
	set := t.blocks[t.slots[slot].set].slots
	for _, s := range set {
		if t.slots[s].crit < mine {
			rank++
		}
	}
	return rank, len(set)
}

// IsCritical implements sm.CriticalityProvider: a warp is predicted
// critical ("slow", Section 5.2) when it is ranked within the slower
// half of its block, the half the paper's accuracy metric counts as
// critical: its strictly less critical peers number at least half the
// block. A lone warp dominates its block.
func (t *slotTable) IsCritical(slot int) bool {
	below, n := t.Rank(slot)
	return n == 1 || n > 1 && 2*below >= n
}

// GID returns the warp occupying a slot (-1 when free); used by
// sampling harnesses to attribute criticality snapshots.
func (t *slotTable) GID(slot int) int {
	if !t.live(slot) {
		return -1
	}
	return t.slots[slot].gid
}
