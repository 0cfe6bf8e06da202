package core

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"cawa/internal/config"
	"cawa/internal/sm"
	"cawa/internal/state"
)

// peerProvider is what the slot table answers for CPL and Oracle, plus
// the walk a checkpoint takes.
type peerProvider interface {
	sm.CriticalityProvider
	Rank(slot int) (rank, peers int)
	GID(slot int) int
	Archive(a *state.Archive)
}

// FuzzCriticalityPeers decodes bytes into a stream of warp arrivals
// (slot, block), issues (slot, stall cycles, branch shape) and finishes,
// runs it on a CPL and on an Oracle, saves and reloads the provider at
// a point the input picks, and after every operation checks each
// slot's Criticality, GID, Rank and IsCritical against a from-scratch
// scan of the live slots the test tracks itself.
func FuzzCriticalityPeers(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 2, 0, 1, 1, 5, 3, 1, 1, 9, 0, 1, 40, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 1, 0, 3, 1, 0, 0, 1, 30, 7, 1, 2, 60, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, oracle := range []bool{false, true} {
			runPeerStream(t, data, oracle)
		}
	})
}

const (
	fuzzSlots  = 12
	fuzzBlocks = 3
)

// liveWarp is the test's own record of a slot's occupant.
type liveWarp struct{ gid, block int }

func runPeerStream(t *testing.T, data []byte, oracle bool) {
	values := map[int]float64{}
	for gid := 0; gid < 256; gid++ {
		values[gid] = float64(gid * 7 % 5) // ties among peers
	}
	fresh := func() peerProvider {
		if oracle {
			return NewOracle(values)
		}
		return NewCPL()
	}
	p := fresh()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	saveAt := next()
	live := map[int]liveWarp{}
	gid, cycle := 0, int64(0)
	for op := 0; len(data) > 0; op++ {
		if op == saveAt {
			p = reload(t, p, fresh())
		}
		switch slot := next() % fuzzSlots; next() % 3 {
		case 0:
			if _, ok := live[slot]; ok {
				continue
			}
			w := liveWarp{gid % 256, next() % fuzzBlocks}
			gid++
			p.OnWarpArrived(slot, mkWarp(w.gid, w.block, 0))
			live[slot] = w
		case 1:
			stall := int64(next())
			cycle += stall + 1
			st := computeStep(int32(next()))
			if shape := next(); shape%4 != 0 {
				st = branchStep(st.PC, int32(next()), int32(next()), uint64(shape%4-1), shape%4 == 3)
			}
			p.OnIssue(slot, st, stall, cycle)
		default:
			p.OnWarpFinished(slot)
			delete(live, slot)
		}
		checkPeers(t, p, live, values, oracle)
	}
	p = reload(t, p, fresh())
	checkPeers(t, p, live, values, oracle)
}

// reload saves p, loads the bytes into into, and checks that the loaded
// provider saves the same bytes.
func reload(t *testing.T, p, into peerProvider) peerProvider {
	t.Helper()
	save := state.NewSaver(0)
	p.Archive(save)
	load := state.NewLoader(save.Bytes())
	into.Archive(load)
	if err := load.Err(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	again := state.NewSaver(0)
	into.Archive(again)
	if !bytes.Equal(again.Bytes(), save.Bytes()) {
		t.Fatalf("reloaded provider saves other bytes: %s", state.Diff(save, again))
	}
	return into
}

// checkPeers compares every slot's answers with a scan of live.
func checkPeers(t *testing.T, p peerProvider, live map[int]liveWarp, values map[int]float64, oracle bool) {
	t.Helper()
	crit := func(slot int) float64 {
		if oracle {
			return values[live[slot].gid]
		}
		c := p.(*CPL)
		return c.warps[slot].criticality()
	}
	for slot := -1; slot <= fuzzSlots; slot++ {
		w, ok := live[slot]
		if !ok {
			if p.GID(slot) != -1 || p.Criticality(slot) != 0 || p.IsCritical(slot) {
				t.Fatalf("free slot %d: gid %d, criticality %v, critical %v",
					slot, p.GID(slot), p.Criticality(slot), p.IsCritical(slot))
			}
			if r, n := p.Rank(slot); r != 0 || n != 0 {
				t.Fatalf("free slot %d ranks %d of %d", slot, r, n)
			}
			continue
		}
		mine := crit(slot)
		if got := p.Criticality(slot); math.Float64bits(got) != math.Float64bits(mine) {
			t.Fatalf("slot %d: criticality %v, want %v", slot, got, mine)
		}
		if got := p.GID(slot); got != w.gid {
			t.Fatalf("slot %d: gid %d, want %d", slot, got, w.gid)
		}
		below, peers := 0, 0
		for s, o := range live {
			if o.block == w.block {
				peers++
				if crit(s) < mine {
					below++
				}
			}
		}
		if r, n := p.Rank(slot); r != below || n != peers {
			t.Fatalf("slot %d: rank %d of %d, want %d of %d", slot, r, n, below, peers)
		}
		// Critical: ranked in the slower half, at or above the median.
		if want := below >= (peers+1)/2 || peers == 1; p.IsCritical(slot) != want {
			t.Fatalf("slot %d: critical %v, want %v (%d below of %d)", slot, !want, want, below, peers)
		}
	}
}

// TestOracleLoadRejectsSlotsBeyondAnSM: an oracle walk naming a slot no
// SM has (negative, or past the 8 bits a load token holds), or slots
// out of order, fails the load instead of growing the table to it.
func TestOracleLoadRejectsSlotsBeyondAnSM(t *testing.T) {
	walk := func(slots ...int) []byte {
		a := state.NewSaver(0)
		a.Tag("oracle")
		a.Len(len(slots))
		for _, s := range slots {
			state.Int(a, &s)
			gid, block, crit := s, 0, 1.5
			state.Int(a, &gid, &block)
			a.Float64(&crit)
		}
		return a.Bytes()
	}
	for _, c := range []struct {
		slots []int
		ok    bool
	}{
		{[]int{0, 5, config.MaxSlots - 1}, true},
		{[]int{-1}, false},
		{[]int{config.MaxSlots}, false},
		{[]int{3, 1 << 30}, false},
		{[]int{4, 4}, false},
		{[]int{4, 2}, false},
	} {
		o := NewOracle(nil)
		load := state.NewLoader(walk(c.slots...))
		o.Archive(load)
		if err := load.Err(); (err == nil) != c.ok {
			t.Errorf("slots %v: load error %v, want ok=%v", c.slots, err, c.ok)
		} else if err != nil && !strings.Contains(err.Error(), "oracle slot") {
			t.Errorf("slots %v: %v does not name the slot", c.slots, err)
		}
		if c.ok && len(o.slots) != config.MaxSlots {
			t.Errorf("slots %v: table of %d slots, want %d", c.slots, len(o.slots), config.MaxSlots)
		}
	}
	// The CPL walk's slot count is bounded the same way.
	a := state.NewSaver(0)
	a.Tag("cpl")
	now := int64(0)
	state.Int(a, &now)
	a.Len(config.MaxSlots + 1)
	for i := 0; i <= config.MaxSlots; i++ {
		free := false
		a.Bool(&free)
	}
	load := state.NewLoader(a.Bytes())
	NewCPL().Archive(load)
	if load.Err() == nil {
		t.Errorf("a CPL walk of %d slots loaded", config.MaxSlots+1)
	}
}

// TestSlotTableReusesPeerSets: blocks that come and go reuse the peer
// sets of retired blocks, so the table holds at most as many sets as
// blocks were ever resident at once.
func TestSlotTableReusesPeerSets(t *testing.T) {
	var tb slotTable
	for blk := 0; blk < 100; blk++ {
		for w := 0; w < 4; w++ {
			tb.arrive(blk%2*4+w, blk*4+w, blk, float64(w))
		}
		if blk > 0 {
			for w := 0; w < 4; w++ {
				tb.OnWarpFinished((blk-1)%2*4 + w)
			}
		}
	}
	if len(tb.blocks) != 2 {
		t.Fatalf("%d peer sets after 100 blocks two at a time, want 2", len(tb.blocks))
	}
	var gids []int
	for s := range tb.slots {
		if tb.live(s) {
			gids = append(gids, tb.GID(s))
		}
	}
	sort.Ints(gids)
	if len(gids) != 4 || gids[0] != 99*4 {
		t.Fatalf("live warps %v, want block 99's", gids)
	}
}
