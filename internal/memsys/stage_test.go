package memsys

import (
	"reflect"
	"testing"

	"cawa/internal/cache"
	"cawa/internal/config"
)

// fillTrace records every delivered L1 fill as (owning L1 index, line
// address, delivery cycle) — the externally visible outcome whose
// ordering and timing the staged commit must reproduce exactly.
type fillTrace struct {
	l1   int
	line int64
	time int64
}

// stageHarness is one memory system with two L1Ds standing in for two
// SM domains, plus the per-cycle observation trail the equivalence
// test compares.
type stageHarness struct {
	sys   *System
	l1s   [2]*L1D
	now   int64
	fills []fillTrace
	// nexts and delivered sample NextEventTime and FillsDelivered after
	// every cycle; they must be bit-identical between serial and staged
	// schedules.
	nexts     []int64
	delivered []uint64
}

func newStageHarness(cfg config.Config) *stageHarness {
	h := &stageHarness{sys: New(cfg)}
	for i := range h.l1s {
		i := i
		h.l1s[i] = h.sys.NewL1D(cache.LRU{}, func(line int64, tokens []int64) {
			h.fills = append(h.fills, fillTrace{l1: i, line: line, time: h.now})
		})
	}
	return h
}

func (h *stageHarness) cycle() {
	h.now++
	h.sys.Cycle(h.now)
	h.nexts = append(h.nexts, h.sys.NextEventTime())
	h.delivered = append(h.delivered, h.sys.FillsDelivered)
}

// TestStagedCommitEquivalence is the determinism core of the parallel
// engine, isolated: sequence numbers tie-break same-cycle events in the
// event heap, and same-cycle ties decide L2 bank and DRAM channel
// contention, so every downstream latency depends on the order accesses
// enter the heap. The test issues the same per-cycle loads on two
// systems — one accessing directly in SM-id order (the serial engine),
// one staging per-SM buffers filled in REVERSE SM order (a worst-case
// parallel interleaving) and committing them in SM-id order at the
// barrier — and requires identical fill traces, NextEventTime samples
// and FillsDelivered counts, cycle by cycle. All addresses map to one
// L2 bank and one DRAM channel, so any seq divergence shifts real
// latencies rather than hiding in idle ports.
func TestStagedCommitEquivalence(t *testing.T) {
	cfg := config.Small()
	line := int64(cfg.L2.LineBytes)
	// Stride line*banks*channels keeps every access on bank 0/channel 0.
	stride := line * int64(cfg.L2Banks) * int64(cfg.DRAMChannels)

	serial := newStageHarness(cfg)
	staged := newStageHarness(cfg)
	bufs := [2]*StageBuffer{{}, {}}
	for i, l1 := range staged.l1s {
		l1.SetStaging(bufs[i])
	}

	// Each SM issues two loads per cycle for eight cycles; the two SMs'
	// lines are distinct (no cross-SM merging masks ordering effects).
	const cycles, perSM = 8, 2
	addr := func(sm, c, k int) int64 {
		return stride * int64(1+sm*100+c*perSM+k)
	}
	token := int64(0)
	for c := 0; c < cycles; c++ {
		// Serial engine: SM 0's accesses of the cycle, then SM 1's.
		for smID := 0; smID < 2; smID++ {
			for k := 0; k < perSM; k++ {
				req := cache.Request{Addr: addr(smID, c, k), Warp: smID*8 + k}
				if out := serial.l1s[smID].AccessLoad(req, token, serial.now); out != Miss {
					t.Fatalf("serial SM%d cycle %d: outcome %v, want miss", smID, c, out)
				}
				token++
			}
		}
		// Parallel epoch: domains run in any order (here deliberately
		// reversed), staging privately...
		stagedToken := token - perSM*2
		for smID := 1; smID >= 0; smID-- {
			tok := stagedToken + int64(smID*perSM)
			for k := 0; k < perSM; k++ {
				req := cache.Request{Addr: addr(smID, c, k), Warp: smID*8 + k}
				if out := staged.l1s[smID].AccessLoad(req, tok, staged.now); out != Miss {
					t.Fatalf("staged SM%d cycle %d: outcome %v, want miss", smID, c, out)
				}
				tok++
			}
		}
		// ...and the barrier commits in SM-id order.
		for i := range bufs {
			staged.sys.CommitThrough(bufs[i], staged.now)
			if bufs[i].Len() != 0 {
				t.Fatalf("buffer %d not drained by CommitThrough: %d pending", i, bufs[i].Len())
			}
		}
		serial.cycle()
		staged.cycle()
	}

	// Drain both systems to the last fill.
	for i := 0; i < 10000 && (!serial.sys.Drained() || !staged.sys.Drained()); i++ {
		serial.cycle()
		staged.cycle()
	}
	if !serial.sys.Drained() || !staged.sys.Drained() {
		t.Fatal("memory systems did not drain")
	}

	if len(serial.fills) == 0 {
		t.Fatal("no fills delivered; the test exercised nothing")
	}
	if !reflect.DeepEqual(staged.fills, serial.fills) {
		t.Errorf("fill traces diverge:\nstaged %v\nserial %v", staged.fills, serial.fills)
	}
	if !reflect.DeepEqual(staged.nexts, serial.nexts) {
		t.Errorf("NextEventTime samples diverge:\nstaged %v\nserial %v", staged.nexts, serial.nexts)
	}
	if !reflect.DeepEqual(staged.delivered, serial.delivered) {
		t.Errorf("FillsDelivered samples diverge:\nstaged %v\nserial %v", staged.delivered, serial.delivered)
	}
}

// TestStagingInstallUninstall: SetStaging(nil) must restore direct
// scheduling, and a staged access must not touch the shared event heap
// before CommitThrough.
func TestStagingInstallUninstall(t *testing.T) {
	cfg := config.Small()
	sys := New(cfg)
	l1 := sys.NewL1D(cache.LRU{}, nil)
	buf := &StageBuffer{}

	l1.SetStaging(buf)
	if out := l1.AccessLoad(cache.Request{Addr: 0}, 0, 1); out != Miss {
		t.Fatalf("outcome %v, want miss", out)
	}
	if buf.Len() != 1 {
		t.Fatalf("staged %d accesses, want 1", buf.Len())
	}
	if sys.NextEventTime() != -1 {
		t.Fatal("staged access leaked into the event heap before CommitThrough")
	}
	sys.CommitThrough(buf, 0)
	if buf.Len() != 1 || sys.NextEventTime() != -1 {
		t.Fatal("CommitThrough moved an access staged at a later cycle")
	}
	sys.CommitThrough(buf, 1)
	if buf.Len() != 0 || sys.NextEventTime() < 0 {
		t.Fatal("CommitThrough did not move the access into the event heap")
	}

	l1.SetStaging(nil)
	heapBefore := sys.NextEventTime()
	if out := l1.AccessLoad(cache.Request{Addr: int64(cfg.L2.LineBytes) * 7}, 1, 1); out != Miss {
		t.Fatalf("outcome %v, want miss", out)
	}
	if buf.Len() != 0 {
		t.Fatal("uninstalled buffer still captured an access")
	}
	if sys.NextEventTime() != heapBefore {
		// Same icnt latency, later issue cycle would change the head;
		// issued at the same cycle the head must be unchanged and the
		// heap one event longer — cheapest proxy: still non-empty.
		t.Log("event-heap head moved (same-cycle schedule); acceptable")
	}
	if sys.Drained() {
		t.Fatal("direct access did not schedule")
	}
}
