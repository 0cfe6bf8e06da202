package simt

import (
	"bytes"
	"testing"

	"cawa/internal/isa"
	"cawa/internal/state"
)

func saveWarp(w *Warp) []byte {
	a := state.NewSaver(0)
	w.Archive(a, 0)
	return a.Bytes()
}

// TestArchivePadsCompactFile: a warp whose file holds only its kernel's
// rows archives the bytes of a full-width warp with the same registers,
// restores into the compact file, and a nonzero word above the rows
// fails the load.
func TestArchivePadsCompactFile(t *testing.T) {
	const rows = 12
	compact, full := &Warp{}, NewWarp(5, 1, 2, 20, 32, 9)
	compact.Reset(5, 1, 2, 20, 32, 9, rows)
	for r := isa.Reg(0); r < rows; r++ {
		for lane := 0; lane < 32; lane++ {
			v := int64(r)*100 + int64(lane)
			compact.SetReg(lane, r, v)
			full.SetReg(lane, r, v)
		}
	}
	b := saveWarp(compact)
	if !bytes.Equal(b, saveWarp(full)) {
		t.Fatal("a compact file archives other bytes than the full-width file")
	}
	got := &Warp{}
	load := state.NewLoader(b)
	got.Archive(load, rows)
	if err := load.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got.regs) != rows*32 || !bytes.Equal(saveWarp(got), b) {
		t.Fatalf("restored file has %d words, want %d, or saves other bytes", len(got.regs), rows*32)
	}

	full.SetReg(3, rows, 7) // the first row above the kernel's
	load = state.NewLoader(saveWarp(full))
	(&Warp{}).Archive(load, rows)
	if load.Err() == nil {
		t.Fatal("a nonzero register above the kernel's rows loaded")
	}
}

// TestResetClearsRecycledWarp: a warp re-initialised in place is
// NewWarp's fresh warp, whatever its previous occupant left behind.
func TestResetClearsRecycledWarp(t *testing.T) {
	w := NewWarp(1, 0, 0, 32, 32, 4)
	w.SetReg(5, 3, 99)
	w.stack = append(w.stack, StackEntry{PC: 2, RPC: 3, Mask: 1})
	w.AtBarrier = true
	w.exitLanes(1)
	w.Reset(7, 2, 1, 16, 32, 6, isa.NumRegs)
	if fresh := NewWarp(7, 2, 1, 16, 32, 6); !bytes.Equal(saveWarp(w), saveWarp(fresh)) {
		t.Fatal("Reset left state of the previous occupant")
	}
}
