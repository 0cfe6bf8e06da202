package sm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cawa/internal/isa"
	"cawa/internal/simt"
)

// distinctLines is the coalescer's contract written the slow way: the
// cache lines of the accesses, each once, in the order of its first lane.
func distinctLines(acc []simt.MemAccess, lineBytes int64) []int64 {
	var lines []int64
	for _, a := range acc {
		if la := a.Addr &^ (lineBytes - 1); !slices.Contains(lines, la) {
			lines = append(lines, la)
		}
	}
	return lines
}

// TestCoalescerMatchesExecutedAccesses pins the order DESIGN.md calls
// load-bearing: the lines coalesce computes before a global access
// issues (loadRefused, from the address row and the active mask) are
// the distinct lines of the Step.Accesses that ExecInto then reports, in
// first-occurrence order, and a store coalesced after it executed
// (issueGlobal) gets the same lines. It runs every address pattern the
// fast paths select on, and random rows, under full, divergent, sparse
// and single-lane masks and a partial last warp, for loads (one whose
// destination overwrites its address row among them) and stores.
func TestCoalescerMatchesExecutedAccesses(t *testing.T) {
	r := newRig(t, nil)
	m := r.sm
	lineBytes := int64(r.cfg.L1D.LineBytes)
	size := r.cfg.WarpSize
	const lines = 64
	base := r.mem.Alloc(lines * int(lineBytes) / 8)
	wordsPerLine := lineBytes / 8

	type pattern struct {
		name string
		addr func(lane int) int64 // byte offset from base
	}
	word := func(f func(lane int) int64) func(int) int64 {
		return func(lane int) int64 { return 8 * f(lane) }
	}
	patterns := []pattern{
		{"uniform", word(func(int) int64 { return 3 })},
		{"unit", word(func(lane int) int64 { return int64(lane) })},
		{"descending", word(func(lane int) int64 { return int64(size - 1 - lane) })},
		{"one-line", word(func(lane int) int64 { return int64(lane*5) % wordsPerLine })},
		{"two-lines", word(func(lane int) int64 { return int64(lane&1)*wordsPerLine + int64(lane>>1)%wordsPerLine })},
		{"line-per-lane", word(func(lane int) int64 { return int64(lane) * wordsPerLine })},
		{"back-and-forth", word(func(lane int) int64 { return int64(lane/4%2)*wordsPerLine + int64(lane) })},
		{"one-lane-away", word(func(lane int) int64 {
			if lane == size/2+1 {
				return 40 * wordsPerLine
			}
			return int64(lane)
		})},
		{"unaligned", func(lane int) int64 { return int64(lane)*12 + 3 }},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		span := int64(1 + rng.Intn(lines-1)) // lines the row may touch
		offs := make([]int64, size)
		for lane := range offs {
			offs[lane] = rng.Int63n(span * lineBytes)
		}
		patterns = append(patterns, pattern{fmt.Sprintf("random%d", i), func(lane int) int64 { return offs[lane] }})
	}

	masks := []struct {
		name  string
		lanes int    // lanes that exist
		mask  uint64 // lanes the branch keeps active
	}{
		{"full", size, ^uint64(0)},
		{"divergent", size, 0x0000_ffff},
		{"sparse", size, 0x8421_a5c3},
		{"single", size, 1 << 5},
		{"partial-warp", size - 5, ^uint64(0)},
	}
	const imm = 24
	ops := []struct {
		name string
		emit func(b *isa.Builder)
	}{
		{"ld", func(b *isa.Builder) { b.Ld(isa.R2, isa.R1, imm) }},
		{"ld-dst=a", func(b *isa.Builder) { b.Ld(isa.R1, isa.R1, imm) }},
		{"st", func(b *isa.Builder) { b.St(isa.R1, imm, isa.R3) }},
	}
	n := 0
	for _, op := range ops {
		b := isa.NewBuilder("coalesce")
		b.MovI(isa.R2, 0).MovI(isa.R3, 7)
		b.CBra(isa.R10, "mem")
		b.Exit()
		b.Label("mem")
		op.emit(b)
		b.Exit()
		prog := b.MustBuild()
		memPC, _ := prog.LabelPC("mem")
		for _, p := range patterns {
			for _, mk := range masks {
				name := op.name + "/" + p.name + "/" + mk.name
				w := simt.NewWarp(0, 0, 0, mk.lanes, size, int32(prog.Len()))
				for lane := 0; lane < size; lane++ {
					w.SetReg(lane, isa.R1, base+p.addr(lane)-imm)
					w.SetReg(lane, isa.R10, int64(mk.mask>>uint(lane)&1))
				}
				ctx := &simt.ExecContext{Mem: r.mem}
				var st simt.Step
				for w.PC() != memPC {
					simt.ExecInto(w, prog, ctx, &st)
				}
				in := prog.At(w.PC())
				m.coalesce(w.Row(in.A), w.ActiveMask(), in.Imm)
				before := slices.Clone(m.lineBuf)
				simt.ExecInto(w, prog, ctx, &st)
				want := distinctLines(st.Accesses, lineBytes)
				if !slices.Equal(before, want) {
					t.Errorf("%s: lines before issue %#x, executed accesses' %#x", name, before, want)
				}
				if !st.IsLoad {
					m.coalesce(w.Row(st.Instr.A), st.Mask, st.Instr.Imm)
					if !slices.Equal(m.lineBuf, want) {
						t.Errorf("%s: store lines after issue %#x, executed accesses' %#x", name, m.lineBuf, want)
					}
				}
				n++
			}
		}
	}
	t.Logf("%d cases", n)
}
