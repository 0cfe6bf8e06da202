package workloads

import (
	"fmt"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("needle", true, func(p Params) Workload { return newNeedle(p) })
}

// needle ports Needleman-Wunsch sequence alignment (Rodinia nw): a 2D
// dynamic program processed one anti-diagonal per kernel launch. Early
// and late diagonals have very few cells, so most launches run with one
// or two warps — the warp-parallelism-starved behaviour the paper notes
// makes CPL trivially accurate on needle (Section 5.2, footnote 2).
//
// Paper input: 1024x1024. Default here: 96x96 (191 launches).
type needle struct {
	base
	n       int
	penalty int64
	fA      int64
	refA    int64
	ref     []int64
	diag    int          // next anti-diagonal (2..2n)
	prog    *isa.Program // every diagonal's launch runs it (needleProgram)
}

const needleBlockDim = 64

func newNeedle(p Params) *needle {
	n := p.scaled(96)
	rng := p.rng()
	w := &needle{
		base:    base{name: "needle", sensitive: true, mem: memory.New(int64((n+1)*(n+1)*2)*8 + 1<<21)},
		n:       n,
		penalty: 10,
		diag:    2,
	}
	m := w.mem
	w.fA = m.Alloc((n + 1) * (n + 1))
	w.refA = m.Alloc((n + 1) * (n + 1))
	w.ref = make([]int64, (n+1)*(n+1))
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			w.ref[i*(n+1)+j] = int64(rng.Intn(21) - 10)
		}
	}
	m.WriteWords(w.refA, w.ref)
	// Border initialization: F[i][0] = F[0][i] = -i*penalty.
	for i := 0; i <= n; i++ {
		m.Store(w.fA+int64(i*(n+1))*8, int64(i)*-w.penalty)
		m.Store(w.fA+int64(i)*8, int64(i)*-w.penalty)
	}
	w.prog = needleProgram(n)
	return w
}

// needleProgram computes all interior cells of one anti-diagonal d of
// an n x n problem: cell (i, d-i) for i in [lo, lo+count). Its
// parameters are count, lo, d, the F and reference bases and the
// penalty.
func needleProgram(n int) *isa.Program {
	b := isa.NewBuilder("needle_diag")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 0) // count
	guardRange(b, isa.R0, isa.R1, isa.R2)
	b.Param(isa.R3, 1)            // lo
	b.Add(isa.R4, isa.R0, isa.R3) // i
	b.Param(isa.R5, 2)            // d
	b.Sub(isa.R6, isa.R5, isa.R4) // j
	// k = i*(n+1)+j
	b.MulI(isa.R7, isa.R4, int64(n+1))
	b.Add(isa.R7, isa.R7, isa.R6)
	b.Param(isa.R8, 3) // F base
	// addresses: diag = k-(n+1)-1, up = k-(n+1), left = k-1
	b.MulI(isa.R9, isa.R7, 8)
	b.Add(isa.R9, isa.R9, isa.R8)          // &F[k]
	b.Ld(isa.R10, isa.R9, int64(-(n+2))*8) // F[i-1][j-1]
	b.Ld(isa.R11, isa.R9, int64(-(n+1))*8) // F[i-1][j]
	b.Ld(isa.R12, isa.R9, -8)              // F[i][j-1]
	b.Param(isa.R13, 4)                    // ref base
	b.MulI(isa.R14, isa.R7, 8)
	b.Add(isa.R14, isa.R14, isa.R13)
	b.Ld(isa.R15, isa.R14, 0) // ref[k]
	b.Add(isa.R10, isa.R10, isa.R15)
	b.Param(isa.R16, 5) // penalty
	b.Sub(isa.R11, isa.R11, isa.R16)
	b.Sub(isa.R12, isa.R12, isa.R16)
	b.Max(isa.R10, isa.R10, isa.R11)
	b.Max(isa.R10, isa.R10, isa.R12)
	b.St(isa.R9, 0, isa.R10)
	b.Label("exit")
	b.Exit()
	return b.MustBuild()
}

// Next implements Workload: one launch per anti-diagonal.
func (w *needle) Next() (*simt.Kernel, bool) {
	if w.diag > 2*w.n {
		return nil, false
	}
	d := w.diag
	w.diag++
	lo := 1
	if d-w.n > 1 {
		lo = d - w.n
	}
	hi := d - 1
	if hi > w.n {
		hi = w.n
	}
	count := hi - lo + 1
	return launchKernel("needle_diag", w.prog, (count+needleBlockDim-1)/needleBlockDim, needleBlockDim,
		[]int64{int64(count), int64(lo), int64(d), w.fA, w.refA, w.penalty}), true
}

// Verify implements Workload.
func (w *needle) Verify() error {
	n := w.n
	f := make([]int64, (n+1)*(n+1))
	for i := 0; i <= n; i++ {
		f[i*(n+1)] = int64(i) * -w.penalty
		f[i] = int64(i) * -w.penalty
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			k := i*(n+1) + j
			v := f[k-(n+1)-1] + w.ref[k]
			if up := f[k-(n+1)] - w.penalty; up > v {
				v = up
			}
			if left := f[k-1] - w.penalty; left > v {
				v = left
			}
			f[k] = v
		}
	}
	for k := range f {
		if got := w.mem.Load(w.fA + int64(k)*8); got != f[k] {
			return fmt.Errorf("needle: F[%d] = %d, want %d", k, got, f[k])
		}
	}
	return nil
}
