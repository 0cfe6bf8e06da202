package workloads

import (
	"fmt"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("pathfinder", false, func(p Params) Workload { return newPathfinder(p) })
}

// pathfinder ports the Rodinia pathfinder dynamic program: row by row,
// every thread updates one column with the minimum of its three upper
// neighbours plus the wall cost. Row edges branch, everything else is
// coalesced and regular (Table 2: Non-sens). The host swaps the source
// and destination rows between launches.
//
// Paper input: 100000 columns. Default here: 8192 columns x 16 rows.
type pathfinder struct {
	base
	cols, rows int
	wall       []int64 // wall[r*cols + c]
	wallA      int64
	bufA       [2]int64
	row        int
	cur        int          // index of the source buffer
	prog       *isa.Program // every row's launch runs it (pathfinderProgram)
}

func newPathfinder(p Params) *pathfinder {
	cols := p.scaled(8192)
	const rows = 16
	rng := p.rng()
	w := &pathfinder{
		base: base{name: "pathfinder", sensitive: false, mem: memory.New(int64(cols*(rows+2)+1024)*8 + 1<<21)},
		cols: cols,
		rows: rows,
	}
	w.wall = make([]int64, rows*cols)
	for i := range w.wall {
		w.wall[i] = int64(rng.Intn(10))
	}
	m := w.mem
	w.wallA = m.Alloc(rows * cols)
	w.bufA[0] = m.Alloc(cols)
	w.bufA[1] = m.Alloc(cols)
	m.WriteWords(w.wallA, w.wall)
	// Row 0 initializes the source buffer.
	m.WriteWords(w.bufA[0], w.wall[:cols])
	w.row = 1
	w.prog = pathfinderProgram()
	return w
}

// pathfinderProgram is the row kernel: its parameters are the column
// count, the source row, the wall row and the destination row.
func pathfinderProgram() *isa.Program {
	b := isa.NewBuilder("pathfinder_row")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 0) // cols
	guardRange(b, isa.R0, isa.R1, isa.R2)
	b.Param(isa.R3, 1)                        // src
	ldElem(b, isa.R4, isa.R3, isa.R0, isa.R2) // src[c]
	// left neighbour (clamped)
	b.SetEQI(isa.R2, isa.R0, 0)
	b.CBra(isa.R2, "noleft")
	b.SubI(isa.R5, isa.R0, 1)
	ldElem(b, isa.R6, isa.R3, isa.R5, isa.R2)
	b.Min(isa.R4, isa.R4, isa.R6)
	b.Label("noleft")
	// right neighbour (clamped)
	b.SubI(isa.R7, isa.R1, 1)
	b.SetEQ(isa.R2, isa.R0, isa.R7)
	b.CBra(isa.R2, "noright")
	b.AddI(isa.R5, isa.R0, 1)
	ldElem(b, isa.R6, isa.R3, isa.R5, isa.R2)
	b.Min(isa.R4, isa.R4, isa.R6)
	b.Label("noright")
	// dst[c] = wall[row*cols + c] + min
	b.Param(isa.R8, 2) // wall row base
	ldElem(b, isa.R9, isa.R8, isa.R0, isa.R2)
	b.Add(isa.R4, isa.R4, isa.R9)
	b.Param(isa.R10, 3) // dst
	stElem(b, isa.R10, isa.R0, isa.R4, isa.R2)
	b.Label("exit")
	b.Exit()
	return b.MustBuild()
}

// Next implements Workload: one launch per DP row.
func (w *pathfinder) Next() (*simt.Kernel, bool) {
	if w.row >= w.rows {
		return nil, false
	}
	src := w.bufA[w.cur]
	dst := w.bufA[1-w.cur]
	const blockDim = 256
	k := launchKernel("pathfinder_row", w.prog, (w.cols+blockDim-1)/blockDim, blockDim,
		[]int64{int64(w.cols), src, w.wallA + int64(w.row*w.cols)*8, dst})
	w.row++
	w.cur = 1 - w.cur
	return k, true
}

// Verify implements Workload.
func (w *pathfinder) Verify() error {
	prev := append([]int64(nil), w.wall[:w.cols]...)
	next := make([]int64, w.cols)
	for r := 1; r < w.rows; r++ {
		for c := 0; c < w.cols; c++ {
			v := prev[c]
			if c > 0 && prev[c-1] < v {
				v = prev[c-1]
			}
			if c < w.cols-1 && prev[c+1] < v {
				v = prev[c+1]
			}
			next[c] = v + w.wall[r*w.cols+c]
		}
		prev, next = next, prev
	}
	final := w.bufA[w.cur]
	for c := 0; c < w.cols; c++ {
		if got := w.mem.Load(final + int64(c)*8); got != prev[c] {
			return fmt.Errorf("pathfinder: result[%d] = %d, want %d", c, got, prev[c])
		}
	}
	return nil
}
