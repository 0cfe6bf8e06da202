package workloads

import (
	"fmt"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("tpacf", false, func(p Params) Workload { return newTPACF(p) })
}

// tpacfBins is the number of angular bins.
const tpacfBins = 8

// tpacf ports the Parboil two-point angular correlation function: every
// thread correlates one point against all points, binning the dot
// product of the unit vectors by walking the (descending) bin-edge
// table — a short data-dependent divergent loop per pair. Each thread
// accumulates into a private histogram slice; the host reduces them,
// like the per-thread histogramming of the original CUDA kernel.
//
// Paper input: 487x100 points. Default here: 1024 points, 8 bins.
type tpacf struct {
	base
	n                   int
	pts                 []float64 // x,y,z triples
	edges               []float64 // descending cos thresholds, len bins-1
	ptsA, edgesA, histA int64
	kern                *simt.Kernel
	done                bool
}

func newTPACF(p Params) *tpacf {
	n := p.scaled(1024)
	rng := p.rng()
	w := &tpacf{
		base: base{name: "tpacf", sensitive: false, mem: memory.New(int64(n*3+tpacfBins*(n+1)+1024)*8 + 1<<21)},
		n:    n,
	}
	w.pts = make([]float64, n*3)
	for i := 0; i < n; i++ {
		// Random unit vectors.
		var x, y, z, s float64
		for {
			x, y, z = float64(rng.Float64())*2-1, float64(rng.Float64())*2-1, float64(rng.Float64())*2-1
			s = float64(x*x) + float64(y*y) + float64(z*z)
			if s > 1e-6 && s <= 1 {
				break
			}
		}
		w.pts[i*3], w.pts[i*3+1], w.pts[i*3+2] = x, y, z
	}
	w.edges = make([]float64, tpacfBins-1)
	for i := range w.edges {
		// Descending thresholds in (-1, 1).
		w.edges[i] = 1 - float64(float64(i+1)*(2.0/float64(tpacfBins)))
	}
	m := w.mem
	w.ptsA = m.Alloc(n * 3)
	w.edgesA = m.Alloc(len(w.edges))
	w.histA = m.Alloc(n * tpacfBins)
	m.WriteFloats(w.ptsA, w.pts)
	m.WriteFloats(w.edgesA, w.edges)

	const blockDim = 64
	grid := (n + blockDim - 1) / blockDim
	w.kern = mustKernel("tpacf_corr", tpacfKernel(), grid, blockDim,
		[]int64{w.ptsA, w.edgesA, w.histA, int64(n)}, 0)
	return w
}

func tpacfKernel() *isa.Builder {
	b := isa.NewBuilder("tpacf_corr")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 3) // n
	guardRange(b, isa.R0, isa.R1, isa.R2)
	b.Param(isa.R3, 0) // points
	// My vector.
	b.MulI(isa.R4, isa.R0, 24)
	b.Add(isa.R4, isa.R4, isa.R3)
	b.Ld(isa.R5, isa.R4, 0)
	b.Ld(isa.R6, isa.R4, 8)
	b.Ld(isa.R7, isa.R4, 16)
	b.Param(isa.R8, 1) // edges
	b.Param(isa.R9, 2) // histograms
	// My private histogram base: hist + tid*bins*8.
	b.MulI(isa.R10, isa.R0, int64(tpacfBins)*8)
	b.Add(isa.R10, isa.R10, isa.R9)
	b.MovI(isa.R11, 0) // j
	b.Label("jloop")
	b.SetGE(isa.R2, isa.R11, isa.R1)
	b.CBra(isa.R2, "done")
	b.MulI(isa.R12, isa.R11, 24)
	b.Add(isa.R12, isa.R12, isa.R3)
	b.Ld(isa.R13, isa.R12, 0)
	b.Ld(isa.R14, isa.R12, 8)
	b.Ld(isa.R15, isa.R12, 16)
	// dot = x*xj + y*yj + z*zj
	b.MovF(isa.R16, 0)
	b.FMad(isa.R16, isa.R5, isa.R13)
	b.FMad(isa.R16, isa.R6, isa.R14)
	b.FMad(isa.R16, isa.R7, isa.R15)
	// Walk descending edges until dot >= edge[bin].
	b.MovI(isa.R17, 0) // bin
	b.Label("binloop")
	b.SetGEI(isa.R2, isa.R17, int64(tpacfBins-1))
	b.CBra(isa.R2, "binned")
	ldElem(b, isa.R18, isa.R8, isa.R17, isa.R2)
	b.FSetGE(isa.R2, isa.R16, isa.R18)
	b.CBra(isa.R2, "binned")
	b.AddI(isa.R17, isa.R17, 1)
	b.Bra("binloop")
	b.Label("binned")
	// hist[bin]++ (private region: no races).
	b.MulI(isa.R19, isa.R17, 8)
	b.Add(isa.R19, isa.R19, isa.R10)
	b.Ld(isa.R20, isa.R19, 0)
	b.AddI(isa.R20, isa.R20, 1)
	b.St(isa.R19, 0, isa.R20)
	b.AddI(isa.R11, isa.R11, 1)
	b.Bra("jloop")
	b.Label("done")
	b.Label("exit")
	b.Exit()
	return b
}

// Next implements Workload.
func (w *tpacf) Next() (*simt.Kernel, bool) {
	if w.done {
		return nil, false
	}
	w.done = true
	return w.kern, true
}

// Verify implements Workload: reduce the per-thread histograms and
// compare against the reference correlation.
func (w *tpacf) Verify() error {
	want := make([]int64, tpacfBins)
	for i := 0; i < w.n; i++ {
		for j := 0; j < w.n; j++ {
			dot := 0.0
			dot = float64(w.pts[i*3]*w.pts[j*3]) + dot
			dot = float64(w.pts[i*3+1]*w.pts[j*3+1]) + dot
			dot = float64(w.pts[i*3+2]*w.pts[j*3+2]) + dot
			bin := 0
			for bin < tpacfBins-1 && dot < w.edges[bin] {
				bin++
			}
			want[bin]++
		}
	}
	got := make([]int64, tpacfBins)
	for t := 0; t < w.n; t++ {
		for bin := 0; bin < tpacfBins; bin++ {
			got[bin] += w.mem.Load(w.histA + int64(t*tpacfBins+bin)*8)
		}
	}
	for bin := range want {
		if got[bin] != want[bin] {
			return fmt.Errorf("tpacf: hist[%d] = %d, want %d", bin, got[bin], want[bin])
		}
	}
	return nil
}
