package workloads

import (
	"fmt"
	"math"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("particle", false, func(p Params) Workload { return newParticle(p) })
}

// particle ports the core of the Rodinia particlefilter: a likelihood
// kernel (each thread scores its particle against the observations) and
// a resampling kernel (each thread binary-searches the normalized CDF
// for its quantile). Between the two kernels the host normalizes the
// weights and builds the CDF, as in the original application.
//
// Paper input: 128x128x10 frames. Default here: 4096 particles, 16
// observations.
type particle struct {
	base
	n, nObs int

	pos                        []float64
	obs                        []float64
	posA, obsA, wA, cdfA, outA int64
	k1, k2                     *simt.Kernel
	stage                      int
}

func newParticle(p Params) *particle {
	n := p.scaled(8192)
	const nObs = 16
	rng := p.rng()
	w := &particle{
		base: base{name: "particle", sensitive: false, mem: memory.New(int64(n*4+nObs+1024)*8 + 1<<21)},
		n:    n,
		nObs: nObs,
	}
	w.pos = make([]float64, n)
	for i := range w.pos {
		w.pos[i] = rng.Float64() * 100
	}
	w.obs = make([]float64, nObs)
	for i := range w.obs {
		w.obs[i] = rng.Float64() * 100
	}
	m := w.mem
	w.posA = m.Alloc(n)
	w.obsA = m.Alloc(nObs)
	w.wA = m.Alloc(n)
	w.cdfA = m.Alloc(n)
	w.outA = m.Alloc(n)
	m.WriteFloats(w.posA, w.pos)
	m.WriteFloats(w.obsA, w.obs)

	const blockDim = 256
	grid := (n + blockDim - 1) / blockDim
	w.k1 = mustKernel("particle_likelihood", particleLikelihood(nObs), grid, blockDim,
		[]int64{w.posA, w.obsA, w.wA, int64(n)}, 0)
	w.k2 = mustKernel("particle_resample", particleResample(), grid, blockDim,
		[]int64{w.cdfA, w.posA, w.outA, int64(n)}, 0)
	return w
}

func particleLikelihood(nObs int) *isa.Builder {
	b := isa.NewBuilder("particle_likelihood")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 3)
	guardRange(b, isa.R0, isa.R1, isa.R2)
	b.Param(isa.R3, 0)
	ldElem(b, isa.R4, isa.R3, isa.R0, isa.R2) // my position
	b.Param(isa.R5, 1)                        // observations
	b.MovF(isa.R6, 0)                         // sum
	b.MovI(isa.R7, 0)                         // o
	b.Label("oloop")
	b.SetGEI(isa.R2, isa.R7, int64(nObs))
	b.CBra(isa.R2, "odone")
	ldElem(b, isa.R8, isa.R5, isa.R7, isa.R2)
	b.FSub(isa.R8, isa.R8, isa.R4)
	b.FMad(isa.R6, isa.R8, isa.R8)
	b.AddI(isa.R7, isa.R7, 1)
	b.Bra("oloop")
	b.Label("odone")
	// weight = exp(-0.5 * sum / nObs)
	b.MovF(isa.R9, -0.5/float64(nObs))
	b.FMul(isa.R6, isa.R6, isa.R9)
	b.FExp(isa.R6, isa.R6)
	b.Param(isa.R10, 2)
	stElem(b, isa.R10, isa.R0, isa.R6, isa.R2)
	b.Label("exit")
	b.Exit()
	return b
}

func particleResample() *isa.Builder {
	b := isa.NewBuilder("particle_resample")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 3) // n
	guardRange(b, isa.R0, isa.R1, isa.R2)
	// u = (tid + 0.5) / n
	b.CvtIF(isa.R3, isa.R0)
	b.MovF(isa.R4, 0.5)
	b.FAdd(isa.R3, isa.R3, isa.R4)
	b.CvtIF(isa.R5, isa.R1)
	b.FDiv(isa.R3, isa.R3, isa.R5) // u
	b.Param(isa.R6, 0)             // cdf
	b.MovI(isa.R7, 0)              // lo
	b.SubI(isa.R8, isa.R1, 1)      // hi = n-1
	b.Label("bsloop")
	b.SetGE(isa.R2, isa.R7, isa.R8)
	b.CBra(isa.R2, "bsdone")
	b.Add(isa.R9, isa.R7, isa.R8)
	b.ShrI(isa.R9, isa.R9, 1) // mid
	ldElem(b, isa.R10, isa.R6, isa.R9, isa.R2)
	b.FSetLT(isa.R11, isa.R10, isa.R3) // cdf[mid] < u
	b.CBraZ(isa.R11, "upper")
	b.AddI(isa.R7, isa.R9, 1) // lo = mid+1
	b.Bra("bsloop")
	b.Label("upper")
	b.Mov(isa.R8, isa.R9) // hi = mid
	b.Bra("bsloop")
	b.Label("bsdone")
	// out[tid] = pos[lo]
	b.Param(isa.R12, 1)
	ldElem(b, isa.R13, isa.R12, isa.R7, isa.R2)
	b.Param(isa.R14, 2)
	stElem(b, isa.R14, isa.R0, isa.R13, isa.R2)
	b.Label("exit")
	b.Exit()
	return b
}

// Next implements Workload.
func (w *particle) Next() (*simt.Kernel, bool) {
	switch w.stage {
	case 0:
		w.stage = 1
		return w.k1, true
	case 1:
		// Host step: normalize weights into a CDF.
		sum := 0.0
		weights := w.mem.ReadFloats(w.wA, w.n)
		for _, v := range weights {
			sum += v
		}
		acc := 0.0
		for i, v := range weights {
			acc += v / sum
			w.mem.StoreF(w.cdfA+int64(i)*8, acc)
		}
		w.stage = 2
		return w.k2, true
	default:
		return nil, false
	}
}

// Verify implements Workload.
func (w *particle) Verify() error {
	// Reference likelihood.
	weights := make([]float64, w.n)
	for i := 0; i < w.n; i++ {
		acc := 0.0
		for _, o := range w.obs {
			d := o - w.pos[i]
			acc = float64(d*d) + acc
		}
		weights[i] = math.Exp(acc * (-0.5 / float64(w.nObs)))
		if got := w.mem.LoadF(w.wA + int64(i)*8); got != weights[i] {
			return fmt.Errorf("particle: weight[%d] = %g, want %g", i, got, weights[i])
		}
	}
	// Reference CDF + resample.
	sum := 0.0
	for _, v := range weights {
		sum += v
	}
	cdf := make([]float64, w.n)
	acc := 0.0
	for i, v := range weights {
		acc += v / sum
		cdf[i] = acc
	}
	for i := 0; i < w.n; i++ {
		u := (float64(i) + 0.5) / float64(w.n)
		lo, hi := 0, w.n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		want := w.pos[lo]
		if got := w.mem.LoadF(w.outA + int64(i)*8); got != want {
			return fmt.Errorf("particle: out[%d] = %g, want %g", i, got, want)
		}
	}
	return nil
}
