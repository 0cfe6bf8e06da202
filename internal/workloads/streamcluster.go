package workloads

import (
	"fmt"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("strcltr_small", true, func(p Params) Workload {
		return newStreamcluster(p, "strcltr_small", true, 8192, 8, 6)
	})
	register("strcltr_mid", false, func(p Params) Workload {
		return newStreamcluster(p, "strcltr_mid", false, 16384, 16, 10)
	})
}

// streamcluster ports the Parboil/Rodinia streamcluster gain kernel:
// every thread owns one weighted point and evaluates opening each
// candidate center, switching its assignment when the weighted distance
// improves. Features are laid out feature-major (coalesced), and the
// improvement branch diverges per point. The paper evaluates two data
// set sizes with opposite sensitivity classes (Table 2).
type streamcluster struct {
	base
	n, dim, k int
	rounds    int
	round     int

	points  []float64 // feature-major: points[f*n+i]
	weights []float64
	centers [][]float64 // per round: k*dim, point-major

	xA, wA, cA, assignA, costA int64
	kern                       *simt.Kernel
}

func newStreamcluster(p Params, name string, sensitive bool, n, dim, k int) *streamcluster {
	n = p.scaled(n)
	rng := p.rng()
	const rounds = 2
	w := &streamcluster{
		base:   base{name: name, sensitive: sensitive, mem: memory.New(int64(n*dim+n*3+k*dim+1024)*8 + 1<<21)},
		n:      n,
		dim:    dim,
		k:      k,
		rounds: rounds,
	}
	w.points = make([]float64, n*dim)
	for i := range w.points {
		w.points[i] = rng.Float64() * 10
	}
	w.weights = make([]float64, n)
	for i := range w.weights {
		w.weights[i] = 0.5 + float64(rng.Float64())
	}
	w.centers = make([][]float64, rounds)
	for r := range w.centers {
		c := make([]float64, k*dim)
		for i := range c {
			c[i] = rng.Float64() * 10
		}
		w.centers[r] = c
	}

	m := w.mem
	w.xA = m.Alloc(n * dim)
	w.wA = m.Alloc(n)
	w.cA = m.Alloc(k * dim)
	w.assignA = m.Alloc(n)
	w.costA = m.Alloc(n)
	m.WriteFloats(w.xA, w.points)
	m.WriteFloats(w.wA, w.weights)
	for i := 0; i < n; i++ {
		m.Store(w.assignA+int64(i)*8, -1)
		m.StoreF(w.costA+int64(i)*8, 1e300)
	}

	const blockDim = 128
	grid := (n + blockDim - 1) / blockDim
	w.kern = mustKernel(name+"_gain", streamclusterKernel(), grid, blockDim,
		[]int64{w.xA, w.cA, w.wA, w.assignA, w.costA, int64(n), int64(dim), int64(k)}, 0)
	return w
}

func streamclusterKernel() *isa.Builder {
	b := isa.NewBuilder("sc_gain")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 5) // n
	guardRange(b, isa.R0, isa.R1, isa.R2)
	b.Param(isa.R3, 0)                          // X (feature-major)
	b.Param(isa.R4, 1)                          // centers
	b.Param(isa.R5, 6)                          // dim
	b.Param(isa.R6, 7)                          // k
	b.Param(isa.R7, 2)                          // weights
	ldElem(b, isa.R8, isa.R7, isa.R0, isa.R2)   // weight
	b.Param(isa.R9, 4)                          // cost
	ldElem(b, isa.R10, isa.R9, isa.R0, isa.R2)  // best cost so far
	b.Param(isa.R11, 3)                         // assign
	ldElem(b, isa.R12, isa.R11, isa.R0, isa.R2) // best center so far
	b.MovI(isa.R13, 0)                          // c
	b.Label("cloop")
	b.SetGE(isa.R2, isa.R13, isa.R6)
	b.CBra(isa.R2, "store")
	// dist over features: X[f*n + i], C[c*dim + f]
	b.MovF(isa.R14, 0)
	b.MovI(isa.R15, 0) // f
	b.Mul(isa.R16, isa.R13, isa.R5)
	b.MulI(isa.R16, isa.R16, 8)
	b.Add(isa.R16, isa.R16, isa.R4) // &C[c*dim]
	b.Label("floop")
	b.SetGE(isa.R2, isa.R15, isa.R5)
	b.CBra(isa.R2, "fdone")
	b.Mul(isa.R17, isa.R15, isa.R1) // f*n
	b.Add(isa.R17, isa.R17, isa.R0)
	b.MulI(isa.R17, isa.R17, 8)
	b.Add(isa.R17, isa.R17, isa.R3)
	b.Ld(isa.R18, isa.R17, 0) // x
	b.MulI(isa.R19, isa.R15, 8)
	b.Add(isa.R19, isa.R19, isa.R16)
	b.Ld(isa.R20, isa.R19, 0) // center coord
	b.FSub(isa.R18, isa.R18, isa.R20)
	b.FMad(isa.R14, isa.R18, isa.R18)
	b.AddI(isa.R15, isa.R15, 1)
	b.Bra("floop")
	b.Label("fdone")
	// weighted cost; switch when it improves (divergent).
	b.FMul(isa.R14, isa.R14, isa.R8)
	b.FSetLT(isa.R2, isa.R14, isa.R10)
	b.CBraZ(isa.R2, "skip")
	b.Mov(isa.R10, isa.R14)
	b.Mov(isa.R12, isa.R13)
	b.Label("skip")
	b.AddI(isa.R13, isa.R13, 1)
	b.Bra("cloop")
	b.Label("store")
	stElem(b, isa.R11, isa.R0, isa.R12, isa.R2)
	stElem(b, isa.R9, isa.R0, isa.R10, isa.R2)
	b.Label("exit")
	b.Exit()
	return b
}

// Next implements Workload: each round installs a new candidate center
// set (the streaming behaviour of the host algorithm) and re-runs the
// gain kernel.
func (w *streamcluster) Next() (*simt.Kernel, bool) {
	if w.round >= w.rounds {
		return nil, false
	}
	w.mem.WriteFloats(w.cA, w.centers[w.round])
	w.round++
	return w.kern, true
}

// Verify implements Workload.
func (w *streamcluster) Verify() error {
	bestCost := make([]float64, w.n)
	bestC := make([]int64, w.n)
	for i := range bestCost {
		bestCost[i] = 1e300
		bestC[i] = -1
	}
	for r := 0; r < w.rounds; r++ {
		cent := w.centers[r]
		for i := 0; i < w.n; i++ {
			for c := 0; c < w.k; c++ {
				d := 0.0
				for f := 0; f < w.dim; f++ {
					diff := w.points[f*w.n+i] - cent[c*w.dim+f]
					d += float64(diff * diff)
				}
				cost := d * w.weights[i]
				if cost < bestCost[i] {
					bestCost[i] = cost
					bestC[i] = int64(c)
				}
			}
		}
	}
	for i := 0; i < w.n; i++ {
		if got := w.mem.Load(w.assignA + int64(i)*8); got != bestC[i] {
			return fmt.Errorf("%s: assign[%d] = %d, want %d", w.name, i, got, bestC[i])
		}
	}
	return nil
}
