package workloads

import (
	"fmt"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("kmeans", true, func(p Params) Workload { return newKMeans(p) })
}

// kmeans ports the Rodinia k-means assignment kernel: every thread owns
// one point and scans all K centroids over F features to find the
// nearest. Features are laid out feature-major (x[f*n+i]) as in
// Rodinia, so warp accesses coalesce; the warp's working set
// (32 points x F features = 4KB) times the resident warp count far
// exceeds the 16KB L1D, producing the severe inter-warp cache thrashing
// the paper reports (kmeans speeds up 3.13x under CAWA). The host
// updates centroids between the iterations.
//
// Paper input: 494020 points. Default here: 32768 points, 8 features,
// 8 clusters, 3 assignment iterations.
type kmeans struct {
	base
	n, f, k int
	iters   int

	xA, cA, assignA int64
	points          []float64
	kern            *simt.Kernel
	iter            int

	refAssign []int
}

func newKMeans(p Params) *kmeans {
	n := p.scaled(32768)
	const f, k, iters = 8, 8, 3
	rng := p.rng()

	w := &kmeans{
		base:  base{name: "kmeans", sensitive: true, mem: memory.New(int64(n*f+k*f+n+1024)*8 + 1<<20)},
		n:     n,
		f:     f,
		k:     k,
		iters: iters,
	}
	m := w.mem
	w.xA = m.Alloc(n * f)
	w.cA = m.Alloc(k * f)
	w.assignA = m.Alloc(n)

	// points is indexed feature-major: points[f*n+i].
	w.points = make([]float64, n*f)
	for i := range w.points {
		w.points[i] = rng.Float64() * 100
	}
	m.WriteFloats(w.xA, w.points)
	// Initial centroids (point-major per centroid): the first k points.
	cent := make([]float64, k*f)
	for c := 0; c < k; c++ {
		for ff := 0; ff < f; ff++ {
			cent[c*f+ff] = w.points[ff*n+c]
		}
	}
	m.WriteFloats(w.cA, cent)

	const blockDim = 256
	grid := (n + blockDim - 1) / blockDim
	w.kern = mustKernel("kmeans_assign", kmeansKernel(), grid, blockDim,
		[]int64{w.xA, w.cA, w.assignA, int64(n), int64(f), int64(k)}, 0)

	w.refAssign = w.reference()
	return w
}

// kmeansKernel emits the nearest-centroid assignment.
func kmeansKernel() *isa.Builder {
	b := isa.NewBuilder("kmeans_assign")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 3) // n
	guardRange(b, isa.R0, isa.R1, isa.R2)
	b.Param(isa.R3, 0)    // X (feature-major)
	b.Param(isa.R4, 1)    // C
	b.Param(isa.R5, 4)    // f
	b.Param(isa.R6, 5)    // k
	b.MovF(isa.R8, 1e300) // best distance
	b.MovI(isa.R9, -1)    // best cluster
	b.MovI(isa.R10, 0)    // cluster index
	b.Label("kloop")
	b.SetGE(isa.R2, isa.R10, isa.R6)
	b.CBra(isa.R2, "store")
	// R11 = &C[kk*f]
	b.Mul(isa.R11, isa.R10, isa.R5)
	b.MulI(isa.R11, isa.R11, 8)
	b.Add(isa.R11, isa.R11, isa.R4)
	b.MovF(isa.R12, 0) // accumulator
	b.MovI(isa.R13, 0) // feature index
	b.Label("floop")
	b.SetGE(isa.R2, isa.R13, isa.R5)
	b.CBra(isa.R2, "fdone")
	// x = X[f*n + i] (coalesced across the warp)
	b.Mul(isa.R14, isa.R13, isa.R1)
	b.Add(isa.R14, isa.R14, isa.R0)
	b.MulI(isa.R14, isa.R14, 8)
	b.Add(isa.R15, isa.R14, isa.R3)
	b.Ld(isa.R16, isa.R15, 0) // x value
	b.MulI(isa.R14, isa.R13, 8)
	b.Add(isa.R15, isa.R11, isa.R14)
	b.Ld(isa.R17, isa.R15, 0) // centroid value
	b.FSub(isa.R16, isa.R16, isa.R17)
	b.FMad(isa.R12, isa.R16, isa.R16) // acc += d*d
	b.AddI(isa.R13, isa.R13, 1)
	b.Bra("floop")
	b.Label("fdone")
	b.FSetLT(isa.R2, isa.R12, isa.R8)
	b.CBraZ(isa.R2, "skip")
	b.Mov(isa.R8, isa.R12)
	b.Mov(isa.R9, isa.R10)
	b.Label("skip")
	b.AddI(isa.R10, isa.R10, 1)
	b.Bra("kloop")
	b.Label("store")
	b.Param(isa.R18, 2) // assign
	stElem(b, isa.R18, isa.R0, isa.R9, isa.R2)
	b.Label("exit")
	b.Exit()
	return b
}

// Next implements Workload: run the assignment kernel, recomputing
// centroids on the host between iterations (the Rodinia host loop).
func (w *kmeans) Next() (*simt.Kernel, bool) {
	if w.iter >= w.iters {
		return nil, false
	}
	if w.iter > 0 {
		w.updateCentroids()
	}
	w.iter++
	return w.kern, true
}

// updateCentroids averages the points of each cluster from the
// simulated assignment, keeping the previous centroid for empty
// clusters.
func (w *kmeans) updateCentroids() {
	sums := make([]float64, w.k*w.f)
	counts := make([]int, w.k)
	for i := 0; i < w.n; i++ {
		c := int(w.mem.Load(w.assignA + int64(i)*8))
		if c < 0 || c >= w.k {
			continue
		}
		counts[c]++
		for ff := 0; ff < w.f; ff++ {
			sums[c*w.f+ff] += w.points[ff*w.n+i]
		}
	}
	for c := 0; c < w.k; c++ {
		if counts[c] == 0 {
			continue
		}
		for ff := 0; ff < w.f; ff++ {
			w.mem.StoreF(w.cA+int64(c*w.f+ff)*8, sums[c*w.f+ff]/float64(counts[c]))
		}
	}
}

// reference runs the same iterations in plain Go.
func (w *kmeans) reference() []int {
	cent := make([]float64, w.k*w.f)
	for c := 0; c < w.k; c++ {
		for ff := 0; ff < w.f; ff++ {
			cent[c*w.f+ff] = w.points[ff*w.n+c]
		}
	}
	assign := make([]int, w.n)
	for it := 0; it < w.iters; it++ {
		for i := 0; i < w.n; i++ {
			best, bestD := -1, 1e300
			for c := 0; c < w.k; c++ {
				d := 0.0
				for ff := 0; ff < w.f; ff++ {
					diff := w.points[ff*w.n+i] - cent[c*w.f+ff]
					d += float64(diff * diff)
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
		if it == w.iters-1 {
			break
		}
		sums := make([]float64, w.k*w.f)
		counts := make([]int, w.k)
		for i := 0; i < w.n; i++ {
			c := assign[i]
			counts[c]++
			for ff := 0; ff < w.f; ff++ {
				sums[c*w.f+ff] += w.points[ff*w.n+i]
			}
		}
		for c := 0; c < w.k; c++ {
			if counts[c] == 0 {
				continue
			}
			for ff := 0; ff < w.f; ff++ {
				cent[c*w.f+ff] = sums[c*w.f+ff] / float64(counts[c])
			}
		}
	}
	return assign
}

// Verify implements Workload.
func (w *kmeans) Verify() error {
	for i := 0; i < w.n; i++ {
		got := int(w.mem.Load(w.assignA + int64(i)*8))
		if got != w.refAssign[i] {
			return fmt.Errorf("kmeans: assign[%d] = %d, want %d", i, got, w.refAssign[i])
		}
	}
	return nil
}
