package workloads

import (
	"fmt"
	"math"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("backprop", false, func(p Params) Workload { return newBackprop(p) })
}

// backprop ports the Rodinia backprop forward-pass kernel: one block
// per hidden unit, threads strided over the input layer computing
// partial weighted sums, a shared-memory tree reduction with barriers,
// and a sigmoid applied by thread 0. Regular control flow and coalesced
// weights make it criticality-insensitive (Table 2: Non-sens).
//
// Paper input: 65536 input units. Default here: 4096 inputs x 128
// hidden units.
type backprop struct {
	base
	nIn, nHid int
	blockDim  int

	in            []float64
	weights       []float64 // w[i*nHid + j]
	inA, wA, outA int64
	kern          *simt.Kernel
	done          bool
}

func newBackprop(p Params) *backprop {
	nIn := p.scaled(4096)
	const nHid = 128
	const blockDim = 256
	rng := p.rng()
	w := &backprop{
		base:     base{name: "backprop", sensitive: false, mem: memory.New(int64(nIn*nHid+nIn+nHid+1024)*8 + 1<<21)},
		nIn:      nIn,
		nHid:     nHid,
		blockDim: blockDim,
	}
	w.in = make([]float64, nIn)
	for i := range w.in {
		w.in[i] = float64(rng.Float64())*2 - 1
	}
	w.weights = make([]float64, nIn*nHid)
	for i := range w.weights {
		w.weights[i] = float64(rng.Float64()*0.2) - 0.1
	}
	m := w.mem
	w.inA = m.Alloc(nIn)
	w.wA = m.Alloc(nIn * nHid)
	w.outA = m.Alloc(nHid)
	m.WriteFloats(w.inA, w.in)
	m.WriteFloats(w.wA, w.weights)

	w.kern = mustKernel("backprop_fwd", backpropKernel(nIn, nHid, blockDim), nHid, blockDim,
		[]int64{w.inA, w.wA, w.outA}, blockDim)
	return w
}

func backpropKernel(nIn, nHid, blockDim int) *isa.Builder {
	b := isa.NewBuilder("backprop_fwd")
	b.SReg(isa.R0, isa.SRTid)   // t
	b.SReg(isa.R1, isa.SRCtaid) // hidden unit j
	b.Param(isa.R3, 0)          // in
	b.Param(isa.R4, 1)          // weights
	// partial = sum over i = t, t+B, ... of in[i]*w[i*nHid+j]
	b.MovF(isa.R5, 0)
	b.Mov(isa.R6, isa.R0) // i
	b.Label("iloop")
	b.SetGEI(isa.R2, isa.R6, int64(nIn))
	b.CBra(isa.R2, "idone")
	ldElem(b, isa.R7, isa.R3, isa.R6, isa.R2) // in[i]
	b.MulI(isa.R8, isa.R6, int64(nHid))
	b.Add(isa.R8, isa.R8, isa.R1)
	b.MulI(isa.R8, isa.R8, 8)
	b.Add(isa.R8, isa.R8, isa.R4)
	b.Ld(isa.R9, isa.R8, 0) // w[i][j]
	b.FMad(isa.R5, isa.R7, isa.R9)
	b.AddI(isa.R6, isa.R6, int64(blockDim))
	b.Bra("iloop")
	b.Label("idone")
	// shared[t] = partial
	b.MulI(isa.R10, isa.R0, 8)
	b.StS(isa.R10, 0, isa.R5)
	b.Bar()
	// Tree reduction: for s = B/2 .. 1: if t < s: sh[t] += sh[t+s]; bar.
	b.MovI(isa.R11, int64(blockDim/2))
	b.Label("redloop")
	b.CBraZ(isa.R11, "reddone")
	b.SetLT(isa.R2, isa.R0, isa.R11)
	b.CBraZ(isa.R2, "noadd")
	b.LdS(isa.R12, isa.R10, 0) // sh[t]
	b.Add(isa.R13, isa.R0, isa.R11)
	b.MulI(isa.R13, isa.R13, 8)
	b.LdS(isa.R14, isa.R13, 0) // sh[t+s]
	b.FAdd(isa.R12, isa.R12, isa.R14)
	b.StS(isa.R10, 0, isa.R12)
	b.Label("noadd")
	b.Bar()
	b.ShrI(isa.R11, isa.R11, 1)
	b.Bra("redloop")
	b.Label("reddone")
	// Thread 0 applies the sigmoid and stores out[j].
	b.CBra(isa.R0, "exit")
	b.MovI(isa.R15, 0)
	b.LdS(isa.R16, isa.R15, 0)
	b.FNeg(isa.R16, isa.R16)
	b.FExp(isa.R16, isa.R16)
	b.MovF(isa.R17, 1)
	b.FAdd(isa.R16, isa.R16, isa.R17)
	b.FDiv(isa.R16, isa.R17, isa.R16) // 1/(1+exp(-x))
	b.Param(isa.R18, 2)
	stElem(b, isa.R18, isa.R1, isa.R16, isa.R2)
	b.Label("exit")
	b.Exit()
	return b
}

// Next implements Workload.
func (w *backprop) Next() (*simt.Kernel, bool) {
	if w.done {
		return nil, false
	}
	w.done = true
	return w.kern, true
}

// Verify implements Workload: replicate the strided partials and the
// pairwise tree reduction so float results match bit for bit.
func (w *backprop) Verify() error {
	for j := 0; j < w.nHid; j++ {
		partial := make([]float64, w.blockDim)
		for t := 0; t < w.blockDim; t++ {
			acc := 0.0
			for i := t; i < w.nIn; i += w.blockDim {
				acc = float64(w.in[i]*w.weights[i*w.nHid+j]) + acc
			}
			partial[t] = acc
		}
		for s := w.blockDim / 2; s > 0; s /= 2 {
			for t := 0; t < s; t++ {
				partial[t] += partial[t+s]
			}
		}
		want := 1 / (1 + math.Exp(-partial[0]))
		if got := w.mem.LoadF(w.outA + int64(j)*8); got != want {
			return fmt.Errorf("backprop: out[%d] = %g, want %g", j, got, want)
		}
	}
	return nil
}
