package workloads

import (
	"fmt"
	"math"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("srad_1", true, func(p Params) Workload { return newSrad(p) })
}

// srad ports the first SRAD kernel of Rodinia (speckle-reducing
// anisotropic diffusion): a 2D stencil computing directional
// derivatives through precomputed clamped-neighbour index arrays, the
// diffusion coefficient, and a divergent two-sided clamp of the
// coefficient to [0,1].
//
// Paper input: 502x458. Default here: 160x160.
type srad struct {
	base
	rows, cols         int
	q0sqr              float64
	img                []float64
	jA                 int64
	cA                 int64
	dnA, dsA, dwA, deA int64
	inA, isA, jwA, jeA int64
	kern               *simt.Kernel
	done               bool
}

func newSrad(p Params) *srad {
	rows := p.scaled(160)
	cols := 160
	rng := p.rng()
	w := &srad{
		base:  base{name: "srad_1", sensitive: true, mem: memory.New(int64(rows*cols*6+2*(rows+cols))*8 + 1<<21)},
		rows:  rows,
		cols:  cols,
		q0sqr: 0.05,
	}
	n := rows * cols
	w.img = make([]float64, n)
	for i := range w.img {
		w.img[i] = math.Exp(rng.Float64()) // positive, as in Rodinia's extracted image
	}
	m := w.mem
	w.jA = m.Alloc(n)
	w.cA = m.Alloc(n)
	w.dnA = m.Alloc(n)
	w.dsA = m.Alloc(n)
	w.dwA = m.Alloc(n)
	w.deA = m.Alloc(n)
	w.inA = m.Alloc(rows)
	w.isA = m.Alloc(rows)
	w.jwA = m.Alloc(cols)
	w.jeA = m.Alloc(cols)
	m.WriteFloats(w.jA, w.img)
	for i := 0; i < rows; i++ {
		m.Store(w.inA+int64(i)*8, int64(maxInt(i-1, 0)))
		s := i + 1
		if s > rows-1 {
			s = rows - 1
		}
		m.Store(w.isA+int64(i)*8, int64(s))
	}
	for j := 0; j < cols; j++ {
		m.Store(w.jwA+int64(j)*8, int64(maxInt(j-1, 0)))
		e := j + 1
		if e > cols-1 {
			e = cols - 1
		}
		m.Store(w.jeA+int64(j)*8, int64(e))
	}

	const blockDim = 256
	grid := (n + blockDim - 1) / blockDim
	w.kern = mustKernel("srad_k1", sradKernel(cols), grid, blockDim,
		[]int64{w.jA, w.cA, w.dnA, w.dsA, w.dwA, w.deA,
			w.inA, w.isA, w.jwA, w.jeA, int64(n), isa.F2B(w.q0sqr)}, 0)
	return w
}

func sradKernel(cols int) *isa.Builder {
	b := isa.NewBuilder("srad_k1")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 10) // n
	guardRange(b, isa.R0, isa.R1, isa.R2)
	// i = k / cols, j = k % cols
	b.DivI(isa.R3, isa.R0, int64(cols))
	b.RemI(isa.R4, isa.R0, int64(cols))
	// Clamped neighbour indices.
	b.Param(isa.R5, 6)
	ldElem(b, isa.R6, isa.R5, isa.R3, isa.R2) // iN
	b.Param(isa.R5, 7)
	ldElem(b, isa.R7, isa.R5, isa.R3, isa.R2) // iS
	b.Param(isa.R5, 8)
	ldElem(b, isa.R8, isa.R5, isa.R4, isa.R2) // jW
	b.Param(isa.R5, 9)
	ldElem(b, isa.R9, isa.R5, isa.R4, isa.R2)   // jE
	b.Param(isa.R10, 0)                         // J base
	ldElem(b, isa.R11, isa.R10, isa.R0, isa.R2) // Jc
	// dN = J[iN*cols + j] - Jc, etc.
	b.MulI(isa.R12, isa.R6, int64(cols))
	b.Add(isa.R12, isa.R12, isa.R4)
	ldElem(b, isa.R13, isa.R10, isa.R12, isa.R2)
	b.FSub(isa.R13, isa.R13, isa.R11) // dN
	b.MulI(isa.R12, isa.R7, int64(cols))
	b.Add(isa.R12, isa.R12, isa.R4)
	ldElem(b, isa.R14, isa.R10, isa.R12, isa.R2)
	b.FSub(isa.R14, isa.R14, isa.R11) // dS
	b.MulI(isa.R12, isa.R3, int64(cols))
	b.Add(isa.R12, isa.R12, isa.R8)
	ldElem(b, isa.R15, isa.R10, isa.R12, isa.R2)
	b.FSub(isa.R15, isa.R15, isa.R11) // dW
	b.MulI(isa.R12, isa.R3, int64(cols))
	b.Add(isa.R12, isa.R12, isa.R9)
	ldElem(b, isa.R16, isa.R10, isa.R12, isa.R2)
	b.FSub(isa.R16, isa.R16, isa.R11) // dE
	// G2 = (dN^2+dS^2+dW^2+dE^2) / Jc^2
	b.MovF(isa.R17, 0)
	b.FMad(isa.R17, isa.R13, isa.R13)
	b.FMad(isa.R17, isa.R14, isa.R14)
	b.FMad(isa.R17, isa.R15, isa.R15)
	b.FMad(isa.R17, isa.R16, isa.R16)
	b.FMul(isa.R18, isa.R11, isa.R11)
	b.FDiv(isa.R17, isa.R17, isa.R18) // G2
	// L = (dN+dS+dW+dE) / Jc
	b.FAdd(isa.R19, isa.R13, isa.R14)
	b.FAdd(isa.R19, isa.R19, isa.R15)
	b.FAdd(isa.R19, isa.R19, isa.R16)
	b.FDiv(isa.R19, isa.R19, isa.R11) // L
	// num = 0.5*G2 - (1/16)*L^2 ; den = 1 + 0.25*L
	b.MovF(isa.R20, 0.5)
	b.FMul(isa.R20, isa.R20, isa.R17)
	b.FMul(isa.R21, isa.R19, isa.R19)
	b.MovF(isa.R22, 1.0/16.0)
	b.FMul(isa.R21, isa.R21, isa.R22)
	b.FSub(isa.R20, isa.R20, isa.R21) // num
	b.MovF(isa.R21, 0.25)
	b.FMul(isa.R21, isa.R21, isa.R19)
	b.MovF(isa.R22, 1)
	b.FAdd(isa.R21, isa.R21, isa.R22) // den
	// qsqr = num / den^2
	b.FMul(isa.R21, isa.R21, isa.R21)
	b.FDiv(isa.R20, isa.R20, isa.R21) // qsqr
	// den2 = (qsqr - q0sqr) / (q0sqr * (1 + q0sqr))
	b.Param(isa.R23, 11) // q0sqr bits
	b.FSub(isa.R20, isa.R20, isa.R23)
	b.MovF(isa.R22, 1)
	b.FAdd(isa.R22, isa.R22, isa.R23)
	b.FMul(isa.R22, isa.R22, isa.R23)
	b.FDiv(isa.R20, isa.R20, isa.R22) // den2
	// c = 1 / (1 + den2), clamped to [0,1] with divergent branches.
	b.MovF(isa.R22, 1)
	b.FAdd(isa.R20, isa.R20, isa.R22)
	b.FDiv(isa.R20, isa.R22, isa.R20) // c
	b.MovF(isa.R22, 0)
	b.FSetLT(isa.R2, isa.R20, isa.R22)
	b.CBraZ(isa.R2, "notlow")
	b.MovF(isa.R20, 0)
	b.Label("notlow")
	b.MovF(isa.R22, 1)
	b.FSetGT(isa.R2, isa.R20, isa.R22)
	b.CBraZ(isa.R2, "nothigh")
	b.MovF(isa.R20, 1)
	b.Label("nothigh")
	// Store c and the four derivatives.
	b.Param(isa.R5, 1)
	stElem(b, isa.R5, isa.R0, isa.R20, isa.R2)
	b.Param(isa.R5, 2)
	stElem(b, isa.R5, isa.R0, isa.R13, isa.R2)
	b.Param(isa.R5, 3)
	stElem(b, isa.R5, isa.R0, isa.R14, isa.R2)
	b.Param(isa.R5, 4)
	stElem(b, isa.R5, isa.R0, isa.R15, isa.R2)
	b.Param(isa.R5, 5)
	stElem(b, isa.R5, isa.R0, isa.R16, isa.R2)
	b.Label("exit")
	b.Exit()
	return b
}

// Next implements Workload.
func (w *srad) Next() (*simt.Kernel, bool) {
	if w.done {
		return nil, false
	}
	w.done = true
	return w.kern, true
}

// Verify implements Workload.
func (w *srad) Verify() error {
	rows, cols := w.rows, w.cols
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			k := i*cols + j
			iN, iS := maxInt(i-1, 0), minInt(i+1, rows-1)
			jW, jE := maxInt(j-1, 0), minInt(j+1, cols-1)
			jc := w.img[k]
			dN := w.img[iN*cols+j] - jc
			dS := w.img[iS*cols+j] - jc
			dW := w.img[i*cols+jW] - jc
			dE := w.img[i*cols+jE] - jc
			g2 := (float64(dN*dN) + float64(dS*dS) + float64(dW*dW) + float64(dE*dE)) / (jc * jc)
			l := (dN + dS + dW + dE) / jc
			num := float64(0.5*g2) - float64((1.0/16.0)*(l*l))
			den := 1 + float64(0.25*l)
			qsqr := num / (den * den)
			den2 := (qsqr - w.q0sqr) / (w.q0sqr * (1 + w.q0sqr))
			c := 1 / (1 + den2)
			if c < 0 {
				c = 0
			} else if c > 1 {
				c = 1
			}
			if got := w.mem.LoadF(w.cA + int64(k)*8); got != c {
				return fmt.Errorf("srad: c[%d] = %g, want %g", k, got, c)
			}
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
