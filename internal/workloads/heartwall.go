package workloads

import (
	"fmt"
	"math"

	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/simt"
)

func init() {
	register("heartwall", true, func(p Params) Workload { return newHeartwall(p) })
}

// heartwall ports the tracking core of the Rodinia heartwall
// application: every thread tracks one sample point by template
// matching — it searches a window around the point for the offset whose
// sum of squared differences (SSD) against the template is minimal,
// with a data-dependent early exit once the partial SSD exceeds the
// best found so far (the source of per-warp imbalance).
//
// Paper input: 656x744 AVI frames. Default here: a 256x256 frame,
// 8192 tracking points, 5x5 search window, 4x4 template.
type heartwall struct {
	base
	imgW, imgH int
	nPoints    int
	tmplW      int
	radius     int

	img   []float64
	tmpl  []float64
	ptsX  []int64
	ptsY  []int64
	imgA  int64
	tmplA int64
	pxA   int64
	pyA   int64
	outA  int64
	kern  *simt.Kernel
	done  bool
}

func newHeartwall(p Params) *heartwall {
	imgW := 256
	imgH := 256
	nPoints := p.scaled(8192)
	const tmplW, radius = 4, 2
	rng := p.rng()

	w := &heartwall{
		base:    base{name: "heartwall", sensitive: true, mem: memory.New(int64(imgW*imgH+nPoints*4+tmplW*tmplW)*8 + 1<<21)},
		imgW:    imgW,
		imgH:    imgH,
		nPoints: nPoints,
		tmplW:   tmplW,
		radius:  radius,
	}
	w.img = make([]float64, imgW*imgH)
	for i := range w.img {
		w.img[i] = rng.Float64() * 255
	}
	w.tmpl = make([]float64, tmplW*tmplW)
	for i := range w.tmpl {
		w.tmpl[i] = rng.Float64() * 255
	}
	w.ptsX = make([]int64, nPoints)
	w.ptsY = make([]int64, nPoints)
	margin := radius + tmplW
	for i := 0; i < nPoints; i++ {
		w.ptsX[i] = int64(margin + rng.Intn(imgW-2*margin))
		w.ptsY[i] = int64(margin + rng.Intn(imgH-2*margin))
	}

	m := w.mem
	w.imgA = m.Alloc(imgW * imgH)
	w.tmplA = m.Alloc(tmplW * tmplW)
	w.pxA = m.Alloc(nPoints)
	w.pyA = m.Alloc(nPoints)
	w.outA = m.Alloc(nPoints)
	m.WriteFloats(w.imgA, w.img)
	m.WriteFloats(w.tmplA, w.tmpl)
	m.WriteWords(w.pxA, w.ptsX)
	m.WriteWords(w.pyA, w.ptsY)

	const blockDim = 256
	grid := (nPoints + blockDim - 1) / blockDim
	w.kern = mustKernel("heartwall_track", heartwallKernel(imgW, tmplW, radius), grid, blockDim,
		[]int64{w.imgA, w.tmplA, w.pxA, w.pyA, w.outA, int64(nPoints)}, 0)
	return w
}

// heartwallKernel: for each offset (dy,dx) in the search window, SSD
// against the template with early exit; emit the encoded best offset.
func heartwallKernel(imgW, tmplW, radius int) *isa.Builder {
	b := isa.NewBuilder("heartwall_track")
	b.SReg(isa.R0, isa.SRGTid)
	b.Param(isa.R1, 5)
	guardRange(b, isa.R0, isa.R1, isa.R2)
	b.Param(isa.R3, 2)
	ldElem(b, isa.R4, isa.R3, isa.R0, isa.R5) // px
	b.Param(isa.R3, 3)
	ldElem(b, isa.R6, isa.R3, isa.R0, isa.R5) // py
	b.Param(isa.R7, 0)                        // image
	b.Param(isa.R8, 1)                        // template
	b.MovF(isa.R9, 1e300)                     // best SSD
	b.MovI(isa.R10, 0)                        // best offset code
	b.MovI(isa.R11, int64(-radius))           // dy
	b.Label("dyloop")
	b.SetGTI(isa.R2, isa.R11, int64(radius))
	b.CBra(isa.R2, "store")
	b.MovI(isa.R12, int64(-radius)) // dx
	b.Label("dxloop")
	b.SetGTI(isa.R2, isa.R12, int64(radius))
	b.CBra(isa.R2, "dynext")
	// SSD over the template with early exit.
	b.MovF(isa.R13, 0) // acc
	b.MovI(isa.R14, 0) // ty
	b.Label("tyloop")
	b.SetGEI(isa.R2, isa.R14, int64(tmplW))
	b.CBra(isa.R2, "cmp")
	b.MovI(isa.R15, 0) // tx
	b.Label("txloop")
	b.SetGEI(isa.R2, isa.R15, int64(tmplW))
	b.CBra(isa.R2, "tynext")
	// iy = py+dy+ty; ix = px+dx+tx
	b.Add(isa.R16, isa.R6, isa.R11)
	b.Add(isa.R16, isa.R16, isa.R14)
	b.Add(isa.R17, isa.R4, isa.R12)
	b.Add(isa.R17, isa.R17, isa.R15)
	b.MulI(isa.R16, isa.R16, int64(imgW))
	b.Add(isa.R16, isa.R16, isa.R17)
	b.MulI(isa.R16, isa.R16, 8)
	b.Add(isa.R16, isa.R16, isa.R7)
	b.Ld(isa.R18, isa.R16, 0) // image pixel
	// template pixel
	b.MulI(isa.R19, isa.R14, int64(tmplW))
	b.Add(isa.R19, isa.R19, isa.R15)
	b.MulI(isa.R19, isa.R19, 8)
	b.Add(isa.R19, isa.R19, isa.R8)
	b.Ld(isa.R20, isa.R19, 0)
	b.FSub(isa.R18, isa.R18, isa.R20)
	b.FMad(isa.R13, isa.R18, isa.R18)
	// Early exit when the partial SSD already exceeds the best.
	b.FSetGE(isa.R2, isa.R13, isa.R9)
	b.CBra(isa.R2, "cmp")
	b.AddI(isa.R15, isa.R15, 1)
	b.Bra("txloop")
	b.Label("tynext")
	b.AddI(isa.R14, isa.R14, 1)
	b.Bra("tyloop")
	b.Label("cmp")
	b.FSetLT(isa.R2, isa.R13, isa.R9)
	b.CBraZ(isa.R2, "dxnext")
	b.Mov(isa.R9, isa.R13)
	// offset code = (dy+radius)*(2r+1) + dx+radius
	b.AddI(isa.R10, isa.R11, int64(radius))
	b.MulI(isa.R10, isa.R10, int64(2*radius+1))
	b.Add(isa.R10, isa.R10, isa.R12)
	b.AddI(isa.R10, isa.R10, int64(radius))
	b.Label("dxnext")
	b.AddI(isa.R12, isa.R12, 1)
	b.Bra("dxloop")
	b.Label("dynext")
	b.AddI(isa.R11, isa.R11, 1)
	b.Bra("dyloop")
	b.Label("store")
	b.Param(isa.R3, 4)
	stElem(b, isa.R3, isa.R0, isa.R10, isa.R2)
	b.Label("exit")
	b.Exit()
	return b
}

// Next implements Workload.
func (w *heartwall) Next() (*simt.Kernel, bool) {
	if w.done {
		return nil, false
	}
	w.done = true
	return w.kern, true
}

// Verify implements Workload: replicate the early-exit search exactly.
func (w *heartwall) Verify() error {
	side := 2*w.radius + 1
	for t := 0; t < w.nPoints; t++ {
		px, py := int(w.ptsX[t]), int(w.ptsY[t])
		best := math.Inf(1)
		bestCode := int64(0)
		for dy := -w.radius; dy <= w.radius; dy++ {
			for dx := -w.radius; dx <= w.radius; dx++ {
				acc := 0.0
				early := false
				for ty := 0; ty < w.tmplW && !early; ty++ {
					for tx := 0; tx < w.tmplW; tx++ {
						iy := py + dy + ty
						ix := px + dx + tx
						d := w.img[iy*w.imgW+ix] - w.tmpl[ty*w.tmplW+tx]
						acc += float64(d * d)
						if acc >= best {
							early = true
							break
						}
					}
				}
				if acc < best {
					best = acc
					bestCode = int64((dy+w.radius)*side + dx + w.radius)
				}
			}
		}
		if got := w.mem.Load(w.outA + int64(t)*8); got != bestCode {
			return fmt.Errorf("heartwall: out[%d] = %d, want %d", t, got, bestCode)
		}
	}
	return nil
}
