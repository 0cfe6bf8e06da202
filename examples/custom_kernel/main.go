// custom_kernel shows the text-assembly and tracing APIs: a kernel
// written in mini-ISA assembly is parsed, launched on the simulated
// GPU with an issue-event collector attached, and profiled for its
// hottest (stalliest) program counters.
package main

import (
	"context"
	"fmt"
	"log"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/obs"
	"cawa/internal/simt"
	"cawa/internal/sm"
)

// A histogram kernel in textual mini-ISA assembly: each thread walks a
// private slice of the input and bins values into a private histogram
// region (no data races; the host reduces).
const histogramAsm = `
// params: [0]=input [1]=hist [2]=perThread [3]=bins
    sreg   r0, %gtid
    param  r1, 2            // per-thread element count
    mul    r2, r0, r1       // my first element index
    param  r3, 0
    param  r4, 1
    param  r5, 3            // bins
    mul    r6, r0, r5
    mul    r6, r6, 8
    add    r6, r6, r4       // my private histogram base
    movi   r7, 0            // i
loop:
    set.ge r8, r7, r1
    cbra   r8, @done
    add    r9, r2, r7
    mul    r9, r9, 8
    add    r9, r9, r3
    ld.global r10, [r9+0]   // v = input[first+i]
    rem    r10, r10, r5     // bin = v % bins
    mul    r10, r10, 8
    add    r10, r10, r6
    ld.global r11, [r10+0]
    add    r11, r11, 1
    st.global [r10+0], r11  // hist[bin]++
    add    r7, r7, 1
    bra    @loop
done:
    exit
`

func main() {
	prog, err := isa.Parse("histogram", histogramAsm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(prog.Disasm())

	const (
		threads   = 2048
		perThread = 16
		bins      = 8
		blockDim  = 256
	)
	mem := memory.New(1 << 24)
	input := mem.Alloc(threads * perThread)
	hist := mem.Alloc(threads * bins)
	for i := 0; i < threads*perThread; i++ {
		mem.Store(input+int64(i)*8, int64(i)*2654435761>>8&0x7FFFFFFF)
	}
	kernel := &simt.Kernel{
		Name:     "histogram",
		Program:  prog,
		GridDim:  threads / blockDim,
		BlockDim: blockDim,
		Params:   []int64{input, hist, perThread, bins},
	}

	collector := obs.NewCollector(1 << 16)
	g, err := gpu.New(gpu.Options{
		Config:      config.GTX480(),
		Memory:      mem,
		Criticality: collector.Wrap(func() sm.CriticalityProvider { return core.NewCPL() }),
	})
	if err != nil {
		log.Fatal(err)
	}
	launch, err := g.Launch(context.Background(), kernel)
	if err != nil {
		log.Fatal(err)
	}

	// Host-side reduction + sanity check.
	total := int64(0)
	counts := make([]int64, bins)
	for t := 0; t < threads; t++ {
		for b := 0; b < bins; b++ {
			v := mem.Load(hist + int64(t*bins+b)*8)
			counts[b] += v
			total += v
		}
	}
	if total != threads*perThread {
		log.Fatalf("histogram total %d, want %d", total, threads*perThread)
	}

	fmt.Printf("\n%d cycles, IPC %.1f, coalescing %.2f txn/mem-instr\n",
		launch.Cycles, launch.IPC(), launch.CoalescingFactor())
	fmt.Printf("bins: %v (total %d)\n", counts, total)

	fmt.Println("\nhottest PCs across all SMs (by accumulated stall):")
	for _, p := range collector.HotPCs(5) {
		fmt.Printf("  pc=%-3d %-10s issues=%-7d stall=%d\n", p.PC, p.Op, p.Issues, p.Stall)
	}
}
