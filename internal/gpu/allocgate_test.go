package gpu

import (
	"runtime"
	"strings"
)

// simAllocs runs f twice at GOMAXPROCS 1, as testing.AllocsPerRun(1, f)
// does — once to warm up, once measured — and returns how many heap
// objects the measured call's simulator code allocated: the allocations
// whose stacks pass through a cawa/internal/ function. Every allocation
// of the window is profiled (MemProfileRate 1), and the profile is read
// just before and just after it, never inside. The profile does not see
// a tiny (pointer-free, under 16 bytes) allocation that shares a block
// with an earlier one, but the GC cycles before the window empty the
// tiny block, so a window that allocates at all counts at least one.
//
// AllocsPerRun counts every malloc of the process instead. After a GC
// cycle the runtime's background scavenger wakes, works, and goes back
// to sleep on a timer; putting that timer on a P whose timer heap is
// empty grows the heap's slice by one 16-byte entry
// (runtime.(*timers).addHeap under runtime.bgscavenge). When that landed
// inside a window, a gate whose simulator allocates nothing read 1. That
// allocation has no cawa/internal/ frame, so it is not counted here.
// internal/sm's gates use a copy of this helper; SimAllocs exports it
// to the external tests.
func simAllocs(f func()) int64 { return simAllocsUnder("cawa/internal/", f) }

// simAllocsUnder is simAllocs counting only the allocations whose
// stacks pass through a function whose name starts with under (a
// package path and its dot, say, to count one package's own).
func simAllocsUnder(under string, f func()) int64 {
	// One P, as AllocsPerRun: a helper domain parking on a channel on a
	// second P draws a sudog from that P's cache, which can run dry and
	// refill by allocating.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	f()
	runtime.MemProfileRate = 1
	before := simAllocProfile(under)
	f()
	return simAllocProfile(under) - before
}

// simAllocProfile returns the objects allocated so far by stacks that
// pass through a function named under..., except its own.
func simAllocProfile(under string) int64 {
	// A record is published two GC cycles after its allocation.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var objects int64
	for _, r := range recs[:n] {
		sim := false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if strings.HasSuffix(fr.Function, ".simAllocProfile") {
				sim = false
				break
			}
			sim = sim || strings.HasPrefix(fr.Function, under)
		}
		if sim {
			objects += r.AllocObjects
		}
	}
	return objects
}

// SimAllocs and SimAllocsUnder are simAllocs and simAllocsUnder for the
// external test package.
var SimAllocs, SimAllocsUnder = simAllocs, simAllocsUnder
