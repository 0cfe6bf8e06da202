package obs

import (
	"fmt"

	"cawa/internal/gpu"
	"cawa/internal/sm"
)

// Sample is one time point of one series.
type Sample struct {
	Cycle int64   `json:"cycle"`
	Value float64 `json:"value"`
}

// Series is the sampled history of one metric.
type Series struct {
	// Name is the canonical label ("sm3/ipc", "gpu/l1d_hit_rate").
	Name string `json:"name"`
	// SM is the owning SM, or GPUScope for device-wide series.
	SM      int      `json:"sm"`
	Samples []Sample `json:"samples"`
}

// Sampler polls a Registry every N cycles and accumulates one Series
// per metric. Assign OnCycle to gpu.GPU.PerCycle (or
// harness.RunOptions.PerCycle); the sampler binds the standard GPU
// metrics on the first callback, so it can be constructed before the
// GPU exists. The off-sample fast path is one comparison.
type Sampler struct {
	every int64
	reg   *Registry

	bound     bool
	next      int64
	lastCycle int64
	prev      []float64 // previous cumulative values (Rate)
	prevNum   []float64 // previous numerators (Ratio)
	prevDen   []float64 // previous denominators (Ratio)
	series    []*Series
}

// DefaultSampleEvery is the sampling cadence the CLIs use when
// observability is requested without an explicit -sample-every.
const DefaultSampleEvery = 1000

// NewSampler creates a sampler polling the given registry. A nil
// registry means "bind the standard GPU metrics on first OnCycle".
func NewSampler(reg *Registry, every int64) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Sampler{every: every, reg: reg}
}

// Every returns the sampling interval in cycles.
func (s *Sampler) Every() int64 { return s.every }

// OnCycle is the gpu.PerCycle hook: it samples every metric each time
// the cycle counter crosses the sampling cadence.
func (s *Sampler) OnCycle(g *gpu.GPU, cycle int64) {
	if s.bound && cycle < s.next {
		return
	}
	if !s.bound {
		s.bind(g, cycle)
	}
	if cycle < s.next {
		return
	}
	s.sample(cycle)
	s.next = cycle + s.every
}

// NextWake reports the next cycle at which OnCycle needs to observe
// the GPU, for gpu.PerCycleWake (or harness.RunOptions.PerCycleWake):
// with the wake hint wired up, the engine can run multi-cycle spans
// and skip dead cycles while still firing the sampler at exactly the
// cycles it would fire at if every cycle were ticked. Before the first
// OnCycle call the sampler is unbound and must observe the next cycle.
func (s *Sampler) NextWake(now int64) int64 {
	if !s.bound {
		return now + 1
	}
	return s.next
}

// bind finalizes the registry against the observed GPU and allocates
// the per-metric state.
func (s *Sampler) bind(g *gpu.GPU, cycle int64) {
	if s.reg == nil {
		s.reg = StandardRegistry(g)
	}
	n := len(s.reg.metrics)
	s.prev = make([]float64, n)
	s.prevNum = make([]float64, n)
	s.prevDen = make([]float64, n)
	s.series = make([]*Series, n)
	for _, fn := range s.reg.prepares {
		fn()
	}
	for i := range s.reg.metrics {
		m := &s.reg.metrics[i]
		s.series[i] = &Series{Name: m.Label(), SM: m.SM}
		switch m.Kind {
		case Rate:
			s.prev[i] = m.probe()
		case Ratio:
			s.prevNum[i], s.prevDen[i] = m.num(), m.den()
		}
	}
	// Deltas accumulate from the cycle the sampler first observed, so
	// the first sample covers a well-defined window.
	s.lastCycle = cycle - 1
	s.bound = true
}

// sample appends one time point to every series.
func (s *Sampler) sample(cycle int64) {
	interval := float64(cycle - s.lastCycle)
	if interval <= 0 {
		interval = 1
	}
	for _, fn := range s.reg.prepares {
		fn()
	}
	for i := range s.reg.metrics {
		m := &s.reg.metrics[i]
		var v float64
		switch m.Kind {
		case Gauge:
			v = m.probe()
		case Rate:
			cur := m.probe()
			v = (cur - s.prev[i]) / interval
			s.prev[i] = cur
		case Ratio:
			num, den := m.num(), m.den()
			if dd := den - s.prevDen[i]; dd > 0 {
				v = (num - s.prevNum[i]) / dd
			}
			s.prevNum[i], s.prevDen[i] = num, den
		}
		s.series[i].Samples = append(s.series[i].Samples, Sample{Cycle: cycle, Value: v})
	}
	s.lastCycle = cycle
}

// Series returns the accumulated series (empty until the first sample
// fires). The slices are live; read them after the run completes.
func (s *Sampler) Series() []*Series {
	return s.series
}

// StandardRegistry registers the stock metric set against a GPU:
// device-wide IPC, active/stalled warp counts, L1D and L2 hit rates
// and criticality spread, plus per-SM IPC, warp-state gauges, L1D hit
// rate, MSHR occupancy, criticality spread, and the per-scheduler pick
// distribution.
func StandardRegistry(g *gpu.GPU) *Registry {
	r := &Registry{}
	sms := g.SMs()

	// One slot scan per SM per sample feeds all warp-state gauges.
	states := make([]sm.ObsState, len(sms))
	r.Prepare(func() {
		for i, m := range sms {
			states[i] = m.ObsState()
		}
	})

	sumStates := func(f func(sm.ObsState) float64) func() float64 {
		return func() float64 {
			var t float64
			for i := range states {
				t += f(states[i])
			}
			return t
		}
	}

	r.Rate("ipc", GPUScope, func() float64 {
		var t int64
		for _, m := range sms {
			t += m.ThreadInstrs
		}
		return float64(t)
	})
	r.Gauge("active_warps", GPUScope, sumStates(func(o sm.ObsState) float64 { return float64(o.Active()) }))
	r.Gauge("stalled_warps", GPUScope, sumStates(func(o sm.ObsState) float64 { return float64(o.Stalled()) }))
	r.Ratio("l1d_hit_rate", GPUScope,
		func() float64 {
			var hits uint64
			for _, m := range sms {
				l1 := m.L1D()
				hits += l1.LoadAccesses + l1.StoreAccesses - l1.LoadMisses - l1.StoreMisses
			}
			return float64(hits)
		},
		func() float64 {
			var acc uint64
			for _, m := range sms {
				l1 := m.L1D()
				acc += l1.LoadAccesses + l1.StoreAccesses
			}
			return float64(acc)
		})
	l2 := g.MemSys().L2()
	r.Ratio("l2_hit_rate", GPUScope,
		func() float64 { return float64(l2.Accesses - l2.Misses) },
		func() float64 { return float64(l2.Accesses) })
	r.Gauge("crit_spread", GPUScope, func() float64 {
		var best float64
		for i := range states {
			if s := states[i].CritSpread; s > best {
				best = s
			}
		}
		return best
	})

	for i, m := range sms {
		i, m := i, m
		r.Rate("ipc", i, func() float64 { return float64(m.ThreadInstrs) })
		r.Gauge("active_warps", i, func() float64 { return float64(states[i].Active()) })
		r.Gauge("stalled_warps", i, func() float64 { return float64(states[i].Stalled()) })
		r.Ratio("l1d_hit_rate", i,
			func() float64 {
				l1 := m.L1D()
				return float64(l1.LoadAccesses + l1.StoreAccesses - l1.LoadMisses - l1.StoreMisses)
			},
			func() float64 {
				l1 := m.L1D()
				return float64(l1.LoadAccesses + l1.StoreAccesses)
			})
		r.Gauge("mshr_occupancy", i, func() float64 { return float64(m.L1D().MSHROccupancy()) })
		r.Gauge("crit_spread", i, func() float64 { return states[i].CritSpread })
		for u := 0; u < m.Schedulers(); u++ {
			u := u
			r.Rate(fmt.Sprintf("sched%d_picks", u), i, func() float64 { return float64(m.SchedulerIssued(u)) })
		}
	}
	return r
}
