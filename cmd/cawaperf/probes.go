package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"cawa"
	"cawa/internal/cache"
	"cawa/internal/checkpoint"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/harness"
	"cawa/internal/memsys"
	"cawa/internal/sched"
	"cawa/internal/simt"
	"cawa/internal/sm"
	"cawa/internal/workloads"
)

// The probes measure one layer at a time from outside, on inputs made
// from the run's seed: the same probes whichever workload the traced
// run belongs to, so a layer's cost can be read next to any end-to-end
// number. All results are HOST nanoseconds per call unless named
// otherwise; counts are exact-repeat.

const probeScale = 0.06

var sink int // defeats dead-code elimination of probed calls

// perOp calls fn for i in [0,n) in chunks and returns the median
// chunk's host nanoseconds per call.
func perOp(n, chunk int, fn func(i int)) float64 {
	var per []float64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(hi-lo))
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probes runs every isolated layer probe, each under its own span.
func (r *run) probes() {
	root := r.tr.begin("cawaperf", "layer probes", span{}, 0, 0)
	defer root.end()
	probe := func(layer, name string, fn func() error) {
		sp := r.tr.begin(layer, name, root, 0, 0)
		err := fn()
		sp.end()
		r.attempt(1)
		if err != nil {
			r.fail(1, "probe %s: %v", name, err)
		}
	}
	p := r.params(probeScale)
	cfg := cawa.GTX480()

	var stream []cache.Request
	var kmeans *cawa.Result
	probe("memsys", "record L1D stream", func() (err error) {
		stream, kmeans, err = recordL1Stream(p, cfg)
		return err
	})
	if len(stream) == 0 {
		return
	}
	probe("cache", "replay LRU", func() error { r.probeCache(stream, cfg); return nil })
	probe("core", "replay CACP", func() error {
		c := cache.New(cfg.L1D, core.NewCACP(core.DefaultCACPConfig()))
		r.layer["core.cacp_access_fill_ns"] = perOp(len(stream), 4096, func(i int) {
			if !c.Access(stream[i]) {
				c.Fill(stream[i])
			}
		})
		return nil
	})
	probe("core", "CPL", func() error { r.probeCPL(); return nil })
	probe("sched", "Select", func() error { return r.probeSched() })
	probe("memsys", "L1D + drain", func() error { r.probeMemsys(stream, cfg); return nil })
	probe("sm", "Cycle tpacf", func() (err error) {
		r.layer["sm.cycle_ns"], err = probeSM("tpacf", p, cfg)
		return err
	})
	probe("sm", "Cycle backprop", func() (err error) {
		r.layer["sm.cycle_ns_stalled"], err = probeSM("backprop", p, cfg)
		return err
	})
	probe("simt", "FunctionalLaunch kmeans", func() error { return r.probeFuncsim(p, cfg, kmeans) })
	probe("isa", "Kernel.Validate", func() error { return r.probeValidate(p) })
	probe("checkpoint", "capture/encode/decode/resume", func() error { return r.probeCheckpoint(p, cfg, kmeans) })
	probe("harness", "DiskCache store/load", func() error { return r.probeDisk(kmeans) })
}

// recordL1Stream runs kmeans and backprop under CAWA with a listener on
// SM 0's L1D and returns every request that cache accepted, in order,
// plus the kmeans result (the probes' reference run).
func recordL1Stream(p cawa.Params, cfg cawa.Config) ([]cache.Request, *cawa.Result, error) {
	var stream []cache.Request
	var kmeans *cawa.Result
	for _, app := range []string{"kmeans", "backprop"} {
		res, err := cawa.RunWith(cawa.RunOptions{
			Workload: app, Params: p, System: core.CAWA(), Config: cfg,
			AttachL1: func(smID int, l1 *memsys.L1D) {
				if smID == 0 {
					l1.AccessListener = func(req cache.Request, _ bool) { stream = append(stream, req) }
				}
			},
		})
		if err != nil {
			return nil, nil, err
		}
		if app == "kmeans" {
			kmeans = res
		}
	}
	return stream, kmeans, nil
}

// probeCache replays the recorded stream into a bare LRU L1D tag array.
func (r *run) probeCache(stream []cache.Request, cfg cawa.Config) {
	c := cache.New(cfg.L1D, cache.LRU{})
	hits := 0
	r.layer["cache.access_fill_ns"] = perOp(len(stream), 4096, func(i int) {
		if c.Access(stream[i]) {
			hits++
		} else {
			c.Fill(stream[i])
		}
	})
	r.layer["cache.replay_hit_rate"] = ratio(float64(hits), float64(len(stream)))
	r.layer["cache.probe_ns"] = perOp(len(stream), 4096, func(i int) {
		if _, _, hit := c.Probe(stream[i].Addr); hit {
			sink++
		}
	})
}

const probeSlots = 24 // ready warps per scheduler unit on a full GTX480 SM

func (r *run) probeCPL() {
	cpl := core.NewCPL()
	for s := 0; s < probeSlots; s++ {
		cpl.OnWarpArrived(s, simt.NewWarp(s, s/8, s%8, 32, 32, 64))
	}
	steps := make([]simt.Step, 64)
	for i := range steps {
		steps[i].PC = int32(i)
		if i%8 == 0 { // one conditional branch in eight issues
			steps[i].CondBranch = true
			steps[i].Divergent = i%16 == 0
			steps[i].TakenMask = 0xffff
			steps[i].Instr.Imm = int64(i + 4)
			steps[i].Instr.Rpc = int32(i + 8)
		}
	}
	r.layer["core.cpl_onissue_ns"] = perOp(1<<18, 4096, func(i int) {
		cpl.OnIssue(i%probeSlots, &steps[i%len(steps)], int64(i%5), int64(i))
	})
	var acc float64
	r.layer["core.cpl_criticality_ns"] = perOp(1<<18, 4096, func(i int) { acc += cpl.Criticality(i % probeSlots) })
	if acc < 0 {
		sink++
	}
}

func (r *run) probeSched() error {
	rng := rand.New(rand.NewSource(r.seed))
	ages, crit := make([]int64, probeSlots), make([]float64, probeSlots)
	ready := make([]int, probeSlots)
	for s := range ready {
		ready[s], ages[s], crit[s] = s, int64(rng.Intn(1000)), rng.Float64()*100
	}
	for _, name := range schedProbes {
		factory, ok := sched.Lookup(name)
		if !ok {
			return fmt.Errorf("no scheduler %q", name)
		}
		pol := factory()
		for s := range ready {
			pol.OnWarpArrived(s)
		}
		ctx := &sched.Context{
			Ready:       ready,
			Age:         func(s int) int64 { return ages[s] },
			Criticality: func(s int) float64 { return crit[s] },
			WaitingMem:  func(s int) bool { return s%3 == 0 },
		}
		r.layer["sched.select_ns."+name] = perOp(1<<17, 4096, func(i int) {
			ctx.Cycle = int64(i)
			sink += pol.Select(ctx)
		})
	}
	return nil
}

// probeMemsys drives one L1D over its own memory system with the
// recorded loads: AccessLoad in batches, then System.Cycle from event to
// event until drained (an "event" here is a delivered L1 fill, the only
// one countable from outside); then CanAccept against full MSHRs, the
// call an MSHR-blocked warp retries every cycle.
func (r *run) probeMemsys(stream []cache.Request, cfg cawa.Config) {
	sys := memsys.New(cfg)
	l1 := sys.NewL1D(cache.LRU{}, func(int64, []int64) {})
	var loads []cache.Request
	for _, req := range stream {
		if !req.Write {
			loads = append(loads, req)
		}
	}
	var now int64
	var access, drain time.Duration
	for lo := 0; lo < len(loads); lo += 64 {
		hi := min(lo+64, len(loads))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			now++
			l1.AccessLoad(loads[i], int64(i), now)
		}
		t1 := time.Now()
		for !sys.Drained() {
			now = max(now, sys.NextEventTime())
			sys.Cycle(now)
		}
		access += t1.Sub(t0)
		drain += time.Since(t1)
	}
	r.layer["memsys.accessload_ns"] = ratio(float64(access.Nanoseconds()), float64(len(loads)))
	r.layer["memsys.drain_ns_per_event"] = ratio(float64(drain.Nanoseconds()), float64(sys.FillsDelivered))
	r.layer["memsys.l1d_rejects"] = float64(l1.Rejects)

	full := memsys.New(cfg).NewL1D(cache.LRU{}, func(int64, []int64) {})
	line := int64(cfg.L1D.LineBytes)
	for i := int64(0); full.AccessLoad(cache.Request{Addr: i * line}, i, 1) != memsys.Reject; i++ {
	}
	lines := make([]int64, cfg.WarpSize) // a fully scattered warp: one new line per lane
	for i := range lines {
		lines[i] = int64(1<<20+i) * line
	}
	r.layer["memsys.canaccept_ns"] = perOp(1<<17, 4096, func(int) {
		if full.CanAccept(lines) {
			sink++
		}
	})
}

// probeSM ticks one SM over its own memory system, cycle by cycle with
// no fast-forward, on the first kernel of app, and returns the median
// host nanoseconds per simulated SM cycle over 1024-cycle chunks.
func probeSM(app string, p cawa.Params, cfg cawa.Config) (float64, error) {
	wl, err := workloads.New(app, p)
	if err != nil {
		return 0, err
	}
	k, ok := wl.Next()
	if !ok {
		return 0, fmt.Errorf("%s has no kernel", app)
	}
	sys := memsys.New(cfg)
	m := sm.New(sm.Options{Config: cfg, Memory: wl.Mem(), MemSys: sys})
	m.SetKernel(k)
	warps := k.WarpsPerBlock(cfg.WarpSize)
	next, freed := 0, true
	m.OnBlockDone = func(int, int64) { freed = true }
	var now int64
	var per []float64
	for chunk := 0; chunk < 48 && !(next >= k.GridDim && m.Idle()); chunk++ {
		t0 := time.Now()
		for i := 0; i < 1024; i++ {
			if freed {
				for next < k.GridDim && m.CanAcceptBlock() {
					m.DispatchBlock(next, next*warps, now)
					next++
				}
				freed = false
			}
			now++
			sys.Cycle(now)
			m.Cycle(now)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1024)
		m.Finished = m.Finished[:0]
	}
	return median(per), nil
}

// probeFuncsim replays kmeans functionally (no timing model) and
// divides by the warp instructions the timing run committed.
func (r *run) probeFuncsim(p cawa.Params, cfg cawa.Config, ref *cawa.Result) error {
	wl, err := workloads.New("kmeans", p)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for {
		k, ok := wl.Next()
		if !ok {
			break
		}
		if err := checkpoint.FunctionalLaunch(k, wl.Mem(), cfg.WarpSize); err != nil {
			return err
		}
	}
	dt := time.Since(t0)
	r.layer["simt.funcsim_ns_per_warp_instr"] = ratio(float64(dt.Nanoseconds()), float64(ref.Agg.Instructions))
	return wl.Verify()
}

// probeValidate times the static verifier on each paper app's first
// kernel and reports the median app.
func (r *run) probeValidate(p cawa.Params) error {
	var per []float64
	for _, app := range harness.PaperApps {
		wl, err := workloads.New(app, p)
		if err != nil {
			return err
		}
		k, _ := wl.Next()
		var us []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if err := k.Validate(); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		per = append(per, median(us))
	}
	r.layer["isa.validate_us"] = median(per)
	return nil
}

// probeCheckpoint cuts a kmeans run at a fixed simulated cycle: its own
// per-cycle hook times Capture, Encode and Decode there and cancels the
// run; RunCheckpointed then resumes from the harness's last periodic
// checkpoint, and the resumed result must carry the uninterrupted run's
// digest.
func (r *run) probeCheckpoint(p cawa.Params, cfg cawa.Config, ref *cawa.Result) error {
	at := ref.Agg.Cycles / 4
	every := at / 2
	opt := harness.RunOptions{Workload: "kmeans", Params: p, System: core.CAWA(), Config: cfg}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := opt
	done := false
	var hookErr error
	cut.PerCycle = func(g *gpu.GPU, cycle int64) {
		if done || cycle < at {
			return
		}
		done = true
		defer cancel()
		t0 := time.Now()
		snap, err := checkpoint.Capture(g, checkpoint.Meta{Workload: "kmeans"})
		if err != nil {
			hookErr = err
			return
		}
		r.layer["checkpoint.capture_ms"] = ms(time.Since(t0))
		var buf bytes.Buffer
		t0 = time.Now()
		if _, err := checkpoint.Encode(&buf, snap); err != nil {
			hookErr = err
			return
		}
		r.layer["checkpoint.encode_ms"] = ms(time.Since(t0))
		r.layer["checkpoint.bytes"] = float64(buf.Len())
		t0 = time.Now()
		if _, err := checkpoint.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			hookErr = err
			return
		}
		r.layer["checkpoint.decode_ms"] = ms(time.Since(t0))
	}
	cut.PerCycleWake = func(now int64) int64 {
		if done {
			return now + 1<<40
		}
		return max(at, now+1)
	}
	_, last, err := harness.RunCheckpointed(ctx, cut, every, nil)
	if hookErr != nil {
		return hookErr
	}
	if err == nil || last == nil {
		return fmt.Errorf("cut run did not stop with a checkpoint (err=%v)", err)
	}
	t0 := time.Now()
	res, _, err := harness.RunCheckpointed(context.Background(), opt, every, last)
	if err != nil {
		return err
	}
	r.layer["checkpoint.resume_ms"] = ms(time.Since(t0))
	key := cellKey(cfg, p, "kmeans", core.CAWA())
	r.checkDigest(key, ref)
	r.checkDigest(key, res)
	return nil
}

// probeDisk stores and loads the kmeans result through a DiskCache.
func (r *run) probeDisk(res *cawa.Result) error {
	dir, err := os.MkdirTemp("", "cawaperf-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := harness.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	res.ReleaseGPU()
	const n = 20
	var store, load []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := d.Store(fmt.Sprintf("probe-%d", i), res); err != nil {
			return err
		}
		store = append(store, ms(time.Since(t0)))
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, ok := d.Load(fmt.Sprintf("probe-%d", i)); !ok {
			return fmt.Errorf("entry %d did not load back", i)
		}
		load = append(load, ms(time.Since(t0)))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var size int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	r.layer["harness.disk_store_ms"] = median(store)
	r.layer["harness.disk_load_ms"] = median(load)
	r.layer["harness.disk_entry_kb"] = float64(size) / n / 1024
	return nil
}
