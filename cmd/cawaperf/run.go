package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cawa"
	"cawa/internal/core"
	"cawa/internal/harness"
	"cawa/internal/obs/perf"
)

// passStats is what one pass over a workload's job list delivered.
type passStats struct {
	wall   time.Duration
	jobMS  []float64 // host milliseconds of each job
	cycles int64     // simulated cycles of the results delivered
}

// passFunc runs the workload's job list once. A traced pass records
// spans and layer observations into the run; an untraced pass only
// checks and times.
type passFunc func(traced bool) (passStats, error)

// workload is one named set of inputs. setup builds the inputs from the
// run's seed and performs one discarded warm-up pass, returning the
// pass to time and a cleanup.
type workload struct {
	name  string
	why   string
	setup func(r *run) (passFunc, func(), error)
}

// run is one child process: one workload, one seed.
type run struct {
	wl      workload
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
	clients int // closed-loop clients and session workers: min(nproc, 4)

	tr   *tracer // nil except during the traced pass and the probes
	root span    // the traced pass's span, parent of its jobs
	job  int     // id of the last job begun

	attempted, failed int
	digests           map[string]string // cell key -> sha256 of the Result's JSON
	layer             map[string]float64
	obs               engineObs
}

// scale picks the workload size: full is sized so one pass fits several
// times in runSeconds on two cores; -smoke shrinks everything.
func (r *run) scale(full float64) float64 {
	if r.smoke {
		return 0.03
	}
	return full
}

// apps trims an application list for -smoke: the first one only.
func (r *run) apps(full []string) []string {
	if r.smoke {
		return full[:1]
	}
	return full
}

// smokeApps replaces the twelve paper apps in the session-based
// workloads under -smoke: three that simulate in milliseconds.
var smokeApps = []string{"b+tree", "pathfinder", "tpacf"}

func (r *run) paperApps() []string {
	if r.smoke {
		return smokeApps
	}
	return harness.PaperApps
}

func (r *run) params(full float64) cawa.Params {
	return cawa.Params{Scale: r.scale(full), Seed: r.seed}
}

func (r *run) nextJob() int {
	r.job++
	return r.job
}

// attempt counts n operations; fail counts n of them as failed and says
// why on standard error.
func (r *run) attempt(n int) { r.attempted += n }

func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "cawaperf: %s: FAILED: %s\n", r.wl.name, fmt.Sprintf(format, args...))
}

// cellKey names one simulation cell across workloads and runs.
func cellKey(cfg cawa.Config, p cawa.Params, app string, sc core.SystemConfig) string {
	key, err := sc.Key()
	if err != nil {
		key = sc.Label()
	}
	return fmt.Sprintf("%s|scale=%g|%s|%s", cfg.Name, p.Scale, app, key)
}

// checkDigest hashes the canonical JSON of res (encoding/json sorts map
// keys, and Result.GPU is excluded) and fails the operation if the same
// cell ever produced a different digest in this run: across passes,
// across engines, across cache tiers.
func (r *run) checkDigest(key string, res *cawa.Result) {
	data, err := json.Marshal(res)
	if err != nil {
		r.fail(1, "%s: marshal: %v", key, err)
		return
	}
	sum := sha256.Sum256(data)
	d := hex.EncodeToString(sum[:])
	if prev, ok := r.digests[key]; ok && prev != d {
		r.fail(1, "%s: stats digest changed within the run (%s -> %s)", key, prev[:12], d[:12])
		return
	}
	r.digests[key] = d
}

//go:embed testdata/digests_seed7.json
var goldenJSON []byte

const goldenSeed = 7

// digestMismatch counts cells whose digest differs from the committed
// golden. It is reported loudly but is not a failed operation, so a
// deliberate model-fidelity change is not blocked by it. Only seed 7 has
// a golden; other seeds (and cells the golden lacks, e.g. -smoke sizes)
// count nothing.
func digestMismatch(workload string, seed int64, digests map[string]string) int {
	if seed != goldenSeed {
		return 0
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(os.Stderr, "cawaperf: golden digests unreadable: %v\n", err)
		return 0
	}
	n := 0
	for key, d := range digests {
		if want, ok := golden[key]; ok && want != d {
			fmt.Fprintf(os.Stderr, "cawaperf: %s: DIGEST MISMATCH vs golden: %s\n", workload, key)
			n++
		}
	}
	return n
}

// engineObs accumulates, over the jobs of a traced pass, what the
// engine's own profiler and statistics say: host nanoseconds per phase
// and simulated cycles per stall cause.
type engineObs struct {
	jobWall  time.Duration // summed host time of the simulations
	cycles   int64         // simulated cycles
	smCycles int64         // simulated cycles x NumSMs
	launches int
	phaseNS  map[string]int64
	epochs   int64

	// Simulated warp-cycles by cause (stats.WarpRecord), exact.
	resident, mem, sched, alu, barrier int64
	threadInstrs                       int64
}

func (o *engineObs) addResult(res *cawa.Result, numSMs int) {
	o.cycles += res.Agg.Cycles
	o.smCycles += res.Agg.Cycles * int64(numSMs)
	o.launches += res.Launches
	o.threadInstrs += res.Agg.ThreadInstrs
	for i := range res.Agg.Warps {
		w := &res.Agg.Warps[i]
		o.resident += w.ExecTime()
		o.mem += w.MemStall
		o.sched += w.SchedStall
		o.alu += w.ALUStall
		o.barrier += w.BarrierStall
	}
}

func (o *engineObs) addReport(rep *perf.Report) {
	if rep == nil {
		return
	}
	if o.phaseNS == nil {
		o.phaseNS = map[string]int64{}
	}
	for _, ph := range enginePhases {
		o.phaseNS[ph] += rep.PhaseTotalNS(ph)
	}
	o.epochs += rep.Epochs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emit turns the accumulated observations into per-layer metrics. Phase
// fractions divide by the summed simulation wall, not the pass wall, so
// they stay shares of engine time when several simulations overlap;
// nested seams are not subtracted (DESIGN.md "Self-profiling").
func (o *engineObs) emit(layer map[string]float64) {
	ns := float64(o.jobWall.Nanoseconds())
	layer["gpu.ns_per_sim_cycle"] = ratio(ns, float64(o.cycles))
	layer["gpu.ns_per_sm_cycle"] = ratio(ns, float64(o.smCycles))
	for _, ph := range enginePhases {
		layer["gpu.phase_frac."+ph] = ratio(float64(o.phaseNS[ph]), ns)
	}
	layer["gpu.barriers_per_kcycle"] = ratio(float64(o.epochs)*1000, float64(o.cycles))
	layer["gpu.us_per_launch"] = ratio(ns/1e3, float64(o.launches))
	res := float64(o.resident)
	layer["sm.stall_frac.mem"] = ratio(float64(o.mem), res)
	layer["sm.stall_frac.sched"] = ratio(float64(o.sched), res)
	layer["sm.stall_frac.alu"] = ratio(float64(o.alu), res)
	layer["sm.stall_frac.barrier"] = ratio(float64(o.barrier), res)
	layer["sm.ipc"] = ratio(float64(o.threadInstrs), float64(o.cycles))
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload: setup (with its warm-up pass), then either
// timed passes for runSeconds (end-to-end metrics) or one untraced and
// one traced pass plus the layer probes (per-layer metrics).
func (r *run) execute(trace bool) (*result, error) {
	r.digests = map[string]string{}
	r.layer = map[string]float64{}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	pass, cleanup, err := r.wl.setup(r)
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		return nil, err
	}
	setup := time.Since(procStart)

	out := &result{Metrics: map[string]metricValue{}}
	if !trace {
		minPasses := 3
		if r.smoke {
			minPasses = 1
		}
		var walls, rates []float64
		jobs := 0
		deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		for n := 0; n < minPasses || (!r.smoke && time.Now().Before(deadline)); n++ {
			ps, err := pass(false)
			if err != nil {
				return nil, err
			}
			walls = append(walls, ps.wall.Seconds())
			rates = append(rates, ratio(float64(ps.cycles)/1e3, ps.wall.Seconds()))
			jobs += len(ps.jobMS)
		}
		values := map[string]float64{
			"setup_s":           setup.Seconds(),
			"wall_s":            median(walls),
			"sim_kcycles_per_s": median(rates),
		}
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
		fmt.Fprintf(os.Stderr, "cawaperf: %s: %d timed passes, %d jobs\n", r.wl.name, len(walls), jobs)
	} else {
		plain, err := pass(false)
		if err != nil {
			return nil, err
		}
		r.tr = &tracer{}
		r.root = r.tr.begin("cawaperf", "traced pass", span{}, 0, 0)
		traced, err := pass(true)
		r.root.end()
		if err != nil {
			return nil, err
		}
		r.obs.emit(r.layer)
		// Job latency comes from the untraced pass: traced serve requests
		// go through the async API, whose polling is not what a user sees.
		r.layer["host.job_p50_ms"] = median(plain.jobMS)
		r.layer["host.job_p99_ms"] = percentile(plain.jobMS, 99)
		fmt.Fprintf(os.Stderr, "cawaperf: %s: host.job_p50_ms, host.job_p99_ms over %d samples\n", r.wl.name, len(plain.jobMS))
		r.layer["gpu.trace_overhead_frac"] = ratio((traced.wall - plain.wall).Seconds(), plain.wall.Seconds())
		if !r.smoke {
			r.probes()
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.layer["host.peak_rss_mb"] = peakRSSMB()
		// Two passes (plus the warm-up) ran; report the allocation of one.
		r.layer["host.alloc_mb_per_pass"] = float64(after.TotalAlloc-before.TotalAlloc) / 3 / (1 << 20)
		r.layer["host.gc_cpu_frac"] = after.GCCPUFraction
		r.layer["digest_mismatch"] = float64(digestMismatch(r.wl.name, r.seed, r.digests))
		for _, m := range perLayer {
			out.Metrics[m.Name] = metricValue{r.layer[m.Name], m.Unit}
		}
		if err := r.tr.writeChrome(filepath.Join(r.outDir, "trace.json"), "cawaperf "+r.wl.name); err != nil {
			return nil, err
		}
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0 && r.attempted > 0
	return out, nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
