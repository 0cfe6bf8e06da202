// Command cawaperf is the repository's benchmark: eight workloads in
// four families, three end-to-end metrics per workload and the per-layer
// metrics underneath them, registered in the root BENCHMARK.json.
//
//	cawaperf -workload NAME -seed N -seconds S -trace 0|1   one run, one JSON line last
//	cawaperf -seed N -out DIR [-runs K] [-trace 1]          every workload, each in its own child process
//	cawaperf -smoke -out DIR                                the same at a tiny size, one pass, no probes
//	cawaperf -compare A/results.json B/results.json         verdict per workload x end-to-end metric
//
// See README.md for what each workload and metric means.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"cawa/internal/core"
)

var catalog = []workload{
	{"issue_dense", "kmeans, strcltr_mid, tpacf x lrr/gto/cawa on GTX480, serial engine: host time is SM issue, simt execute and scheduler select, not the memory system",
		engineWorkload([]string{"kmeans", "strcltr_mid", "tpacf"}, lrrGtoCawa, 0.06, false)},
	{"issue_dense.smpar", "kmeans, strcltr_mid x cawa with SMWorkers=min(nproc,4): same gpu layer through domains and barriers, so a gain for one engine that costs the other shows",
		engineWorkload([]string{"kmeans", "strcltr_mid"}, []core.SystemConfig{core.CAWA()}, 0.06, true)},
	{"mem_retry", "backprop, b+tree x lrr/gto/cawa on GTX480, serial: MSHR-full warps retry memsys.CanAccept and cache.Probe every cycle; simt is a few percent, so an issue-path gain predicts no change",
		engineWorkload([]string{"backprop", "b+tree"}, lrrGtoCawa, 0.05, false)},
	{"fig9_sweep.cold", "RunExperiment(fig9), 48 cells on SmallConfig, fresh session and empty disk cache: the paper user's job; adds pool, singleflight, disk write-through and table build on launch-bound apps",
		sweepWorkload(false)},
	{"fig9_sweep.diskwarm", "the same sweep from a fresh session over a populated disk cache: no simulation at all, only DiskCache.Load, JSON decode and table build; an engine gain predicts no change",
		sweepWorkload(true)},
	{"serve_mix.miss", "36 distinct keys POSTed to a fresh service: every reply is a simulation, so serve and JSON-encode gains predict no change here",
		serveWorkload("miss")},
	{"serve_mix.hit", "2000 requests per pass over 36 cached keys in a seeded shuffle: bypasses the engine entirely; measures serve, the session cache and re-encoding a ~130 kB result per reply",
		serveWorkload("hit")},
	{"serve_mix.restart", "a new session and service over a populated disk cache, the 36 keys once: every reply is a disk-cache read plus encode, as after a cawaserve restart",
		serveWorkload("restart")},
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print its result as the last line")
		seed    = flag.Int64("seed", goldenSeed, "seed of the generated inputs (Params.Seed) and of the request shuffle")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics from a traced pass and the layer probes, and write trace.json")
		out     = flag.String("out", "", "directory for results.json and trace.json (default: a cawaperf-out directory under $TMPDIR)")
		runs    = flag.Int("runs", 1, "with no -workload: runs per workload, seeds seed, seed+1, ...")
		smoke   = flag.Bool("smoke", false, "tiny inputs, one timed pass, no layer probes")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments")
		bench   = flag.Bool("benchmark-json", false, "print BENCHMARK.json and exit")
		golden  = flag.String("update-golden", "", "with no -workload: write the digests of every cell at -seed to this file")
		profile = flag.String("cpuprofile", "", "with -workload: write a CPU profile of the run to this file")
	)
	flag.Parse()
	switch {
	case *bench:
		check(writeBenchmarkJSON(os.Stdout))
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: cawaperf -compare A/results.json B/results.json")
		}
		check(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name != "":
		check(child(*name, *seed, *seconds, *trace != 0, *smoke, *out, *profile))
	default:
		check(parent(*seed, *seconds, *trace != 0, *smoke, *out, *runs, *golden))
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cawaperf: "+format+"\n", args...)
	os.Exit(1)
}

func outDir(out string) (string, error) {
	if out == "" {
		out = filepath.Join(os.TempDir(), "cawaperf-out")
	}
	return out, os.MkdirAll(out, 0o755)
}

// child runs one workload in this process. Every metric is printed as
// "workload metric value unit"; the result object is the last line.
func child(name string, seed int64, seconds float64, trace, smoke bool, out, profile string) error {
	var wl *workload
	for i := range catalog {
		if catalog[i].name == name {
			wl = &catalog[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	out, err := outDir(out)
	if err != nil {
		return err
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	r := &run{wl: *wl, seed: seed, seconds: seconds, smoke: smoke, outDir: out, clients: min(runtime.NumCPU(), 4)}
	res, err := r.execute(trace)
	if err != nil {
		return err
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Printf("%s %s %.6g %s\n", name, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if trace {
		if err := writeDigests(filepath.Join(out, "digests.json"), r.digests); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func writeDigests(path string, digests map[string]string) error {
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// results is the results.json document: host stamps, then per workload
// every run's value of every metric.
type results struct {
	Seed       int64                      `json:"seed"`
	Runs       int                        `json:"runs"`
	RunSeconds float64                    `json:"run_seconds"`
	Smoke      bool                       `json:"smoke,omitempty"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Clients    int                        `json:"clients"`
	GoVersion  string                     `json:"go_version"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	EndToEnd  map[string]*metricSeries `json:"end_to_end"`
	PerLayer  map[string]*metricSeries `json:"per_layer,omitempty"`
}

// metricSeries is one metric's value on each run; Median is what
// -compare reads, Values what it takes the spread from.
type metricSeries struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

func (w *workloadResult) add(into map[string]*metricSeries, res *result) {
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	for name, v := range res.Metrics {
		s := into[name]
		if s == nil {
			s = &metricSeries{Unit: v.Unit}
			into[name] = s
		}
		s.Values = append(s.Values, v.Value)
		s.Median = median(s.Values)
	}
}

// parent runs every workload, each run in its own re-exec'd child so
// heap, GC state and caches never leak from one workload into the next.
func parent(seed int64, seconds float64, trace, smoke bool, out string, runs int, golden string) error {
	out, err := outDir(out)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := &results{
		Seed: seed, Runs: runs, RunSeconds: seconds, Smoke: smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: min(runtime.NumCPU(), 4),
		GoVersion: runtime.Version(), Workloads: map[string]*workloadResult{},
	}
	spawn := func(w workload, seed int64, trace bool) (*result, error) {
		dir := filepath.Join(out, w.name)
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", dir}
		if trace {
			args = append(args, "-trace", "1")
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		last := lines[len(lines)-1]
		for _, row := range lines[:len(lines)-1] {
			fmt.Printf("%s\n", row)
		}
		res := &result{}
		return res, json.Unmarshal(last, res)
	}
	allDigests := map[string]string{}
	for _, w := range catalog {
		wr := &workloadResult{EndToEnd: map[string]*metricSeries{}}
		doc.Workloads[w.name] = wr
		for i := 0; i < runs; i++ {
			res, err := spawn(w, seed+int64(i), false)
			if err != nil {
				return err
			}
			wr.add(wr.EndToEnd, res)
		}
		if trace || golden != "" {
			res, err := spawn(w, seed, true)
			if err != nil {
				return err
			}
			wr.PerLayer = map[string]*metricSeries{}
			wr.add(wr.PerLayer, res)
			data, err := os.ReadFile(filepath.Join(out, w.name, "digests.json"))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &allDigests); err != nil {
				return err
			}
		}
	}
	if golden != "" {
		if err := writeDigests(golden, allDigests); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "results.json")
	fmt.Fprintf(os.Stderr, "cawaperf: wrote %s\n", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
