package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/harness"
	"cawa/internal/obs"
	"cawa/internal/sm"
	"cawa/internal/workloads"
)

// runBFSWithObs simulates bfs on the full CAWA design point with the
// collector and sampler attached, mirroring the cawasim wiring.
func runBFSWithObs(t *testing.T) (*harness.Result, *obs.Collector, *obs.Sampler) {
	t.Helper()
	collector := obs.NewCollector(1 << 16)
	sampler := obs.NewSampler(nil, 200)
	res, err := harness.Run(harness.RunOptions{
		Workload: "bfs",
		Params:   workloads.Params{Scale: 0.05, Seed: 3},
		Config:   config.Small(),
		System: core.SystemConfig{
			Scheduler: "gcaws", CPL: true, CACP: true,
			ProviderOverride: collector.Wrap(func() sm.CriticalityProvider { return core.NewCPL() }),
			Variant:          "obs-test",
		},
		PerCycle: sampler.OnCycle,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, collector, sampler
}

// TestChromeTraceSchema is the acceptance check for the Perfetto
// exporter: a bfs run on the full CAWA design point must produce a
// valid Chrome trace-event document with per-warp spans, stall slices
// nested inside their warp's span, kernel spans, and at least the
// IPC / active-warp / L1-hit-rate counter tracks.
func TestChromeTraceSchema(t *testing.T) {
	res, collector, sampler := runBFSWithObs(t)
	ct := obs.BuildChromeTrace(obs.TraceInput{
		Warps:  res.Agg.Warps,
		Events: collector.Events(),
		Series: sampler.Series(),
		Spans:  res.Spans,
	})

	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	type span struct{ start, end int64 }
	warpSpans := map[int]span{} // tid -> warp span bounds
	var warps, kernels, stalls int
	counters := map[string]int{}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		if name == "" {
			t.Fatalf("event without name: %v", e)
		}
		if _, ok := e["pid"]; !ok {
			t.Fatalf("event without pid: %v", e)
		}
		switch ph {
		case "M":
			continue // metadata has no timestamp
		case "X", "C":
		default:
			t.Fatalf("unexpected phase %q: %v", ph, e)
		}
		ts, ok := e["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event with bad ts: %v", e)
		}
		if ph == "C" {
			if _, ok := e["args"].(map[string]any)["value"]; !ok {
				t.Fatalf("counter without value arg: %v", e)
			}
			counters[name]++
			continue
		}
		dur, ok := e["dur"].(float64)
		if !ok || dur < 1 {
			t.Fatalf("span with bad dur: %v", e)
		}
		switch e["cat"] {
		case "warp":
			warps++
			warpSpans[int(e["tid"].(float64))] = span{int64(ts), int64(ts + dur)}
		case "kernel":
			kernels++
		case "stall":
			stalls++
		}
	}

	if warps != len(res.Agg.Warps) {
		t.Errorf("trace has %d warp spans, run finished %d warps", warps, len(res.Agg.Warps))
	}
	if kernels != res.Launches {
		t.Errorf("trace has %d kernel spans, run had %d launches", kernels, res.Launches)
	}
	if stalls == 0 {
		t.Error("no stall slices in trace")
	}
	for _, want := range []string{"gpu/ipc", "gpu/active_warps", "gpu/l1d_hit_rate"} {
		if counters[want] == 0 {
			t.Errorf("required counter track %q missing (have %v)", want, counterNames(counters))
		}
	}

	// Stall slices must nest inside their warp's span.
	for _, e := range doc.TraceEvents {
		if e["cat"] != "stall" {
			continue
		}
		tid := int(e["tid"].(float64))
		ws, ok := warpSpans[tid]
		if !ok {
			t.Fatalf("stall slice for unknown warp %d", tid)
		}
		ts := int64(e["ts"].(float64))
		end := ts + int64(e["dur"].(float64))
		if ts < ws.start || end > ws.end {
			t.Fatalf("stall slice [%d,%d] escapes warp %d span [%d,%d]", ts, end, tid, ws.start, ws.end)
		}
	}
}

func counterNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSamplerSeriesShape checks the sampled series against the run:
// shared sample cycles on the configured cadence, and a whole-run IPC
// integral consistent with the launch statistics.
func TestSamplerSeriesShape(t *testing.T) {
	res, _, sampler := runBFSWithObs(t)
	series := sampler.Series()
	if len(series) == 0 {
		t.Fatal("sampler bound no series")
	}
	byName := map[string]*obs.Series{}
	n := -1
	for _, s := range series {
		byName[s.Name] = s
		if n == -1 {
			n = len(s.Samples)
		} else if len(s.Samples) != n {
			t.Fatalf("series %s has %d samples, others have %d", s.Name, len(s.Samples), n)
		}
	}
	if n < 2 {
		t.Fatalf("only %d samples for a %d-cycle run at cadence %d", n, res.Agg.Cycles, sampler.Every())
	}
	ipc := byName["gpu/ipc"]
	if ipc == nil {
		t.Fatalf("no gpu/ipc series (have %d series)", len(series))
	}
	// Integrating the rate over the sampling windows recovers the
	// thread instructions committed up to the last sample.
	var integral, last float64
	for _, p := range ipc.Samples {
		integral += p.Value * float64(p.Cycle-int64(last))
		last = float64(p.Cycle)
	}
	total := float64(res.Agg.ThreadInstrs)
	if integral > total || integral < 0.5*total {
		t.Errorf("IPC integral %.0f inconsistent with %0.f thread instructions", integral, total)
	}
	for _, s := range series {
		if strings.HasSuffix(s.Name, "hit_rate") {
			for _, p := range s.Samples {
				if p.Value < 0 || p.Value > 1 {
					t.Fatalf("%s sample out of [0,1]: %+v", s.Name, p)
				}
			}
		}
	}
}

// TestRegistryKinds exercises Gauge/Rate/Ratio arithmetic with a
// synthetic registry (no GPU needed).
func TestRegistryKinds(t *testing.T) {
	var counter, num, den, gauge float64
	reg := &obs.Registry{}
	reg.Gauge("g", obs.GPUScope, func() float64 { return gauge })
	reg.Rate("r", 0, func() float64 { return counter })
	reg.Ratio("q", 1, func() float64 { return num }, func() float64 { return den })
	if got := reg.Names(); len(got) != 3 || got[0] != "gpu/g" || got[1] != "sm0/r" || got[2] != "sm1/q" {
		t.Fatalf("names = %v", got)
	}

	s := obs.NewSampler(reg, 10)
	step := func(cycle int64) { s.OnCycle(nil, cycle) }

	step(1) // binds and takes the first sample
	gauge, counter, num, den = 7, 50, 30, 40
	step(5)  // off-cadence: ignored
	step(11) // window of 10 cycles
	counter, num, den = 90, 30, 40
	step(21)

	series := s.Series()
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	byName := map[string][]obs.Sample{}
	for _, sr := range series {
		byName[sr.Name] = sr.Samples
	}
	if g := byName["gpu/g"]; g[1].Value != 7 || g[2].Value != 7 {
		t.Fatalf("gauge samples %v", g)
	}
	if r := byName["sm0/r"]; r[1].Value != 5 || r[2].Value != 4 {
		t.Fatalf("rate samples %v (want 50/10 then 40/10)", r)
	}
	q := byName["sm1/q"]
	if q[1].Value != 0.75 {
		t.Fatalf("ratio sample %v (want 30/40)", q[1])
	}
	if q[2].Value != 0 {
		t.Fatalf("ratio with idle denominator = %v, want 0", q[2])
	}
}

// TestSeriesExports checks both exporter shapes.
func TestSeriesExports(t *testing.T) {
	series := []*obs.Series{
		{Name: "gpu/ipc", SM: obs.GPUScope, Samples: []obs.Sample{{Cycle: 10, Value: 1.5}, {Cycle: 20, Value: 2}}},
		{Name: "sm0/mshr_occupancy", SM: 0, Samples: []obs.Sample{{Cycle: 10, Value: 3}, {Cycle: 20, Value: 0}}},
	}
	var csvBuf bytes.Buffer
	if err := obs.WriteSeriesCSV(&csvBuf, series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv rows = %d: %q", len(lines), csvBuf.String())
	}
	if lines[0] != "cycle,gpu/ipc,sm0/mshr_occupancy" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "10,1.5,3" || lines[2] != "20,2,0" {
		t.Fatalf("csv rows = %q", lines[1:])
	}

	var jsonBuf bytes.Buffer
	if err := obs.WriteSeriesJSON(&jsonBuf, series); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []*obs.Series `json:"series"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 2 || doc.Series[0].Name != "gpu/ipc" || doc.Series[1].Samples[0].Value != 3 {
		t.Fatalf("json round trip lost data: %+v", doc)
	}
}

// TestManifestRoundTrip checks the manifest document survives a
// write/read cycle with the full design-point key intact.
func TestManifestRoundTrip(t *testing.T) {
	key, err := core.CAWA().Key()
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.Manifest{
		Architecture: "GTX480", NumSMs: 15, Scale: 1, Seed: 1, Workers: 8,
		CacheHits: 3, CacheMisses: 9, WallSeconds: 12.5,
		Runs: []obs.RunRecord{{
			App: "bfs", System: "cawa", SystemKey: key,
			Seconds: 1.25, Launches: 16, Cycles: 87514, Instrs: 169235, IPC: 11.1, Warps: 1792,
		}},
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got obs.Manifest
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Runs[0].SystemKey != key || got.CacheMisses != 9 || got.Runs[0].Cycles != 87514 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestCollectorSharedStream: the hot-PC report and the trace exporter
// consume the same merged event stream, so their issue totals agree.
func TestCollectorSharedStream(t *testing.T) {
	res, collector, _ := runBFSWithObs(t)
	events := collector.Events()
	var fromEvents uint64
	for range events {
		fromEvents++
	}
	var fromHot uint64
	for _, p := range collector.HotPCs(0) {
		fromHot += p.Issues
	}
	if fromHot != fromEvents {
		t.Fatalf("hot-PC issues %d != trace events %d (streams diverged)", fromHot, fromEvents)
	}
	if total := collector.Total(); total != uint64(res.Agg.Instructions) && total < fromEvents {
		t.Fatalf("collector total %d below retained %d", total, fromEvents)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatal("merged events not sorted by cycle")
		}
	}
}
