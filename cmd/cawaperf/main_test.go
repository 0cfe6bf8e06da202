package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for cawaperf itself: the
// parent mode re-execs os.Executable() once per workload, which under
// go test is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("CAWAPERF_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the report: every declared metric exactly once per workload,
// well-formed names, a results.json that round-trips, nothing failed.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-smoke", "-trace", "1", "-out", dir)
	cmd.Env = append(os.Environ(), "CAWAPERF_AS_MAIN=1", "TMPDIR="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("cawaperf -smoke: %v\n%s", err, stderr.String())
	}

	seen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Errorf("row %q is not \"workload metric value unit\"", line)
			continue
		}
		seen[f[0]+" "+f[1]]++
	}
	for _, w := range catalog {
		for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			if n := seen[w.name+" "+m.Name]; n != 1 {
				t.Errorf("%s %s printed %d times, want 1", w.name, m.Name, n)
			}
		}
	}
	if want := len(catalog) * (len(endToEnd) + len(perLayer)); len(seen) != want {
		t.Errorf("%d distinct rows, want %d", len(seen), want)
	}

	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc := &results{}
	if err := json.Unmarshal(data, doc); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), data) {
		t.Error("results.json does not round-trip")
	}
	if doc.NProc < 1 || doc.GOMAXPROCS < 1 {
		t.Errorf("host stamps missing: nproc=%d gomaxprocs=%d", doc.NProc, doc.GOMAXPROCS)
	}
	for _, w := range catalog {
		wr := doc.Workloads[w.name]
		if wr == nil {
			t.Errorf("%s missing from results.json", w.name)
			continue
		}
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d failed of %d attempted\n%s", w.name, wr.Failed, wr.Attempted, stderr.String())
		}
		for _, m := range endToEnd {
			if s := wr.EndToEnd[m.Name]; s == nil || s.Median <= 0 {
				t.Errorf("%s %s: end-to-end metrics must never be 0, got %+v", w.name, m.Name, s)
			}
		}
		var trace struct{ TraceEvents []map[string]any }
		raw, err := os.ReadFile(filepath.Join(dir, w.name, "trace.json"))
		if err != nil {
			t.Error(err)
		} else if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) < 3 {
			t.Errorf("%s: trace.json not loadable or empty (%v, %d events)", w.name, err, len(trace.TraceEvents))
		}
	}
}

// TestBenchmarkJSON holds the generated BENCHMARK.json to the limits of
// its contract and, inside the repository, to the committed file.
func TestBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBenchmarkJSON(&buf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if names[n] {
			t.Errorf("name %q is used twice", n)
		}
		names[n] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(catalog); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range catalog {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters, want one line of at most 200", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
	}
	if committed, err := os.ReadFile("../../BENCHMARK.json"); err == nil && !bytes.Equal(committed, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from `cawaperf -benchmark-json`; regenerate it")
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %g, %g, median %g; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	series := func(vs ...float64) *metricSeries { return &metricSeries{Values: vs, Median: median(vs)} }
	lower := metricSpec{"wall_s", "s", "lower", 0.10}
	higher := metricSpec{"sim_kcycles_per_s", "kcycles/s", "higher", 0.10}
	steady := series(1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b *metricSeries
		want string
	}{
		{"same", lower, steady, series(1.02, 1.01, 1.03, 1.02), "ok"},
		{"slower beyond the bound", lower, steady, series(1.20, 1.21, 1.19, 1.20), "worse"},
		{"lower rate beyond the bound", higher, steady, series(0.80, 0.81, 0.79, 0.80), "worse"},
		{"noisy", lower, steady, series(0.7, 1.3, 0.9, 1.1), "unresolved"},
		{"noisy but every run better", lower, series(2.0, 2.6, 2.2, 3.0), series(0.7, 1.3, 0.9, 1.1), "ok"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
