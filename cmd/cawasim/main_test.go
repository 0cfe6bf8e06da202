package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cawa/internal/obs/perf"
	"cawa/internal/sched"
)

// TestSmokeCycles runs the CLI end to end on four small cells and pins
// their cycle counts: the two launch-bound serial cells and the two
// 2-SM cells whose wall time once justified a device-wide dead-cycle
// skip. The numbers were read at the commit that still had the skip; a
// change to how the engine passes dead cycles must not move them.
func TestSmokeCycles(t *testing.T) {
	cycles := regexp.MustCompile(`(?m)^cycles +(\d+)$`)
	for _, c := range []struct {
		args string
		want string
	}{
		{"-workload backprop -scheduler lrr", "11909"},
		{"-workload b+tree -scheduler lrr", "7484"},
		{"-workload bfs -scheduler lrr -sms 2", "61720"},
		{"-workload kmeans -scheduler lrr -sms 2", "49394"},
	} {
		var stdout, stderr bytes.Buffer
		args := append(strings.Fields(c.args), "-scale", "0.05", "-seed", "1")
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("cawasim %s: exit %d\n%s", c.args, code, stderr.String())
		}
		m := cycles.FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("cawasim %s: no cycles line in\n%s", c.args, stdout.String())
		}
		if m[1] != c.want {
			t.Errorf("cawasim %s: cycles %s, want %s", c.args, m[1], c.want)
		}
		if !strings.Contains(stdout.String(), "(verified against Go reference)") {
			t.Errorf("cawasim %s: summary does not say the run was verified", c.args)
		}
	}
}

// TestTracingKeepsTheDesignPoint: tracing decorates the providers a run
// already has, so for every registered scheduler a run with -hotpcs
// prints the cycles of the same run untraced.
func TestTracingKeepsTheDesignPoint(t *testing.T) {
	cycles := regexp.MustCompile(`(?m)^cycles +(\d+)$`)
	run1 := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append(args, "-workload", "bfs", "-scale", "0.05", "-seed", "1", "-sms", "2")
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("cawasim %v: exit %d\n%s", args, code, stderr.String())
		}
		m := cycles.FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("cawasim %v: no cycles line in\n%s", args, stdout.String())
		}
		return m[1]
	}
	for _, name := range sched.Names() {
		plain := run1("-scheduler", name)
		if traced := run1("-scheduler", name, "-hotpcs", "3"); traced != plain {
			t.Errorf("-scheduler %s: %s cycles traced, %s untraced", name, traced, plain)
		}
	}
}

// TestUsageErrors pins the exit codes of the two ways a run fails
// before simulating: a usage error (2) — an unknown flag, or a -scale
// that is not a positive finite number — and an unknown workload (1,
// naming it on stderr).
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{{"-fastforward"}, {"-sample-interval", "4"}, {"-perf-trace", "x"},
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("cawasim %v: exit %d, want 2", args, code)
		}
	}
	stderr.Reset()
	if code := run([]string{"-workload", "nosuch"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("unknown workload not named on stderr: %q", stderr.String())
	}
}

// TestArtifacts runs the full CAWA design point with -perf and -obs-dir
// and checks what each artifact holds: the engine profile at schema 3
// with time in its compute and drain phases, the four observability
// files, and a manifest naming the full design-point key and carrying
// no engine profile of its own.
func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	perfPath, obsDir := filepath.Join(dir, "perf.json"), filepath.Join(dir, "obs")
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "bfs", "-scheduler", "gcaws", "-cpl", "-cacp",
		"-scale", "0.05", "-sms", "2", "-perf", perfPath, "-obs-dir", obsDir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cawasim %v: exit %d\n%s", args, code, stderr.String())
	}

	var rep perf.Report
	readJSON(t, perfPath, &rep)
	if rep.SchemaVersion != 3 {
		t.Errorf("perf schema_version %d, want 3", rep.SchemaVersion)
	}
	for _, ph := range []string{"domain_compute", "memsys_drain"} {
		if rep.PhaseTotalNS(ph) <= 0 {
			t.Errorf("perf phase %s has no time", ph)
		}
	}

	for _, name := range []string{"trace.json", "metrics.csv", "metrics.json", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(obsDir, name)); err != nil {
			t.Error(err)
		}
	}
	var manifest map[string]json.RawMessage
	readJSON(t, filepath.Join(obsDir, "manifest.json"), &manifest)
	if _, ok := manifest["perf"]; ok {
		t.Error("manifest carries a perf key")
	}
	var runs []struct {
		SystemKey string `json:"system_key"`
	}
	if err := json.Unmarshal(manifest["runs"], &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].SystemKey != "gcaws|cpl=true|cacp=true" {
		t.Errorf("manifest runs %+v, want one run keyed gcaws|cpl=true|cacp=true", runs)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
