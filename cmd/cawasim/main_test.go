package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// tracedGoldenStdout is the summary and hot-PC table of the traced
// bfs run in TestTracedRunGolden, without the line naming the trace
// file (its path is a temporary directory).
const tracedGoldenStdout = `workload       bfs (verified against Go reference)
design point   cawa
launches       14
cycles         63008
warp instrs    84082
thread instrs  472302
IPC            7.496
L1D accesses   31585
L1D misses     15144 (47.95% miss rate, 180.11 MPKI)
L2 accesses    14918 (misses 1936)
coalescing     1.89 transactions per memory instruction
warps          896
max disparity  0.991
mean disparity 0.655

hottest PCs by accumulated stall (last kernel's retained trace):
  pc    op          issues      stall_cycles
  38    cbra            5097        258606
  35    mul             5097        202359
  34    ld.global       5097        135675
  8     cbraz            728         93697
  37    ld.global       5097         76939
`

// TestTracedRunGolden pins what a traced run writes: the SHA-256 of
// the Chrome trace (warp spans, stall slices, kernel spans and the
// sampler's counter tracks) and the exact stdout, hot-PC table
// included. Both were recorded before the trace recorder moved into
// internal/obs; a change to how a traced run is wired or rendered must
// leave them byte-identical.
func TestTracedRunGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "bfs", "-scheduler", "gcaws", "-cpl", "-cacp", "-scale", "0.05", "-sms", "2",
		"-sample-every", "200", "-trace-json", path, "-hotpcs", "5"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cawasim %v: exit %d\n%s", args, code, stderr.String())
	}
	var kept []string
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.Contains(line, path) {
			kept = append(kept, line)
		}
	}
	if got := strings.Join(kept, ""); got != tracedGoldenStdout {
		t.Errorf("stdout changed:\n%s\nwant:\n%s", got, tracedGoldenStdout)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(doc)
	if got, want := hex.EncodeToString(sum[:]), "d7898e58feb1cf7e80a655c285d98af9718ee5f7651a2f21c66913be126e9ec6"; got != want {
		t.Errorf("trace.json sha256 %s, want %s", got, want)
	}
}

// TestUsageErrors pins the exit codes of the ways a run fails before
// simulating: a usage error (2) — an unknown flag (among them the
// removed -obs-dir), or a -scale that is not a positive finite number —
// and an unknown workload or scheduler (1, naming it on stderr; ccws
// was a scheduler once).
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{{"-fastforward"}, {"-sample-interval", "4"}, {"-perf-trace", "x"}, {"-obs-dir", "x"},
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("cawasim %v: exit %d, want 2", args, code)
		}
	}
	for _, args := range [][]string{{"-workload", "nosuch"}, {"-scheduler", "ccws", "-scale", "0.05", "-sms", "2"}} {
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("cawasim %v: exit %d, want 1", args, code)
		}
		if name := args[1]; !strings.Contains(stderr.String(), name) {
			t.Errorf("cawasim %v: %q not named on stderr: %q", args, name, stderr.String())
		}
	}
}

// TestArtifacts runs the full CAWA design point with -perf and
// -trace-json and checks what each artifact holds: the engine profile
// at schema 3 with time in its compute and drain phases, and one Chrome
// trace carrying warp spans, stall slices, kernel spans and the
// sampler's gpu/ipc counter track.
func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	perfPath, tracePath := filepath.Join(dir, "perf.json"), filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "bfs", "-scheduler", "gcaws", "-cpl", "-cacp",
		"-scale", "0.05", "-sms", "2", "-perf", perfPath, "-trace-json", tracePath}
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

	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Cat   string `json:"cat"`
		} `json:"traceEvents"`
	}
	readJSON(t, tracePath, &doc)
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "X":
			seen[e.Cat] = true
		case e.Phase == "C" && e.Name == "gpu/ipc":
			seen["gpu/ipc"] = true
		}
	}
	for _, want := range []string{"warp", "stall", "kernel", "gpu/ipc"} {
		if !seen[want] {
			t.Errorf("trace has no %s events", want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("run wrote %d files, want perf.json and trace.json only", len(entries))
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
