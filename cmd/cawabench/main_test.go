package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestListAndUsage pins the runs that never simulate: -list names the
// experiments, no -exp or the removed -perf is a usage error (2), an
// unknown id fails (1).
func TestListAndUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "fig9 ") {
		t.Errorf("-list does not name fig9:\n%s", stdout.String())
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-scale", "0", "-exp", "tab1"}, 2},
		{[]string{"-perf", "x", "-exp", "tab1"}, 2},
		{[]string{"-exp", "nosuch"}, 1},
	} {
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("cawabench %v: exit %d, want %d", c.args, code, c.want)
		}
	}
}

// TestTimingAndPerfArtifacts runs one small experiment with -timing and
// checks the shape of its one document: the timing summary leaves
// workers, runs and cache counters to its embedded manifest, and the
// embedded engine profile's phases are totals only.
func TestTimingAndPerfArtifacts(t *testing.T) {
	timingPath := filepath.Join(t.TempDir(), "timing.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "fig1", "-scale", "0.05", "-sms", "2", "-j", "2", "-timing", timingPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cawabench %v: exit %d\n%s", args, code, stderr.String())
	}

	var timing map[string]json.RawMessage
	readJSON(t, timingPath, &timing)
	for _, key := range []string{"experiments", "sim_seconds", "total_seconds", "manifest", "perf"} {
		if _, ok := timing[key]; !ok {
			t.Errorf("timing summary has no %q", key)
		}
	}
	for _, key := range []string{"runs", "workers", "cache_hits", "cache_misses"} {
		if _, ok := timing[key]; ok {
			t.Errorf("timing summary repeats the manifest's %q", key)
		}
	}
	var manifest struct {
		Runs []struct {
			SystemKey string `json:"system_key"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(timing["manifest"], &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Runs) == 0 {
		t.Fatal("manifest records no runs")
	}
	for _, r := range manifest.Runs {
		if !strings.Contains(r.SystemKey, "|cpl=") {
			t.Errorf("manifest run keyed %q, want a full design-point key", r.SystemKey)
		}
	}

	var rep struct {
		SchemaVersion int                          `json:"schema_version"`
		Phases        []map[string]json.RawMessage `json:"phases"`
	}
	if err := json.Unmarshal(timing["perf"], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != 3 {
		t.Errorf("perf schema_version %d, want 3", rep.SchemaVersion)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("perf report has no phases")
	}
	want := []string{"count", "mean_ns", "phase", "total_ns"}
	for _, ph := range rep.Phases {
		var keys []string
		for k := range ph {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("phase object keys %v, want %v", keys, want)
		}
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
