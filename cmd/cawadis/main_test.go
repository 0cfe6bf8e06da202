package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cawa/internal/workloads"
)

// TestLintWorkloads: every built-in workload kernel verifies clean, in
// human form and as one JSON report per workload.
func TestLintWorkloads(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-lint", "-workload", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), ": clean ("); n != len(workloads.Names()) {
		t.Errorf("%d clean verdicts for %d workloads:\n%s", n, len(workloads.Names()), stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-lint", "-json", "-workload", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-json: exit %d\n%s", code, stderr.String())
	}
	var reports []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &reports); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(reports) != len(workloads.Names()) {
		t.Errorf("%d JSON reports for %d workloads", len(reports), len(workloads.Names()))
	}
}

// TestUsage: no source and no -workload is a usage error.
func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: cawadis") {
		t.Errorf("no usage text on stderr: %q", stderr.String())
	}
}
