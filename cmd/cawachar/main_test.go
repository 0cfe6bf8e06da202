package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestReport runs one small characterization end to end: the report
// names the workload and prints the block table and the critical-warp
// reuse profile.
func TestReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "tpacf", "-scale", "0.05", "-sms", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"workload tpacf on lrr: ", "block  warps  disparity", "critical warps: ", "in a 16-way set: "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestUsage: a -scale that is not a positive finite number is a usage
// error (exit 2 with the flag list), not a run of some other size.
func TestUsage(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-workload", "tpacf", "-scale", scale}, &stdout, &stderr); code != 2 {
			t.Errorf("-scale %s: exit %d, want 2", scale, code)
		}
		if !strings.Contains(stderr.String(), "-scale") || stdout.Len() != 0 {
			t.Errorf("-scale %s: stderr %q, stdout %q", scale, stderr.String(), stdout.String())
		}
	}
}
