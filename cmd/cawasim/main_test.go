package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

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
// before simulating: an unknown flag (2) and an unknown workload (1,
// naming it on stderr).
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, flag := range [][]string{{"-fastforward"}, {"-sample-interval", "4"}} {
		if code := run(flag, &stdout, &stderr); code != 2 {
			t.Errorf("unknown flag %v: exit %d, want 2", flag, code)
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
