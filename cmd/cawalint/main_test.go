package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes run with captured streams and returns the exit code
// plus both outputs.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// badSyntaxModule writes a module with a parse error to a temp dir
// (committing one would trip gofmt over the repo).
func badSyntaxModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module cawa\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\n\nfunc oops( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExitCodes pins the documented contract: 0 clean, 1 findings,
// 2 usage or load errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"-dir", "../.."}, 0}, // this repository, as CI runs it
		{"findings", []string{"-dir", "testdata/mod"}, 1},
		{"positional dirs", []string{"-dir", "testdata/mod", "internal"}, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"syntax error in module", []string{"-dir", badSyntaxModule(t)}, 2},
		// Scopes are import paths of this module: another module lints
		// clean. What keeps the scopes from going vacuous here is
		// lint.TestScopesCoverEngineClosure.
		{"module without the engine roots", []string{"-dir", "testdata/notcawa"}, 0},
		{"missing module dir", []string{"-dir", "testdata/no-such-dir"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.want, stderr)
			}
		})
	}
}

// TestFindingsOutput checks the human-readable mode names the rule at
// its module-relative position.
func TestFindingsOutput(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-dir", "testdata/mod")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.HasPrefix(stdout, "internal/sm/sm.go:14:2: map-range: ") {
		t.Errorf("stdout missing the positioned map-range finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("stderr missing summary:\n%s", stderr)
	}
}

// TestJSONGolden pins the -json byte format: sorted, indented,
// module-relative paths. Regenerate with
// CAWALINT_UPDATE_GOLDEN=1 go test cawa/cmd/cawalint -run TestJSONGolden.
var updateGolden = os.Getenv("CAWALINT_UPDATE_GOLDEN") != ""

func TestJSONGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-dir", "testdata/mod", "-json", "-")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	golden := filepath.Join("testdata", "findings.golden.json")
	if updateGolden {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("JSON output differs from %s:\ngot:\n%s\nwant:\n%s", golden, stdout, want)
	}
}

// TestJSONDeterministic runs the analysis twice and requires identical
// bytes: map iteration anywhere in the pipeline would flake here.
func TestJSONDeterministic(t *testing.T) {
	_, first, _ := runCLI(t, "-dir", "testdata/mod", "-json", "-")
	_, second, _ := runCLI(t, "-dir", "testdata/mod", "-json", "-")
	if first != second {
		t.Errorf("two runs produced different JSON:\n%s\nvs:\n%s", first, second)
	}
}
