// Command cawalint enforces the simulator's determinism invariants
// over its Go source (see internal/lint).
//
// It type-checks the whole module and runs every rule in one pass. The
// rules that look at one statement: no wall-clock reads or global
// math/rand in simulation packages, no raw map iteration feeding
// simulation state or output, no goroutines outside the sanctioned
// packages, and no direct memsys.System mutation from SM-domain code.
// The rules that follow a CHA-style call graph: the 0-allocs/cycle
// budget on everything the cycle roots reach, the staged-memsys
// discipline across helper chains, the no-synchronization rule for
// domain-goroutine-reachable code, the package-global write ban, and
// the reachability-based wall-clock ban. An accepted finding is excused
// where it occurs, by a //cawalint:ignore <reason> (or alloc-ok)
// directive; one that no longer excuses anything is itself a finding.
//
// Usage:
//
//	cawalint [-dir root] [-json out.json]
//
// Findings print as file:line:col: rule: message; the exit status is
// 0 when clean, 1 when any finding exists, 2 on usage, load, or I/O
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cawa/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, loads the whole
// module, runs AnalyzeModule, and returns the process exit code (0
// clean, 1 findings, 2 usage/load errors).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("cawalint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var dir, jsonOut string
	fl.StringVar(&dir, "dir", ".", "module root directory (must contain go.mod)")
	fl.StringVar(&jsonOut, "json", "", "write findings as JSON to this file ('-' for stdout)")
	fl.Usage = func() {
		fmt.Fprintln(stderr, "usage: cawalint [-dir root] [-json out]")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 {
		fmt.Fprintln(stderr, "cawalint: the whole module is analyzed; positional directories are not accepted (use -dir for another module root)")
		return 2
	}

	m, err := lint.LoadModule(dir)
	if err != nil {
		fmt.Fprintf(stderr, "cawalint: %v\n", err)
		return 2
	}
	findings, err := lint.AnalyzeModule(m, lint.DefaultInterOptions())
	if err != nil {
		fmt.Fprintf(stderr, "cawalint: %v\n", err)
		return 2
	}

	if jsonOut != "" {
		w := stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				fmt.Fprintf(stderr, "cawalint: %v\n", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		if err := lint.WriteFindingsJSON(w, findings); err != nil {
			fmt.Fprintf(stderr, "cawalint: %v\n", err)
			return 2
		}
	}

	// With -json - the stdout stream IS the JSON document; keep the
	// human-readable lines off it.
	if jsonOut != "-" {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "cawalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
