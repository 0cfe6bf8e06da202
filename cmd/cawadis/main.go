// Command cawadis assembles, disassembles, and statically verifies
// mini-ISA programs: it parses an assembly file (the syntax of
// Program.Disasm, see internal/isa), computes SIMT reconvergence
// points, and prints the annotated disassembly plus basic-block and
// register-pressure statistics. With -lint it runs the full verifier
// (internal/isa/analysis) and exits non-zero on error findings.
//
// Usage:
//
//	cawadis file.casm            # disassemble + stats
//	cawadis -                    # read from stdin
//	cawadis -lint file.casm ...  # verify; findings to stderr, exit 1
//	cawadis -lint -json file...  # machine-readable reports on stdout
//	cawadis -lint -workload all  # verify built-in workload kernels
//
// Parse failures are positioned as file:line; exit status is 1 for
// findings or parse errors and 2 for usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cawa/internal/isa"
	"cawa/internal/isa/analysis"
	"cawa/internal/simt"
	"cawa/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, processes every
// source, and returns the process exit code (0 clean, 1 for findings
// or parse errors, 2 for usage errors). A source "-" reads os.Stdin.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("cawadis", flag.ContinueOnError)
	fl.SetOutput(stderr)
	lint := fl.Bool("lint", false, "run the static verifier; exit 1 on error findings")
	jsonOut := fl.Bool("json", false, "with -lint, emit reports as JSON on stdout")
	workload := fl.String("workload", "", "with -lint, verify a built-in workload's kernel (or 'all')")
	strict := fl.Bool("strict", false, "with -lint, also flag upper-bound affine escapes")
	fl.Usage = func() {
		fmt.Fprintln(stderr, "usage: cawadis [-lint [-json] [-strict]] <file.casm...| ->")
		fmt.Fprintln(stderr, "       cawadis -lint [-json] -workload <name|all>")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}

	if *workload != "" {
		if !*lint {
			fmt.Fprintln(stderr, "cawadis: -workload requires -lint")
			return 2
		}
		return lintWorkloads(stdout, stderr, *workload, *jsonOut, *strict)
	}
	if fl.NArg() == 0 {
		fl.Usage()
		return 2
	}

	status := 0
	var reports []*analysis.Report
	for _, arg := range fl.Args() {
		prog, err := load(arg)
		if err != nil {
			fmt.Fprintf(stderr, "cawadis: %v\n", err)
			status = 1
			continue
		}
		rep := analysis.Analyze(prog, analysis.Options{StrictBounds: *strict})
		if *lint {
			reports = append(reports, rep)
			if report(stdout, stderr, arg, rep, *jsonOut) {
				status = 1
			}
			continue
		}
		fmt.Fprint(stdout, prog.Disasm())
		printStats(stdout, prog, rep)
	}
	if *lint && *jsonOut {
		if err := emitJSON(stdout, reports); err != nil {
			fmt.Fprintf(stderr, "cawadis: %v\n", err)
			return 1
		}
	}
	return status
}

// load reads one source (a path or "-" for stdin) and assembles it.
// Parse errors come back positioned as file:line.
func load(arg string) (*isa.Program, error) {
	var src []byte
	var err error
	name := "stdin"
	if arg == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(arg)
		name = strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
	}
	if err != nil {
		return nil, err
	}
	prog, err := isa.Parse(name, string(src))
	if err != nil {
		var pe *isa.ParseError
		if errors.As(err, &pe) && pe.Line > 0 {
			return nil, fmt.Errorf("%s:%d: %v", arg, pe.Line, pe.Unwrap())
		}
		return nil, fmt.Errorf("%s: %v", arg, err)
	}
	return prog, nil
}

// printStats renders the control-flow, basic-block, and
// register-pressure summary under the disassembly.
func printStats(w io.Writer, prog *isa.Program, rep *analysis.Report) {
	branches, divergable, mem, bar := 0, 0, 0, 0
	for pc := int32(0); pc < int32(prog.Len()); pc++ {
		in := prog.At(pc)
		switch {
		case in.Op.IsCondBranch():
			branches++
			divergable++
		case in.Op.IsBranch():
			branches++
		case in.Op.IsMem():
			mem++
		case in.Op == isa.OpBar:
			bar++
		}
	}
	fmt.Fprintf(w, "\n// %d instructions, %d branches (%d divergable), %d global memory ops, %d barriers\n",
		prog.Len(), branches, divergable, mem, bar)
	fmt.Fprintf(w, "// %d basic blocks, %d loops, %d registers used, max %d live, stack depth <= %d\n",
		len(rep.Blocks), rep.Loops, rep.RegsUsed, rep.MaxLive, rep.StackDepth)
	for _, b := range rep.Blocks {
		liveIn := 0
		if int(b.ID) < len(rep.BlockLiveIn) {
			liveIn = rep.BlockLiveIn[b.ID]
		}
		loop := ""
		if b.LoopHead {
			loop = " loop-head"
		}
		fmt.Fprintf(w, "//   block %d: pc %d..%d, succs %v, live-in %d%s\n",
			b.ID, b.Start, b.End-1, b.Succs, liveIn, loop)
	}
	for pc := int32(0); pc < int32(prog.Len()); pc++ {
		in := prog.At(pc)
		if in.Op.IsCondBranch() {
			fmt.Fprintf(w, "//   branch @%d -> %d, reconverges at %d\n", pc, in.Target(), in.Rpc)
		}
	}
}

// report prints one lint report in human form — findings to stderr, a
// clean verdict to stdout — and returns whether it contains error
// findings.
func report(stdout, stderr io.Writer, source string, rep *analysis.Report, jsonOut bool) bool {
	failed := len(rep.Errors()) > 0
	if jsonOut {
		return failed
	}
	for _, f := range rep.Findings {
		fmt.Fprintf(stderr, "%s: %s\n", source, f)
	}
	if len(rep.Findings) == 0 {
		fmt.Fprintf(stdout, "%s: %s: clean (%d instrs, %d blocks, %d regs, max %d live)\n",
			source, rep.Program, rep.Instrs, len(rep.Blocks), rep.RegsUsed, rep.MaxLive)
	}
	return failed
}

func emitJSON(w io.Writer, reports []*analysis.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// lintWorkloads verifies the built-in workload kernels with their real
// launch geometry — the same checks gpu.Launch applies.
func lintWorkloads(stdout, stderr io.Writer, which string, jsonOut, strict bool) int {
	names := workloads.Names()
	if which != "all" {
		names = []string{which}
	}
	status := 0
	var reports []*analysis.Report
	for _, name := range names {
		w, err := workloads.New(name, workloads.DefaultParams())
		if err != nil {
			fmt.Fprintf(stderr, "cawadis: %v\n", err)
			return 2
		}
		k, ok := w.Next()
		if !ok {
			fmt.Fprintf(stderr, "cawadis: workload %s yields no kernel\n", name)
			return 2
		}
		launch := launchOf(k, w)
		rep := analysis.Analyze(k.Program, analysis.Options{Launch: launch, StrictBounds: strict})
		reports = append(reports, rep)
		if report(stdout, stderr, name+"/"+k.Name, rep, jsonOut) {
			status = 1
		}
	}
	if jsonOut {
		if err := emitJSON(stdout, reports); err != nil {
			fmt.Fprintf(stderr, "cawadis: %v\n", err)
			return 1
		}
	}
	return status
}

func launchOf(k *simt.Kernel, w workloads.Workload) *analysis.Launch {
	launch := k.AnalysisLaunch()
	launch.GlobalBytes = w.Mem().Size()
	return launch
}
