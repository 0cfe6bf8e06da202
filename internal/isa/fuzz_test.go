package isa_test

import (
	"reflect"
	"testing"

	"cawa/internal/isa"
	"cawa/internal/workloads"
)

// FuzzParse feeds the text assembler arbitrary source, seeded with the
// disassembly of every workload kernel. Any input must give an error or
// a program, never a panic; and a program's disassembly must parse back
// to the same instructions.
func FuzzParse(f *testing.F) {
	for _, name := range workloads.Names() {
		w, err := workloads.New(name, workloads.Params{Scale: 0.05, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		k, ok := w.Next()
		if !ok {
			f.Fatalf("workload %s yields no kernel", name)
		}
		f.Add(k.Program.Disasm())
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.Parse("fuzz", src)
		if err != nil {
			return
		}
		again, err := isa.Parse("fuzz", p.Disasm())
		if err != nil {
			t.Fatalf("the disassembly of a parsed program does not parse: %v\n%s", err, p.Disasm())
		}
		if !reflect.DeepEqual(again.Instrs, p.Instrs) {
			t.Fatalf("the disassembly parses to other instructions:\n%s\nvs\n%s", p.Disasm(), again.Disasm())
		}
	})
}
