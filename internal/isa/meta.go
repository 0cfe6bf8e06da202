package isa

// InstrMeta is per-instruction issue metadata precomputed once at
// Program construction, so the SM's readiness check is a few mask tests
// instead of re-deriving operand sets from the opcode tables. The SM
// runs it only for warps whose state changed (internal/sm/readiness.go);
// the simulator's hottest loop is simt's execute, not this probe.
type InstrMeta struct {
	// RegMask has a bit set for every register the instruction reads or
	// writes (the scoreboard hazard set).
	RegMask uint64
	// Class is the functional-unit class (cached Op.Class()).
	Class Class
	// LSUGated marks instructions that need the load-store unit
	// (ClassMem or ClassSMem) and therefore stall on lsuBusyUntil.
	LSUGated bool
	// GlobalLoad marks OpLd: the only instruction that coalesces into
	// line transactions which may be rejected by a full MSHR.
	GlobalLoad bool
}

// metaFor derives the metadata of one instruction.
func metaFor(in Instr) InstrMeta {
	var mask uint64
	if in.Op.HasDst() || in.Op.ReadsDst() {
		mask |= 1 << in.Dst
	}
	if in.Op.ReadsA() {
		mask |= 1 << in.A
	}
	if in.Op.ReadsB() && !in.BImm {
		mask |= 1 << in.B
	}
	cl := in.Op.Class()
	return InstrMeta{
		RegMask:    mask,
		Class:      cl,
		LSUGated:   cl == ClassMem || cl == ClassSMem,
		GlobalLoad: in.Op == OpLd,
	}
}

// precompute fills the metadata side table and the register row
// count. Every Program constructor calls it; the table is
// index-parallel with Instrs.
func (p *Program) precompute() {
	p.meta = make([]InstrMeta, len(p.Instrs))
	p.rows = 0
	for i, in := range p.Instrs {
		p.meta[i] = metaFor(in)
		p.rows = max(p.rows, int(in.Dst)+1, int(in.A)+1, int(in.B)+1)
	}
}

// Rows returns one more than the highest register any instruction's
// Dst, A or B field names, whether or not its opcode reads the field:
// the register rows a warp running the program can touch (the executor
// streams all three operand rows). A warp's register file needs no
// more.
func (p *Program) Rows() int { return p.rows }

// Meta returns the precomputed metadata table, index-parallel with
// Instrs. The caller must not modify it.
func (p *Program) Meta() []InstrMeta { return p.meta }
