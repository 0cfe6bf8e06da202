package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse assembles a text program in the syntax produced by
// Program.Disasm:
//
//	// comment
//	label:
//	    movi   r1, 42
//	    sreg   r0, %gtid
//	    param  r2, param[0]
//	    ld.global  r3, [r2+16]
//	    set.lt r4, r1, 100
//	    cbra   r4, @label
//	    bar.sync
//	    exit
//
// Branch targets accept @label or an absolute @pc. The second source
// operand of binary instructions may be a register or an integer
// immediate; `movf rD, <float>` stores a float immediate. Reconvergence
// PCs are recomputed, so `(rpc=...)` annotations from Disasm are
// ignored.
// ParseError is a parse or assembly failure positioned at a source
// line. Line is 1-based; 0 means the error is structural (e.g. an
// undefined label) and has no single originating line.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %v", e.Line, e.Err)
	}
	return e.Err.Error()
}

func (e *ParseError) Unwrap() error { return e.Err }

func Parse(name, src string) (*Program, error) {
	b := NewBuilder(name)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Strip Disasm's rpc annotation.
		if i := strings.Index(line, "(rpc="); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		// Leading "NNNN:" PC prefixes from Disasm are ignored; labels
		// end with ':' and contain no spaces.
		if strings.HasSuffix(line, ":") {
			lbl := strings.TrimSuffix(line, ":")
			if isNumber(lbl) {
				continue // bare PC marker
			}
			if _, dup := b.labels[lbl]; dup {
				return nil, &ParseError{Line: lineNo + 1, Err: fmt.Errorf("duplicate label %q", lbl)}
			}
			b.Label(lbl)
			continue
		}
		if i := strings.Index(line, ":"); i >= 0 && isNumber(strings.TrimSpace(line[:i])) {
			line = strings.TrimSpace(line[i+1:]) // "  12: add r1, ..." form
		}
		if line == "" {
			continue
		}
		if err := parseInstr(b, line); err != nil {
			return nil, &ParseError{Line: lineNo + 1, Err: err}
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	return p, nil
}

// MustParse is Parse but panics on error (static kernels in tests).
func MustParse(name, src string) *Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	_, err := strconv.Atoi(s)
	return err == nil
}

// operand kinds recognized by the parser.
type operand struct {
	kind byte // 'r' register, 'i' immediate, 'm' [reg+off], 's' %sreg, 'p' param[i], 'l' @label/@pc, 'f' float
	reg  Reg
	imm  int64
	f    float64
	str  string // label name
	neg  bool   // '!' prefix (cbraz rendering)
}

func parseOperand(tok string) (operand, error) {
	tok = strings.TrimSpace(tok)
	neg := false
	if strings.HasPrefix(tok, "!") {
		neg = true
		tok = tok[1:]
	}
	switch {
	case strings.HasPrefix(tok, "r") && len(tok) > 1 && allDigits(tok[1:]):
		n, err := strconv.Atoi(tok[1:])
		if err != nil || n < 0 || n >= NumRegs {
			return operand{}, fmt.Errorf("register %q out of range (r0..r%d)", tok, NumRegs-1)
		}
		return operand{kind: 'r', reg: Reg(n), neg: neg}, nil
	case strings.HasPrefix(tok, "%"):
		return operand{kind: 's', str: tok[1:]}, nil
	case strings.HasPrefix(tok, "param["):
		inner := strings.TrimSuffix(strings.TrimPrefix(tok, "param["), "]")
		n, err := strconv.Atoi(inner)
		if err != nil {
			return operand{}, fmt.Errorf("bad parameter index %q", tok)
		}
		return operand{kind: 'p', imm: int64(n)}, nil
	case strings.HasPrefix(tok, "@"):
		return operand{kind: 'l', str: tok[1:]}, nil
	case strings.HasPrefix(tok, "["):
		inner := strings.TrimSuffix(strings.TrimPrefix(tok, "["), "]")
		if inner == "" {
			return operand{}, fmt.Errorf("empty memory operand %q", tok)
		}
		base, off := inner, "0"
		if i := strings.IndexAny(inner[1:], "+-"); i >= 0 {
			base, off = inner[:i+1], inner[i+1:]
		}
		bop, err := parseOperand(base)
		if err != nil || bop.kind != 'r' {
			return operand{}, fmt.Errorf("bad memory base in %q", tok)
		}
		o, err := strconv.ParseInt(off, 0, 64)
		if err != nil {
			return operand{}, fmt.Errorf("bad memory offset in %q", tok)
		}
		return operand{kind: 'm', reg: bop.reg, imm: o}, nil
	}
	v, err := strconv.ParseInt(tok, 0, 64)
	if err == nil {
		return operand{kind: 'i', imm: v}, nil
	}
	if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
		return operand{}, fmt.Errorf("immediate %q overflows int64", tok)
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return operand{kind: 'f', f: f}, nil
	}
	return operand{}, fmt.Errorf("unrecognized operand %q", tok)
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

func splitOperands(s string) ([]operand, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []operand
	depth := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || (s[i] == ',' && depth == 0) {
			op, err := parseOperand(s[start:i])
			if err != nil {
				return nil, err
			}
			out = append(out, op)
			start = i + 1
			continue
		}
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		}
	}
	return out, nil
}

var sregByName = map[string]SpecialReg{
	"tid": SRTid, "ntid": SRNtid, "ctaid": SRCtaid, "nctaid": SRNctaid,
	"lane": SRLane, "warp": SRWarp, "gtid": SRGTid,
}

// binaryOps maps mnemonics to opcodes for the regular three-operand
// instructions (register or immediate second source).
var binaryOps = map[string]Op{
	"add": OpAdd, "sub": OpSub, "mul": OpMul, "mad": OpMad,
	"div": OpDiv, "rem": OpRem, "min": OpMin, "max": OpMax,
	"and": OpAnd, "or": OpOr, "xor": OpXor, "shl": OpShl, "shr": OpShr,
	"set.lt": OpSetLT, "set.le": OpSetLE, "set.eq": OpSetEQ,
	"set.ne": OpSetNE, "set.gt": OpSetGT, "set.ge": OpSetGE,
	"sel":  OpSel,
	"fadd": OpFAdd, "fsub": OpFSub, "fmul": OpFMul, "fmad": OpFMad,
	"fdiv": OpFDiv, "fmin": OpFMin, "fmax": OpFMax,
	"fset.lt": OpFSetLT, "fset.le": OpFSetLE, "fset.gt": OpFSetGT,
	"fset.ge": OpFSetGE, "fset.eq": OpFSetEQ,
}

var unaryOps = map[string]Op{
	"mov": OpMov, "abs": OpAbs, "fabs": OpFAbs, "fneg": OpFNeg,
	"fsqrt": OpFSqrt, "fexp": OpFExp, "flog": OpFLog,
	"cvt.if": OpCvtIF, "cvt.fi": OpCvtFI,
}

func parseInstr(b *Builder, line string) error {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], line[i+1:]
	}
	mnemonic = strings.ToLower(mnemonic)
	ops, err := splitOperands(rest)
	if err != nil {
		return err
	}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s expects %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}

	if op, ok := binaryOps[mnemonic]; ok {
		if err := need(3); err != nil {
			return err
		}
		if ops[0].kind != 'r' || ops[1].kind != 'r' {
			return fmt.Errorf("%s: first two operands must be registers", mnemonic)
		}
		switch ops[2].kind {
		case 'r':
			b.bin(op, ops[0].reg, ops[1].reg, ops[2].reg)
		case 'i':
			b.binI(op, ops[0].reg, ops[1].reg, ops[2].imm)
		default:
			return fmt.Errorf("%s: bad second source", mnemonic)
		}
		return nil
	}
	if op, ok := unaryOps[mnemonic]; ok {
		if err := need(2); err != nil {
			return err
		}
		if ops[0].kind != 'r' || ops[1].kind != 'r' {
			return fmt.Errorf("%s: operands must be registers", mnemonic)
		}
		b.unary(op, ops[0].reg, ops[1].reg)
		return nil
	}

	wantKind := func(i int, kind byte, what string) error {
		if ops[i].kind != kind {
			return fmt.Errorf("%s: operand %d must be %s", mnemonic, i+1, what)
		}
		return nil
	}

	switch mnemonic {
	case "nop":
		b.Nop()
	case "movi":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		if err := wantKind(1, 'i', "an integer immediate"); err != nil {
			return err
		}
		b.MovI(ops[0].reg, ops[1].imm)
	case "movf":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		switch ops[1].kind {
		case 'f':
			b.MovF(ops[0].reg, ops[1].f)
		case 'i':
			b.MovF(ops[0].reg, float64(ops[1].imm))
		default:
			return fmt.Errorf("movf: bad immediate")
		}
	case "sreg":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		if err := wantKind(1, 's', "a %special register"); err != nil {
			return err
		}
		sr, ok := sregByName[ops[1].str]
		if !ok {
			return fmt.Errorf("unknown special register %%%s", ops[1].str)
		}
		b.SReg(ops[0].reg, sr)
	case "param":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		if ops[1].kind != 'p' && ops[1].kind != 'i' {
			return fmt.Errorf("param: operand 2 must be param[N] or an index")
		}
		if ops[1].imm < 0 {
			return fmt.Errorf("param: negative parameter index %d", ops[1].imm)
		}
		b.Param(ops[0].reg, int(ops[1].imm))
	case "ld.global", "ld":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		if err := wantKind(1, 'm', "[reg+off]"); err != nil {
			return err
		}
		b.Ld(ops[0].reg, ops[1].reg, ops[1].imm)
	case "st.global", "st":
		if err := need(2); err != nil {
			return err
		}
		if ops[0].kind != 'm' || ops[1].kind != 'r' {
			return fmt.Errorf("st.global: want [reg+off], reg")
		}
		b.St(ops[0].reg, ops[0].imm, ops[1].reg)
	case "ld.shared":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		if err := wantKind(1, 'm', "[reg+off]"); err != nil {
			return err
		}
		b.LdS(ops[0].reg, ops[1].reg, ops[1].imm)
	case "st.shared":
		if err := need(2); err != nil {
			return err
		}
		if ops[0].kind != 'm' || ops[1].kind != 'r' {
			return fmt.Errorf("st.shared: want [reg+off], reg")
		}
		b.StS(ops[0].reg, ops[0].imm, ops[1].reg)
	case "bra":
		if err := need(1); err != nil {
			return err
		}
		if err := wantKind(0, 'l', "@label or @pc"); err != nil {
			return err
		}
		b.Bra(branchLabel(b, ops[0]))
	case "cbra":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		if err := wantKind(1, 'l', "@label or @pc"); err != nil {
			return err
		}
		if ops[0].neg {
			b.CBraZ(ops[0].reg, branchLabel(b, ops[1]))
		} else {
			b.CBra(ops[0].reg, branchLabel(b, ops[1]))
		}
	case "cbraz":
		if err := need(2); err != nil {
			return err
		}
		if err := wantKind(0, 'r', "a register"); err != nil {
			return err
		}
		if err := wantKind(1, 'l', "@label or @pc"); err != nil {
			return err
		}
		b.CBraZ(ops[0].reg, branchLabel(b, ops[1]))
	case "bar.sync", "bar":
		b.Bar()
	case "exit":
		b.Exit()
	default:
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	return nil
}

// branchLabel resolves an @label or absolute @pc operand into a label
// name, synthesizing pc-anchored labels for absolute targets.
func branchLabel(b *Builder, op operand) string {
	if isNumber(op.str) {
		name := "@pc" + op.str
		if _, exists := b.labels[name]; !exists {
			b.pcFixups = append(b.pcFixups, pcFixup{name: name, pc: mustAtoi(op.str)})
		}
		return name
	}
	return op.str
}

func mustAtoi(s string) int32 {
	n, _ := strconv.Atoi(s)
	return int32(n)
}
