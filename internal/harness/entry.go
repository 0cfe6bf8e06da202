package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"unicode/utf8"

	"cawa/internal/gpu"
	"cawa/internal/stats"
)

// decodeEntry reads data as the one document storeJSON writes for key,
// {"key":<key>,"result":<json.Marshal of a *Result>}, in a single pass
// without reflection. It accepts exactly what json.Marshal emits and
// nothing else: Result, stats.Launch, stats.WarpRecord and
// gpu.LaunchSpan fields in declaration order with no whitespace,
// canonical decimal integers within their Go type's range, null kept
// apart from [] and {}, map keys in json.Marshal's ascending string
// order, and strings of printable ASCII that json.Marshal does not
// escape. So acceptance proves that encoded, the sub-slice of data
// holding the result, is json.Marshal(res) byte for byte, and a caller
// may serve it as is. Any other document — indented, hand-edited, from
// another writer or damaged — is rejected with ok false; the caller
// then reads it with encoding/json.
//
// The decoder never panics and does not recurse, and it allocates only
// for elements it has parsed.
func decodeEntry(data []byte, key string) (res *Result, encoded []byte, ok bool) {
	// json.Marshal replaces invalid UTF-8, so only a valid key's
	// encoding names it alone.
	if !utf8.ValidString(key) {
		return nil, nil, false
	}
	k, _ := json.Marshal(key) // a string always encodes
	p := &parser{b: data}
	p.lit(`{"key":`)
	p.lit(string(k))
	p.lit(`,"result":`)
	start := p.i
	r := new(Result)
	p.result(r)
	end := p.i
	p.lit("}")
	if p.bad || p.i != len(data) {
		return nil, nil, false
	}
	return r, data[start:end:end], true
}

// parser is a cursor over one entry. The first mismatch sets bad, after
// which every method returns zero values without reading, so a
// document is checked field by field with one test at the end.
type parser struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes s, which must come next.
func (p *parser) lit(s string) {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		p.bad = true
		return
	}
	p.i += len(s)
}

// next consumes c and reports true when c comes next.
func (p *parser) next(c byte) bool {
	if p.bad || p.i >= len(p.b) || p.b[p.i] != c {
		return false
	}
	p.i++
	return true
}

// null consumes a JSON null and reports true when one comes next.
func (p *parser) null() bool {
	if p.bad || len(p.b)-p.i < 4 || string(p.b[p.i:p.i+4]) != "null" {
		return false
	}
	p.i += 4
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// uint consumes a canonical unsigned decimal no greater than max: 0,
// or a non-zero digit followed by digits.
func (p *parser) uint(max uint64) uint64 {
	if p.bad {
		return 0
	}
	b, i := p.b, p.i
	if i < len(b) && b[i] == '0' {
		p.i++
		return 0
	}
	start := i
	var v uint64
	for ; i < len(b) && i-start < 19 && isDigit(b[i]); i++ {
		v = v*10 + uint64(b[i]-'0') // 19 digits cannot overflow
	}
	if i < len(b) && isDigit(b[i]) {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			p.bad = true
			return 0
		}
		v = v*10 + d
		i++
	}
	if i == start || v > max || (i < len(b) && isDigit(b[i])) {
		p.bad = true
		return 0
	}
	p.i = i
	return v
}

// int consumes a canonical signed decimal in [min, max]; "-0" is not
// canonical.
func (p *parser) int(min, max int64) int64 {
	if !p.next('-') {
		return int64(p.uint(uint64(max)))
	}
	u := p.uint(uint64(-(min + 1)) + 1)
	if u == 0 {
		p.bad = true
		return 0
	}
	return -int64(u-1) - 1
}

func (p *parser) goInt() int { return int(p.int(math.MinInt, math.MaxInt)) }

func (p *parser) int64() int64 { return p.int(math.MinInt64, math.MaxInt64) }

func (p *parser) uint64() uint64 { return p.uint(math.MaxUint64) }

// str consumes a string json.Marshal writes without escapes: printable
// ASCII other than '"', '\\', '<', '>' and '&'.
func (p *parser) str() string {
	if !p.next('"') {
		p.bad = true
		return ""
	}
	b, start := p.b, p.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return string(b[start:i])
		case c < 0x20 || c > 0x7e || c == '\\' || c == '<' || c == '>' || c == '&':
			p.bad = true
			return ""
		}
	}
	p.bad = true
	return ""
}

// list consumes null (a nil slice) or an array of elem (a non-nil
// slice, empty for []).
func list[T any](p *parser, elem func(*T)) []T {
	if p.null() {
		return nil
	}
	p.lit("[")
	out := []T{}
	if p.next(']') {
		return out
	}
	for !p.bad {
		var zero T
		out = append(out, zero)
		elem(&out[len(out)-1])
		if p.next(']') {
			return out
		}
		p.lit(",")
	}
	return nil
}

// counts consumes null (a nil map) or a map[int32]uint64 object (a
// non-nil map, empty for {}) whose keys ascend as strings, the order
// json.Marshal writes them in: "10" before "2", "-1" before "0".
func (p *parser) counts() map[int32]uint64 {
	if p.null() {
		return nil
	}
	p.lit("{")
	m := map[int32]uint64{}
	if p.next('}') {
		return m
	}
	var prev []byte
	for !p.bad {
		p.lit(`"`)
		start := p.i
		k := int32(p.int(math.MinInt32, math.MaxInt32))
		ks := p.b[start:p.i]
		p.lit(`":`)
		if prev != nil && bytes.Compare(prev, ks) >= 0 {
			p.bad = true
		}
		prev = ks
		m[k] = p.uint64()
		if p.next('}') {
			return m
		}
		p.lit(",")
	}
	return nil
}

func (p *parser) result(r *Result) {
	p.lit(`{"Workload":`)
	r.Workload = p.str()
	p.lit(`,"System":`)
	r.System = p.str()
	p.lit(`,"Agg":`)
	p.launch(&r.Agg)
	p.lit(`,"Launches":`)
	r.Launches = p.goInt()
	p.lit(`,"Detailed":`)
	r.Detailed = p.goInt()
	p.lit(`,"Spans":`)
	r.Spans = list(p, p.span)
	p.lit(`,"WarpL1Accesses":`)
	r.WarpL1Accesses = p.counts()
	p.lit(`,"WarpL1Hits":`)
	r.WarpL1Hits = p.counts()
	p.lit("}")
}

func (p *parser) launch(l *stats.Launch) {
	p.lit(`{"Kernel":`)
	l.Kernel = p.str()
	p.lit(`,"Cycles":`)
	l.Cycles = p.int64()
	p.lit(`,"Instructions":`)
	l.Instructions = p.int64()
	p.lit(`,"ThreadInstrs":`)
	l.ThreadInstrs = p.int64()
	p.lit(`,"L1DAccesses":`)
	l.L1DAccesses = p.uint64()
	p.lit(`,"L1DMisses":`)
	l.L1DMisses = p.uint64()
	p.lit(`,"L2Accesses":`)
	l.L2Accesses = p.uint64()
	p.lit(`,"L2Misses":`)
	l.L2Misses = p.uint64()
	p.lit(`,"MemInstrs":`)
	l.MemInstrs = p.int64()
	p.lit(`,"MemTxns":`)
	l.MemTxns = p.int64()
	p.lit(`,"Warps":`)
	l.Warps = list(p, p.warp)
	p.lit("}")
}

func (p *parser) warp(w *stats.WarpRecord) {
	p.lit(`{"GID":`)
	w.GID = p.goInt()
	p.lit(`,"SM":`)
	w.SM = p.goInt()
	p.lit(`,"Block":`)
	w.Block = p.goInt()
	p.lit(`,"IndexInBlock":`)
	w.IndexInBlock = p.goInt()
	p.lit(`,"DispatchCycle":`)
	w.DispatchCycle = p.int64()
	p.lit(`,"FinishCycle":`)
	w.FinishCycle = p.int64()
	p.lit(`,"Instructions":`)
	w.Instructions = p.int64()
	p.lit(`,"ThreadInstrs":`)
	w.ThreadInstrs = p.int64()
	p.lit(`,"IssueCycles":`)
	w.IssueCycles = p.int64()
	p.lit(`,"SchedStall":`)
	w.SchedStall = p.int64()
	p.lit(`,"MemStall":`)
	w.MemStall = p.int64()
	p.lit(`,"ALUStall":`)
	w.ALUStall = p.int64()
	p.lit(`,"BarrierStall":`)
	w.BarrierStall = p.int64()
	p.lit(`,"EmptyStall":`)
	w.EmptyStall = p.int64()
	p.lit(`,"DivergentBranches":`)
	w.DivergentBranches = p.int64()
	p.lit("}")
}

func (p *parser) span(s *gpu.LaunchSpan) {
	p.lit(`{"Kernel":`)
	s.Kernel = p.str()
	p.lit(`,"Start":`)
	s.Start = p.int64()
	p.lit(`,"End":`)
	s.End = p.int64()
	p.lit("}")
}
