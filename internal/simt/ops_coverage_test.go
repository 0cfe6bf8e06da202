package simt

import (
	"math"
	"testing"

	"cawa/internal/isa"
	"cawa/internal/memory"
)

// evalOne builds a tiny program around one instruction and returns the
// destination value for lane 0.
func evalOne(t *testing.T, setup func(*isa.Builder)) int64 {
	t.Helper()
	b := isa.NewBuilder("one")
	setup(b)
	b.Exit()
	prog := b.MustBuild()
	w := NewWarp(0, 0, 0, 1, 32, int32(prog.Len()))
	ctx := &ExecContext{Mem: memory.New(1 << 12), Shared: make([]int64, 8), BlockDim: 32, GridDim: 1}
	for !w.Done() {
		Exec(w, prog, ctx)
	}
	return w.Reg(0, isa.R15)
}

func TestShiftEdgeCases(t *testing.T) {
	// Shift amounts are clamped to [0, 63].
	if got := evalOne(t, func(b *isa.Builder) {
		b.MovI(isa.R1, 1)
		b.ShlI(isa.R15, isa.R1, 200)
	}); got != math.MinInt64 { // 1 << 63 wraps to the sign bit
		t.Fatalf("shl 200 = %d", got)
	}
	if got := evalOne(t, func(b *isa.Builder) {
		b.MovI(isa.R1, 8)
		b.MovI(isa.R2, -5)
		b.Shl(isa.R15, isa.R1, isa.R2)
	}); got != 8 {
		t.Fatalf("negative shift = %d", got)
	}
	// Arithmetic right shift preserves sign.
	if got := evalOne(t, func(b *isa.Builder) {
		b.MovI(isa.R1, -16)
		b.ShrI(isa.R15, isa.R1, 2)
	}); got != -4 {
		t.Fatalf("arithmetic shr = %d", got)
	}
}

func TestMadAccumulates(t *testing.T) {
	if got := evalOne(t, func(b *isa.Builder) {
		b.MovI(isa.R15, 100)
		b.MovI(isa.R1, 6)
		b.MovI(isa.R2, 7)
		b.Mad(isa.R15, isa.R1, isa.R2)
	}); got != 142 {
		t.Fatalf("mad = %d", got)
	}
}

func TestTranscendentals(t *testing.T) {
	got := evalOne(t, func(b *isa.Builder) {
		b.MovF(isa.R1, 2)
		b.FExp(isa.R15, isa.R1)
	})
	if f := isa.B2F(got); f != math.Exp(2) {
		t.Fatalf("fexp = %v", f)
	}
	got = evalOne(t, func(b *isa.Builder) {
		b.MovF(isa.R1, math.E)
		b.FLog(isa.R15, isa.R1)
	})
	if f := isa.B2F(got); f != 1 {
		t.Fatalf("flog(e) = %v", f)
	}
	got = evalOne(t, func(b *isa.Builder) {
		b.MovF(isa.R1, 2.5)
		b.MovF(isa.R2, -1.5)
		b.FMin(isa.R15, isa.R1, isa.R2)
	})
	if f := isa.B2F(got); f != -1.5 {
		t.Fatalf("fmin = %v", f)
	}
}

func TestIntMinMaxAbsLogic(t *testing.T) {
	cases := []struct {
		build func(*isa.Builder)
		want  int64
	}{
		{func(b *isa.Builder) { b.MovI(isa.R1, 5); b.MovI(isa.R2, -7); b.Min(isa.R15, isa.R1, isa.R2) }, -7},
		{func(b *isa.Builder) { b.MovI(isa.R1, 5); b.MovI(isa.R2, -7); b.Max(isa.R15, isa.R1, isa.R2) }, 5},
		{func(b *isa.Builder) { b.MovI(isa.R1, 0xF0); b.AndI(isa.R15, isa.R1, 0x3C) }, 0x30},
		{func(b *isa.Builder) { b.MovI(isa.R1, 0xF0); b.OrI(isa.R15, isa.R1, 0x0F) }, 0xFF},
		{func(b *isa.Builder) { b.MovI(isa.R1, 0xFF); b.XorI(isa.R15, isa.R1, 0x0F) }, 0xF0},
		{func(b *isa.Builder) { b.MovI(isa.R1, math.MinInt64+1); b.Abs(isa.R15, isa.R1) }, math.MaxInt64},
	}
	for i, c := range cases {
		if got := evalOne(t, c.build); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestFloatComparisonsAndSelect(t *testing.T) {
	got := evalOne(t, func(b *isa.Builder) {
		b.MovF(isa.R1, 1.5)
		b.MovF(isa.R2, 2.5)
		b.FSetLE(isa.R15, isa.R1, isa.R2)
	})
	if got != 1 {
		t.Fatalf("fset.le = %d", got)
	}
	// NaN compares false under every ordered comparison.
	got = evalOne(t, func(b *isa.Builder) {
		b.MovF(isa.R1, math.NaN())
		b.MovF(isa.R2, 0)
		b.FSetGE(isa.R15, isa.R1, isa.R2)
	})
	if got != 0 {
		t.Fatalf("fset.ge(NaN) = %d", got)
	}
}

func TestCvtTruncates(t *testing.T) {
	cvt := func(f float64) int64 {
		return evalOne(t, func(b *isa.Builder) {
			b.MovF(isa.R1, f)
			b.CvtFI(isa.R15, isa.R1)
		})
	}
	// In range: truncation toward zero. Everything else — NaN, the
	// infinities, |x| >= 2^63 — is MinInt64 on every host (cvtFI).
	cases := []struct {
		f    float64
		want int64
	}{
		{-2.9, -2}, {2.9, 2}, {-0.5, 0},
		{math.Nextafter(0x1p63, 0), math.MaxInt64 - 1023},
		{-0x1p63, math.MinInt64}, // exactly representable: the one in-range MinInt64
		{0x1p63, math.MinInt64},
		{math.Nextafter(-0x1p63, math.Inf(-1)), math.MinInt64},
		{1e19, math.MinInt64}, {-1e19, math.MinInt64},
		{math.Inf(1), math.MinInt64}, {math.Inf(-1), math.MinInt64}, {math.NaN(), math.MinInt64},
	}
	for _, c := range cases {
		if got := cvt(c.f); got != c.want {
			t.Errorf("cvt.fi(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}
