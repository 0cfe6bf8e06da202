package state

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// everything is one of each primitive, walked in a fixed order.
type everything struct {
	i   int
	i32 int32
	i64 int64
	j64 int64
	u8  uint8
	u16 uint16
	u32 uint32
	u64 uint64
	b   bool
	c   bool
	f   float64
	s   string
	w   [3]int64
	t   [2]uint8
	is  []int
	m   map[int32]uint64
}

func (e *everything) archive(a *Archive) {
	a.Tag("everything")
	Int(a, &e.i)
	Int(a, &e.i32)
	Int(a, &e.i64, &e.j64)
	Int(a, &e.u8)
	Int(a, &e.u16)
	Int(a, &e.u32)
	Int(a, &e.u64)
	a.Bool(&e.b, &e.c)
	a.Float64(&e.f)
	a.String(&e.s)
	a.Words(e.w[:])
	Table(a, "fixed", e.t[:], IntElem[uint8])
	Slice(a, &e.is, IntElem[int])
	Map(a, &e.m, IntElem[int32], IntElem[uint64])
	a.Tag("end")
}

func sample() everything {
	return everything{
		i: -7, i32: math.MinInt32, i64: math.MinInt64, j64: math.MaxInt64, u8: 255, u16: 65535,
		u32: math.MaxUint32, u64: math.MaxUint64, b: true, f: math.Inf(-1), s: "kmeans",
		w: [3]int64{1, -2, math.MaxInt64}, t: [2]uint8{7, 9}, is: []int{3, -1, 4},
		m: map[int32]uint64{5: 50, -3: 30, 4: 40},
	}
}

func save(e everything) []byte {
	a := NewSaver(0)
	e.archive(a)
	return a.Bytes()
}

// TestRoundTripEveryPrimitive: extremes of every primitive survive a
// save and a load, the loader ends exactly where the saver did, and the
// bytes do not depend on map iteration order.
func TestRoundTripEveryPrimitive(t *testing.T) {
	want := sample()
	blob := save(want)
	for i := 0; i < 20; i++ {
		if again := save(sample()); !reflect.DeepEqual(again, blob) {
			t.Fatal("two saves of equal state differ")
		}
	}
	a := NewLoader(blob)
	var got everything
	got.archive(a)
	if a.Err() != nil {
		t.Fatalf("load: %v", a.Err())
	}
	if len(a.Bytes()) != 0 {
		t.Fatalf("%d bytes left after the walk", len(a.Bytes()))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestTagMismatchNamesBothTags(t *testing.T) {
	s := NewSaver(0)
	s.Tag("lru")
	a := NewLoader(s.Bytes())
	a.Tag("cacp")
	if a.Err() == nil || !strings.Contains(a.Err().Error(), `"lru"`) || !strings.Contains(a.Err().Error(), `"cacp"`) {
		t.Fatalf("tag mismatch error = %v, want one naming both tags", a.Err())
	}
}

// TestLengthPrefixIsNotTrusted: a prefix claiming more elements than
// there are bytes left fails before anything is allocated for it.
func TestLengthPrefixIsNotTrusted(t *testing.T) {
	huge := NewSaver(0)
	n := int64(1 << 40) // Len's varint, built where int is 32 bits too
	Int(huge, &n)
	blob := append(huge.Bytes(), 1, 2, 3)
	loads := map[string]func(a *Archive){
		"Slice":  func(a *Archive) { var s []int; Slice(a, &s, IntElem[int]) },
		"String": func(a *Archive) { var s string; a.String(&s) },
		"Map":    func(a *Archive) { var m map[int32]uint64; Map(a, &m, IntElem[int32], IntElem[uint64]) },
	}
	for name, load := range loads {
		a := NewLoader(blob)
		allocs := testing.AllocsPerRun(1, func() {
			a = NewLoader(blob)
			load(a)
		})
		if a.Err() == nil || !strings.Contains(a.Err().Error(), "exceeds") {
			t.Errorf("%s: err = %v, want a length-exceeds-input error", name, a.Err())
		}
		if allocs > 8 {
			t.Errorf("%s: %v allocations on a hostile prefix", name, allocs)
		}
	}
	// A table's size is the restoring side's: any other length fails.
	s := NewSaver(0)
	s.Len(3)
	a := NewLoader(append(s.Bytes(), 1, 2, 3))
	var two [2]uint8
	if Table(a, "entry", two[:], IntElem[uint8]); a.Err() == nil || !strings.Contains(a.Err().Error(), "entry count mismatch") {
		t.Errorf("3 elements into a table of 2: err = %v", a.Err())
	}
	// Words are eight bytes each: four of them do not fit in sixteen.
	a = NewLoader(make([]byte, 16))
	four := []int64{1, 2, 3, 4}
	if a.Words(four); a.Err() == nil || four[0] != 0 {
		t.Errorf("4 words from 16 bytes: err = %v, words %v", a.Err(), four)
	}
}

// TestIntRejectsOverflow: a value the loading type cannot hold fails
// the load instead of truncating — a uint8 archived as 300, an int32 as
// 2^31 — and the field reads zero.
func TestIntRejectsOverflow(t *testing.T) {
	wide := NewSaver(0)
	v300, v31 := int64(300), int64(math.MaxInt32)+1
	Int(wide, &v300, &v31)
	a := NewLoader(wide.Bytes())
	u8 := uint8(9)
	if Int(a, &u8); a.Err() == nil || !strings.Contains(a.Err().Error(), "300 overflows uint8") || u8 != 0 {
		t.Errorf("300 into a uint8: err = %v, value %d", a.Err(), u8)
	}
	a = NewLoader(wide.Bytes()[2:])
	i32 := int32(9)
	if Int(a, &i32); a.Err() == nil || !strings.Contains(a.Err().Error(), "overflows int32") || i32 != 0 {
		t.Errorf("2^31 into an int32: err = %v, value %d", a.Err(), i32)
	}
	// The largest values of each type still round-trip.
	blob := save(sample())
	var got everything
	if got.archive(NewLoader(blob)); !reflect.DeepEqual(got, sample()) {
		t.Errorf("extremes round-tripped to %+v", got)
	}
}

// TestStickyError: after the first failure every read is zero, every
// length is 0 — so loops over lengths end — and the first error stays.
func TestStickyError(t *testing.T) {
	blob := save(sample())
	for cut := 0; cut < len(blob); cut++ {
		a := NewLoader(blob[:cut])
		var got everything
		got.archive(a)
		if a.Err() == nil {
			t.Fatalf("truncation at %d of %d loaded without error", cut, len(blob))
		}
	}
	a := NewLoader(nil)
	a.Failf("first")
	a.Failf("second")
	i, b, f, s := 9, true, 1.5, "x"
	Int(a, &i)
	a.Bool(&b)
	a.Float64(&f)
	a.String(&s)
	if i != 0 || b || f != 0 || s != "" || a.Len(0) != 0 {
		t.Errorf("reads after a failure: %d %v %v %q", i, b, f, s)
	}
	if a.Err().Error() != "first" {
		t.Errorf("sticky error = %q, want the first", a.Err())
	}
}

// parted is a component with a pluggable part, for Diff's paths.
type parted struct {
	n    int
	part everything
}

func (p *parted) Archive(a *Archive) {
	a.Tag("outer")
	Int(a, &p.n)
	a.Part("inner part", archiverFunc(p.part.archive))
	Int(a, &p.n)
}

type archiverFunc func(*Archive)

func (f archiverFunc) Archive(a *Archive) { f(a) }

// TestDiffNamesTheSection: Diff finds the first differing byte and names
// the section holding it by its Part/Tag path, numbering repeated tags;
// bytes after a Part belong to the enclosing section again.
func TestDiffNamesTheSection(t *testing.T) {
	walk := func(ps ...parted) *Archive {
		a := NewSaver(0)
		for i := range ps {
			ps[i].Archive(a)
		}
		return a
	}
	base := parted{n: 1, part: sample()}
	if d := Diff(walk(base, base), walk(base, base)); d != "" {
		t.Fatalf("equal streams: Diff = %q", d)
	}
	inner := base
	inner.part.u16 = 7
	if d := Diff(walk(base, base), walk(base, inner)); !strings.Contains(d, "outer[1] > inner part: everything[1]") {
		t.Errorf("difference inside the second part: %s", d)
	}
	// n = 1 vs 2 as zigzag varints, just past the tag's six bytes.
	if d := Diff(walk(base), walk(parted{n: 2, part: sample()})); !strings.Contains(d, "6 bytes into outer[0]: 02 14") ||
		!strings.Contains(d, "vs 04 14") {
		t.Errorf("difference in the outer section's first field: %s", d)
	}
	tail := walk(base)
	Int(tail, &base.n)
	if d := Diff(walk(base), tail); !strings.Contains(d, "into outer[0]:") {
		t.Errorf("difference after the part returned: %s", d)
	}
}
