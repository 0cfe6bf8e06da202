package memsys

import (
	"math/rand"
	"slices"
	"testing"

	"cawa/internal/state"
)

// TestMSHRTableMatchesMap drives the MSHR table through random puts and
// takes on a few colliding line addresses, against a Go map: every get
// and take must agree, and the count must track the map's length.
func TestMSHRTableMatchesMap(t *testing.T) {
	for _, mshrs := range []int{1, 3, 4, 32} {
		rng := rand.New(rand.NewSource(int64(mshrs)))
		tab := newMSHRTable(mshrs)
		ref := map[int64]*mshrEntry{}
		for step := 0; step < 20000; step++ {
			line := int64(rng.Intn(4*mshrs+4)) * 128
			switch {
			case rng.Intn(2) == 0 && len(ref) < mshrs && ref[line] == nil:
				e := &mshrEntry{}
				tab.put(line, e)
				ref[line] = e
			default:
				if got, want := tab.take(line), ref[line]; got != want {
					t.Fatalf("mshrs %d step %d: take(%#x) = %p, want %p", mshrs, step, line, got, want)
				}
				delete(ref, line)
			}
			if tab.n != len(ref) {
				t.Fatalf("mshrs %d step %d: %d entries, want %d", mshrs, step, tab.n, len(ref))
			}
			for l, e := range ref {
				if tab.get(l) != e {
					t.Fatalf("mshrs %d step %d: get(%#x) lost its entry", mshrs, step, l)
				}
			}
		}
	}
}

// TestWarpTableArchivesAsMaps: the per-warp counts archive to the bytes
// state.Map wrote for the two maps they replace, and load back.
func TestWarpTableArchivesAsMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab warpTable
	acc, hits := map[int32]uint64{}, map[int32]uint64{}
	for i := 0; i < 5000; i++ {
		gid := int32(rng.Intn(3000))
		c := tab.at(gid)
		c.accesses++
		acc[gid]++
		if rng.Intn(3) == 0 {
			c.hits++
			hits[gid]++
		}
	}
	want := state.NewSaver(0)
	state.Map(want, &acc, state.IntElem[int32], state.IntElem[uint64])
	state.Map(want, &hits, state.IntElem[int32], state.IntElem[uint64])
	got := state.NewSaver(0)
	tab.archive(got)
	if !slices.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("warp table bytes differ from the two maps'")
	}
	var back warpTable
	l := state.NewLoader(got.Bytes())
	back.archive(l)
	if l.Err() != nil || !slices.Equal(back.sorted(), tab.sorted()) {
		t.Fatalf("reloaded table differs (err %v)", l.Err())
	}
}
