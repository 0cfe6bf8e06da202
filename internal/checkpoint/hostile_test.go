package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/simt"
	"cawa/internal/state"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

// The hostile-input fixture: tpacf (two warps to a block) under full
// CAWA on a 2-SM GPU with room for one block per SM — a fuzzer mutates
// and minimizes the whole payload, so it is kept small — checkpointed
// inside its first launch (so a restore target needs no functional
// replay) at a cycle where L1 MSHRs are occupied and memory events are
// in flight.
const hostileWorkload = "tpacf"

func hostileConfig() config.Config {
	cfg := testConfig()
	cfg.NumSMs, cfg.MaxWarpsPerSM = 2, 2
	return cfg
}

// twoLevel is the fixture's second design point: the two-level
// scheduler's loader walks slot lists that index its bitsets.
var twoLevel = core.SystemConfig{Scheduler: "2lvl"}

// fixtureSystem is the design point a fixture checkpoint whose Meta
// names key restores onto: 2lvl for its own key, CAWA for any other.
func fixtureSystem(key string) core.SystemConfig {
	if k, _ := twoLevel.Key(); key == k {
		return twoLevel
	}
	return core.CAWA()
}

// realCheckpoint captures the fixture (or a variant of it on another
// geometry) and returns the snapshot.
func realCheckpoint(t testing.TB, cfg config.Config, p workloads.Params) *Snapshot {
	return realCheckpointOn(t, core.CAWA(), cfg, p)
}

// realCheckpointOn captures the fixture under design point sc, its key
// in the snapshot's Meta.
func realCheckpointOn(t testing.TB, sc core.SystemConfig, cfg config.Config, p workloads.Params) *Snapshot {
	t.Helper()
	wl, err := workloads.New(hostileWorkload, p)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.Key()
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.NewGPU(cfg, wl.Mem())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *Snapshot
	g.PerCycle = func(g *gpu.GPU, cycle int64) {
		busy := 0
		for _, m := range g.SMs() {
			busy += m.L1D().MSHROccupancy()
		}
		if cycle < 100 || busy == 0 || g.MemSys().Drained() {
			return
		}
		if snap, err = Capture(g, Meta{Workload: hostileWorkload, Scale: p.Scale, Seed: p.Seed, SystemKey: key}); err != nil {
			t.Fatalf("capture: %v", err)
		}
		cancel()
	}
	g.PerCycleWake = func(now int64) int64 { return max(100, now+1) }
	k, _ := wl.Next()
	if _, err := g.Launch(ctx, k); err == nil || snap == nil {
		t.Fatalf("fixture launch ended without a mid-launch checkpoint (err=%v)", err)
	}
	return snap
}

// freshTarget builds what a checkpoint of the fixture whose Meta names
// key restores onto.
func freshTarget(t testing.TB, key string) (*gpu.GPU, *simt.Kernel) {
	t.Helper()
	wl, err := workloads.New(hostileWorkload, testParams)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := wl.Next()
	g, err := fixtureSystem(key).NewGPU(hostileConfig(), wl.Mem())
	if err != nil {
		t.Fatal(err)
	}
	return g, k
}

// wrap puts a payload in a valid envelope: current header, its own
// digest. Damage to the payload then reaches the walk instead of
// stopping at the SHA check.
func wrap(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := binary.BigEndian.AppendUint32(append([]byte(nil), magic[:]...), FormatVersion)
	return append(append(out, sum[:]...), payload...)
}

// sectionOffsets returns where each section Tag of the fixture's walk
// first starts in the payload.
func sectionOffsets(t testing.TB, payload []byte) map[string]int {
	t.Helper()
	offs := map[string]int{}
	for _, tag := range []string{"meta", "gpu", "memory", "memsys", "cache", "lru", "l1d", "cacp", "sm", "gcaws", "cpl"} {
		mark := state.NewSaver(0)
		mark.Tag(tag)
		at := bytes.Index(payload, mark.Bytes())
		if at < 0 {
			t.Fatalf("section tag %q not found in the payload", tag)
		}
		offs[tag] = at
	}
	return offs
}

// hostileCase is a digest-valid payload Restore must refuse.
type hostileCase struct {
	name    string
	payload []byte
	errHas  string // "" = any error
}

func hostileCases(t testing.TB, real *Snapshot) []hostileCase {
	small := hostileConfig()
	small.NumSMs = 1
	cases := []hostileCase{
		{"wrong SM count", realCheckpoint(t, small, testParams).payload, "SM count mismatch"},
		{"wrong memory size", realCheckpoint(t, hostileConfig(), workloads.Params{Scale: 0.1, Seed: 3}).payload, "memory: size mismatch"},
		{"trailing bytes", append(append([]byte(nil), real.payload...), 0), "left over"},
	}
	offs := sectionOffsets(t, real.payload)
	for tag, at := range offs {
		if tag != "meta" { // a payload cut inside Meta fails Decode instead
			cases = append(cases, hostileCase{"cut at " + tag, real.payload[:at], ""})
			cases = append(cases, hostileCase{"cut inside " + tag, real.payload[:at+2], ""})
		}
	}
	// CACP's six partition-controller words follow its two predictor
	// tables and are always 0; a 1 there is a checkpoint of the retired
	// dynamic partition (dynpart), or crafted bytes.
	l := state.NewLoader(real.payload[offs["cacp"]:])
	var table [256]uint8
	l.Tag("cacp")
	state.Table(l, "CCBP entry", table[:], state.IntElem[uint8])
	state.Table(l, "SHiP entry", table[:], state.IntElem[uint8])
	if l.Err() != nil {
		t.Fatalf("walking the fixture's CACP tables: %v", l.Err())
	}
	for word := range 6 {
		at := len(real.payload) - len(l.Bytes()) + word
		if real.payload[at] != 0 {
			t.Fatalf("CACP partition controller word %d is %#x in the fixture, want 0", word, real.payload[at])
		}
		b := append([]byte(nil), real.payload...)
		b[at] = 2 // the zigzag varint of 1
		cases = append(cases, hostileCase{fmt.Sprint("CACP partition controller word ", word), b, "only a static partition exists"})
	}
	// The 2lvl fixture with its first policy's pending queue, empty at
	// the capture (a unit holds one warp), replaced by slot -5.
	lvl := realCheckpointOn(t, twoLevel, hostileConfig(), testParams).payload
	mark := state.NewSaver(0)
	mark.Tag("2lvl")
	at := bytes.Index(lvl, mark.Bytes())
	l = state.NewLoader(lvl[at:])
	var n int
	var active []int
	l.Tag("2lvl")
	state.Int(l, &n, &n)
	state.Slice(l, &active, state.IntElem[int])
	if at < 0 || l.Err() != nil || l.Bytes()[0] != 0 {
		t.Fatalf("the 2lvl fixture's first policy has no empty pending queue at %d (err %v)", at, l.Err())
	}
	at = len(lvl) - len(l.Bytes())
	bad := append(append(append([]byte(nil), lvl[:at]...), 2, 9), lvl[at+1:]...) // one slot: -5
	cases = append(cases, hostileCase{"2lvl pending slot -5", bad, "slot -5 out of range"})
	return cases
}

// TestDecodeRejectsDamage covers the cache-miss paths. Envelope damage
// (truncation, bit damage, wrong magic, another format version — the
// gob-era version 1 included — and a payload too short to hold Meta)
// must fail Decode with the right sentinel; a payload that is damaged
// inside a valid envelope (cut at any section, captured on another
// geometry, followed by junk) must decode and then fail Restore with an
// error. Never a panic, never a silent success.
func TestDecodeRejectsDamage(t *testing.T) {
	real := realCheckpoint(t, hostileConfig(), testParams)
	var buf bytes.Buffer
	digest, err := Encode(&buf, real)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if hash := StateHash(real); digest != hash {
		t.Errorf("Encode digest %s != StateHash %s", digest, hash)
	}
	blob := buf.Bytes()
	t.Logf("fixture: cycle %d, %d bytes", real.Meta.Cycle, len(blob))
	if !bytes.Equal(blob, wrap(real.payload)) {
		t.Fatal("the test's envelope differs from Encode's")
	}
	clean, err := Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	if clean.Meta != real.Meta {
		t.Errorf("decoded Meta %+v, captured %+v", clean.Meta, real.Meta)
	}
	g, k := freshTarget(t, clean.Meta.SystemKey)
	if err := Restore(clean, g, k); err != nil {
		t.Fatalf("clean restore: %v", err)
	}

	mutated := func(f func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		f(b)
		return b
	}
	envelope := []struct {
		name string
		blob []byte
		want error
	}{
		{"truncated", blob[:len(blob)/2], ErrCorrupt},
		{"bit damage", mutated(func(b []byte) { b[len(b)-1] ^= 0x40 }), ErrCorrupt},
		{"bad magic", mutated(func(b []byte) { b[0] = 'X' }), ErrIncompatible},
		{"next version", mutated(func(b []byte) { b[11]++ }), ErrIncompatible},
		{"format version 1", mutated(func(b []byte) { b[11] = 1 }), ErrIncompatible},
		{"empty", nil, ErrCorrupt},
		{"no payload", wrap(nil), ErrCorrupt},
		{"cut inside meta", wrap(real.payload[:10]), ErrCorrupt},
	}
	for _, c := range envelope {
		if _, err := Decode(bytes.NewReader(c.blob)); !errors.Is(err, c.want) {
			t.Errorf("%s: Decode error %v, want %v", c.name, err, c.want)
		}
	}

	for _, c := range hostileCases(t, real) {
		snap, err := Decode(bytes.NewReader(wrap(c.payload)))
		if err != nil {
			t.Errorf("%s: digest-valid payload failed Decode: %v", c.name, err)
			continue
		}
		g, k := freshTarget(t, snap.Meta.SystemKey)
		if err := Restore(snap, g, k); err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: Restore error %v, want one containing %q", c.name, err, c.errHas)
		}
	}
}

// restoreAllocFactor and restoreAllocSlack bound what Decode + Restore
// may allocate for an n-byte checkpoint: factor*n + slack bytes. The
// factor covers the loader's worst honest expansion (a one-byte varint
// becoming an eight-byte int in a slice grown by doubling, a two-byte
// map pair becoming a map entry) plus Decode's own copy of the input;
// the slack covers what does not scale with the input (one warp's
// register file sized before its words turn out missing, error strings).
const (
	restoreAllocFactor = 64
	restoreAllocSlack  = 256 << 10
)

// FuzzDecodeRestore: arbitrary bytes in a valid envelope, decoded and
// restored onto a fresh GPU, end in success or an error — never a
// panic, and never more allocation than restoreAllocFactor times the
// input plus restoreAllocSlack (a length prefix is not trusted beyond
// the bytes that remain).
func FuzzDecodeRestore(f *testing.F) {
	real := realCheckpoint(f, hostileConfig(), testParams)
	f.Add(real.payload)
	f.Add(realCheckpointOn(f, twoLevel, hostileConfig(), testParams).payload)
	for _, c := range hostileCases(f, real) {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		blob := wrap(payload)
		var m runtime.MemStats
		allocated := func() uint64 {
			runtime.ReadMemStats(&m)
			return m.TotalAlloc
		}
		// The restore target is built between the two windows: the
		// decoded Meta names the design point it restores onto.
		at := allocated()
		snap, err := Decode(bytes.NewReader(blob))
		grew := allocated() - at
		if err == nil {
			g, k := freshTarget(t, snap.Meta.SystemKey)
			at = allocated()
			err = Restore(snap, g, k)
			grew += allocated() - at
		}
		if limit := uint64(restoreAllocFactor*len(blob) + restoreAllocSlack); grew > limit {
			t.Fatalf("%d-byte checkpoint allocated %d bytes (limit %d), err=%v", len(blob), grew, limit, err)
		}
	})
}

// TestPlainStructsArchiveEveryField: five plain structs rode through
// gob field-complete by reflection and are now walked field by field.
// Fill every field with a distinct non-zero value, save, load into a
// zero value, and require equality — the day someone adds a field
// without archiving it, this fails.
func TestPlainStructsArchiveEveryField(t *testing.T) {
	pairs := []struct{ full, zero state.Archiver }{
		{new(stats.WarpRecord), new(stats.WarpRecord)},
		{new(cache.Line), new(cache.Line)},
		{new(cache.Request), new(cache.Request)},
		{new(simt.StackEntry), new(simt.StackEntry)},
		{new(gpu.LaunchSpan), new(gpu.LaunchSpan)},
	}
	for _, p := range pairs {
		v := reflect.ValueOf(p.full).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(int64(i + 1))
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(uint64(i + 1))
			case reflect.String:
				f.SetString(fmt.Sprint("field", i))
			default:
				t.Fatalf("%s.%s: the test cannot fill a %s", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
		s := state.NewSaver(0)
		p.full.Archive(s)
		l := state.NewLoader(s.Bytes())
		p.zero.Archive(l)
		if l.Err() != nil || len(l.Bytes()) != 0 {
			t.Errorf("%s: load err=%v, %d bytes left", v.Type(), l.Err(), len(l.Bytes()))
		}
		if !reflect.DeepEqual(p.full, p.zero) {
			t.Errorf("%s: a field is not archived:\nsaved  %+v\nloaded %+v", v.Type(), p.full, p.zero)
		}
	}
}

// TestRoundTripOtherDesignPoints runs the capture-on-the-oracle,
// resume-on-one-domain-per-SM round trip over the providers and
// policies TestRoundTrip's three systems do not reach: the two-level
// scheduler's active and pending sets, the oracle provider's slot
// index, and a CACP configuration other than the default (abl-partition's
// 4 of 16 critical ways).
func TestRoundTripOtherDesignPoints(t *testing.T) {
	oracle := map[int]float64{}
	for gid := 0; gid < 4096; gid++ {
		oracle[gid] = float64((gid * 7919) % 1000)
	}
	ways4 := core.DefaultCACPConfig()
	ways4.CriticalWays = 4
	systems := map[string]core.SystemConfig{
		"2lvl":        {Scheduler: "2lvl"},
		"caws-oracle": {Scheduler: "caws", Oracle: oracle},
		"cawa-ways4":  {Scheduler: "gcaws", CPL: true, CACP: true, CACPConfig: &ways4},
	}
	for name, sc := range systems {
		t.Run(name, func(t *testing.T) {
			ref := runReference(t, "kmeans", sc)
			blob := captureRun(t, "kmeans", sc, engineVariants[0], ref)
			resumeRun(t, "kmeans", sc, engineVariants[3], ref, blob)
		})
	}
}
