package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cawa/internal/checkpoint"
	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/workloads"
)

var diskTestParams = workloads.Params{Scale: 0.05, Seed: 3}

// TestDiskCacheRoundTrip: a stored result loads back equal, and the
// load is keyed — a different key misses.
func TestDiskCacheRoundTrip(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunOptions{
		Workload: "bfs", Params: diskTestParams,
		System: core.Baseline(), Config: config.Small(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res.ReleaseGPU()
	key := d.EntryKey("bfs", "lrr", diskTestParams, config.Small())
	if err := d.Store(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Load(key)
	if !ok {
		t.Fatal("stored entry did not load")
	}
	if !reflect.DeepEqual(got.Agg, res.Agg) || !reflect.DeepEqual(got.Spans, res.Spans) {
		t.Error("round-tripped result differs from the original")
	}
	otherParams := diskTestParams
	otherParams.Seed++
	if _, ok := d.Load(d.EntryKey("bfs", "lrr", otherParams, config.Small())); ok {
		t.Error("load with a different seed hit the same entry")
	}
	if d.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", d.Len())
	}
}

// TestDiskCacheCorruptionTolerant: truncated, garbage, and
// key-mismatched entry files must degrade to a miss, never an error or
// a wrong result.
func TestDiskCacheCorruptionTolerant(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunOptions{
		Workload: "bfs", Params: diskTestParams,
		System: core.Baseline(), Config: config.Small(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res.ReleaseGPU()
	key := d.EntryKey("bfs", "lrr", diskTestParams, config.Small())
	if err := d.Store(key, res); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one entry file, got %v (%v)", entries, err)
	}

	for name, content := range map[string]string{
		"truncated": "{\"Key\":\"",
		"garbage":   "not json at all",
		"empty":     "",
	} {
		if err := os.WriteFile(entries[0], []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Load(key); ok {
			t.Errorf("%s entry file served a result", name)
		}
	}

	// A misfiled entry (right filename for key B, content recorded for
	// key A) must miss: the stored key is verified, not trusted.
	if err := d.Store(key, res); err != nil {
		t.Fatal(err)
	}
	otherParams := diskTestParams
	otherParams.Seed++
	otherKey := d.EntryKey("bfs", "lrr", otherParams, config.Small())
	if err := d.Store(otherKey, res); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("expected two entry files, got %v (%v)", files, err)
	}
	goodDoc, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == entries[0] {
			continue
		}
		if err := os.WriteFile(f, goodDoc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.Load(otherKey); ok {
		t.Error("entry recorded for a different key served a result")
	}

	// A session pointed at the corrupted cache must silently
	// re-simulate.
	if err := os.WriteFile(entries[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(config.Small(), diskTestParams)
	s.Disk = d
	got, err := s.Run("bfs", core.Baseline())
	if err != nil {
		t.Fatalf("session with corrupt disk cache: %v", err)
	}
	if s.DiskHits() != 0 {
		t.Errorf("corrupt entry counted as a disk hit")
	}
	if !reflect.DeepEqual(got.Agg, res.Agg) {
		t.Error("re-simulated result differs from the original")
	}
}

// TestDiskCacheSurvivesRestart: a second session on the same cache
// directory serves the first session's campaign without simulating —
// the serving layer's restart story.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	d1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSession(config.Small(), diskTestParams)
	s1.Disk = d1
	first, err := s1.Run("bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Timings()) != 1 {
		t.Fatalf("first session simulated %d runs, want 1", len(s1.Timings()))
	}

	// "Restart": fresh session, fresh DiskCache handle, same directory.
	d2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(config.Small(), diskTestParams)
	s2.Disk = d2
	second, err := s2.Run("bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s2.Timings()); n != 0 {
		t.Errorf("restarted session simulated %d runs, want 0 (disk cache)", n)
	}
	if s2.DiskHits() != 1 {
		t.Errorf("restarted session disk hits = %d, want 1", s2.DiskHits())
	}
	if !reflect.DeepEqual(first.Agg, second.Agg) || !reflect.DeepEqual(first.Spans, second.Spans) {
		t.Error("disk-cached result differs from the simulated one")
	}
	if len(second.Agg.Warps) != len(first.Agg.Warps) {
		t.Fatalf("warp records: %d vs %d", len(second.Agg.Warps), len(first.Agg.Warps))
	}

	// A different architecture on the same directory must not hit.
	s3 := NewSession(config.GTX480(), diskTestParams)
	s3.Disk = d2
	s3.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
		return &Result{}, nil
	})
	if _, err := s3.Run("bfs", core.CAWA()); err != nil {
		t.Fatal(err)
	}
	if s3.DiskHits() != 0 {
		t.Error("different architecture hit the small-config cache entry")
	}
}

// cutRun runs opt to completion for reference, then again cancelled
// halfway, and returns the reference result and the checkpoint of the
// cut run's stop.
func cutRun(tb testing.TB, opt RunOptions) (*Result, *WarmCheckpoint) {
	tb.Helper()
	ref, err := Run(opt)
	if err != nil {
		tb.Fatal(err)
	}
	hooked, ctx := cancelAt(opt, ref.Agg.Cycles/2)
	_, last, err := RunCheckpointed(ctx, hooked, 0, nil)
	if err == nil || last == nil {
		tb.Fatalf("cancelled run: err=%v checkpoint=%v", err, last != nil)
	}
	ref.ReleaseGPU()
	return ref, last
}

// parentLayout spells out the on-disk layout of the parent commit
// (engine cawa-engine-6) without calling any DiskCache code: the identity
// key, the SHA-256 file name, the {"key","result"} document and the
// length-prefixed warm-checkpoint header.
type parentLayout struct{ dir string }

func (parentLayout) entryKey(app, sysKey string, p workloads.Params, cfg config.Config) string {
	return fmt.Sprintf("%s|%s|scale=%g|seed=%d|arch=%#v|cawa-engine-6", app, sysKey, p.Scale, p.Seed, cfg)
}

// summaryEntryKey is the identity key of builds before the full-config
// key: arch printed through config.Config.String, the Table 1 summary.
func summaryEntryKey(app, sysKey string, p workloads.Params, cfg config.Config) string {
	return fmt.Sprintf("%s|%s|scale=%g|seed=%d|arch=%+v|cawa-engine-6", app, sysKey, p.Scale, p.Seed, cfg)
}

func (l parentLayout) file(key, ext string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(l.dir, hex.EncodeToString(sum[:])+ext)
}

func (l parentLayout) writeResult(tb testing.TB, key string, r *Result) {
	tb.Helper()
	doc, err := json.Marshal(map[string]any{"key": key, "result": r})
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(l.file(key, ".json"), doc, 0o644); err != nil {
		tb.Fatal(err)
	}
}

func (l parentLayout) writeCheckpoint(tb testing.TB, key string, w *WarmCheckpoint) {
	tb.Helper()
	hdr, err := json.Marshal(map[string]any{"key": key, "partial": &w.Partial})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(len(hdr))) //nolint:errcheck
	buf.Write(hdr)
	if _, err := checkpoint.Encode(&buf, w.Snap); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(l.file(key, ".ckpt"), buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// TestServesParentCommitCacheLayout: a cache directory written with the
// parent commit's layout is served without one re-simulation, and its
// warm checkpoint resumes.
func TestServesParentCommitCacheLayout(t *testing.T) {
	cfg, params := resumeConfig(), resumeParams
	layout := parentLayout{dir: t.TempDir()}
	cells := []RunKey{
		{App: "bfs", System: core.Baseline()},
		{App: "bfs", System: core.SystemConfig{Scheduler: "gto"}},
		{App: "needle", System: core.CAWA()},
	}
	want := make([]*Result, len(cells))
	for i, c := range cells {
		r, err := Run(RunOptions{Workload: c.App, Params: params, System: c.System, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		r.ReleaseGPU()
		want[i] = r
		sysKey, _ := c.System.Key()
		layout.writeResult(t, layout.entryKey(c.App, sysKey, params, cfg), r)
	}
	cawaKey, _ := core.CAWA().Key()
	ref, last := cutRun(t, RunOptions{Workload: "bfs", Params: params, System: core.CAWA(), Config: cfg})
	ckptKey := layout.entryKey("bfs", cawaKey, params, cfg) + "|checkpoint"
	layout.writeCheckpoint(t, ckptKey, last)

	d, err := OpenDiskCache(layout.dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(cells) {
		t.Fatalf("cache counts %d results, want %d", d.Len(), len(cells))
	}
	s := NewSession(cfg, params)
	s.Disk = d
	for i, c := range cells {
		got, err := s.Run(c.App, c.System)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s on %s: served result differs from the stored one", c.App, c.System.Label())
		}
	}
	if n := len(s.Timings()); n != 0 {
		t.Fatalf("%d simulations over a parent-layout cache, want 0", n)
	}
	if got := s.DiskHits(); got != uint64(len(cells)) {
		t.Fatalf("DiskHits = %d, want %d", got, len(cells))
	}

	w, ok := d.LoadCheckpoint(ckptKey)
	if !ok {
		t.Fatal("parent-layout checkpoint did not load")
	}
	if !reflect.DeepEqual(w.Partial, last.Partial) || w.Snap.Meta != last.Snap.Meta {
		t.Fatal("parent-layout checkpoint loaded back different")
	}
	got, err := s.Run("bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	if s.WarmResumes() != 1 || !reflect.DeepEqual(got.Agg, ref.Agg) {
		t.Fatalf("warm resumes = %d, aggregate equal = %v", s.WarmResumes(), reflect.DeepEqual(got.Agg, ref.Agg))
	}

	// And the other direction: what this code writes is what the parent
	// layout names, byte for byte.
	out := parentLayout{dir: t.TempDir()}
	d2, err := OpenDiskCache(out.dir)
	if err != nil {
		t.Fatal(err)
	}
	sysKey, _ := cells[0].System.Key()
	key := d2.EntryKey(cells[0].App, sysKey, params, cfg)
	if key != out.entryKey(cells[0].App, sysKey, params, cfg) {
		t.Fatalf("EntryKey = %q", key)
	}
	if err := d2.Store(key, want[0]); err != nil {
		t.Fatal(err)
	}
	if err := d2.StoreCheckpoint(d2.CheckpointKey(key), last); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(out.file(key, ".json"))
	b, errB := os.ReadFile(layout.file(key, ".json"))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("stored result differs from the parent layout's document (%v, %v)", errA, errB)
	}
	if _, err := os.Stat(out.file(key+"|checkpoint", ".ckpt")); err != nil {
		t.Fatalf("checkpoint not stored under the parent layout's name: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(out.dir, ".*")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}

	// An entry under the summary key of earlier builds is a clean miss:
	// the cell re-simulates once and is written through under its key.
	summary := parentLayout{dir: t.TempDir()}
	summary.writeResult(t, summaryEntryKey(cells[0].App, sysKey, params, cfg), want[0])
	d3, err := OpenDiskCache(summary.dir)
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewSession(cfg, params)
	s3.Disk = d3
	got, err = s3.Run(cells[0].App, cells[0].System)
	if err != nil {
		t.Fatal(err)
	}
	if s3.DiskHits() != 0 || len(s3.Timings()) != 1 || !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("summary-keyed entry: DiskHits = %d, simulations = %d, result equal = %v",
			s3.DiskHits(), len(s3.Timings()), reflect.DeepEqual(got, want[0]))
	}
	if _, err := os.Stat(summary.file(key, ".json")); err != nil {
		t.Fatalf("re-simulated cell not written through under the full-config key: %v", err)
	}
}

// FuzzDiskCacheArtifacts feeds arbitrary bytes to both artifact
// loaders. Property: a load is a miss, or a hit whose stored key is the
// requested one — never a panic. The seed corpus (run by plain go test)
// is one real result entry, one real checkpoint, and the damage cases
// of TestCheckpointArtifactDamageIsCleanMiss.
func FuzzDiskCacheArtifacts(f *testing.F) {
	const key = "fuzz|key"
	ref, last := cutRun(f, RunOptions{
		Workload: "bfs", Params: resumeParams, System: core.Baseline(), Config: resumeConfig(),
	})
	seedDir := parentLayout{dir: f.TempDir()}
	seedDir.writeResult(f, key, ref)
	seedDir.writeCheckpoint(f, key, last)
	for _, ext := range []string{resultExt, ckptExt} {
		blob, err := os.ReadFile(seedDir.file(key, ext))
		if err != nil {
			f.Fatal(err)
		}
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)-1] ^= 1
		for _, data := range [][]byte{blob, blob[:len(blob)/2], flipped, blob[:3], nil, {0x3f, 0xff, 0xff, 0xff}} {
			f.Add(data, ext == ckptExt)
		}
	}

	d, err := OpenDiskCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, ckpt bool) {
		var stored struct {
			Key string `json:"key"`
		}
		if ckpt {
			if err := os.WriteFile(d.path(key, ckptExt), data, 0o644); err != nil {
				t.Fatal(err)
			}
			w, ok := d.LoadCheckpoint(key)
			if !ok {
				return
			}
			if w.Snap == nil {
				t.Fatal("hit without a snapshot")
			}
			n := binary.BigEndian.Uint32(data)
			json.Unmarshal(data[4:4+n], &stored) //nolint:errcheck
		} else {
			if err := os.WriteFile(d.path(key, resultExt), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Load(key); !ok {
				return
			}
			json.Unmarshal(data, &stored) //nolint:errcheck
		}
		if stored.Key != key {
			t.Fatalf("hit on an artifact keyed %q", stored.Key)
		}
	})
}

// TestEntryKeyCoversEveryConfigField: changing any one field of
// config.Config, or of one of its CacheConfigs, changes the entry key,
// so sessions that differ only there never serve each other's results
// or resume each other's checkpoints.
func TestEntryKeyCoversEveryConfigField(t *testing.T) {
	var d DiskCache
	base := config.Small()
	ref := d.EntryKey("bfs", "lrr", diskTestParams, base)
	var walk func(typ reflect.Type, index []int)
	leaves := 0
	walk = func(typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), index...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, at)
				continue
			}
			cfg := base
			v := reflect.ValueOf(&cfg).Elem().FieldByIndex(at)
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Fatalf("%s: no perturbation for a %s", f.Name, v.Kind())
			}
			leaves++
			if d.EntryKey("bfs", "lrr", diskTestParams, cfg) == ref {
				t.Errorf("a change to %v (field %s) leaves the entry key unchanged", at, f.Name)
			}
		}
	}
	walk(reflect.TypeOf(base), nil)
	if leaves < 30 {
		t.Fatalf("perturbed %d fields; config.Config has more", leaves)
	}
}

// TestDiskCacheTornEntryIsCleanMiss: an entry cut short anywhere — a
// crash mid-copy, a full disk under another writer — is a miss. The
// next RunJSON simulates again and its write-through replaces the torn
// file with the whole entry.
func TestDiskCacheTornEntryIsCleanMiss(t *testing.T) {
	res, err := Run(RunOptions{Workload: "bfs", Params: diskTestParams, System: core.Baseline(), Config: config.Small()})
	if err != nil {
		t.Fatal(err)
	}
	res.ReleaseGPU()
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sysKey, _ := core.Baseline().Key()
	key := d.EntryKey("bfs", sysKey, diskTestParams, config.Small())
	if err := d.Store(key, res); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(d.path(key, resultExt))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(whole) / 8, len(whole) / 2, len(whole) - 1} {
		if err := os.WriteFile(d.path(key, resultExt), whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewSession(config.Small(), diskTestParams)
		s.Disk = d
		sims := 0
		s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
			sims++
			return res, nil
		})
		got, err := s.RunJSON(context.Background(), "bfs", core.Baseline())
		if err != nil {
			t.Fatalf("torn at %d: %v", n, err)
		}
		if !bytes.Equal(got, want) || s.DiskHits() != 0 || sims != 1 {
			t.Fatalf("torn at %d of %d bytes: DiskHits = %d, simulations = %d, reply equal = %v",
				n, len(whole), s.DiskHits(), sims, bytes.Equal(got, want))
		}
		if after, err := os.ReadFile(d.path(key, resultExt)); err != nil || !bytes.Equal(after, whole) {
			t.Fatalf("torn at %d: write-through did not restore the entry (%v)", n, err)
		}
	}
}

// TestDiskCacheDirectoryGone: a cache directory replaced by a regular
// file after OpenDiskCache (the fault root can inject: a read-only mode
// does not stop root) leaves the session a memory cache. Run and
// RunJSON still succeed, nothing is served from or written to disk,
// both failed write-throughs are counted, and nothing panics.
func TestDiskCacheDirectoryGone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	const stand = "not a directory"
	if err := os.WriteFile(dir, []byte(stand), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(config.Small(), diskTestParams)
	s.Disk = d
	res, err := s.Run("bfs", core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunJSON(context.Background(), "bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	cawa, _ := s.Run("bfs", core.CAWA())
	if want, _ := json.Marshal(cawa); !bytes.Equal(got, want) || res.Agg.Cycles == 0 {
		t.Fatal("RunJSON over a vanished cache directory did not serve the simulated result")
	}
	if s.DiskHits() != 0 || len(s.Timings()) != 2 {
		t.Fatalf("DiskHits = %d, simulations = %d, want 0 and 2", s.DiskHits(), len(s.Timings()))
	}
	if n, m := s.DiskWriteErrors(), s.Manifest().DiskWriteErrors; n != 2 || m != 2 {
		t.Fatalf("DiskWriteErrors = %d, manifest %d, want 2", n, m)
	}
	if b, err := os.ReadFile(dir); err != nil || string(b) != stand {
		t.Fatalf("the file standing in for the directory changed: %q (%v)", b, err)
	}
	if left, _ := os.ReadDir(filepath.Dir(dir)); len(left) != 1 {
		t.Fatalf("files written beside the cache path: %v", left)
	}
}
