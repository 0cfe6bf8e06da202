package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/workloads"
)

var resumeParams = workloads.Params{Scale: 0.1, Seed: 5}

func resumeConfig() config.Config {
	c := config.Small()
	c.NumSMs = 4
	return c
}

// cancelAt builds RunOptions whose per-cycle hook cancels the context
// once the global cycle reaches `at`. Its wake ends a span there, so the
// cancel takes effect at exactly that cycle.
func cancelAt(opt RunOptions, at int64) (RunOptions, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	opt.PerCycle = func(g *gpu.GPU, cycle int64) {
		if cycle >= at {
			cancel()
		}
	}
	opt.PerCycleWake = func(now int64) int64 { return max(at, now+1) }
	return opt, ctx
}

// sameResult fails unless got encodes to the very bytes want does: the
// JSON form is everything a Result carries beyond its GPU.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		compareResults(t, name, got, want)
		t.Fatalf("%s: resumed result differs from the uninterrupted run", name)
	}
}

// settledTicks sums the refused ticks g's SMs slept through and settled.
func settledTicks(g *gpu.GPU) (n int64) {
	for _, s := range g.SMs() {
		n += s.SettledTicks()
	}
	return n
}

// TestRunCheckpointedCancelResume cuts runs at chosen cycles and
// resumes each from the checkpoint of its stop, persisted and reloaded
// through the disk cache: the checkpoint must sit at exactly the cut
// cycle, and the resumed result must be byte-identical to the
// uninterrupted run's. The cuts: the first cycle; mid-launch; the last
// cycle of launch 0, where the run stops before launch 1's first span
// and the checkpoint belongs to launch 1; and a backprop cut while an
// SM sleeps owing refused ticks (the stop settles them).
func TestRunCheckpointedCancelResume(t *testing.T) {
	bfs := RunOptions{
		Workload: "bfs", Params: resumeParams, System: core.CAWA(), Config: resumeConfig(),
	}
	backprop := bfs
	backprop.Workload = "backprop"
	refs := map[string]*Result{}
	for _, opt := range []RunOptions{bfs, backprop} {
		ref, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		refs[opt.Workload] = ref
	}
	if n := refs["bfs"].Launches; n < 2 {
		t.Fatalf("bfs has %d launches; the launch-boundary cut needs two", n)
	}
	cases := []struct {
		name   string
		opt    RunOptions
		at     int64
		launch int  // the checkpoint's in-flight launch
		asleep bool // an SM owes refused ticks at the cut
	}{
		{"cycle 1", bfs, 1, 0, false},
		{"mid-launch", bfs, refs["bfs"].Agg.Cycles / 2, -1, false},
		{"last cycle of launch 0", bfs, refs["bfs"].Spans[0].End, 1, false},
		{"SM asleep", backprop, refs["backprop"].Agg.Cycles / 2, 0, true},
	}
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := refs[c.opt.Workload]
			hooked, ctx := cancelAt(c.opt, c.at)
			var g *gpu.GPU
			var owed int64
			cancel := hooked.PerCycle
			hooked.PerCycle = func(gg *gpu.GPU, cycle int64) {
				if cycle >= c.at && g == nil {
					g, owed = gg, -settledTicks(gg)
				}
				cancel(gg, cycle)
			}
			res, last, err := RunCheckpointed(ctx, hooked, 0, nil)
			if err == nil {
				t.Fatalf("cancelled run returned no error (res=%+v)", res)
			}
			if last == nil {
				t.Fatal("cancelled run returned no checkpoint")
			}
			m := last.Snap.Meta
			if m.Workload != c.opt.Workload || m.EngineVersion != EngineVersion {
				t.Fatalf("checkpoint meta: %+v", m)
			}
			if m.Cycle != c.at {
				t.Fatalf("checkpoint at cycle %d, want the cut cycle %d", m.Cycle, c.at)
			}
			if c.launch >= 0 && m.LaunchIndex != c.launch {
				t.Fatalf("checkpoint inside launch %d, want %d", m.LaunchIndex, c.launch)
			}
			if owed += settledTicks(g); c.asleep && owed == 0 {
				t.Fatal("no SM was asleep owing refused ticks at the cut; the case is vacuous")
			}

			key := d.CheckpointKey(d.EntryKey(c.opt.Workload, c.name, resumeParams, resumeConfig()))
			if err := d.StoreCheckpoint(key, last); err != nil {
				t.Fatal(err)
			}
			loaded, ok := d.LoadCheckpoint(key)
			if !ok {
				t.Fatal("stored checkpoint did not load back")
			}
			if loaded.Partial.Launches != last.Partial.Launches ||
				!reflect.DeepEqual(loaded.Partial.Agg, last.Partial.Agg) {
				t.Fatalf("partial result changed across persistence:\nstored %+v\nloaded %+v",
					last.Partial.Agg, loaded.Partial.Agg)
			}

			resumed, lastAfter, err := RunCheckpointed(context.Background(), c.opt, 0, loaded)
			if err != nil {
				t.Fatal(err)
			}
			if lastAfter != nil {
				t.Fatal("completed run still returned a checkpoint")
			}
			sameResult(t, c.name, resumed, ref)
		})
	}

	// A cancel from another goroutine lands wherever the engine next
	// polls ctx; whenever the run stops inside a launch, resuming from
	// that checkpoint must be exact too.
	for _, delay := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		_, last, err := RunCheckpointed(ctx, bfs, 0, nil)
		timer.Stop()
		cancel()
		if err != nil && last == nil {
			t.Logf("cancel after %v stopped the run without a checkpoint: %v", delay, err)
		}
		if last == nil {
			continue
		}
		resumed, _, err := RunCheckpointed(context.Background(), bfs, 0, last)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("cancel after %v (cycle %d)", delay, last.Snap.Meta.Cycle), resumed, refs["bfs"])
	}
}

// TestCheckpointArtifactDamageIsCleanMiss proves satellite semantics:
// a truncated, bit-flipped, mis-keyed, or stale-engine checkpoint
// artifact reads back as a miss, never an error or a poisoned entry.
func TestCheckpointArtifactDamageIsCleanMiss(t *testing.T) {
	opt := RunOptions{
		Workload: "bfs", Params: resumeParams, System: core.Baseline(), Config: resumeConfig(),
	}
	ref, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	hooked, ctx := cancelAt(opt, ref.Agg.Cycles/2)
	_, last, err := RunCheckpointed(ctx, hooked, 0, nil)
	if err == nil || last == nil {
		t.Fatalf("cancelled run: err=%v checkpoint=%v", err, last != nil)
	}

	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := d.CheckpointKey(d.EntryKey("bfs", "lrr-key", resumeParams, resumeConfig()))
	if err := d.StoreCheckpoint(key, last); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one .ckpt artifact, got %v (%v)", files, err)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	// A different key — e.g. one embedding an older EngineVersion — maps
	// to a different artifact and misses.
	staleKey := d.CheckpointKey("bfs|lrr-key|scale=0.1|seed=5|arch=small|cawa-engine-0")
	if _, ok := d.LoadCheckpoint(staleKey); ok {
		t.Fatal("stale-engine key unexpectedly hit")
	}

	damage := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(files[0], mutate(append([]byte(nil), blob...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if w, ok := d.LoadCheckpoint(key); ok {
			t.Fatalf("%s artifact unexpectedly loaded: %+v", name, w.Snap.Meta)
		}
	}
	damage("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	damage("bit-flipped", func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
	damage("short-header", func(b []byte) []byte { return b[:3] })
	damage("empty", func(b []byte) []byte { return nil })
	// The checkpoint stream (magic, version, digest, payload) follows the
	// length-prefixed JSON header. A gob-era version-1 stream is a miss,
	// and so is a payload cut inside its Meta even when the digest is
	// recomputed to match.
	damage("format-v1", func(b []byte) []byte { binary.BigEndian.PutUint32(ckptStream(b)[8:], 1); return b })
	damage("cut-in-meta", func(b []byte) []byte { return redigest(b, func(p []byte) []byte { return p[:10] }) })
	if blob2 := redigest(append([]byte(nil), blob...), func(p []byte) []byte { return p }); !bytes.Equal(blob2, blob) {
		t.Fatal("redigest of an untouched payload changed the artifact; the case above is vacuous")
	}

	// Four hostile bytes claiming a ~1 GiB header: the length prefix is
	// bounded by what the file holds, so the miss allocates next to
	// nothing (the parent commit allocated the full 1024 MiB here).
	if err := os.WriteFile(files[0], []byte{0x3f, 0xff, 0xff, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := d.LoadCheckpoint(key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("huge-length artifact unexpectedly loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("huge-length artifact allocated %d bytes before missing, want < 1 MiB", grew)
	}

	// Restore the intact artifact: it must still load, and the full
	// key-verification still rejects a hand-renamed file.
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.LoadCheckpoint(key); !ok {
		t.Fatal("intact artifact stopped loading")
	}
	otherKey := d.CheckpointKey(d.EntryKey("bfs", "other-key", resumeParams, resumeConfig()))
	if err := os.Rename(files[0], d.path(otherKey, ckptExt)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.LoadCheckpoint(otherKey); ok {
		t.Fatal("mis-keyed (renamed) artifact unexpectedly hit")
	}
}

// ckptStream returns the checkpoint stream inside a persisted artifact.
func ckptStream(artifact []byte) []byte {
	return artifact[4+binary.BigEndian.Uint32(artifact):]
}

// redigest rewrites an artifact's checkpoint payload and recomputes the
// stream's digest, so the damage passes Decode's SHA check.
func redigest(artifact []byte, mutate func(payload []byte) []byte) []byte {
	const envelope = 8 + 4 + sha256.Size
	stream := ckptStream(artifact)
	payload := mutate(stream[envelope:])
	sum := sha256.Sum256(payload)
	copy(stream[12:], sum[:])
	return append(artifact[:len(artifact)-len(stream)+envelope], payload...)
}

// TestSessionWarmStart seeds the disk cache with a checkpoint from an
// interrupted run and shows the session resumes it instead of
// simulating from cycle zero, then supersedes it with the final result.
func TestSessionWarmStart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := core.CAWA()
	sysKey, err := sc.Key()
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(resumeConfig(), resumeParams)
	s.Disk = d
	opt := RunOptions{Workload: "bfs", Params: resumeParams, System: sc, Config: resumeConfig()}
	ref, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	hooked, ctx := cancelAt(opt, ref.Agg.Cycles/2)
	_, last, err := RunCheckpointed(ctx, hooked, 0, nil)
	if err == nil || last == nil {
		t.Fatalf("cancelled run: err=%v checkpoint=%v", err, last != nil)
	}
	ckptKey := d.CheckpointKey(d.EntryKey("bfs", sysKey, s.Params, s.Config))
	if err := d.StoreCheckpoint(ckptKey, last); err != nil {
		t.Fatal(err)
	}

	res, err := s.RunContext(context.Background(), "bfs", sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.WarmResumes(); got != 1 {
		t.Fatalf("WarmResumes = %d, want 1", got)
	}
	if !reflect.DeepEqual(res.Agg, ref.Agg) {
		t.Fatalf("warm-started session result differs:\nres %+v\nref %+v", res.Agg, ref.Agg)
	}
	// The final result supersedes the checkpoint artifact...
	if _, ok := d.LoadCheckpoint(ckptKey); ok {
		t.Fatal("checkpoint artifact survived a completed run")
	}
	// ...and a fresh session sees a plain disk hit.
	s2 := NewSession(resumeConfig(), resumeParams)
	s2.Disk = d
	if _, err := s2.RunContext(context.Background(), "bfs", sc); err != nil {
		t.Fatal(err)
	}
	if got := s2.DiskHits(); got != 1 {
		t.Fatalf("DiskHits = %d, want 1", got)
	}
	if got := s2.WarmResumes(); got != 0 {
		t.Fatalf("fresh session WarmResumes = %d, want 0", got)
	}
}

// TestWarmStartFailureCostsAColdStart: an artifact that passes every
// check Decode can make (key, digest, version, identity) but does not
// fit the run fails Restore — a checkpoint of the same design point on
// a GPU with another SM count stored under the right key, or one whose
// payload lost its tail before the digest was computed. The run must
// still succeed with the uninterrupted aggregate, from a cold start,
// and the artifact must be gone so no retry meets it again.
func TestWarmStartFailureCostsAColdStart(t *testing.T) {
	sc := core.CAWA()
	sysKey, err := sc.Key()
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOptions{Workload: "bfs", Params: resumeParams, System: sc, Config: resumeConfig()}
	ref, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(opt RunOptions) *WarmCheckpoint {
		hooked, ctx := cancelAt(opt, ref.Agg.Cycles/2)
		_, last, err := RunCheckpointed(ctx, hooked, 0, nil)
		if err == nil || last == nil {
			t.Fatalf("cancelled run: err=%v checkpoint=%v", err, last != nil)
		}
		return last
	}
	twoSMs := opt
	twoSMs.Config.NumSMs = 2
	cases := map[string]struct {
		warm   *WarmCheckpoint
		mutate func(payload []byte) []byte
	}{
		"another geometry":  {cut(twoSMs), func(p []byte) []byte { return p }},
		"payload cut short": {cut(opt), func(p []byte) []byte { return p[:len(p)*3/4] }},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			d, err := OpenDiskCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s := NewSession(resumeConfig(), resumeParams)
			s.Disk = d
			ckptKey := d.CheckpointKey(d.EntryKey("bfs", sysKey, s.Params, s.Config))
			if err := d.StoreCheckpoint(ckptKey, c.warm); err != nil {
				t.Fatal(err)
			}
			file := d.path(ckptKey, ckptExt)
			blob, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, redigest(blob, c.mutate), 0o644); err != nil {
				t.Fatal(err)
			}
			warm, ok := d.LoadCheckpoint(ckptKey)
			if !ok {
				t.Fatal("the artifact does not load; the case is vacuous")
			}
			if _, _, err := RunCheckpointed(context.Background(), opt, 0, warm); err == nil {
				t.Fatal("the artifact restores; the case is vacuous")
			}

			res, err := s.RunContext(context.Background(), "bfs", sc)
			if err != nil {
				t.Fatalf("run over an unrestorable artifact: %v", err)
			}
			if !reflect.DeepEqual(res.Agg, ref.Agg) {
				t.Fatalf("result differs from the uninterrupted run:\nres %+v\nref %+v", res.Agg, ref.Agg)
			}
			if got := s.WarmResumes(); got != 1 {
				t.Fatalf("WarmResumes = %d, want 1 (the artifact was loaded)", got)
			}
			if _, err := os.Stat(file); !os.IsNotExist(err) {
				t.Fatalf("unrestorable artifact survived (stat: %v)", err)
			}
		})
	}
}

// TestSimulationPanicFailsOneFlight: a panic on the simulating goroutine
// is that run's error. The flight is evicted like any failed one, so the
// next request for the key simulates.
func TestSimulationPanicFailsOneFlight(t *testing.T) {
	s := NewSession(resumeConfig(), resumeParams)
	calls := 0
	s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
		if calls++; calls == 1 {
			panic("boom")
		}
		return RunContext(ctx, opt)
	})
	if _, err := s.Run("bfs", core.Baseline()); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking run returned err=%v, want one naming the panic", err)
	}
	if _, err := s.Run("bfs", core.Baseline()); err != nil {
		t.Fatalf("run after a panicked flight: %v", err)
	}
	if calls != 2 {
		t.Fatalf("executor ran %d times, want 2 (the failed flight must not be cached)", calls)
	}
}

// TestSessionPersistsCheckpointOnDeadline drives the session's own
// persist-on-cancel path: a deadline-cut run leaves a checkpoint
// artifact behind, and a later attempt warm-starts from it.
func TestSessionPersistsCheckpointOnDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock deadline test")
	}
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(resumeConfig(), workloads.Params{Scale: 0.5, Seed: 5})
	s.Disk = d
	sc := core.CAWA()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if _, err := s.RunContext(ctx, "bfs", sc); err == nil {
		t.Skip("machine fast enough to finish inside the deadline; nothing to persist")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("deadline-cut run persisted %d checkpoints, want its stop's", len(files))
	}

	if _, err := s.RunContext(context.Background(), "bfs", sc); err != nil {
		t.Fatal(err)
	}
	if got := s.WarmResumes(); got != 1 {
		t.Fatalf("WarmResumes = %d, want 1", got)
	}
}

// TestUncheckpointedRunsKeepCallerHooks: no run touches the engine's
// per-cycle hooks, checkpointed or not. RunContext, a session's runs
// with and without a disk, and RunCheckpointed leave gpu.GPU.PerCycle
// and PerCycleWake exactly as the caller set them — nil stays nil, so
// span lengths on uninstrumented runs are the engine's own, and a
// disk-backed run takes its one capture at the stop instead of through
// a hook.
func TestUncheckpointedRunsKeepCallerHooks(t *testing.T) {
	opt := RunOptions{Workload: "needle", Params: diskTestParams, System: core.Baseline(), Config: config.Small()}
	hooked := opt
	hooked.PerCycle = func(*gpu.GPU, int64) {}
	hooked.PerCycleWake = func(now int64) int64 { return now + 1000 }
	same := func(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(config.Small(), diskTestParams) // no Disk: Run and RunUncached share simulate
	ckptKey := d.CheckpointKey(d.EntryKey("needle", "lrr-key", s.Params, s.Config))
	runners := map[string]func(RunOptions) (*Result, error){
		"RunContext":          func(o RunOptions) (*Result, error) { return RunContext(context.Background(), o) },
		"Session.RunUncached": s.RunUncached,
		// What a disk-backed Session.Run executes, minus the cache
		// that drops the GPU from its result.
		"disk-backed Session.simulate": func(o RunOptions) (*Result, error) {
			return s.simulate(context.Background(), o, d, ckptKey)
		},
		"RunCheckpointed": func(o RunOptions) (*Result, error) {
			r, _, err := RunCheckpointed(context.Background(), o, 0, nil)
			return r, err
		},
	}
	for name, run := range runners {
		r, err := run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.GPU.PerCycle != nil || r.GPU.PerCycleWake != nil {
			t.Errorf("%s installed a per-cycle hook on an uninstrumented run", name)
		}
		if r, err = run(hooked); err != nil {
			t.Fatal(err)
		}
		if !same(r.GPU.PerCycle, hooked.PerCycle) || !same(r.GPU.PerCycleWake, hooked.PerCycleWake) {
			t.Errorf("%s replaced the caller's hooks", name)
		}
	}
}
