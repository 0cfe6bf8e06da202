package harness

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"cawa/internal/checkpoint"
	"cawa/internal/gpu"
	"cawa/internal/stats"
)

// DefaultCheckpointEvery is the periodic capture cadence, in simulated
// cycles, used when a checkpointed run does not pin one. Captures are
// in-memory struct copies (gob encoding happens only when a checkpoint
// is persisted), so the cadence trades a little host time for how much
// simulated work a cancelled run can lose.
const DefaultCheckpointEvery = 50_000

// WarmCheckpoint pairs a mid-launch engine snapshot with the statistics
// of the launches that completed before it. Together they are enough to
// resume a run exactly: the completed launches replay functionally
// (their timing stats come from Partial), the in-flight launch restores
// from Snap and continues on the timing model.
type WarmCheckpoint struct {
	// Partial is the run's Result as of the snapshot: Agg merged across
	// the detailed launches that finished before the in-flight one,
	// Launches/Detailed counted to match. GPU is nil; Spans and the
	// per-warp L1 tallies are not filled (the resumed GPU regenerates
	// them at run end from restored state).
	Partial Result
	// Snap is the full engine snapshot of the in-flight launch.
	Snap *checkpoint.Snapshot
}

// RunCheckpointed is RunContext plus warm-start checkpointing: the run
// captures an in-memory WarmCheckpoint every `every` cycles (0 means
// DefaultCheckpointEvery), resumes from `warm` when non-nil instead of
// re-simulating its prefix, and — when the run is cut short by ctx —
// returns the most recent checkpoint alongside the error so the caller
// can persist it. On success the checkpoint return is nil.
//
// Capture is best-effort: a design point whose provider or policy is
// not checkpointable (e.g. the CCWS baseline) simply never yields a
// checkpoint; the run itself is unaffected. Resume is exact: the
// round-trip tests prove a restored run is byte-identical to an
// uninterrupted one at every domain count.
func RunCheckpointed(ctx context.Context, opt RunOptions, every int64, warm *WarmCheckpoint) (*Result, *WarmCheckpoint, error) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	wl, g, res, err := setupRun(&opt)
	if err != nil {
		return nil, nil, err
	}
	sysKey, err := opt.System.Key()
	if err != nil {
		return nil, nil, err
	}
	meta := checkpoint.Meta{
		EngineVersion: EngineVersion,
		Workload:      opt.Workload,
		Scale:         opt.Params.Scale,
		Seed:          opt.Params.Seed,
		SystemKey:     sysKey,
	}

	// Periodic capture hook, chained in front of any caller-supplied
	// per-cycle sampler. curIx tracks the in-flight launch index for
	// Meta; both it and last are touched only from the engine's hook
	// boundary (caller goroutine), never concurrently.
	var (
		last    *WarmCheckpoint
		curIx   int
		nextCap = every
		dead    bool // first capture failure disables further attempts
	)
	userPC, userWake := g.PerCycle, g.PerCycleWake
	g.PerCycle = func(gg *gpu.GPU, cycle int64) {
		if userPC != nil {
			userPC(gg, cycle)
		}
		if dead || cycle < nextCap {
			return
		}
		nextCap = cycle + every
		m := meta
		m.LaunchIndex = curIx
		snap, err := checkpoint.Capture(gg, m)
		if err != nil {
			dead = true
			return
		}
		last = &WarmCheckpoint{Partial: clonePartial(res), Snap: snap}
	}
	g.PerCycleWake = func(now int64) int64 {
		var w int64
		if dead {
			// Capture is off for the rest of the run; stop constraining
			// the engine's spans.
			w = now + (1 << 40)
		} else if w = nextCap; w <= now {
			w = now + 1
		}
		if userPC != nil {
			if userWake == nil {
				return now + 1
			}
			if uw := userWake(now); uw < w {
				w = uw
			}
		}
		return w
	}

	// An incompatible checkpoint (different workload, params, design
	// point, or engine version) is ignored rather than reported: a warm
	// start is an optimization, and a confused artifact must cost at
	// most a cold start — never a failed run. Disk-cache users cannot
	// reach this (the identity is folded into the key); it guards
	// hand-fed snapshots.
	if warm != nil && warm.compatible(meta) != nil {
		warm = nil
	}

	ix := 0
	if warm != nil {
		for ; ix < warm.Snap.Meta.LaunchIndex; ix++ {
			k, ok := wl.Next()
			if !ok {
				return nil, nil, fmt.Errorf("harness: %s: checkpoint launch index %d beyond workload launch count %d",
					opt.Workload, warm.Snap.Meta.LaunchIndex, ix)
			}
			if err := checkpoint.FunctionalLaunch(k, wl.Mem(), opt.Config.WarpSize); err != nil {
				return nil, nil, fmt.Errorf("harness: %s: checkpoint replay: %w", opt.Workload, err)
			}
		}
		k, ok := wl.Next()
		if !ok {
			return nil, nil, fmt.Errorf("harness: %s: checkpoint launch index %d beyond workload launch count",
				opt.Workload, warm.Snap.Meta.LaunchIndex)
		}
		if err := checkpoint.Restore(warm.Snap, g, k); err != nil {
			return nil, nil, fmt.Errorf("harness: %s: checkpoint restore: %w", opt.Workload, err)
		}
		res.Agg = cloneAgg(warm.Partial.Agg)
		res.Launches = warm.Partial.Launches
		res.Detailed = warm.Partial.Detailed
		curIx = ix
		nextCap = warm.Snap.Meta.Cycle + every
		launch, err := g.Resume(ctx)
		if err != nil {
			return nil, last, fmt.Errorf("harness: %s on %s: %w", opt.Workload, opt.System.Label(), err)
		}
		res.Agg.Merge(launch)
		res.Launches++
		res.Detailed++
		ix++
	}

	for ; ; ix++ {
		k, ok := wl.Next()
		if !ok {
			break
		}
		curIx = ix
		if !sampleDetailed(ix, opt.SampleWarmup, opt.SampleInterval) {
			if err := ctx.Err(); err != nil {
				return nil, last, err
			}
			if err := checkpoint.FunctionalLaunch(k, wl.Mem(), opt.Config.WarpSize); err != nil {
				return nil, nil, fmt.Errorf("harness: %s on %s: %w", opt.Workload, opt.System.Label(), err)
			}
			res.Launches++
			continue
		}
		launch, err := g.Launch(ctx, k)
		if err != nil {
			return nil, last, fmt.Errorf("harness: %s on %s: %w", opt.Workload, opt.System.Label(), err)
		}
		res.Agg.Merge(launch)
		res.Launches++
		res.Detailed++
	}
	r, err := finishRun(wl, g, res, &opt)
	return r, nil, err
}

// compatible checks a checkpoint against the identity of the run about
// to resume from it. Callers keying checkpoints through the disk cache
// never see a mismatch (the identity is folded into the key); this is
// the defense for hand-fed snapshots.
func (w *WarmCheckpoint) compatible(meta checkpoint.Meta) error {
	if w.Snap == nil {
		return errors.New("harness: warm checkpoint has no snapshot")
	}
	m := w.Snap.Meta
	if m.EngineVersion != meta.EngineVersion || m.Workload != meta.Workload ||
		m.Scale != meta.Scale || m.Seed != meta.Seed || m.SystemKey != meta.SystemKey {
		return fmt.Errorf("harness: checkpoint identity mismatch (snapshot %s/%s scale=%g seed=%d engine=%s, run %s/%s scale=%g seed=%d engine=%s)",
			m.Workload, m.SystemKey, m.Scale, m.Seed, m.EngineVersion,
			meta.Workload, meta.SystemKey, meta.Scale, meta.Seed, meta.EngineVersion)
	}
	return nil
}

// clonePartial snapshots the run's statistics so far into a detached
// Result (the live one keeps being mutated as launches complete).
func clonePartial(res *Result) Result {
	p := Result{
		Workload: res.Workload,
		System:   res.System,
		Agg:      cloneAgg(res.Agg),
		Launches: res.Launches,
		Detailed: res.Detailed,
	}
	return p
}

// cloneAgg deep-copies a launch aggregate (Warps is the only reference
// field).
func cloneAgg(a stats.Launch) stats.Launch {
	a.Warps = append([]stats.WarpRecord(nil), a.Warps...)
	return a
}

// Persisted warm-checkpoint container: a length-prefixed JSON header
// (identity key + partial result) followed by the digest-protected
// checkpoint stream (checkpoint.Encode). The header's key is verified
// on load exactly like the result cache's, and any damage anywhere —
// short header, unparsable JSON, mis-keyed entry, truncated or
// bit-flipped checkpoint — reads back as a clean miss.

type warmHeader struct {
	Key     string  `json:"key"`
	Partial *Result `json:"partial"`
}

// encode writes the persistable form of the checkpoint.
func (w *WarmCheckpoint) encode(out io.Writer, key string) error {
	hdr, err := json.Marshal(warmHeader{Key: key, Partial: &w.Partial})
	if err != nil {
		return fmt.Errorf("harness: warm checkpoint: %w", err)
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(hdr)))
	if _, err := out.Write(n[:]); err != nil {
		return fmt.Errorf("harness: warm checkpoint: %w", err)
	}
	if _, err := out.Write(hdr); err != nil {
		return fmt.Errorf("harness: warm checkpoint: %w", err)
	}
	if _, err := checkpoint.Encode(out, w.Snap); err != nil {
		return err
	}
	return nil
}

// decodeWarm reads a persisted checkpoint back, verifying the stored
// key. Any error means "treat as a miss".
func decodeWarm(in io.Reader, key string) (*WarmCheckpoint, error) {
	var n [4]byte
	if _, err := io.ReadFull(in, n[:]); err != nil {
		return nil, fmt.Errorf("harness: warm checkpoint: short length: %w", err)
	}
	size := binary.BigEndian.Uint32(n[:])
	if size > 1<<30 {
		return nil, fmt.Errorf("harness: warm checkpoint: implausible header size %d", size)
	}
	hdrBytes := make([]byte, size)
	if _, err := io.ReadFull(in, hdrBytes); err != nil {
		return nil, fmt.Errorf("harness: warm checkpoint: short header: %w", err)
	}
	var hdr warmHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("harness: warm checkpoint: %w", err)
	}
	if hdr.Key != key || hdr.Partial == nil {
		return nil, errors.New("harness: warm checkpoint: key mismatch")
	}
	snap, err := checkpoint.Decode(in)
	if err != nil {
		return nil, err
	}
	return &WarmCheckpoint{Partial: *hdr.Partial, Snap: snap}, nil
}
