package harness

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"

	"cawa/internal/checkpoint"
	"cawa/internal/gpu"
	"cawa/internal/stats"
)

// DefaultCheckpointEvery is the periodic capture cadence, in simulated
// cycles, used when a checkpointed run does not pin one. A capture is
// one walk of the device into a byte buffer (about a millisecond; only
// the digest and the file write wait until a checkpoint is persisted),
// so the cadence trades a little host time for how much simulated work
// a cancelled run can lose.
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
// Capture is best-effort: a design point with a provider or policy that
// is not a state.Archiver (none in this repository) simply never yields
// a checkpoint, and neither does a capture that finds an engine
// invariant broken (an unflushed store log, undrained span fills); the
// run itself is unaffected. Resume is exact: the round-trip tests prove
// a restored run is byte-identical to an uninterrupted one at every
// domain count.
func RunCheckpointed(ctx context.Context, opt RunOptions, every int64, warm *WarmCheckpoint) (*Result, *WarmCheckpoint, error) {
	ck := newCheckpointer(every)
	r, err := runLaunches(ctx, opt, ck, warm)
	if err != nil {
		return nil, ck.last, err
	}
	return r, nil, nil
}

// checkpointer is the periodic capture hook of a checkpointed run,
// chained in front of any caller-supplied per-cycle sampler. Its fields
// are touched only from the launch loop and the engine's hook boundary
// (both the caller's goroutine), never concurrently.
type checkpointer struct {
	every   int64
	nextCap int64           // next cycle to capture at
	dead    bool            // first capture failure disables further attempts
	meta    checkpoint.Meta // run identity; LaunchIndex tracks the in-flight launch
	res     *Result         // the live result captures snapshot
	last    *WarmCheckpoint // most recent capture

	userPC   func(g *gpu.GPU, cycle int64)
	userWake func(now int64) int64
}

// newCheckpointer builds a checkpointer capturing every `every` cycles
// (<= 0 means DefaultCheckpointEvery).
func newCheckpointer(every int64) *checkpointer {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &checkpointer{every: every, nextCap: every}
}

// attach fills in the run's identity and installs the capture hook on g.
func (c *checkpointer) attach(g *gpu.GPU, res *Result, opt *RunOptions, sysKey string) {
	c.meta = checkpoint.Meta{
		EngineVersion: EngineVersion,
		Workload:      opt.Workload,
		Scale:         opt.Params.Scale,
		Seed:          opt.Params.Seed,
		SystemKey:     sysKey,
	}
	c.res = res
	c.userPC, c.userWake = g.PerCycle, g.PerCycleWake
	g.PerCycle, g.PerCycleWake = c.hook, c.wake
}

func (c *checkpointer) hook(g *gpu.GPU, cycle int64) {
	if c.userPC != nil {
		c.userPC(g, cycle)
	}
	if c.dead || cycle < c.nextCap {
		return
	}
	c.nextCap = cycle + c.every
	snap, err := checkpoint.Capture(g, c.meta)
	if err != nil {
		c.dead = true
		return
	}
	c.last = &WarmCheckpoint{Partial: clonePartial(c.res), Snap: snap}
}

// wake tells the engine the next cycle the hook must observe, so spans
// run up to the capture cadence instead of one cycle at a time.
func (c *checkpointer) wake(now int64) int64 {
	var w int64
	if c.dead {
		// Capture is off for the rest of the run; stop constraining
		// the engine's spans.
		w = now + (1 << 40)
	} else if w = c.nextCap; w <= now {
		w = now + 1
	}
	if c.userPC != nil {
		if c.userWake == nil {
			return now + 1
		}
		if uw := c.userWake(now); uw < w {
			w = uw
		}
	}
	return w
}

// compatible reports whether the checkpoint was captured by a run of the
// same identity as the one about to resume from it. A mismatch
// (different workload, params, design point or engine version) is
// ignored rather than reported: a warm start is an optimization, and a
// confused artifact must cost at most a cold start — never a failed
// run. Callers keying checkpoints through the disk cache never see one
// (the identity is folded into the key); this guards hand-fed
// snapshots.
func (w *WarmCheckpoint) compatible(meta checkpoint.Meta) bool {
	if w.Snap == nil {
		return false
	}
	m := w.Snap.Meta
	return m.EngineVersion == meta.EngineVersion && m.Workload == meta.Workload &&
		m.Scale == meta.Scale && m.Seed == meta.Seed && m.SystemKey == meta.SystemKey
}

// clonePartial snapshots the run's statistics so far into a detached
// Result (the live one keeps being mutated as launches complete).
func clonePartial(res *Result) Result {
	return Result{
		Workload: res.Workload,
		System:   res.System,
		Agg:      cloneAgg(res.Agg),
		Launches: res.Launches,
		Detailed: res.Detailed,
	}
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
		return err
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(hdr)))
	if _, err := out.Write(n[:]); err != nil {
		return err
	}
	if _, err := out.Write(hdr); err != nil {
		return err
	}
	_, err = checkpoint.Encode(out, w.Snap)
	return err
}

// decodeWarm reads a persisted checkpoint back, verifying the stored
// key. Any error means "treat as a miss".
func decodeWarm(in io.Reader, key string) (*WarmCheckpoint, error) {
	var n [4]byte
	if _, err := io.ReadFull(in, n[:]); err != nil {
		return nil, err
	}
	// The prefix is untrusted: read up to it incrementally rather than
	// allocating it, so a damaged or hostile length costs no more memory
	// than the file actually holds.
	size := int64(binary.BigEndian.Uint32(n[:]))
	hdrBytes, err := io.ReadAll(io.LimitReader(in, size))
	if err != nil {
		return nil, err
	}
	var hdr warmHeader
	if int64(len(hdrBytes)) != size || json.Unmarshal(hdrBytes, &hdr) != nil ||
		hdr.Key != key || hdr.Partial == nil {
		return nil, errors.New("harness: warm checkpoint: damaged or mis-keyed header")
	}
	snap, err := checkpoint.Decode(in)
	if err != nil {
		return nil, err
	}
	return &WarmCheckpoint{Partial: *hdr.Partial, Snap: snap}, nil
}
