package harness

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"

	"cawa/internal/checkpoint"
)

// WarmCheckpoint pairs a mid-launch engine snapshot with the statistics
// of the launches that completed before it. Together they are enough to
// resume a run exactly: the completed launches replay functionally
// (their timing stats come from Partial), the in-flight launch restores
// from Snap and continues on the timing model.
type WarmCheckpoint struct {
	// Partial is the run's Result as of the snapshot: Agg merged across
	// the launches that finished before the in-flight one, Launches and
	// Detailed counted to match. GPU is nil; Spans and the
	// per-warp L1 tallies are not filled (the resumed GPU regenerates
	// them at run end from restored state).
	Partial Result
	// Snap is the full engine snapshot of the in-flight launch.
	Snap *checkpoint.Snapshot
}

// RunCheckpointed is RunContext plus warm-start checkpointing: it
// resumes from `warm` when non-nil instead of re-simulating its prefix,
// and when ctx cuts the run short it returns a WarmCheckpoint of the
// stop cycle alongside the error, so the caller can persist it and lose
// no simulated work. On success the checkpoint
// return is nil. The `every` argument has no effect; it stays so that
// existing callers keep compiling.
//
// Capture is best-effort: a stop inside a functional launch (the
// prefix a resume replays) or a capture that finds an engine invariant
// broken (an unflushed store log, undrained span fills) yields no
// checkpoint; the run's error is unaffected. Resume is exact: the round-trip tests
// prove a restored run is byte-identical to an uninterrupted one at
// every domain count.
func RunCheckpointed(ctx context.Context, opt RunOptions, every int64, warm *WarmCheckpoint) (*Result, *WarmCheckpoint, error) {
	return runLaunches(ctx, opt, true, warm)
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
