// Package checkpoint serializes the full simulated-GPU state at a
// cycle boundary and restores it byte-identically: SM pipelines and
// per-warp reconvergence stacks, L1/L2 tag arrays with CACP/SRRIP
// metadata, MSHRs, in-flight memory-system events, scheduler state
// (GTO/age, CAWA criticality counters), and the functional memory.
//
// The byte stream is the only representation of that state besides the
// live one. Every component walks its own fields through a state.Archive
// (one Archive method serving both directions); Capture runs the walk
// over the live GPU in save mode, Restore in load mode over a freshly
// built one. Providers and policies take part by being state.Archivers;
// one that is not fails the capture, nothing is dropped silently.
//
// Wire format (Encode/Decode):
//
//	magic   "CAWACKPT"                  8 bytes
//	version uint32 big-endian           format version (FormatVersion)
//	digest  SHA-256 over the payload    32 bytes
//	payload the walk: Meta, then the device (gpu.GPU.Archive)
//
// The walk writes maps in key order and heaps in their own total order,
// so the payload — and the digest — is a deterministic function of
// simulator state. Decode checks the envelope and reads Meta; it cannot
// know the geometry a payload must fit. Restore checks the rest as it
// walks: section tags, SM/slot/line/word counts against the GPU it
// fills, index ranges, and that the walk ends where the payload does.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"cawa/internal/gpu"
	"cawa/internal/isa"
	"cawa/internal/simt"
	"cawa/internal/state"
)

// FormatVersion is the checkpoint wire-format version. Bump it on any
// change to the payload layout or to what a component's Archive walks;
// stale checkpoints then fail Decode with ErrIncompatible (a clean miss).
const FormatVersion = 2

var magic = [8]byte{'C', 'A', 'W', 'A', 'C', 'K', 'P', 'T'}

// ErrIncompatible marks a checkpoint of another format version (or a
// file that is not a checkpoint at all). Callers treat it as a miss.
var ErrIncompatible = errors.New("checkpoint: incompatible format")

// ErrCorrupt marks a truncated or bit-damaged checkpoint (digest
// mismatch, short read). Callers treat it as a miss.
var ErrCorrupt = errors.New("checkpoint: corrupt")

// Meta identifies what a snapshot belongs to. It rides inside the
// digest-protected payload so a checkpoint can never be resumed against
// the wrong run.
type Meta struct {
	EngineVersion string  // harness.EngineVersion of the producing build
	Workload      string  // workload name
	Scale         float64 // workloads.Params.Scale
	Seed          int64   // workloads.Params.Seed
	SystemKey     string  // the design point's stable identity (SystemConfig.Key)
	LaunchIndex   int     // the in-flight launch: how many completed before it
	Cycle         int64   // the global cycle the snapshot was taken at
}

func (m *Meta) archive(a *state.Archive) {
	a.Tag("meta")
	a.String(&m.EngineVersion)
	a.String(&m.Workload)
	a.String(&m.SystemKey)
	a.Float64(&m.Scale)
	state.Int(a, &m.Seed, &m.Cycle)
	state.Int(a, &m.LaunchIndex)
}

// Snapshot is the complete serialized state of a mid-launch GPU: the
// walk's bytes, with the Meta they begin with parsed out.
type Snapshot struct {
	Meta    Meta
	payload []byte
}

// Capture serializes a mid-launch GPU (normally from the PerCycle hook).
func Capture(g *gpu.GPU, meta Meta) (*Snapshot, error) {
	meta.Cycle = g.Cycle()
	// Nearly all of a payload is the register files and the used part of
	// the memory image; a low guess costs one regrowth of the buffer.
	size := int(g.Memory().Size()) / 4
	for _, m := range g.SMs() {
		size += m.ResidentWarps() * g.Config().WarpSize * isa.NumRegs * 8
	}
	a := state.NewSaver(size + size/16)
	meta.archive(a)
	g.Archive(a, nil)
	if err := a.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: capture: %w", err)
	}
	return &Snapshot{Meta: meta, payload: a.Bytes()}, nil
}

// Restore applies a snapshot onto a freshly built GPU (same
// configuration, design point and workload memory shape) and arms it
// for gpu.Resume. k must be the kernel the snapshot was captured inside.
// On error the GPU and its memory are partly overwritten: discard them.
func Restore(s *Snapshot, g *gpu.GPU, k *simt.Kernel) error {
	a := state.NewLoader(s.payload)
	var meta Meta // s.Meta again
	meta.archive(a)
	g.Archive(a, k)
	if a.Err() == nil && len(a.Bytes()) != 0 {
		a.Failf("%d bytes left over after the device", len(a.Bytes()))
	}
	if err := a.Err(); err != nil {
		return fmt.Errorf("checkpoint: restore: %w", err)
	}
	return nil
}

// StateHash returns the hex SHA-256 of the snapshot's payload: the state
// fingerprint tests compare between interrupted and uninterrupted runs.
func StateHash(s *Snapshot) string {
	sum := sha256.Sum256(s.payload)
	return hex.EncodeToString(sum[:])
}

// Encode writes the versioned, digest-protected checkpoint; it returns StateHash.
func Encode(w io.Writer, s *Snapshot) (string, error) {
	sum := sha256.Sum256(s.payload)
	hdr := binary.BigEndian.AppendUint32(magic[:], FormatVersion)
	for _, part := range [][]byte{hdr, sum[:], s.payload} {
		if _, err := w.Write(part); err != nil {
			return "", fmt.Errorf("checkpoint: write: %w", err)
		}
	}
	return hex.EncodeToString(sum[:]), nil
}

// Decode reads a checkpoint, verifying the magic, format version, and
// payload digest, and parses Meta. A wrong magic or version returns
// ErrIncompatible; a short read, digest mismatch or unreadable Meta
// returns ErrCorrupt (both wrapped).
func Decode(r io.Reader) (*Snapshot, error) {
	const envelope = len(magic) + 4 + sha256.Size
	var buf bytes.Buffer // grows by doubling; io.ReadAll would copy a payload several times over
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("%w: read: %v", ErrCorrupt, err)
	}
	b := buf.Bytes()
	switch {
	case len(b) < len(magic)+4:
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(b))
	case !bytes.Equal(b[:len(magic)], magic[:]):
		return nil, fmt.Errorf("%w: bad magic", ErrIncompatible)
	case binary.BigEndian.Uint32(b[len(magic):]) != FormatVersion:
		return nil, fmt.Errorf("%w: format version %d (want %d)", ErrIncompatible, binary.BigEndian.Uint32(b[len(magic):]), FormatVersion)
	case len(b) < envelope || sha256.Sum256(b[envelope:]) != [sha256.Size]byte(b[len(magic)+4:envelope]):
		return nil, fmt.Errorf("%w: digest mismatch", ErrCorrupt)
	}
	s := &Snapshot{payload: b[envelope:]}
	a := state.NewLoader(s.payload)
	if s.Meta.archive(a); a.Err() != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, a.Err())
	}
	return s, nil
}
