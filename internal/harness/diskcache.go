package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cawa/internal/config"
	"cawa/internal/workloads"
)

// EngineVersion names the current behaviour of the simulation engine
// for persistent-cache keying. Bump it whenever a change can alter any
// simulated number (timing model, scheduler, cache policy, workload
// generators); purely structural or performance work that is proven
// byte-identical (e.g. the span engine) does not bump it.
// Stale disk-cache entries from older engine versions simply stop
// matching and are re-simulated.
const EngineVersion = "cawa-engine-6"

// DiskCache is a persistent, content-addressed result store shared by
// long-running services and repeated evaluation campaigns. Each entry
// is one JSON file named by the SHA-256 of its full identity key
// (app | design-point key | workload params | architecture | engine
// version), so restarts and concurrent processes pointing at the same
// directory reuse each other's simulations.
//
// The cache is corruption-tolerant by construction: a missing,
// truncated, unparsable or mis-keyed entry is treated as a miss and
// re-simulated — a bad file can cost one redundant run, never a crash
// or a wrong result. Writes go through a temp file + rename so readers
// never observe a partially written entry.
type DiskCache struct {
	dir string
}

// OpenDiskCache opens (creating if needed) a disk cache rooted at dir.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (d *DiskCache) Dir() string { return d.dir }

// EntryKey builds the full identity of one simulation result. sysKey
// must be the design point's core.SystemConfig.Key(). The architecture
// is folded in via its complete value (every field of config.Config is
// comparable scalar state), and EngineVersion ties entries to the
// simulator behaviour that produced them.
func (d *DiskCache) EntryKey(app, sysKey string, p workloads.Params, cfg config.Config) string {
	return fmt.Sprintf("%s|%s|scale=%g|seed=%d|arch=%+v|%s",
		app, sysKey, p.Scale, p.Seed, cfg, EngineVersion)
}

// entry is the on-disk document: the full key is stored alongside the
// result so loads can verify identity (guarding against hash-prefix
// reuse or hand-copied files) and operators can inspect entries.
type entry struct {
	Key    string  `json:"key"`
	Result *Result `json:"result"`
}

// Artifact extensions: results and warm checkpoints are two populations
// of one content-addressed store, told apart by extension so Len (which
// counts results) and operators see them separately.
const (
	resultExt = ".json"
	ckptExt   = ".ckpt"
)

// path maps a key to its content-addressed file.
func (d *DiskCache) path(key, ext string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+ext)
}

// write stores one artifact under key atomically: encode fills a temp
// file in the cache directory, which is then renamed into place, so
// readers never observe a partially written artifact.
func (d *DiskCache) write(key, ext string, encode func(io.Writer) error) error {
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	err = encode(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.path(key, ext))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	return nil
}

// Load returns the cached result for key, or (nil, false) on any kind
// of miss — absent, unreadable, corrupt, or keyed to a different
// identity. It never fails hard.
func (d *DiskCache) Load(key string) (*Result, bool) {
	data, err := os.ReadFile(d.path(key, resultExt))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Result == nil || e.Key != key {
		return nil, false
	}
	return e.Result, true
}

// Store writes the result under key atomically. The result must
// already be GPU-free serializable state; Result.GPU is excluded from
// encoding either way.
func (d *DiskCache) Store(key string, r *Result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("harness: disk cache: %w", err)
	}
	return d.storeJSON(key, data)
}

// storeJSON writes the entry of a result already encoded as result,
// which must be json.Marshal of the *Result. The file is byte for byte
// json.Marshal(entry{key, r}): the entry's two fields in declaration
// order around the result's own bytes.
func (d *DiskCache) storeJSON(key string, result []byte) error {
	k, _ := json.Marshal(key) // a string always encodes
	doc := make([]byte, 0, len(k)+len(result)+len(`{"key":,"result":}`))
	doc = append(doc, `{"key":`...)
	doc = append(doc, k...)
	doc = append(doc, `,"result":`...)
	doc = append(doc, result...)
	doc = append(doc, '}')
	return d.write(key, resultExt, func(out io.Writer) error {
		_, err := out.Write(doc)
		return err
	})
}

// CheckpointKey derives the warm-checkpoint identity from a run's full
// entry key. It inherits every component of the entry key — including
// EngineVersion, so checkpoints from an older engine stop matching and
// read back as clean misses — plus a suffix keeping the two namespaces
// disjoint.
func (d *DiskCache) CheckpointKey(entryKey string) string {
	return entryKey + "|checkpoint"
}

// LoadCheckpoint returns the persisted warm checkpoint for key, or
// (nil, false) on any kind of miss — absent, truncated, corrupt,
// mis-keyed, or written by an incompatible checkpoint format. Like
// Load, it never fails hard: a bad artifact costs a cold start, never
// an error.
func (d *DiskCache) LoadCheckpoint(key string) (*WarmCheckpoint, bool) {
	f, err := os.Open(d.path(key, ckptExt))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	w, err := decodeWarm(f, key)
	if err != nil {
		return nil, false
	}
	return w, true
}

// StoreCheckpoint persists a warm checkpoint under key atomically,
// replacing any previous one.
func (d *DiskCache) StoreCheckpoint(key string, w *WarmCheckpoint) error {
	return d.write(key, ckptExt, func(out io.Writer) error { return w.encode(out, key) })
}

// RemoveCheckpoint drops the warm checkpoint for key, if any. A
// completed run's final result supersedes its checkpoint; removing the
// blob is pure hygiene, so errors are not reported.
func (d *DiskCache) RemoveCheckpoint(key string) {
	os.Remove(d.path(key, ckptExt)) //nolint:errcheck
}

// Len counts the committed entries on disk (operational visibility).
func (d *DiskCache) Len() int {
	matches, err := filepath.Glob(filepath.Join(d.dir, "*"+resultExt))
	if err != nil {
		return 0
	}
	return len(matches)
}
