package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
)

// TestRunJSONSharesOneEncoding: concurrent RunJSON callers of one key —
// the flight's owner, its singleflight waiters and a later cache hit —
// all receive the same backing array, and it holds json.Marshal of the
// result RunContext returns for the key.
func TestRunJSONSharesOneEncoding(t *testing.T) {
	s := NewSession(config.Small(), diskTestParams)
	release := make(chan struct{})
	s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
		<-release
		return &Result{Workload: opt.Workload, Launches: 2, WarpL1Hits: map[int32]uint64{3: 1, 1: 4}}, nil
	})
	const callers = 8
	got := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = s.RunJSON(context.Background(), "bfs", core.Baseline()); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(release)
	wg.Wait()
	later, err := s.RunJSON(context.Background(), "bfs", core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, later)
	res, err := s.Run("bfs", core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Fatalf("caller %d: %s, want %s", i, b, want)
		}
		if &b[0] != &got[0][0] {
			t.Errorf("caller %d got its own copy of the encoding", i)
		}
	}
	if hits, misses := s.CacheStats(); misses != 1 || hits != callers+1 {
		t.Errorf("cache stats hits=%d misses=%d, want %d/1", hits, misses, callers+1)
	}
}

// TestRunJSONReencodesDiskHits: an entry with the right key whose
// result is parsable but not canonical — indented, or carrying a field
// Result does not have — is served as json.Marshal of the decoded
// result, never verbatim, and without a simulation.
func TestRunJSONReencodesDiskHits(t *testing.T) {
	res := &Result{Workload: "bfs", System: "LRR", Launches: 3, Detailed: 3, WarpL1Accesses: map[int32]uint64{2: 7, 0: 1}}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var extra map[string]any
	if err := json.Unmarshal(want, &extra); err != nil {
		t.Fatal(err)
	}
	extra["NotAResultField"] = []int{1, 2}
	sysKey, _ := core.Baseline().Key()
	for name, result := range map[string]any{"indented": res, "unknown field": extra} {
		d, err := OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(config.Small(), diskTestParams)
		s.Disk = d
		s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
			t.Errorf("%s: a disk hit simulated", name)
			return res, nil
		})
		key := d.EntryKey("bfs", sysKey, s.Params, s.Config)
		doc, err := json.MarshalIndent(map[string]any{"key": key, "result": result}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.path(key, resultExt), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.RunJSON(context.Background(), "bfs", core.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s entry served as\n%s\nwant\n%s", name, got, want)
		}
		if s.DiskHits() != 1 {
			t.Errorf("%s: DiskHits = %d, want 1", name, s.DiskHits())
		}
	}
}

// TestSessionWritesParentEntryBytes: the entry a session writes through
// from the encoding it serves is byte for byte the document the parent
// commit wrote, json.Marshal(entry{key, result}).
func TestSessionWritesParentEntryBytes(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(config.Small(), diskTestParams)
	s.Disk = d
	served, err := s.RunJSON(context.Background(), "bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	sysKey, _ := core.CAWA().Key()
	key := d.EntryKey("bfs", sysKey, s.Params, s.Config)
	want, err := json.Marshal(entry{Key: key, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(d.path(key, resultExt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("session wrote a %d-byte entry, the parent's document is %d bytes", len(got), len(want))
	}
	if !bytes.Contains(got, served) {
		t.Error("the entry does not embed the served encoding")
	}
}
