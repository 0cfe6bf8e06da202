package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/harness"
	"cawa/internal/workloads"
)

var testParams = workloads.Params{Scale: 0.05, Seed: 3}

func testSession() *harness.Session {
	return harness.NewSession(config.Small(), testParams)
}

func postJSON(t *testing.T, client *http.Client, url string, body any) *http.Response {
	t.Helper()
	doc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// TestServeEndToEnd drives the async API: submit, poll to completion,
// fetch the result — and requires the served bytes to be exactly what a
// direct harness run marshals to.
func TestServeEndToEnd(t *testing.T) {
	srv := New(Config{Session: testSession()})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", RunRequest{App: "bfs", Scheduler: "gcaws", CPL: true, CACP: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st := decode[JobStatus](t, resp)
	if st.ID == "" || st.System != core.CAWA().Label() {
		t.Fatalf("submit status %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := decode[JobStatus](t, resp)
		if got.State == StateDone {
			break
		}
		if got.State == StateFailed || got.State == StateCanceled {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := testSession().Run("bfs", core.CAWA())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(served, want) {
		t.Errorf("served result differs from a direct harness run (%d vs %d bytes)", len(served), len(want))
	}
}

// blockingSession returns a session whose runs block until release is
// closed (or their ctx dies) — controlled occupancy for backpressure
// and drain tests.
func blockingSession(release <-chan struct{}) *harness.Session {
	s := testSession()
	s.SetRunFunc(func(ctx context.Context, opt harness.RunOptions) (*harness.Result, error) {
		select {
		case <-release:
			return &harness.Result{Launches: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	return s
}

// submitN issues one submit per app name so each lands on a distinct
// singleflight key.
func submitN(t *testing.T, ts *httptest.Server, apps ...string) []JobStatus {
	t.Helper()
	var out []JobStatus
	for _, app := range apps {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", RunRequest{App: app})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", app, resp.StatusCode)
		}
		out = append(out, decode[JobStatus](t, resp))
	}
	return out
}

// TestServeBackpressure: with one worker busy and the queue full, the
// next submit is rejected with 429 + Retry-After, and once capacity
// frees up the queued job still completes.
func TestServeBackpressure(t *testing.T) {
	release := make(chan struct{})
	sess := blockingSession(release).SetWorkers(1)
	srv := New(Config{Session: sess, Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobs := submitN(t, ts, "bfs") // occupies the worker
	waitState(t, ts, jobs[0].ID, StateRunning)
	jobs = append(jobs, submitN(t, ts, "kmeans")...) // fills the queue

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", RunRequest{App: "needle"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}

	close(release)
	for _, j := range jobs {
		waitState(t, ts, j.ID, StateDone)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		got := decode[JobStatus](t, resp)
		if got.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s; err %q)", id, got.State, want, got.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeCancel: cancelling a running job frees its worker slot
// within the engine's bounded cancellation cadence, and the job
// reports canceled.
func TestServeCancel(t *testing.T) {
	// Real simulation, no run seam: the cancel must reach the cycle
	// loop. kmeans at this scale runs long enough to still be in flight.
	sess := testSession().SetWorkers(1)
	srv := New(Config{Session: sess, Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	jobs := submitN(t, ts, "kmeans", "bfs")
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/jobs/"+jobs[0].ID+"/cancel", nil)
	st := decode[JobStatus](t, resp)
	if st.State != StateCanceled && st.State != StateRunning {
		t.Fatalf("cancel response state %s", st.State)
	}
	waitState(t, ts, jobs[0].ID, StateCanceled)
	// The slot freed: the second job completes on the same worker.
	waitState(t, ts, jobs[1].ID, StateDone)

	// And the session is not poisoned: rerunning the canceled key works.
	res, err := sess.Run("kmeans", core.SystemConfig{Scheduler: "lrr"})
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	if res.Agg.Cycles == 0 {
		t.Fatal("rerun returned an empty result")
	}
}

// TestServeSyncClientDisconnect: a synchronous /v1/run whose client
// goes away must cancel the underlying simulation and free the worker
// slot for the next job.
func TestServeSyncClientDisconnect(t *testing.T) {
	release := make(chan struct{})
	sess := blockingSession(release).SetWorkers(1)
	srv := New(Config{Session: sess, Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// LIFO: unblock the runs first, then drain cleanly.
	defer srv.Drain(context.Background())
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	doc, _ := json.Marshal(RunRequest{App: "bfs"})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()

	// Wait until the sync job is running, then kill the client.
	waitAnyState(t, ts, "job-000001", StateRunning)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the aborted request to error")
	}
	waitAnyState(t, ts, "job-000001", StateCanceled)

	// The worker slot is free: a fresh async job gets picked up (it
	// blocks on release like every seamed run, so "running" is the
	// proof the canceled job's slot came back).
	jobs := submitN(t, ts, "kmeans")
	waitState(t, ts, jobs[0].ID, StateRunning)
}

func waitAnyState(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			got := decode[JobStatus](t, resp)
			if got.State == want {
				return
			}
		} else {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s", id, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDrain: BeginDrain flips /healthz and rejects submits with
// 503; Drain lets queued and running jobs finish; a deadline-cut drain
// cancels what's left.
func TestServeDrain(t *testing.T) {
	release := make(chan struct{})
	sess := blockingSession(release).SetWorkers(1)
	srv := New(Config{Session: sess, Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobs := submitN(t, ts, "bfs")
	waitState(t, ts, jobs[0].ID, StateRunning)

	srv.BeginDrain()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/jobs", RunRequest{App: "kmeans"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503", resp.StatusCode)
	}

	// Graceful path: release the run, drain finishes cleanly.
	close(release)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, jobs[0].ID, StateDone)
}

// TestServeDrainDeadlineCancels: a drain whose context expires cancels
// in-flight runs instead of waiting forever.
func TestServeDrainDeadlineCancels(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	sess := blockingSession(release).SetWorkers(1)
	srv := New(Config{Session: sess, Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobs := submitN(t, ts, "bfs")
	waitState(t, ts, jobs[0].ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("deadline drain: err %v, want DeadlineExceeded", err)
	}
	waitState(t, ts, jobs[0].ID, StateCanceled)
}

// TestServeRestartFromDiskCache: a second service instance on the same
// cache directory serves the first instance's campaign without
// simulating — the restart acceptance criterion.
func TestServeRestartFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	runOnce := func() ([]byte, *harness.Session) {
		disk, err := harness.OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess := testSession()
		sess.Disk = disk
		srv := New(Config{Session: sess})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/run", RunRequest{App: "bfs", Scheduler: "gto"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("sync run: status %d: %s", resp.StatusCode, body)
		}
		doc, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return doc, sess
	}

	first, s1 := runOnce()
	if len(s1.Timings()) != 1 || s1.DiskHits() != 0 {
		t.Fatalf("first instance: %d simulations, %d disk hits", len(s1.Timings()), s1.DiskHits())
	}
	second, s2 := runOnce()
	if len(s2.Timings()) != 0 || s2.DiskHits() != 1 {
		t.Fatalf("restarted instance: %d simulations, %d disk hits; want 0 and 1",
			len(s2.Timings()), s2.DiskHits())
	}
	if !bytes.Equal(first, second) {
		t.Error("restarted instance served different bytes than the original run")
	}
}

// TestServeWarmStartResumesCheckpoint: a checkpoint persisted by an
// interrupted run warm-starts the next request for the same design
// point instead of re-simulating from cycle zero, and the served result
// equals an uninterrupted run's.
func TestServeWarmStartResumesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	disk, err := harness.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := core.CAWA()
	sysKey, err := sc.Key()
	if err != nil {
		t.Fatal(err)
	}

	opt := harness.RunOptions{Workload: "bfs", Params: testParams, System: sc, Config: config.Small()}
	ref, err := harness.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hooked := opt
	cutAt := ref.Agg.Cycles / 2
	hooked.PerCycle = func(_ *gpu.GPU, cycle int64) {
		if cycle >= cutAt {
			cancel()
		}
	}
	_, last, err := harness.RunCheckpointed(ctx, hooked, 0, nil)
	if err == nil || last == nil {
		t.Fatalf("interrupted run: err=%v checkpoint=%v", err, last != nil)
	}
	key := disk.CheckpointKey(disk.EntryKey("bfs", sysKey, testParams, config.Small()))
	if err := disk.StoreCheckpoint(key, last); err != nil {
		t.Fatal(err)
	}

	sess := testSession()
	sess.Disk = disk
	srv := New(Config{Session: sess})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/run", RunRequest{App: "bfs", Scheduler: "gcaws", CPL: true, CACP: true})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("sync run: status %d: %s", resp.StatusCode, body)
	}
	got := decode[harness.Result](t, resp)
	if got.Agg.Cycles != ref.Agg.Cycles || got.Agg.Instructions != ref.Agg.Instructions ||
		got.Agg.L1DMisses != ref.Agg.L1DMisses || got.Launches != ref.Launches {
		t.Fatalf("served aggregate differs from uninterrupted run:\nserved %+v\nref    %+v", got.Agg, ref.Agg)
	}
	if n := sess.WarmResumes(); n != 1 {
		t.Fatalf("WarmResumes = %d, want 1", n)
	}
	if _, ok := disk.LoadCheckpoint(key); ok {
		t.Fatal("checkpoint artifact survived the completed run")
	}
}

// TestServeValidation: malformed requests are rejected up front.
func TestServeValidation(t *testing.T) {
	srv := New(Config{Session: testSession()})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, req := range map[string]RunRequest{
		"unknown app":       {App: "no-such-app"},
		"unknown scheduler": {App: "bfs", Scheduler: "fifo"},
		"removed scheduler": {App: "bfs", Scheduler: "ccws"},
		"negative timeout":  {App: "bfs", TimeoutMS: -1},
	} {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServeOversizedBody: a submit body past maxBodyBytes is refused with
// 413 on both submit routes without being decoded whole, and the server
// goes on admitting ordinary requests.
func TestServeOversizedBody(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{Session: blockingSession(release)})
	defer srv.Drain(context.Background())
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge := `{"app":"` + strings.Repeat("a", 4*maxBodyBytes) + `"}`
	for _, route := range []string{"/v1/jobs", "/v1/run"} {
		resp, err := ts.Client().Post(ts.URL+route, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", route, len(huge), resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", RunRequest{App: "bfs"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("ordinary submit after the oversized ones: status %d, want 202", resp.StatusCode)
	}
}

// TestServeMetricsAndApps: /metrics speaks the Prometheus text format
// and reflects job counters; /v1/apps lists the registered workloads.
func TestServeMetricsAndApps(t *testing.T) {
	srv := New(Config{Session: testSession(), Workers: 2})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobs := submitN(t, ts, "bfs")
	waitState(t, ts, jobs[0].ID, StateDone)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE cawa_serve_queue_depth gauge",
		"cawa_serve_jobs_submitted_total 1",
		"cawa_serve_jobs_completed_total 1",
		"cawa_session_cache_misses_total 1",
		"cawa_session_runs_total 1",
		"cawa_serve_workers 2",
		// The three latency histograms speak the full prometheus
		// histogram contract after one completed job.
		"# TYPE cawa_serve_queue_wait_seconds histogram",
		"# TYPE cawa_serve_run_seconds histogram",
		"# TYPE cawa_serve_request_seconds histogram",
		`cawa_serve_queue_wait_seconds_bucket{le="+Inf"} 1`,
		"cawa_serve_queue_wait_seconds_count 1",
		`cawa_serve_run_seconds_bucket{le="+Inf"} 1`,
		"cawa_serve_run_seconds_count 1",
		`cawa_serve_request_seconds_bucket{le="+Inf"} 1`,
		"cawa_serve_request_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	apps := decode[map[string][]string](t, resp)
	found := false
	for _, a := range apps["apps"] {
		if a == "bfs" {
			found = true
		}
	}
	if !found {
		t.Errorf("apps listing missing bfs: %v", apps)
	}
	if len(apps["schedulers"]) == 0 {
		t.Error("apps listing has no schedulers")
	}
}

// TestServeRequestTracing: the server propagates a client X-Request-ID
// (or mints one), echoes it on responses and in JobStatus, exposes a
// machine-readable timeline once the job finishes, and writes a
// structured request log whose lifecycle lines join on the request id.
func TestServeRequestTracing(t *testing.T) {
	var logBuf syncBuffer
	srv := New(Config{
		Session: testSession(),
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Client-supplied request id: echoed on the response and the status.
	doc, _ := json.Marshal(RunRequest{App: "bfs"})
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("response request id = %q, want trace-me-42", got)
	}
	st := decode[JobStatus](t, resp)
	if st.RequestID != "trace-me-42" {
		t.Errorf("status request id = %q, want trace-me-42", st.RequestID)
	}
	if st.SubmittedAt == "" {
		t.Error("submitted_at missing on fresh job")
	}
	waitState(t, ts, st.ID, StateDone)

	// Terminal status carries the full timeline.
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("poll response missing a minted request id")
	}
	final := decode[JobStatus](t, resp)
	for name, v := range map[string]string{
		"submitted_at": final.SubmittedAt,
		"started_at":   final.StartedAt,
		"finished_at":  final.FinishedAt,
	} {
		if v == "" {
			t.Errorf("terminal status missing %s: %+v", name, final)
			continue
		}
		if _, err := time.Parse(time.RFC3339Nano, v); err != nil {
			t.Errorf("%s = %q is not RFC3339: %v", name, v, err)
		}
	}
	if final.QueueSeconds < 0 || final.RunSeconds <= 0 {
		t.Errorf("timeline durations queue=%v run=%v", final.QueueSeconds, final.RunSeconds)
	}

	// The request log: submitted, started and finished lines all carry
	// the client's request id and the job id; the finished line carries
	// the outcome and durations.
	lines := map[string]map[string]any{}
	for _, raw := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		if rec["request_id"] == "trace-me-42" {
			lines[rec["msg"].(string)] = rec
		}
	}
	for _, msg := range []string{"job submitted", "job started", "job finished"} {
		rec, ok := lines[msg]
		if !ok {
			t.Errorf("request log missing %q line for trace-me-42\n%s", msg, logBuf.String())
			continue
		}
		if rec["job_id"] != st.ID || rec["app"] != "bfs" {
			t.Errorf("%q line has wrong identity: %v", msg, rec)
		}
	}
	if fin, ok := lines["job finished"]; ok {
		if fin["outcome"] != StateDone {
			t.Errorf("finished outcome = %v, want done", fin["outcome"])
		}
		if rs, ok := fin["run_seconds"].(float64); !ok || rs <= 0 {
			t.Errorf("finished run_seconds = %v", fin["run_seconds"])
		}
	}

	// No header: the server mints req-N ids.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/jobs", RunRequest{App: "kmeans"})
	minted := decode[JobStatus](t, resp)
	if !strings.HasPrefix(minted.RequestID, "req-") {
		t.Errorf("minted request id = %q, want req-N", minted.RequestID)
	}
	waitState(t, ts, minted.ID, StateDone)
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler writes
// from worker goroutines while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeResultStates: result fetch on unfinished/failed jobs has
// useful semantics (202 while pending, 409 for terminal failures).
func TestServeResultStates(t *testing.T) {
	release := make(chan struct{})
	sess := blockingSession(release).SetWorkers(1)
	srv := New(Config{Session: sess, Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobs := submitN(t, ts, "bfs")
	waitState(t, ts, jobs[0].ID, StateRunning)
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + jobs[0].ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("pending result: status %d, want 202", resp.StatusCode)
	}

	postJSON(t, ts.Client(), ts.URL+"/v1/jobs/"+jobs[0].ID+"/cancel", nil).Body.Close()
	waitState(t, ts, jobs[0].ID, StateCanceled)
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + jobs[0].ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("canceled result: status %d, want 409", resp.StatusCode)
	}

	close(release)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServeForgetsOldestFinishedJobs: the server remembers at most
// maxFinishedJobs finished jobs and forgets the oldest first, while a
// running job is kept however many finish after it.
func TestServeForgetsOldestFinishedJobs(t *testing.T) {
	sess := testSession()
	release := make(chan struct{})
	sess.SetRunFunc(func(ctx context.Context, opt harness.RunOptions) (*harness.Result, error) {
		if opt.Workload == "kmeans" {
			<-release
		}
		return &harness.Result{Workload: opt.Workload}, nil
	})
	const extra = 3
	srv := New(Config{Session: sess, Workers: 2, QueueDepth: maxFinishedJobs + extra})
	defer srv.Drain(context.Background())
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	running := submitN(t, ts, "kmeans")[0]
	waitState(t, ts, running.ID, StateRunning)
	var ids []string
	for i := 0; i < maxFinishedJobs+extra; i++ {
		// One at a time, so jobs finish in submission order.
		j, err := srv.submit(RunRequest{App: "bfs"}, "")
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		ids = append(ids, j.id)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if list := decode[[]JobStatus](t, resp); len(list) != maxFinishedJobs+1 {
		t.Fatalf("/v1/jobs lists %d jobs, want the %d finished ones kept and the running one", len(list), maxFinishedJobs)
	}
	code := func(id string) int {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound
		}
		if got := code(id); got != want {
			t.Errorf("finished job %d of %d (%s): status %d, want %d", i+1, len(ids), id, got, want)
		}
	}
	if got := code(running.ID); got != http.StatusOK {
		t.Errorf("running job %s: status %d, want it kept", running.ID, got)
	}
}

// TestServeHitRepliesDoNotReencode is the hit path's allocation gate:
// N cached POST /v1/run replies allocate less in total than a quarter
// of the N reply bodies they send, which holds only when every reply
// writes the session's one encoding instead of marshalling the result
// again.
func TestServeHitRepliesDoNotReencode(t *testing.T) {
	srv := New(Config{Session: testSession()})
	defer srv.Drain(context.Background())
	h := srv.Handler()
	body, err := json.Marshal(RunRequest{App: "bfs", Scheduler: "gcaws", CPL: true, CACP: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	post := func() {
		out.Reset()
		rec := httptest.NewRecorder()
		rec.Body = &out // reused: the recorder's own buffer would grow per reply
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("sync run: status %d: %s", rec.Code, out.Bytes())
		}
	}
	post() // the miss: simulates and encodes
	reply := out.Len()
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d hits of a %d-byte reply allocated %d bytes (%d per reply)", n, reply, alloc, alloc/n)
	if limit := uint64(n * reply / 4); alloc >= limit {
		t.Errorf("%d hits allocated %d bytes, want under %d (a quarter of the bytes sent)", n, alloc, limit)
	}
}
