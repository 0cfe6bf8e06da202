// Package serve turns a harness.Session into a long-running HTTP
// simulation service: clients submit (application, design point) jobs,
// poll their status, and fetch results; the service executes them on
// the session's bounded worker pool behind an admission queue with
// backpressure, deduplicates concurrent identical requests through the
// session's singleflight cache, and — when the session carries a
// harness.DiskCache — survives restarts without re-simulating.
//
// The package sits entirely outside the deterministic simulation core:
// it owns goroutines, wall-clock time and request contexts, and talks
// to the simulator only through harness.Session.RunJSON, which
// plumbs cancellation down to the cycle loop. A dead client, an
// expired per-job deadline, or a drain therefore frees its worker slot
// within a bounded amount of simulation work.
package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cawa/internal/core"
	"cawa/internal/harness"
	"cawa/internal/sched"
	"cawa/internal/workloads"
)

// Config parameterizes a Server.
type Config struct {
	// Session executes and caches the runs. Required. Its worker count
	// bounds concurrent simulations; attach a harness.DiskCache to it
	// for persistence across restarts.
	Session *harness.Session
	// Workers is the number of job-executing workers (default: the
	// session's worker-pool bound). More workers than session slots
	// just queue inside the session.
	Workers int
	// QueueDepth bounds the admission queue; a submit that finds the
	// queue full is rejected with HTTP 429 + Retry-After rather than
	// accepted into an unbounded backlog. Default 64.
	QueueDepth int
	// DefaultTimeout caps each job's run unless the request carries its
	// own timeout_ms. Zero means no deadline.
	DefaultTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses.
	// Default 1s.
	RetryAfter time.Duration
	// Logger receives the structured request log: one line per
	// lifecycle transition (submitted, started, done/failed/canceled)
	// carrying the request id, job id, app, system, outcome and
	// queue/run durations. Nil discards the log.
	Logger *slog.Logger
}

// RunRequest is the submit payload: one application on one design
// point, executed at the service session's workload scaling.
type RunRequest struct {
	App       string `json:"app"`
	Scheduler string `json:"scheduler"`            // default "lrr"
	CPL       bool   `json:"cpl,omitempty"`        // criticality prediction
	CACP      bool   `json:"cacp,omitempty"`       // cache prioritization (implies CPL)
	TimeoutMS int64  `json:"timeout_ms,omitempty"` // per-job deadline override
}

// System maps the request to a design point.
func (r RunRequest) System() core.SystemConfig {
	s := r.Scheduler
	if s == "" {
		s = "lrr"
	}
	return core.SystemConfig{Scheduler: s, CPL: r.CPL || r.CACP, CACP: r.CACP}
}

// Validate rejects requests the simulator is guaranteed to refuse,
// before they consume a queue slot.
func (r RunRequest) Validate() error {
	found := false
	for _, name := range workloads.Names() {
		if name == r.App {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown app %q (have %v)", r.App, workloads.Names())
	}
	sc := r.System()
	if _, ok := sched.Lookup(sc.Scheduler); !ok {
		return fmt.Errorf("unknown scheduler %q (have %v)", sc.Scheduler, sched.Names())
	}
	if _, err := sc.Key(); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", r.TimeoutMS)
	}
	return nil
}

// maxFinishedJobs bounds the finished jobs a Server remembers, results
// included. Past it the oldest finished job is forgotten, and its id
// answers 404 like one never issued. Queued and running jobs are never
// forgotten.
const maxFinishedJobs = 1024

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// job is one submitted run and its lifecycle.
type job struct {
	id    string
	reqID string // client's X-Request-ID, or a generated req-N
	req   RunRequest
	sys   core.SystemConfig

	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{} // closed when the job reaches a terminal state
	canceled bool          // an explicit cancel (client or drain) was requested

	state string
	err   string
	// result is the session's canonical encoding of the run, shared
	// with every other job of the same key: never modified.
	result []byte

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// JobStatus is the poll view of a job. Beyond the state machine it
// carries a machine-readable timeline — absolute RFC3339 transition
// stamps plus derived queue/run durations — so a client can reconstruct
// where a request spent its time without scraping the request log.
type JobStatus struct {
	ID        string `json:"id"`
	RequestID string `json:"request_id,omitempty"`
	App       string `json:"app"`
	System    string `json:"system"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	// Seconds the job has spent in its current lifecycle (queued wait
	// for queued jobs, run time for running/terminal jobs).
	Seconds float64 `json:"seconds"`

	// Timeline: SubmittedAt is always set; StartedAt once a worker
	// picked the job up (never for a queued-cancel); FinishedAt at any
	// terminal state. QueueSeconds covers submitted->started (or
	// submitted->finished for queued cancels); RunSeconds covers
	// started->finished.
	SubmittedAt  string  `json:"submitted_at"`
	StartedAt    string  `json:"started_at,omitempty"`
	FinishedAt   string  `json:"finished_at,omitempty"`
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
}

// Server is the HTTP simulation service.
type Server struct {
	cfg  Config
	sess *harness.Session
	log  *slog.Logger

	nextReqID atomic.Uint64

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	started   time.Time

	mu          sync.Mutex
	jobs        map[string]*job
	finished    []string // ids of the finished jobs still in jobs, oldest first
	queue       chan *job
	nextID      int
	draining    bool
	queueClosed bool
	busy        int
	stats       serveStats
}

// New builds and starts a Server: its workers begin draining the
// admission queue immediately. Call Drain to stop it.
func New(cfg Config) *Server {
	if cfg.Session == nil {
		panic("serve: Config.Session is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Session.Workers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		sess:      cfg.Session,
		log:       cfg.Logger,
		baseCtx:   ctx,
		cancelAll: cancel,
		started:   time.Now(),
		jobs:      make(map[string]*job),
		queue:     make(chan *job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// errQueueFull and errDraining classify admission failures for the
// HTTP layer.
var (
	errQueueFull = fmt.Errorf("admission queue full")
	errDraining  = fmt.Errorf("server is draining")
)

// requestID returns the caller-supplied id unchanged, or mints a
// server-local one so every log line and timeline is traceable.
func (s *Server) requestID(supplied string) string {
	if supplied != "" {
		return supplied
	}
	return fmt.Sprintf("req-%06d", s.nextReqID.Add(1))
}

// jobAttrs are the slog attributes shared by every lifecycle line of
// one job, keeping the request log joinable on either id.
func jobAttrs(j *job) []any {
	return []any{
		slog.String("request_id", j.reqID),
		slog.String("job_id", j.id),
		slog.String("app", j.req.App),
		slog.String("system", j.sys.Label()),
	}
}

// submit validates and enqueues a job. The returned job is owned by
// the server; callers observe it through its done channel and Status.
func (s *Server) submit(req RunRequest, reqID string) (*job, error) {
	if err := req.Validate(); err != nil {
		s.log.Warn("job rejected", slog.String("request_id", reqID),
			slog.String("app", req.App), slog.String("reason", err.Error()))
		return nil, err
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.log.Warn("job rejected", slog.String("request_id", reqID),
			slog.String("app", req.App), slog.String("reason", errDraining.Error()))
		return nil, errDraining
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		reqID:     reqID,
		req:       req,
		sys:       req.System(),
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	if timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.stats.submitted++
		s.log.Info("job submitted", jobAttrs(j)...)
		return j, nil
	default:
		s.stats.rejected++
		j.cancel()
		s.log.Warn("job rejected", slog.String("request_id", reqID),
			slog.String("app", req.App), slog.String("reason", errQueueFull.Error()))
		return nil, errQueueFull
	}
}

// worker executes queued jobs until the queue closes (drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through the session and records its outcome,
// observing queue-wait, run and end-to-end latencies on the way.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	wait := j.started.Sub(j.submitted).Seconds()
	s.stats.queueWait.observe(wait)
	s.busy++
	s.mu.Unlock()

	s.log.Info("job started", append(jobAttrs(j), slog.Float64("queue_seconds", wait))...)

	res, err := s.sess.RunJSON(j.ctx, j.req.App, j.sys)

	s.mu.Lock()
	s.busy--
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		s.stats.completed++
	case j.ctx.Err() != nil:
		j.state = StateCanceled
		j.err = err.Error()
		s.stats.canceled++
	default:
		j.state = StateFailed
		j.err = err.Error()
		s.stats.failed++
	}
	run := j.finished.Sub(j.started).Seconds()
	total := j.finished.Sub(j.submitted).Seconds()
	s.stats.run.observe(run)
	s.stats.request.observe(total)
	s.retireLocked(j)
	outcome, errText := j.state, j.err
	close(j.done)
	s.mu.Unlock()
	j.cancel() // release the deadline timer

	attrs := append(jobAttrs(j),
		slog.String("outcome", outcome),
		slog.Float64("queue_seconds", wait),
		slog.Float64("run_seconds", run),
		slog.Float64("request_seconds", total))
	if errText != "" {
		attrs = append(attrs, slog.String("error", errText))
	}
	s.log.Info("job finished", attrs...)
}

// retireLocked lists j, just finished, and forgets the oldest finished
// jobs past maxFinishedJobs. s.mu must be held.
func (s *Server) retireLocked(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// cancelJob requests cancellation. Queued jobs terminate immediately;
// running jobs terminate as soon as the simulator observes the dead
// context. Unknown ids return nil.
func (s *Server) cancelJob(id string) *job {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	j.canceled = true
	queuedCancel := j.state == StateQueued
	var total float64
	if queuedCancel {
		j.state = StateCanceled
		j.err = context.Canceled.Error()
		j.finished = time.Now()
		s.stats.canceled++
		// Never started: the whole request was queue wait.
		total = j.finished.Sub(j.submitted).Seconds()
		s.stats.request.observe(total)
		s.retireLocked(j)
		close(j.done)
	}
	s.mu.Unlock()
	j.cancel()
	if queuedCancel {
		s.log.Info("job finished", append(jobAttrs(j),
			slog.String("outcome", StateCanceled),
			slog.Float64("queue_seconds", total),
			slog.Float64("request_seconds", total))...)
	} else {
		s.log.Info("job cancel requested", jobAttrs(j)...)
	}
	return j
}

// status snapshots a job for the poll endpoint.
func (s *Server) status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// statusOf snapshots j, whether or not the server still lists it.
func (s *Server) statusOf(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		RequestID:   j.reqID,
		App:         j.req.App,
		System:      j.sys.Label(),
		State:       j.state,
		Error:       j.err,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
		st.QueueSeconds = j.started.Sub(j.submitted).Seconds()
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		if j.started.IsZero() {
			st.QueueSeconds = j.finished.Sub(j.submitted).Seconds()
		} else {
			st.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	switch j.state {
	case StateQueued:
		st.Seconds = time.Since(j.submitted).Seconds()
	case StateRunning:
		st.Seconds = time.Since(j.started).Seconds()
	default:
		ref := j.started
		if ref.IsZero() {
			ref = j.submitted
		}
		st.Seconds = j.finished.Sub(ref).Seconds()
	}
	return st
}

// statuses lists every job, newest first.
func (s *Server) statuses() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// result returns a finished job's encoded result.
func (s *Server) result(id string) ([]byte, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	return j.result, s.statusLocked(j), true
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginDrain stops admission (submits fail with 503, /healthz flips to
// 503 so load balancers stop routing here) without touching running
// jobs. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.log.Info("admission stopped")
	}
}

// Drain gracefully shuts the service down: stop admitting, let the
// workers finish the queued and in-flight runs, and — if ctx expires
// first — cancel everything still running and wait for the workers to
// observe it. The session's disk cache needs no separate flush: every
// result was written through at run end. Drain returns ctx.Err() when
// the deadline forced cancellation, nil on a clean finish.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if !s.queueClosed {
		s.queueClosed = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-finished
		return ctx.Err()
	}
}
