package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"cawa/internal/sched"
	"cawa/internal/workloads"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs             submit a RunRequest; 202 + JobStatus,
//	                          429 (+Retry-After) when the queue is full,
//	                          413 for a body over maxBodyBytes,
//	                          503 while draining
//	GET  /v1/jobs             list the jobs, newest first: every queued
//	                          and running one, and the last
//	                          maxFinishedJobs finished ones
//	GET  /v1/jobs/{id}        poll one job's JobStatus; 404 once the
//	                          job is forgotten
//	GET  /v1/jobs/{id}/result fetch a finished job's harness.Result
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	POST /v1/run              synchronous submit+wait; a client
//	                          disconnect cancels the run
//	GET  /v1/apps             list applications and schedulers
//	GET  /healthz             200 serving / 503 draining
//	GET  /metrics             Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/run", s.handleRunSync)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.trace(mux)
}

// requestIDHeader carries the client-chosen request id; the server
// mints one when absent and echoes it on every response either way.
const requestIDHeader = "X-Request-ID"

// statusWriter captures the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// trace is the outermost middleware: it assigns (or propagates) the
// request id, stores it in the request context for the submit path,
// echoes it on the response, and emits one structured access-log line
// per request with its HTTP latency. (The serve_request_seconds
// histogram tracks job submit->finish, not individual HTTP exchanges —
// polls would drown the signal.)
func (s *Server) trace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := s.requestID(r.Header.Get(requestIDHeader))
		w.Header().Set(requestIDHeader, reqID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r.WithContext(withRequestID(r.Context(), reqID)))
		s.log.Info("http request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Float64("seconds", time.Since(t0).Seconds()))
	})
}

// reqIDKey keys the request id in a request context.
type reqIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// apiError is the uniform error payload.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON replies with v as one line of compact JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// writeResult replies 200 with a run's encoded result and the newline
// writeJSON would end it with. The bytes are the session's shared
// encoding: they are written as they are, never appended to.
func writeResult(w http.ResponseWriter, result []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(result)+1))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(result); err == nil {
		w.Write(newline) //nolint:errcheck // the connection is gone; nothing to do
	}
}

var newline = []byte("\n")

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

const maxBodyBytes = 64 << 10 // a submit body's bound; a RunRequest is under 1 kB

// admit decodes and enqueues a submit request, translating admission
// failures to their HTTP verdicts. Returns nil after writing the
// response when admission failed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) *job {
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad request body: %w", err))
		return nil
	}
	j, err := s.submit(req, requestIDFrom(r.Context()))
	switch err {
	case nil:
		return j
	case errQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg)))
		writeError(w, http.StatusTooManyRequests, err)
	case errDraining:
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
	return nil
}

func retryAfterSeconds(cfg Config) int {
	sec := int(cfg.RetryAfter.Seconds())
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j := s.admit(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusAccepted, s.statusOf(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, ok := s.result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	switch st.State {
	case StateDone:
		writeResult(w, res)
	case StateFailed, StateCanceled:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
	default:
		// Not finished yet; tell the poller to come back.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg)))
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.cancelJob(id)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleRunSync runs a job to completion within the request. The job's
// context is tied to the HTTP request context: when the client
// disconnects (or the request deadline fires), the simulation is
// cancelled and its worker slot freed within a bounded number of
// simulated cycles.
func (s *Server) handleRunSync(w http.ResponseWriter, r *http.Request) {
	j := s.admit(w, r)
	if j == nil {
		return
	}
	stop := context.AfterFunc(r.Context(), func() { s.cancelJob(j.id) })
	defer stop()
	<-j.done
	if st := s.statusOf(j); st.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
		return
	}
	writeResult(w, j.result) // written before done closed
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"apps":       workloads.Names(),
		"schedulers": sched.Names(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
