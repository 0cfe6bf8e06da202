package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// histBounds are the upper bounds (seconds) of every latency
// histogram's buckets, 1 ms doubling to 524.288 s; a last bucket
// catches everything above as +Inf.
var histBounds = func() [20]float64 {
	var out [20]float64
	b := 0.001
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}()

// histogram is a latency histogram over histBounds. It has no lock of
// its own: the Server observes into it under s.mu, in the same critical
// section that moves the job's state and counters.
type histogram struct {
	buckets [len(histBounds) + 1]uint64 // per bucket, not cumulative; the last is +Inf
	count   uint64
	sum     float64
}

// observe records one duration in seconds; a negative one counts as 0.
func (h *histogram) observe(v float64) {
	v = max(v, 0)
	h.buckets[sort.SearchFloat64s(histBounds[:], v)]++
	h.count++
	h.sum += v
}

// serveStats are the job counters and latency histograms /metrics
// renders, guarded by s.mu, so that one copy is one consistent scrape.
type serveStats struct {
	submitted, rejected, completed, failed, canceled uint64

	queueWait histogram // submitted -> started
	run       histogram // started -> finished
	request   histogram // submitted -> finished (end-to-end)
}

// handleMetrics renders the service's gauges, job counters and latency
// histograms, then the session's cache counters, in the Prometheus text
// exposition format (version 0.0.4). The service's figures are copied
// under one s.mu acquisition and rendered after it is released.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st, busy, draining, depth := s.stats, s.busy, s.draining, len(s.queue)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Counters print through %g too, as they always have: a count of a
	// million reads 1e+06, so no scraper sees the format change.
	sample := func(name, typ string, v float64) {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %g\n", name, typ, name, v)
	}
	drainingValue := 0.0
	if draining {
		drainingValue = 1
	}
	sample("cawa_serve_draining", "gauge", drainingValue)
	sample("cawa_serve_jobs_canceled_total", "counter", float64(st.canceled))
	sample("cawa_serve_jobs_completed_total", "counter", float64(st.completed))
	sample("cawa_serve_jobs_failed_total", "counter", float64(st.failed))
	sample("cawa_serve_jobs_rejected_total", "counter", float64(st.rejected))
	sample("cawa_serve_jobs_submitted_total", "counter", float64(st.submitted))
	sample("cawa_serve_queue_capacity", "gauge", float64(cap(s.queue)))
	sample("cawa_serve_queue_depth", "gauge", float64(depth))
	writeHistogram(w, "cawa_serve_queue_wait_seconds", &st.queueWait)
	writeHistogram(w, "cawa_serve_request_seconds", &st.request)
	writeHistogram(w, "cawa_serve_run_seconds", &st.run)
	sample("cawa_serve_uptime_seconds", "gauge", time.Since(s.started).Seconds())
	sample("cawa_serve_workers", "gauge", float64(s.cfg.Workers))
	sample("cawa_serve_workers_busy", "gauge", float64(busy))

	count := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	hits, misses := s.sess.CacheStats()
	count("cawa_session_cache_hits_total", hits)
	count("cawa_session_cache_misses_total", misses)
	count("cawa_session_disk_hits_total", s.sess.DiskHits())
	count("cawa_session_disk_write_errors_total", s.sess.DiskWriteErrors())
	count("cawa_session_warm_resumes_total", s.sess.WarmResumes())
	m := s.sess.Manifest()
	count("cawa_session_runs_total", uint64(len(m.Runs)))
	sample("cawa_session_wall_seconds_total", "counter", m.WallSeconds)
}

// writeHistogram renders h as one Prometheus histogram: cumulative
// buckets in ascending bound order ending at le="+Inf" (equal to
// _count), then _sum and _count.
func writeHistogram(w io.Writer, name string, h *histogram) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		le := "+Inf"
		if i < len(histBounds) {
			le = fmt.Sprintf("%g", histBounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.count)
}
