package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cawa/internal/core"
	"cawa/internal/harness"
)

// scrape returns one /metrics body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

// latencyBounds are the le labels of every latency histogram, in order.
var latencyBounds = []string{
	"0.001", "0.002", "0.004", "0.008", "0.016", "0.032", "0.064",
	"0.128", "0.256", "0.512", "1.024", "2.048", "4.096", "8.192",
	"16.384", "32.768", "65.536", "131.072", "262.144", "524.288", "+Inf",
}

// TestServeMetricsSkeleton pins the /metrics exposition line by line
// after one completed job: family order, # TYPE lines, histogram bucket
// labels, and the session counters after the serve families. Sample
// values are replaced by a placeholder, since uptime and latencies vary.
func TestServeMetricsSkeleton(t *testing.T) {
	sess := testSession()
	sess.SetRunFunc(func(ctx context.Context, opt harness.RunOptions) (*harness.Result, error) {
		return &harness.Result{Workload: opt.Workload}, nil
	})
	srv := New(Config{Session: sess, Workers: 2})
	defer srv.Drain(context.Background())
	j, err := srv.submit(RunRequest{App: "bfs"}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-j.done

	var want []string
	family := func(name, typ string) {
		want = append(want, "# TYPE "+name+" "+typ, name+" N")
	}
	histogram := func(name string) {
		want = append(want, "# TYPE "+name+" histogram")
		for _, le := range latencyBounds {
			want = append(want, name+`_bucket{le="`+le+`"} N`)
		}
		want = append(want, name+"_sum N", name+"_count N")
	}
	family("cawa_serve_draining", "gauge")
	family("cawa_serve_jobs_canceled_total", "counter")
	family("cawa_serve_jobs_completed_total", "counter")
	family("cawa_serve_jobs_failed_total", "counter")
	family("cawa_serve_jobs_rejected_total", "counter")
	family("cawa_serve_jobs_submitted_total", "counter")
	family("cawa_serve_queue_capacity", "gauge")
	family("cawa_serve_queue_depth", "gauge")
	histogram("cawa_serve_queue_wait_seconds")
	histogram("cawa_serve_request_seconds")
	histogram("cawa_serve_run_seconds")
	family("cawa_serve_uptime_seconds", "gauge")
	family("cawa_serve_workers", "gauge")
	family("cawa_serve_workers_busy", "gauge")
	family("cawa_session_cache_hits_total", "counter")
	family("cawa_session_cache_misses_total", "counter")
	family("cawa_session_disk_hits_total", "counter")
	family("cawa_session_disk_write_errors_total", "counter")
	family("cawa_session_warm_resumes_total", "counter")
	family("cawa_session_runs_total", "counter")
	family("cawa_session_wall_seconds_total", "counter")

	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(scrape(t, srv.Handler()), "\n"), "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:i] + " N"
		}
		got = append(got, line)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("/metrics skeleton:\n%s\nwant:\n%s", g, w)
	}
}

// TestScrapeCostIndependentOfRuns: the session keeps one record per
// simulation for the server's whole life, and a /metrics scrape reads
// only their count, so a scrape after 1,000 recorded runs allocates no
// more than one after 10.
func TestScrapeCostIndependentOfRuns(t *testing.T) {
	sess := testSession()
	sess.SetRunFunc(func(ctx context.Context, opt harness.RunOptions) (*harness.Result, error) {
		return &harness.Result{Workload: opt.Workload}, nil
	})
	srv := New(Config{Session: sess, Workers: 1})
	defer srv.Drain(context.Background())
	h := srv.Handler()
	recordRuns := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := sess.Run(fmt.Sprintf("app-%d", i), core.Baseline()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// bytesPerScrape is the least mean heap allocation of one scrape
	// over five batches, which drops the runtime's own allocations.
	bytesPerScrape := func() uint64 {
		const scrapes = 20
		least := ^uint64(0)
		for batch := 0; batch < 5; batch++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < scrapes; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/scrapes)
		}
		return least
	}
	recordRuns(0, 10)
	small := bytesPerScrape()
	recordRuns(10, 1000)
	if n := len(sess.Timings()); n != 1000 {
		t.Fatalf("session recorded %d runs, want 1000", n)
	}
	// The slack covers the longer numbers the text holds after more
	// runs; copying the records would add over 100 kB.
	if large := bytesPerScrape(); large > small+1024 {
		t.Errorf("a scrape allocates %d bytes after 1,000 runs, %d after 10", large, small)
	}
}

// TestHistogramExposition pins one histogram's rendering: cumulative
// buckets in ascending le order ending at +Inf, which equals _count; a
// value on a bound lands in that bound's bucket, a negative one counts
// as 0, and one past 524.288 s only in +Inf.
func TestHistogramExposition(t *testing.T) {
	var h histogram
	for _, v := range []float64{0.0005, 0.003, 2, 1000, -3, 524.288} {
		h.observe(v)
	}
	var b strings.Builder
	writeHistogram(&b, "x", &h)
	want := `# TYPE x histogram
x_bucket{le="0.001"} 2
x_bucket{le="0.002"} 2
x_bucket{le="0.004"} 3
x_bucket{le="0.008"} 3
x_bucket{le="0.016"} 3
x_bucket{le="0.032"} 3
x_bucket{le="0.064"} 3
x_bucket{le="0.128"} 3
x_bucket{le="0.256"} 3
x_bucket{le="0.512"} 3
x_bucket{le="1.024"} 3
x_bucket{le="2.048"} 4
x_bucket{le="4.096"} 4
x_bucket{le="8.192"} 4
x_bucket{le="16.384"} 4
x_bucket{le="32.768"} 4
x_bucket{le="65.536"} 4
x_bucket{le="131.072"} 4
x_bucket{le="262.144"} 4
x_bucket{le="524.288"} 5
x_bucket{le="+Inf"} 6
x_sum 1526.2915
x_count 6
`
	if b.String() != want {
		t.Errorf("histogram exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// metricValues maps each unlabelled sample line of a /metrics body to
// its value.
func metricValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Errorf("/metrics line %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

// checkScrape holds one /metrics body to the invariants a single
// consistent snapshot guarantees: every finished job is in the request
// histogram, every started job is either busy or in the run histogram,
// and no more jobs finished than were submitted.
func checkScrape(t *testing.T, body string) {
	t.Helper()
	m := metricValues(t, body)
	finished := m["cawa_serve_jobs_completed_total"] + m["cawa_serve_jobs_failed_total"] + m["cawa_serve_jobs_canceled_total"]
	if got := m["cawa_serve_request_seconds_count"]; got != finished {
		t.Errorf("serve_request_seconds_count %g, completed+failed+canceled %g", got, finished)
	}
	if got, want := m["cawa_serve_queue_wait_seconds_count"], m["cawa_serve_run_seconds_count"]+m["cawa_serve_workers_busy"]; got != want {
		t.Errorf("serve_queue_wait_seconds_count %g, serve_run_seconds_count+serve_workers_busy %g", got, want)
	}
	if submitted := m["cawa_serve_jobs_submitted_total"]; finished > submitted {
		t.Errorf("%g jobs finished of %g submitted", finished, submitted)
	}
}

// TestServeMetricsConsistentUnderChurn scrapes /metrics concurrently
// with jobs ending every way a job can end: done, failed, canceled
// while queued and canceled while running. Every scrape must be one
// consistent snapshot (checkScrape).
func TestServeMetricsConsistentUnderChurn(t *testing.T) {
	sess := testSession().SetWorkers(2)
	sess.SetRunFunc(func(ctx context.Context, opt harness.RunOptions) (*harness.Result, error) {
		switch opt.Workload {
		case "kmeans": // runs until canceled
			<-ctx.Done()
			return nil, ctx.Err()
		case "backprop":
			return nil, errors.New("injected failure")
		}
		return &harness.Result{Workload: opt.Workload}, nil
	})
	srv := New(Config{Session: sess, Workers: 2})
	defer srv.Drain(context.Background())
	h := srv.Handler()

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			checkScrape(t, scrape(t, h))
			n++
		}
	}()
	stopScraping := sync.OnceValue(func() int {
		close(stop)
		return <-scraped
	})
	defer stopScraping() // a failed round must not leave the scraper running

	submit := func(req RunRequest) *job {
		j, err := srv.submit(req, "")
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	waitRunning := func(j *job) {
		deadline := time.Now().Add(10 * time.Second)
		for srv.statusOf(j).State != StateRunning {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never started", j.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		// Two distinct design points, so neither waits on the other's
		// flight: both workers are busy until canceled.
		running := []*job{
			submit(RunRequest{App: "kmeans", Scheduler: "lrr"}),
			submit(RunRequest{App: "kmeans", Scheduler: "gto"}),
		}
		for _, j := range running {
			waitRunning(j)
		}
		queued := submit(RunRequest{App: "bfs"})
		srv.cancelJob(queued.id)
		for _, j := range running {
			srv.cancelJob(j.id)
			<-j.done
		}
		done, failed := submit(RunRequest{App: "bfs"}), submit(RunRequest{App: "backprop"})
		<-done.done
		<-failed.done
		for j, want := range map[*job]string{queued: StateCanceled, running[0]: StateCanceled, running[1]: StateCanceled, done: StateDone, failed: StateFailed} {
			if st := srv.statusOf(j); st.State != want {
				t.Fatalf("job %s (%s) %s, want %s", j.id, j.req.App, st.State, want)
			}
		}
		if srv.statusOf(queued).StartedAt != "" {
			t.Fatalf("job %s was to be canceled while queued, but it started", queued.id)
		}
	}
	t.Logf("%d scrapes during the churn", stopScraping())

	body := scrape(t, h)
	checkScrape(t, body)
	m := metricValues(t, body)
	for name, want := range map[string]float64{
		"cawa_serve_jobs_submitted_total": 5 * rounds,
		"cawa_serve_jobs_completed_total": rounds,
		"cawa_serve_jobs_failed_total":    rounds,
		"cawa_serve_jobs_canceled_total":  3 * rounds,
		"cawa_serve_run_seconds_count":    4 * rounds,
	} {
		if m[name] != want {
			t.Errorf("%s %g after the churn, want %g", name, m[name], want)
		}
	}
}
