package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cawa/internal/harness"
)

// FuzzRunRequest sends arbitrary bytes as a submit body through the
// handler, so they take the decode + Validate path admit gives every
// request; the session's run function is stubbed, so nothing simulates.
// Every body must get a 4xx or an accepted job — never a panic or a 5xx
// — and an accepted request must name a design point with a stable key.
// Seeded with the bodies the serve tests and the serve_mix benchmark
// send.
func FuzzRunRequest(f *testing.F) {
	var seeds []RunRequest
	for _, app := range harness.PaperApps {
		seeds = append(seeds,
			RunRequest{App: app, Scheduler: "lrr"},
			RunRequest{App: app, Scheduler: "gto"},
			RunRequest{App: app, Scheduler: "gcaws", CPL: true, CACP: true})
	}
	seeds = append(seeds,
		RunRequest{App: "bfs"},
		RunRequest{App: "kmeans", TimeoutMS: 250},
		RunRequest{App: "no-such-app"},
		RunRequest{App: "bfs", Scheduler: "fifo"},
		RunRequest{App: "bfs", TimeoutMS: -1})
	for _, r := range seeds {
		doc, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, doc := range []string{``, `{`, `[]`, `null`, `{"app":"bfs"} {"app":"kmeans"}`, `{"app":"bfs","cpl":"yes"}`} {
		f.Add([]byte(doc))
	}

	sess := testSession()
	sess.SetRunFunc(func(context.Context, harness.RunOptions) (*harness.Result, error) {
		return &harness.Result{}, nil
	})
	srv := New(Config{Session: sess})
	f.Cleanup(func() { srv.Drain(context.Background()) })
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("accepted %q: reply %q: %v", body, rec.Body.Bytes(), err)
			}
			srv.mu.Lock()
			j := srv.jobs[st.ID]
			srv.mu.Unlock()
			if j == nil {
				t.Fatalf("accepted %q as %s, which the server does not know", body, st.ID)
			}
			if _, err := j.req.System().Key(); err != nil {
				t.Fatalf("accepted %q: design point has no key: %v", body, err)
			}
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("body %q: status %d (%s), want 202 or a 4xx", body, rec.Code, rec.Body.Bytes())
		}
	})
}
