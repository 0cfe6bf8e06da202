package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cawa"
	"cawa/internal/serve"
)

// serveKeys are the service workloads' distinct requests: 12 apps x
// {lrr, gto, gcaws+cpl+cacp}.
func (r *run) serveKeys() []serve.RunRequest {
	var keys []serve.RunRequest
	for _, app := range r.paperApps() {
		keys = append(keys,
			serve.RunRequest{App: app, Scheduler: "lrr"},
			serve.RunRequest{App: app, Scheduler: "gto"},
			serve.RunRequest{App: app, Scheduler: "gcaws", CPL: true, CACP: true})
	}
	return keys
}

// rig is one service instance: a session over a disk cache, the server
// built by serve.New, and its Handler behind an httptest listener.
type rig struct {
	sess *cawa.Session
	srv  *serve.Server
	ts   *httptest.Server
}

func (r *run) newRig(dir string, traced bool) (*rig, error) {
	sess, err := r.sweepSession(dir, traced)
	if err != nil {
		return nil, err
	}
	// The queue must hold a whole closed-loop pass; with at most
	// r.clients requests in flight the default depth already does.
	srv := serve.New(serve.Config{Session: sess})
	ts := httptest.NewServer(srv.Handler())
	if tr, ok := ts.Client().Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = r.clients // one kept-alive connection per closed-loop client
	}
	return &rig{sess: sess, srv: srv, ts: ts}, nil
}

func (g *rig) close() {
	g.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g.srv.Drain(ctx) //nolint:errcheck // nothing is in flight once the closed loop has returned
}

// response is one answered request.
type response struct {
	key       int
	ms        float64 // host time from send to the last body byte
	body      []byte  // kept only when the caller asked for bodies
	size      int
	queueMS   float64 // async (traced) requests only
	runMS     float64
	succeeded bool
}

// fire sends order (indices into keys) through the service from
// r.clients closed-loop clients: each sends its next request only after
// the previous reply arrived. Untraced requests are synchronous POST
// /v1/run; traced ones submit to /v1/jobs, poll /v1/jobs/{id} for the
// server's own queue/run timeline, then fetch the result.
func (r *run) fire(g *rig, keys []serve.RunRequest, order []int, keepBodies, traced bool) ([]response, time.Duration) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i], _ = json.Marshal(k)
	}
	out := make([]response, len(order))
	jobBase := r.job
	r.job += len(order)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			client := g.ts.Client()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				key := order[i]
				sp := r.tr.begin("serve", "request "+keys[key].App+"/"+keys[key].Scheduler, r.root, jobBase+i+1, lane+1)
				resp := response{key: key}
				t := time.Now()
				var body []byte
				var err error
				if traced {
					body, err = resp.async(client, g.ts.URL, bodies[key])
				} else {
					body, err = post(client, g.ts.URL+"/v1/run", bodies[key], http.StatusOK)
				}
				resp.ms = ms(time.Since(t))
				sp.end()
				resp.succeeded = err == nil
				resp.size = len(body)
				if keepBodies {
					resp.body = body
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "cawaperf: request %s/%s: %v\n", keys[key].App, keys[key].Scheduler, err)
				}
				out[i] = resp
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

func post(c *http.Client, url string, body []byte, want int) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func get(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// async drives one request through the job API and records the
// server-side queue and run durations from the job's timeline.
func (resp *response) async(c *http.Client, base string, body []byte) ([]byte, error) {
	data, err := post(c, base+"/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		time.Sleep(time.Millisecond)
		data, _, err := get(c, base+"/v1/jobs/"+st.ID)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
	}
	if st.State != serve.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	resp.queueMS, resp.runMS = st.QueueSeconds*1e3, st.RunSeconds*1e3
	data, code, err := get(c, base+"/v1/jobs/"+st.ID+"/result")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: status %d", st.ID, code)
	}
	return data, err
}

// reference holds, per key, what a correct reply looks like.
type reference struct {
	size   []int
	cycles []int64
}

// checkBodies compares every kept body with a direct Session.Run of the
// same key: the served JSON, whitespace aside, must be the marshalled
// Result, and the Result must carry the digest the cell always had.
func (r *run) checkBodies(g *rig, keys []serve.RunRequest, resps []response, ref *reference) {
	for _, resp := range resps {
		if !resp.succeeded || resp.body == nil {
			continue
		}
		k := keys[resp.key]
		direct, err := g.sess.Run(k.App, k.System())
		if err != nil {
			r.fail(1, "direct run %s/%s: %v", k.App, k.Scheduler, err)
			continue
		}
		want, _ := json.Marshal(direct)
		var got bytes.Buffer
		if err := json.Compact(&got, resp.body); err != nil || !bytes.Equal(got.Bytes(), want) {
			r.fail(1, "served bytes of %s/%s differ from the direct run", k.App, k.Scheduler)
			continue
		}
		r.checkDigest(cellKey(g.sess.Config, g.sess.Params, k.App, k.System()), direct)
		ref.size[resp.key] = resp.size
		ref.cycles[resp.key] = direct.Agg.Cycles
	}
}

// tally turns a pass's responses into its statistics, counting every
// request as attempted and every error, non-200 or wrong-sized reply as
// failed.
func (r *run) tally(resps []response, wall time.Duration, ref *reference, traced bool) passStats {
	ps := passStats{wall: wall}
	var queue, runT []float64
	var bytesTotal float64
	r.attempt(len(resps))
	for _, resp := range resps {
		switch {
		case !resp.succeeded:
			r.fail(1, "request for key %d failed", resp.key)
			continue
		case ref.size[resp.key] != 0 && resp.size != ref.size[resp.key]:
			r.fail(1, "reply for key %d is %d bytes, the checked reply was %d", resp.key, resp.size, ref.size[resp.key])
			continue
		}
		ps.jobMS = append(ps.jobMS, resp.ms)
		ps.cycles += ref.cycles[resp.key]
		queue, runT = append(queue, resp.queueMS), append(runT, resp.runMS)
		bytesTotal += float64(resp.size)
	}
	if traced {
		r.layer["serve.queue_ms_p50"] = median(queue)
		r.layer["serve.run_ms_p50"] = median(runT)
		r.layer["serve.resp_kb"] = ratio(bytesTotal/1024, float64(len(ps.jobMS)))
	}
	return ps
}

const hitsPerPass = 2000

// serveWorkload is the service user's job: a job is one HTTP request.
//
//   - miss: every pass builds a fresh service over an empty disk cache
//     and asks for the 36 distinct keys once; every reply is a
//     simulation.
//   - hit: one service, populated during setup; a pass is hitsPerPass
//     requests over the 36 keys in a seeded shuffle, all answered from
//     the session cache.
//   - restart: every pass builds a fresh service over the directory
//     populated during setup and asks for the 36 keys once; every reply
//     is a disk-cache read.
func serveWorkload(kind string) func(r *run) (passFunc, func(), error) {
	return func(r *run) (passFunc, func(), error) {
		base, err := os.MkdirTemp("", "cawaperf-serve-")
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() { os.RemoveAll(base) }
		keys := r.serveKeys()
		rng := rand.New(rand.NewSource(r.seed))
		once := rng.Perm(len(keys))
		ref := &reference{size: make([]int, len(keys)), cycles: make([]int64, len(keys))}

		// populate asks a fresh service over dir for every key once and
		// checks each reply against a direct run.
		n := 0
		populate := func(traced bool) (*rig, passStats, error) {
			n++
			dir := fmt.Sprintf("%s/disk-%d", base, n)
			t0 := time.Now()
			g, err := r.newRig(dir, traced)
			if err != nil {
				return nil, passStats{}, err
			}
			resps, _ := r.fire(g, keys, once, true, traced)
			wall := time.Since(t0)
			r.checkBodies(g, keys, resps, ref)
			return g, r.tally(resps, wall, ref, traced), nil
		}

		if kind == "miss" {
			pass := func(traced bool) (passStats, error) {
				g, ps, err := populate(traced)
				if err != nil {
					return ps, err
				}
				if traced {
					r.observeServed(g, keys)
					r.observeSession(g.sess, ps.wall)
				}
				g.close()
				os.RemoveAll(fmt.Sprintf("%s/disk-%d", base, n))
				return ps, nil
			}
			_, err := pass(false)
			return pass, cleanup, err
		}

		g, _, err := populate(false)
		if err != nil {
			return nil, cleanup, err
		}
		dir := base + "/disk-1"

		if kind == "hit" {
			cleanup = func() { g.close(); os.RemoveAll(base) }
			pass := func(traced bool) (passStats, error) {
				order := make([]int, hitsPerPass)
				if r.smoke {
					order = order[:200]
				}
				for i := range order {
					order[i] = rng.Intn(len(keys))
				}
				var before, after runtime.MemStats
				if traced {
					runtime.ReadMemStats(&before)
				}
				resps, wall := r.fire(g, keys, order, false, traced)
				ps := r.tally(resps, wall, ref, traced)
				if traced {
					runtime.ReadMemStats(&after)
					// Client and server share the process; this is their sum.
					r.layer["serve.alloc_kb_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(order))
				}
				return ps, nil
			}
			_, err := pass(false)
			return pass, cleanup, err
		}

		// restart
		g.close()
		verify := true // disk-loaded results are digest-checked on the warm-up pass only
		pass := func(traced bool) (passStats, error) {
			t0 := time.Now()
			g, err := r.newRig(dir, traced)
			if err != nil {
				return passStats{}, err
			}
			defer g.close()
			resps, _ := r.fire(g, keys, once, verify, traced)
			wall := time.Since(t0)
			if verify {
				r.checkBodies(g, keys, resps, ref)
				verify = false
			}
			ps := r.tally(resps, wall, ref, traced)
			if hits, sims := g.sess.DiskHits(), len(g.sess.Timings()); int(hits) != len(keys) || sims != 0 {
				r.fail(1, "restart pass simulated: %d disk hits, %d simulations (want %d, 0)", hits, sims, len(keys))
			}
			if traced {
				r.observeSession(g.sess, wall)
			}
			return ps, nil
		}
		_, err = pass(false)
		return pass, cleanup, err
	}
}

// observeServed folds the simulated statistics of the miss pass's 36
// results into the engine observations (they are memory-warm by now).
func (r *run) observeServed(g *rig, keys []serve.RunRequest) {
	for _, k := range keys {
		if res, err := g.sess.Run(k.App, k.System()); err == nil {
			r.obs.addResult(res, g.sess.Config.NumSMs)
		}
	}
}
