package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer collects the request log, which the service writes from
// many goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// instance is one cawaserve started through run on a free port.
type instance struct {
	t    *testing.T
	base string
	stop chan os.Signal
	code chan int
	log  *syncBuffer
}

func start(t *testing.T, dir string) *instance {
	t.Helper()
	in := &instance{t: t, stop: make(chan os.Signal, 1), code: make(chan int, 1), log: &syncBuffer{}}
	addr := make(chan string, 1)
	args := []string{"-addr", "127.0.0.1:0", "-small", "-scale", "0.05", "-cache-dir", dir}
	go func() { in.code <- run(args, in.log, in.stop, func(a string) { addr <- a }) }()
	select {
	case a := <-addr:
		in.base = "http://" + a
	case code := <-in.code:
		t.Fatalf("cawaserve exited %d before listening\n%s", code, in.log)
	case <-time.After(30 * time.Second):
		t.Fatalf("cawaserve did not listen\n%s", in.log)
	}
	return in
}

// post sends one synchronous run and returns the reply body.
func (in *instance) post(body string) []byte {
	in.t.Helper()
	resp, err := http.Post(in.base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		in.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		in.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		in.t.Fatalf("POST /v1/run: status %d: %s", resp.StatusCode, data)
	}
	return data
}

// metric returns the /metrics line naming name.
func (in *instance) metric(name string) string {
	in.t.Helper()
	resp, err := http.Get(in.base + "/metrics")
	if err != nil {
		in.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		in.t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	in.t.Fatalf("no %s in /metrics:\n%s", name, data)
	return ""
}

// drain delivers SIGTERM and requires a clean exit.
func (in *instance) drain() {
	in.t.Helper()
	in.stop <- syscall.SIGTERM
	select {
	case code := <-in.code:
		if code != 0 {
			in.t.Fatalf("cawaserve exited %d after SIGTERM\n%s", code, in.log)
		}
	case <-time.After(30 * time.Second):
		in.t.Fatalf("cawaserve did not drain\n%s", in.log)
	}
	if !strings.Contains(in.log.String(), "drained cleanly") {
		in.t.Errorf("no clean-drain line in the log\n%s", in.log)
	}
}

// TestSmokeServeHitAndRestart runs the service end to end: one cell
// posted twice answers the second time from the session cache with the
// same bytes, and after a drain and a restart over the same cache
// directory the disk hit answers with those bytes too.
func TestSmokeServeHitAndRestart(t *testing.T) {
	const cell = `{"app":"bfs","scheduler":"gcaws","cpl":true,"cacp":true}`
	dir := t.TempDir()

	first := start(t, dir)
	miss := first.post(cell)
	hit := first.post(cell)
	if !bytes.Equal(hit, miss) {
		t.Errorf("session hit served %d bytes that differ from the miss's %d", len(hit), len(miss))
	}
	if got := first.metric("cawa_session_cache_hits_total"); got != "cawa_session_cache_hits_total 1" {
		t.Errorf("after two posts: %s, want 1 hit", got)
	}
	first.drain()

	second := start(t, dir)
	disk := second.post(cell)
	if !bytes.Equal(disk, miss) {
		t.Errorf("disk hit after a restart served %d bytes that differ from the first instance's %d", len(disk), len(miss))
	}
	if got := second.metric("cawa_session_disk_hits_total"); got != "cawa_session_disk_hits_total 1" {
		t.Errorf("restarted instance: %s, want 1 disk hit", got)
	}
	if got := second.metric("cawa_session_runs_total"); got != "cawa_session_runs_total 0" {
		t.Errorf("restarted instance: %s, want no simulation", got)
	}
	second.drain()
}

// TestUsage: an unknown flag, an unknown log format or a -scale that
// is not a positive finite number is a usage error.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-log-format", "xml"},
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}} {
		var stderr syncBuffer
		if code := run(args, &stderr, nil, nil); code != 2 {
			t.Errorf("cawaserve %v: exit %d, want 2", args, code)
		}
	}
}
