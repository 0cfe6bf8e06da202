// Command cawaserve exposes the CAWA simulator as a long-running HTTP
// service: submit (application, design point) jobs, poll for results,
// scrape /metrics, and reuse previous campaigns through the persistent
// disk cache. SIGINT/SIGTERM drains gracefully — admission stops,
// in-flight simulations finish (or are cancelled at the drain
// deadline), then the process exits.
//
// The process emits a structured request log via log/slog: one line
// per HTTP exchange plus one per job lifecycle transition, each
// carrying the request id (client X-Request-ID or server-minted),
// job id, app, design point, outcome and queue/run durations.
// -log-format json switches from the human text handler to JSON for
// log shippers.
//
// Usage:
//
//	cawaserve -addr :8080 -cache-dir /var/cache/cawa -scale 0.25
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cawa/internal/config"
	"cawa/internal/harness"
	"cawa/internal/serve"
	"cawa/internal/workloads"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stderr, sigs, nil))
}

// run is the testable entry point: it parses args, serves until stop
// delivers a signal, drains, and returns the process exit code (0 after
// a clean drain, 1 when the service cannot start or the drain is cut
// short, 2 on usage errors). The request log goes to stderr. listening,
// when non-nil, is told the bound address once the listener is open,
// which is how a caller of -addr 127.0.0.1:0 learns the port.
func run(args []string, stderr io.Writer, stop <-chan os.Signal, listening func(addr string)) int {
	fl := flag.NewFlagSet("cawaserve", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		addr      = fl.String("addr", ":8080", "listen address")
		workers   = fl.Int("workers", 0, "concurrent simulations (default: NumCPU)")
		queue     = fl.Int("queue", 64, "admission queue depth")
		timeout   = fl.Duration("timeout", 0, "default per-job deadline (0 = none)")
		scale     = fl.Float64("scale", 1.0, "workload scale factor")
		seed      = fl.Int64("seed", workloads.DefaultParams().Seed, "workload seed")
		sms       = fl.Int("sms", 0, "override simulated SM count (0 = architecture default)")
		small     = fl.Bool("small", false, "use the reduced Small architecture instead of GTX480")
		cacheDir  = fl.String("cache-dir", "", "persistent result-cache directory (empty = memory only)")
		drainWait = fl.Duration("drain", 2*time.Minute, "graceful-drain deadline on SIGTERM")
		logFormat = fl.String("log-format", "text", "request log format: text or json")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(stderr, nil)
	default:
		fmt.Fprintf(stderr, "cawaserve: unknown -log-format %q (want text or json)\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	cfg := config.GTX480()
	if *small {
		cfg = config.Small()
	}
	if *sms > 0 {
		cfg.NumSMs = *sms
	}
	params := workloads.Params{Scale: *scale, Seed: *seed}

	sess := harness.NewSession(cfg, params)
	if *workers > 0 {
		sess.SetWorkers(*workers)
	}
	if *cacheDir != "" {
		disk, err := harness.OpenDiskCache(*cacheDir)
		if err != nil {
			logger.Error("open disk cache", slog.String("dir", *cacheDir), slog.String("error", err.Error()))
			return 1
		}
		sess.Disk = disk
		logger.Info("disk cache attached", slog.String("dir", *cacheDir), slog.Int("entries", disk.Len()))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", slog.String("error", err.Error()))
		return 1
	}
	srv := serve.New(serve.Config{
		Session:        sess,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		Logger:         logger,
	})
	httpSrv := &http.Server{Handler: srv.Handler()}
	errs := make(chan error, 1)
	go func() { errs <- httpSrv.Serve(ln) }()
	logger.Info("serving",
		slog.String("arch", cfg.Name),
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", sess.Workers()),
		slog.Int("queue", *queue),
		slog.Float64("scale", params.Scale),
		slog.Int64("seed", params.Seed))
	if listening != nil {
		listening(ln.Addr().String())
	}

	select {
	case sig := <-stop:
		logger.Info("draining", slog.String("signal", sig.String()), slog.Duration("deadline", *drainWait))
	case err := <-errs:
		logger.Error("serve", slog.String("error", err.Error()))
		return 1
	}

	// Stop admission first so the health check flips and load balancers
	// route away, then close the listener, then drain the workers.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	if err := srv.Drain(ctx); err != nil {
		logger.Error("drain cut short", slog.String("error", err.Error()))
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}
