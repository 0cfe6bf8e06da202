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
	"log/slog"
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
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (default: NumCPU)")
	queue := flag.Int("queue", 64, "admission queue depth")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	seed := flag.Int64("seed", workloads.DefaultParams().Seed, "workload seed")
	sms := flag.Int("sms", 0, "override simulated SM count (0 = architecture default)")
	small := flag.Bool("small", false, "use the reduced Small architecture instead of GTX480")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (empty = memory only)")
	drainWait := flag.Duration("drain", 2*time.Minute, "graceful-drain deadline on SIGTERM")
	logFormat := flag.String("log-format", "text", "request log format: text or json")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "cawaserve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
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
			os.Exit(1)
		}
		sess.Disk = disk
		logger.Info("disk cache attached", slog.String("dir", *cacheDir), slog.Int("entries", disk.Len()))
	}

	srv := serve.New(serve.Config{
		Session:        sess,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		Logger:         logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	errs := make(chan error, 1)
	go func() { errs <- httpSrv.ListenAndServe() }()
	logger.Info("serving",
		slog.String("arch", cfg.Name),
		slog.String("addr", *addr),
		slog.Int("workers", sess.Workers()),
		slog.Int("queue", *queue),
		slog.Float64("scale", params.Scale),
		slog.Int64("seed", params.Seed))

	select {
	case sig := <-sigs:
		logger.Info("draining", slog.String("signal", sig.String()), slog.Duration("deadline", *drainWait))
	case err := <-errs:
		logger.Error("listen", slog.String("error", err.Error()))
		os.Exit(1)
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
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
