// Command chipmunkd serves Chipmunk compilation as a service: an HTTP job
// API over a bounded work queue and worker pool, backed by the
// content-addressed solution cache so canonically identical programs
// compile once and every repeat request returns instantly.
//
// Usage:
//
//	chipmunkd [-listen :8926] [-workers N] [-queue 64] [-job-timeout 2m]
//	          [-job-parallelism 1] [-cache-size 1024]
//	          [-cache-path chipmunk.cache.json]
//	          [-trace-dir DIR] [-slow-job 30s]
//	          [-log-level info] [-log-format text]
//
// -job-parallelism caps a request's "seed_fanout", the seed slots its
// compile hedges each depth across (1 = always sequential). Startup fails
// when workers x job-parallelism would oversubscribe GOMAXPROCS by more
// than 2x.
//
// Observability: every job runs under its own tracer with a bounded
// flight recorder; with -trace-dir, jobs that time out or fail leave a
// JSONL dump of their last moments in <trace-dir>/<job-id>/flight.jsonl,
// and jobs running longer than -slow-job leave a CPU profile alongside.
// Logs are structured (log/slog) and carry job_id and fingerprint fields
// that join log lines, flight dumps, and the SSE event streams.
//
// Endpoints:
//
//	POST /compile            submit a job: {"name":..., "source":...,
//	                         "width":..., "alu":..., "wait":true}. With
//	                         "wait" the response is the finished job;
//	                         without, poll GET /jobs/{id}.
//	GET  /jobs/{id}          job status and result.
//	GET  /jobs/{id}/events   live progress stream (Server-Sent Events);
//	                         `chipmunk -remote ... -watch` renders it.
//	GET  /healthz            liveness (503 while draining) with a JSON
//	                         body: drain state, queue depth, inflight,
//	                         uptime, job counters.
//	GET  /metrics            JSON metrics snapshot; Prometheus text
//	                         format when Accept asks for text/plain.
//	GET  /metrics/prom       Prometheus text format unconditionally.
//
// SIGINT/SIGTERM triggers a graceful drain: in-flight jobs complete,
// queued jobs are rejected, the listener closes, and (with -cache-path)
// the solution cache is persisted for the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/server"
	"repro/internal/solcache"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chipmunkd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen     = flag.String("listen", ":8926", "HTTP listen address")
		workers    = flag.Int("workers", 0, "concurrent compile workers (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "bounded job queue depth; a full queue returns 429")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "per-job compile timeout")
		jobPar     = flag.Int("job-parallelism", 1, "max seed fanout (hedge slots per depth) a request may ask for (1 = sequential)")
		cacheSize  = flag.Int("cache-size", solcache.DefaultCapacity, "solution-cache capacity (entries)")
		cachePath  = flag.String("cache-path", "", "persist the solution cache to this JSON file across restarts")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long a graceful shutdown waits for in-flight jobs")
		traceDir   = flag.String("trace-dir", "", "write per-job postmortem artifacts (flight-recorder dumps, slow-job CPU profiles) under this directory")
		slowJob    = flag.Duration("slow-job", 30*time.Second, "capture a CPU profile for jobs still running after this long (requires -trace-dir; 0 disables)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "log encoding: text or json")
		perfPath   = flag.String("perf-history", "",
			"append a per-phase compile profile for every job to this JSONL performance history")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	var copts []solcache.Option
	if *cachePath != "" {
		copts = append(copts, solcache.WithPersistPath(*cachePath))
	}
	cache := solcache.New(*cacheSize, copts...)

	var hist *perfhist.Store
	if *perfPath != "" {
		hist, err = perfhist.Open(*perfPath, "chipmunkd")
		if err != nil {
			return fmt.Errorf("perf history: %w", err)
		}
		defer hist.Close()
	}

	reg := obs.NewRegistry()
	cfg := server.Config{
		History:          hist,
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		JobTimeout:       *jobTimeout,
		JobParallelism:   *jobPar,
		Cache:            cache,
		Metrics:          reg,
		TraceDir:         *traceDir,
		SlowJobThreshold: *slowJob,
		Logger:           logger,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	svc := server.New(cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	logger.Info("listening", "addr", ln.Addr().String(), "workers", *workers,
		"queue", *queueDepth, "job_parallelism", *jobPar, "cache_size", *cacheSize,
		"trace_dir", *traceDir)
	if cache.Len() > 0 {
		logger.Info("loaded cached solutions", "entries", cache.Len(), "path", *cachePath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining: in-flight jobs complete, queued jobs rejected")
	dctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	// Drain the scheduler first so wait-mode requests unblock, then close
	// the listener and remaining HTTP handlers.
	if err := svc.Shutdown(dctx); err != nil {
		logger.Warn("drain grace expired; in-flight jobs cancelled")
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if *cachePath != "" {
		if err := cache.Save(); err != nil {
			return fmt.Errorf("saving cache: %w", err)
		}
		logger.Info("persisted solution cache", "entries", cache.Len(), "path", *cachePath)
	}
	logger.Info("bye")
	return nil
}

// newLogger builds the daemon's slog logger from the -log-level and
// -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}
