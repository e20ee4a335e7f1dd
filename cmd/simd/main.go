// Command simd serves the simulator over HTTP: sweep/figure requests
// in the JSON experiment vocabulary are scheduled as deduplicated
// simrun plans on a bounded job queue sharing one content-addressed
// result store, so repeated and overlapping requests simulate each
// unique point at most once — across requests and across restarts.
//
// Usage:
//
//	simd [-addr :8080] [-cache results/cache] [-queue 16]
//	     [-job-workers 1] [-sim-workers 0] [-job-timeout 15m]
//	     [-drain-timeout 30s] [-max-points 20000] [-max-cycles 10000000]
//	     [-coordinator http://host:port] [-worker-name name]
//
// With -coordinator set, simd additionally runs as a fleet worker: it
// registers with the simfleet coordinator at that URL, pulls chunked
// unit leases (one held call at a time: the coordinator answers when
// it has units), executes them against the coordinator's shared store
// (so a fleet-wide warm key never re-simulates) with the networks it
// has built kept between leases, heartbeats while executing, and
// exposes simd_worker_* counters on its own /metrics.
// The local HTTP service keeps working unchanged alongside.
//
// The service is hardened for production-style operation: admission
// control with backpressure (bounded queue -> 429 + Retry-After),
// per-job timeouts, request body and budget caps, structured JSON
// request logs on stderr, /healthz and Prometheus-format /metrics,
// and graceful SIGINT/SIGTERM shutdown that drains in-flight jobs
// (flushing every completed point to the cache) before exiting 0.
//
// Quickstart:
//
//	simd -addr :8080 &
//	curl -X POST localhost:8080/v1/run \
//	     -d '{"figures":["fig16a"],"budget":{"preset":"quick"}}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minsim/internal/fleet"
	"minsim/internal/server"
	"minsim/internal/simrun"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		cacheDir     = flag.String("cache", simrun.DefaultCacheDir, "content-addressed result cache directory")
		queueDepth   = flag.Int("queue", 16, "bounded job queue depth (full queue rejects with 429)")
		jobWorkers   = flag.Int("job-workers", 1, "jobs executing concurrently")
		simWorkers   = flag.Int("sim-workers", 0, "concurrent simulations per job (0 = GOMAXPROCS)")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-job wall-clock timeout")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
		retryAfter   = flag.Duration("retry-after", 5*time.Second, "Retry-After hint on 429 responses")
		maxPoints    = flag.Int("max-points", 20000, "max requested load points per job")
		maxCycles    = flag.Int64("max-cycles", 10_000_000, "max warmup+measure cycles per point")
		coordinator  = flag.String("coordinator", "", "fleet coordinator base URL; empty = no fleet worker")
		workerName   = flag.String("worker-name", "", "worker name in coordinator metrics (default: assigned id)")
	)
	flag.Parse()

	store, err := simrun.NewStore(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	}

	var worker *fleet.Worker
	if *coordinator != "" {
		worker, err = fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: *coordinator,
			Name:        *workerName,
			SimWorkers:  *simWorkers,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd: %v\n", err)
			return 1
		}
	}

	srv, err := server.New(server.Config{
		Store:        store,
		QueueDepth:   *queueDepth,
		JobWorkers:   *jobWorkers,
		SimWorkers:   *simWorkers,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drainTimeout,
		RetryAfter:   *retryAfter,
		MaxPoints:    *maxPoints,
		MaxCycles:    *maxCycles,
		LogWriter:    os.Stderr,
		FleetWorker:  worker,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	}

	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	workerDone := make(chan struct{})
	if worker != nil {
		go func() {
			defer close(workerDone)
			worker.Run(workerCtx)
		}()
		fmt.Fprintf(os.Stderr, "simd: fleet worker leasing from %s\n", *coordinator)
	} else {
		close(workerDone)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// No WriteTimeout: synchronous /v1/run responses legitimately
		// take as long as the job; the per-job timeout bounds them.
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simd: serving on %s (cache %s, queue %d)\n", *addr, store.Dir(), *queueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "simd: %v received, draining (up to %v)\n", s, *drainTimeout)
	}

	// Drain jobs first (stops admission, cancels queued work, lets
	// running jobs finish inside the drain window), then close HTTP so
	// synchronous requests waiting on those jobs get their responses.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+10*time.Second)
	defer cancel()
	// The fleet worker stops first: an abandoned lease simply expires
	// at the coordinator and its units requeue to surviving workers.
	stopWorker()
	<-workerDone
	srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "simd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "simd: drained, exiting")
	return 0
}
