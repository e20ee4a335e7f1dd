// Command simfleet is the fleet coordinator: a simd front door whose
// jobs execute on registered remote workers instead of in-process.
// It accepts the same sweep/figure requests as simd, decomposes each
// job's plan into content-key work units, and leases them in chunks
// to workers that call /fleet/v1/lease — a call the coordinator holds
// while it has nothing to grant, so a queued unit wakes an idle
// worker instead of waiting for its next poll — with heartbeat-based
// lease expiry and requeue on worker loss. The content-addressed result
// store lives here and is served to the whole fleet over
// /fleet/v1/store/{key}, so a key warm anywhere executes nowhere.
//
// Usage:
//
//	simfleet [-addr :8080] [-cache results/cache] [-chunk 4]
//	         [-lease-ttl 10s] [-max-attempts 3] [-queue 16]
//	         [-job-workers 1] [-job-timeout 15m] [-drain-timeout 30s]
//
// Quickstart (one coordinator, two workers):
//
//	simfleet -addr :18090 &
//	simd -addr :18091 -coordinator http://127.0.0.1:18090 &
//	simd -addr :18092 -coordinator http://127.0.0.1:18090 &
//	curl -X POST localhost:18090/v1/run \
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
		cacheDir     = flag.String("cache", simrun.DefaultCacheDir, "fleet-wide content-addressed result cache directory")
		chunk        = flag.Int("chunk", 4, "max work units per lease")
		leaseTTL     = flag.Duration("lease-ttl", 10*time.Second, "lease lifetime without a heartbeat")
		maxAttempts  = flag.Int("max-attempts", 3, "lease attempts per unit before it fails")
		queueDepth   = flag.Int("queue", 16, "bounded job queue depth (full queue rejects with 429)")
		jobWorkers   = flag.Int("job-workers", 1, "jobs executing concurrently")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-job wall-clock timeout")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
		retryAfter   = flag.Duration("retry-after", 5*time.Second, "Retry-After hint on 429 responses")
		maxPoints    = flag.Int("max-points", 20000, "max requested load points per job")
		maxCycles    = flag.Int64("max-cycles", 10_000_000, "max warmup+measure cycles per point")
	)
	flag.Parse()

	store, err := simrun.NewStore(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfleet: %v\n", err)
		return 1
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Store:       store,
		ChunkSize:   *chunk,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfleet: %v\n", err)
		return 1
	}
	srv, err := server.New(server.Config{
		Store:        store,
		QueueDepth:   *queueDepth,
		JobWorkers:   *jobWorkers,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drainTimeout,
		RetryAfter:   *retryAfter,
		MaxPoints:    *maxPoints,
		MaxCycles:    *maxCycles,
		LogWriter:    os.Stderr,
		Fleet:        coord,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfleet: %v\n", err)
		return 1
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
	fmt.Fprintf(os.Stderr, "simfleet: coordinating on %s (cache %s, chunk %d, lease %v)\n",
		*addr, store.Dir(), *chunk, *leaseTTL)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "simfleet: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "simfleet: %v received, draining (up to %v)\n", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "simfleet: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "simfleet: drained, exiting")
	return 0
}
