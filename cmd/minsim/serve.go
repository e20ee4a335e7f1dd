package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minsim/internal/fleet"
	"minsim/internal/server"
	"minsim/internal/simrun"
)

// serve executes one `minsim serve` command line: the HTTP service of
// internal/server, and with -coordinator also a fleet worker that
// leases units from that `minsim coordinate`.
func serve(args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	sf := addServeFlags(fs, "content-addressed result cache directory")
	var (
		simWorkers  = fs.Int("sim-workers", 0, "concurrent simulations per job (0 = GOMAXPROCS)")
		coordinator = fs.String("coordinator", "", "fleet coordinator base URL; empty = no fleet worker")
		workerName  = fs.String("worker-name", "", "worker name in coordinator metrics (default: assigned id)")
	)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	sf.cfg.SimWorkers = *simWorkers
	return sf.run(fs.Name(), stderr, func(cfg *server.Config) (err error) {
		if *coordinator != "" {
			cfg.FleetWorker, err = fleet.NewWorker(fleet.WorkerConfig{Coordinator: *coordinator, Name: *workerName, SimWorkers: *simWorkers})
			fmt.Fprintf(stderr, "minsim serve: fleet worker leasing from %s\n", *coordinator)
		}
		return err
	})
}

// coordinate executes one `minsim coordinate` command line: the fleet
// coordinator of internal/fleet, whose jobs run on registered workers.
func coordinate(args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("coordinate", flag.ContinueOnError)
	sf := addServeFlags(fs, "fleet-wide content-addressed result cache directory")
	var (
		chunk       = fs.Int("chunk", 4, "max work units per lease")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "lease lifetime without a heartbeat")
		maxAttempts = fs.Int("max-attempts", 3, "lease attempts per unit before it fails")
	)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	return sf.run(fs.Name(), stderr, func(cfg *server.Config) (err error) {
		cfg.Fleet, err = fleet.NewCoordinator(fleet.Config{Store: cfg.Store, ChunkSize: *chunk, LeaseTTL: *leaseTTL, MaxAttempts: *maxAttempts})
		fmt.Fprintf(stderr, "minsim coordinate: coordinating (chunk %d, lease %v)\n", *chunk, *leaseTTL)
		return err
	})
}

// serveFlags holds the nine flags serve and coordinate share.
type serveFlags struct {
	addr, cache string
	cfg         server.Config
}

// addServeFlags registers -addr, -cache (cacheUsage), -queue, -job-workers,
// -job-timeout, -drain-timeout, -retry-after, -max-points and -max-cycles.
func addServeFlags(fs *flag.FlagSet, cacheUsage string) *serveFlags {
	f := new(serveFlags)
	fs.StringVar(&f.addr, "addr", ":8080", "listen address")
	fs.StringVar(&f.cache, "cache", simrun.DefaultCacheDir, cacheUsage)
	fs.IntVar(&f.cfg.QueueDepth, "queue", 16, "bounded job queue depth (full queue rejects with 429)")
	fs.IntVar(&f.cfg.JobWorkers, "job-workers", 1, "jobs executing concurrently")
	fs.DurationVar(&f.cfg.JobTimeout, "job-timeout", 15*time.Minute, "per-job wall-clock timeout")
	fs.DurationVar(&f.cfg.DrainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
	fs.DurationVar(&f.cfg.RetryAfter, "retry-after", 5*time.Second, "Retry-After hint on 429 responses")
	fs.IntVar(&f.cfg.MaxPoints, "max-points", 20000, "max requested load points per job")
	fs.Int64Var(&f.cfg.MaxCycles, "max-cycles", 10_000_000, "max warmup+measure cycles per point")
	return f
}

// run opens the -cache store, lets setup add the command's part to the
// configuration, builds the server and serves it on -addr until SIGINT
// or SIGTERM, then drains it (server.Server.Serve), reporting on stderr
// as "minsim <name>".
func (f *serveFlags) run(name string, stderr io.Writer, setup func(*server.Config) error) error {
	store, err := simrun.NewStore(f.cache)
	if err != nil {
		return err
	}
	cfg := f.cfg
	cfg.Store, cfg.LogWriter = store, stderr
	if err := setup(&cfg); err != nil {
		return err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "minsim %s: serving on %s (cache %s, queue %d)\n", name, ln.Addr(), store.Dir(), cfg.QueueDepth)
	defer context.AfterFunc(ctx, func() {
		fmt.Fprintf(stderr, "minsim %s: signal received, draining (up to %v)\n", name, cfg.DrainTimeout)
	})()
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "minsim %s: drained, exiting\n", name)
	return nil
}
