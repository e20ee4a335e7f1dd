// Package cli holds the flags and serving shell that cmd/simd and
// cmd/simfleet share.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minsim/internal/server"
	"minsim/internal/simrun"
)

// ServeFlags holds the nine flags cmd/simd and cmd/simfleet share: the
// listen address, the result store and the service's queue, timeout
// and budget caps.
type ServeFlags struct {
	fs          *flag.FlagSet
	addr, cache string
	cfg         server.Config
}

// AddServeFlags registers -addr, -cache, -queue, -job-workers,
// -job-timeout, -drain-timeout, -retry-after, -max-points and
// -max-cycles on fs; cacheUsage describes -cache.
func AddServeFlags(fs *flag.FlagSet, cacheUsage string) *ServeFlags {
	f := &ServeFlags{fs: fs}
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

// Run is a service command's life: it parses args into the flag set,
// opens the -cache store, lets setup add the command's part to the
// configuration the flags set, builds the server and serves it on
// -addr until SIGINT or SIGTERM, then drains it (server.Server.Serve).
// It reports on stderr under the flag set's name and returns the exit
// code: 0 after -h or a drain, 2 for a bad command line, 1 otherwise.
func (f *ServeFlags) Run(args []string, stderr io.Writer, setup func(*server.Config) error) int {
	f.fs.SetOutput(stderr)
	if err := f.fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if err := f.serve(f.fs.Name(), stderr, setup); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", f.fs.Name(), err)
		return 1
	}
	fmt.Fprintf(stderr, "%s: drained, exiting\n", f.fs.Name())
	return 0
}

func (f *ServeFlags) serve(name string, stderr io.Writer, setup func(*server.Config) error) error {
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
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s: serving on %s (cache %s, queue %d)\n", name, ln.Addr(), store.Dir(), cfg.QueueDepth)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer context.AfterFunc(ctx, func() {
		fmt.Fprintf(stderr, "%s: signal received, draining (up to %v)\n", name, cfg.DrainTimeout)
	})()
	return srv.Serve(ctx, ln)
}
