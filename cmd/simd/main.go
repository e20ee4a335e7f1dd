// Command simd serves the simulator over HTTP: sweep/figure requests
// in the JSON experiment vocabulary are scheduled as deduplicated
// simrun plans on a bounded job queue sharing one content-addressed
// result store, so repeated and overlapping requests simulate each
// unique point at most once — across requests and across restarts.
// simd -h lists the flags.
//
// With -coordinator set, simd additionally runs as a fleet worker: it
// registers with the simfleet coordinator at that URL, pulls chunked
// unit leases (one held call at a time: the coordinator answers when
// it has units), executes them against the coordinator's shared store
// (so a fleet-wide warm key never re-simulates), heartbeats while
// executing, and exposes simd_worker_* counters on its own /metrics.
// The local HTTP service keeps working unchanged alongside.
//
// The service's hardening (backpressure, timeouts, caps, request logs,
// /healthz, /metrics) is internal/server's. On SIGINT or SIGTERM it
// drains in-flight jobs, flushing every completed point, and exits 0.
//
// Quickstart:
//
//	simd -addr :8080 &
//	curl -X POST localhost:8080/v1/run \
//	     -d '{"figures":["fig16a"],"budget":{"preset":"quick"}}'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"minsim/internal/cli"
	"minsim/internal/fleet"
	"minsim/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run executes one simd command line (without the program name),
// reporting on stderr, and returns the exit code.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	serve := cli.AddServeFlags(fs, "content-addressed result cache directory")
	var (
		simWorkers  = fs.Int("sim-workers", 0, "concurrent simulations per job (0 = GOMAXPROCS)")
		coordinator = fs.String("coordinator", "", "fleet coordinator base URL; empty = no fleet worker")
		workerName  = fs.String("worker-name", "", "worker name in coordinator metrics (default: assigned id)")
	)
	return serve.Run(args, stderr, func(cfg *server.Config) (err error) {
		cfg.SimWorkers = *simWorkers
		if *coordinator == "" {
			return nil
		}
		cfg.FleetWorker, err = fleet.NewWorker(fleet.WorkerConfig{Coordinator: *coordinator, Name: *workerName, SimWorkers: *simWorkers})
		fmt.Fprintf(stderr, "simd: fleet worker leasing from %s\n", *coordinator)
		return err
	})
}
