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
// simfleet -h lists the flags; the nine it shares with simd, and the
// drain on SIGINT or SIGTERM, are simd's too.
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
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"minsim/internal/cli"
	"minsim/internal/fleet"
	"minsim/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run executes one simfleet command line (without the program name),
// reporting on stderr, and returns the exit code.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("simfleet", flag.ContinueOnError)
	serve := cli.AddServeFlags(fs, "fleet-wide content-addressed result cache directory")
	var (
		chunk       = fs.Int("chunk", 4, "max work units per lease")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "lease lifetime without a heartbeat")
		maxAttempts = fs.Int("max-attempts", 3, "lease attempts per unit before it fails")
	)
	return serve.Run(args, stderr, func(cfg *server.Config) (err error) {
		cfg.Fleet, err = fleet.NewCoordinator(fleet.Config{Store: cfg.Store, ChunkSize: *chunk, LeaseTTL: *leaseTTL, MaxAttempts: *maxAttempts})
		fmt.Fprintf(stderr, "simfleet: coordinating (chunk %d, lease %v)\n", *chunk, *leaseTTL)
		return err
	})
}
