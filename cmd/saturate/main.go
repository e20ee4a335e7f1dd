// Command saturate bisects the maximum sustainable offered load for
// each network family under each traffic pattern and prints the
// resulting matrix — the paper's results at a glance, computed with
// one simrun.FindSaturation call rather than a fixed load grid. The
// rows and columns come from the shared spec tables
// (experiments.PaperSpecs, experiments.StandardWorkloads). Every probe
// is a keyed point, so -cache DIR shares the figures tool's store; a
// stderr line reports how many probes ran.
//
// Usage:
//
//	saturate                       # networks x patterns matrix
//	saturate -measure 120000       # higher fidelity
//	saturate -adversarial          # + worst-case permutation column
//	saturate -bursty               # + MMPP and on-off arrival columns
//	saturate -cache results/cache  # reuse and extend the result cache
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
)

func main() {
	var (
		warmup      = flag.Int64("warmup", 20000, "warmup cycles per probe")
		measure     = flag.Int64("measure", 60000, "measurement cycles per probe")
		seed        = flag.Uint64("seed", 1995, "random seed")
		tol         = flag.Float64("tol", 0.02, "load bisection resolution")
		adversarial = flag.Bool("adversarial", false, "add a worst-case-permutation column (hill-climb search per network)")
		advIters    = flag.Int("adviters", 0, "adversarial search iterations (0 = default)")
		bursty      = flag.Bool("bursty", false, "add bursty-arrival columns (uniform pattern under MMPP and on-off)")
		cacheDir    = flag.String("cache", "", "content-addressed result cache directory (empty = no cache)")
	)
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	networks := experiments.PaperSpecs()
	patterns := experiments.StandardWorkloads()
	if *adversarial {
		patterns = append(patterns, experiments.NamedWorkload{
			Name: "adversarial",
			Work: experiments.WorkloadSpec{Cluster: experiments.Global, Pattern: experiments.PatternSpec{Kind: experiments.Adversarial, AdvIters: *advIters}},
		})
	}
	if *bursty {
		uniform := experiments.PatternSpec{Kind: experiments.Uniform}
		patterns = append(patterns,
			experiments.NamedWorkload{Name: "uni-mmpp", Work: experiments.WorkloadSpec{Pattern: uniform, Arrival: experiments.BurstyMMPP}},
			experiments.NamedWorkload{Name: "uni-onoff", Work: experiments.WorkloadSpec{Pattern: uniform, Arrival: experiments.BurstyOnOff}},
		)
	}

	// A probe's seed is the first point's of a one-load sweep, so a
	// probe and that point share a key.
	var cells []simrun.RunSpec
	for _, n := range networks {
		for _, p := range patterns {
			cells = append(cells, simrun.RunSpec{
				Net: n.Spec, Work: p.Work, Warmup: *warmup, Measure: *measure, Seed: simrun.DeriveSeed(*seed, 0),
			})
		}
	}
	opts := simrun.Options{}
	if *cacheDir != "" {
		store, err := simrun.NewStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opts.Store = store
	}
	res, c, err := simrun.FindSaturation(ctx, cells, 0.02, 1.0, *tol, opts)
	fmt.Fprintf(os.Stderr, "saturate: %d probes requested, %d unique: %d cached, %d executed, %d failed\n",
		c.Requested, c.Unique, c.Cached, c.Executed, c.Failed)
	if err != nil {
		fatal(err)
	}

	fmt.Println("maximum sustainable offered load (flits/node/cycle), bisected")
	fmt.Printf("%-16s", "")
	for _, p := range patterns {
		fmt.Printf(" %-12s", p.Name)
	}
	fmt.Println()
	for i, n := range networks {
		fmt.Printf("%-16s", n.Name)
		for _, r := range res[i*len(patterns) : (i+1)*len(patterns)] {
			if r.Err != nil {
				fmt.Printf(" %-12s", "err")
				continue
			}
			fmt.Printf(" %-12.3f", r.Load)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "saturate: %v\n", err)
	os.Exit(1)
}
