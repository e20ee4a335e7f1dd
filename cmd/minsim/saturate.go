package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
)

// saturate executes one `minsim saturate` command line: one
// simrun.FindSaturation call bisects the maximum sustainable offered
// load of each paper network (experiments.PaperSpecs) under each
// standard pattern (experiments.StandardWorkloads), plus -adversarial
// and -bursty columns — the paper's results at a glance. Every probe is
// a keyed point, so -cache DIR shares minsim figures' store; a
// stderr line counts the probes.
func saturate(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("saturate", flag.ContinueOnError)
	var (
		b           = addBudgetFlags(fs, " per probe", 1995)
		cacheDir    = addCacheFlag(fs)
		tol         = fs.Float64("tol", 0.02, "load bisection resolution")
		adversarial = fs.Bool("adversarial", false, "add a worst-case-permutation column (hill-climb search per network)")
		advIters    = fs.Int("adviters", 0, "adversarial search iterations (0 = default)")
		bursty      = fs.Bool("bursty", false, "add bursty-arrival columns (uniform pattern under MMPP and on-off)")
	)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if err := b.check(); err != nil {
		return err
	}

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
				Net: n.Spec, Work: p.Work, Warmup: b.warmup, Measure: b.measure, Seed: simrun.DeriveSeed(b.seed, 0),
			})
		}
	}
	opts, err := withStore(simrun.Options{}, *cacheDir)
	if err != nil {
		return err
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	res, c, err := simrun.FindSaturation(ctx, cells, 0.02, 1.0, *tol, opts)
	fmt.Fprintf(stderr, "saturate: %d probes requested, %d unique: %d cached, %d executed, %d failed\n",
		c.Requested, c.Unique, c.Cached, c.Executed, c.Failed)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "maximum sustainable offered load (flits/node/cycle), bisected")
	fmt.Fprintf(w, "%-16s", "")
	for _, p := range patterns {
		fmt.Fprintf(w, " %-12s", p.Name)
	}
	fmt.Fprintln(w)
	for i, n := range networks {
		fmt.Fprintf(w, "%-16s", n.Name)
		for _, r := range res[i*len(patterns) : (i+1)*len(patterns)] {
			if r.Err != nil {
				fmt.Fprintf(w, " %-12s", "err")
				continue
			}
			fmt.Fprintf(w, " %-12.3f", r.Load)
		}
		fmt.Fprintln(w)
	}
	return nil
}
