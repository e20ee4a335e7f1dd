package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
)

// sweep executes one `minsim sweep` command line: an offered-load sweep
// of one network and workload, run as a simrun plan and printed as a
// latency/throughput table or CSV — a figure's curve for a combination
// no panel names. -cpuprofile and -memprofile profile the hot path.
func sweep(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		netFlags   = addNetworkFlags(fs)
		workFlags  = addWorkloadFlags(fs, "")
		b          = addBudgetFlags(fs, "", 1)
		cacheDir   = addCacheFlag(fs)
		from       = fs.Float64("from", 0.05, "first offered load")
		to         = fs.Float64("to", 0.9, "last offered load")
		points     = fs.Int("points", 10, "number of load points")
		replicas   = fs.Int("replicas", 1, "independent replications per load point (>1 adds 95% CI error bars)")
		procs      = fs.Int("procs", 0, "parallel points (0 = GOMAXPROCS)")
		csv        = fs.Bool("csv", false, "emit CSV")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.IntVar(&workFlags.AdvIters, "adviters", 0, "adversarial pattern search iterations (0 = default)")
	fs.StringVar(&workFlags.Arrival, "arrival", "poisson", "arrival process: poisson, mmpp, onoff")
	fs.Float64Var(&workFlags.Burst, "burst", 8, "mmpp high/low rate ratio")
	fs.Float64Var(&workFlags.DwellHi, "dwellhi", 500, "mmpp high-phase / onoff ON mean dwell (cycles)")
	fs.Float64Var(&workFlags.DwellLo, "dwelllo", 2000, "mmpp low-phase / onoff OFF mean dwell (cycles)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if err := b.check(); err != nil {
		return err
	}
	if *replicas < 0 {
		return errors.New("negative replicas")
	}
	if *procs < 0 {
		return errors.New("negative procs")
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()

	spec, _, err := buildNetwork(netFlags)
	if err != nil {
		return err
	}
	work, err := experiments.ParseWorkloadSpec(*workFlags)
	if err != nil {
		return err
	}
	loads, err := experiments.LoadRange(*from, *to, *points)
	if err != nil {
		return err
	}
	opts, err := withStore(simrun.Options{Workers: *procs}, *cacheDir)
	if err != nil {
		return err
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	plan := simrun.NewPlan()
	h := plan.AddSweep(simrun.SweepSpec{
		Net: spec, Work: work, Loads: loads,
		Budget: simrun.Budget{WarmupCycles: b.warmup, MeasureCycles: b.measure, Seed: b.seed, Replicas: *replicas},
	})
	if err := plan.Execute(ctx, opts); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	res, err := h.Points()
	if err != nil {
		return err
	}

	switch {
	case *csv && *replicas > 1:
		fmt.Fprintln(w, "offered,throughput,latency_cycles,latency_ms,messages,sustainable,replicas,latency_ci_lo,latency_ci_hi")
		for _, r := range res {
			fmt.Fprintf(w, "%.4f,%.4f,%.1f,%.3f,%d,%t,%d,%.1f,%.1f\n",
				r.Offered, r.Throughput, r.LatencyCyc, r.LatencyMs, r.Messages, r.Sustainable,
				r.Replicas, r.LatencyCILo, r.LatencyCIHi)
		}
	case *csv:
		fmt.Fprintln(w, "offered,throughput,latency_cycles,latency_ms,messages,sustainable")
		for _, r := range res {
			fmt.Fprintf(w, "%.4f,%.4f,%.1f,%.3f,%d,%t\n",
				r.Offered, r.Throughput, r.LatencyCyc, r.LatencyMs, r.Messages, r.Sustainable)
		}
	case *replicas > 1:
		fmt.Fprintf(w, "%s, %s\n", spec, work)
		fmt.Fprintf(w, "%-10s %-12s %-14s %-22s %-12s %s\n", "offered", "throughput", "latency(cyc)", "95% CI(cyc)", "latency(ms)", "sustainable")
		for _, r := range res {
			fmt.Fprintf(w, "%-10.3f %-12.4f %-14.1f [%8.1f, %8.1f]  %-12.3f %t\n",
				r.Offered, r.Throughput, r.LatencyCyc, r.LatencyCILo, r.LatencyCIHi, r.LatencyMs, r.Sustainable)
		}
	default:
		fmt.Fprintf(w, "%s, %s\n", spec, work)
		fmt.Fprintf(w, "%-10s %-12s %-14s %-12s %s\n", "offered", "throughput", "latency(cyc)", "latency(ms)", "sustainable")
		for _, r := range res {
			fmt.Fprintf(w, "%-10.3f %-12.4f %-14.1f %-12.3f %t\n",
				r.Offered, r.Throughput, r.LatencyCyc, r.LatencyMs, r.Sustainable)
		}
	}
	return nil
}
