// Command sweep runs an offered-load sweep of one network/workload
// combination and prints the latency/throughput curve as a table or
// CSV — the building block of the paper's figures when you want a
// custom combination rather than a predefined panel.
//
// The network and workload flags parse through the same spec
// vocabulary as the JSON experiment schema (experiments.ParseNetworkSpec,
// experiments.ParseWorkloadSpec), and the sweep executes as a simrun
// plan: pass -cache DIR to reuse and extend the same content-addressed
// result cache the figures tool writes.
//
// Usage:
//
//	sweep -net bmin -pattern uniform -from 0.05 -to 0.9 -points 12
//	sweep -net vmin -vcs 4 -pattern hotspot -hotx 0.1 -csv
//	sweep -net tmin -arrival mmpp -burst 8            # bursty arrivals
//	sweep -net tmin -pattern adversarial              # worst-case permutation
//	sweep -net bmin -cpuprofile cpu.out -memprofile mem.out   # profile the hot path
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"minsim/internal/cli"
	"minsim/internal/experiments"
	"minsim/internal/simrun"
)

func main() {
	var (
		netFlags = cli.AddNetworkFlags(flag.CommandLine)

		pattern  = flag.String("pattern", "uniform", "traffic: uniform, hotspot, shuffle, butterfly, adversarial, or a named permutation")
		scope    = flag.String("scope", "global", "clustering: global, cluster16, shared, cluster32")
		hotX     = flag.Float64("hotx", 0.05, "hot spot extra fraction")
		bfi      = flag.Int("bfi", 2, "butterfly permutation index")
		advIters = flag.Int("adviters", 0, "adversarial pattern search iterations (0 = default)")
		arrival  = flag.String("arrival", "poisson", "arrival process: poisson, mmpp, onoff")
		burst    = flag.Float64("burst", 8, "mmpp high/low rate ratio")
		dwellHi  = flag.Float64("dwellhi", 500, "mmpp high-phase / onoff ON mean dwell (cycles)")
		dwellLo  = flag.Float64("dwelllo", 2000, "mmpp low-phase / onoff OFF mean dwell (cycles)")
		minLen   = flag.Int("minlen", 8, "minimum message length")
		maxLen   = flag.Int("maxlen", 1024, "maximum message length")

		from     = flag.Float64("from", 0.05, "first offered load")
		to       = flag.Float64("to", 0.9, "last offered load")
		points   = flag.Int("points", 10, "number of load points")
		warmup   = flag.Int64("warmup", 20000, "warmup cycles")
		measure  = flag.Int64("measure", 60000, "measurement cycles")
		seed     = flag.Uint64("seed", 1, "random seed")
		replicas = flag.Int("replicas", 1, "independent replications per load point (>1 adds 95% CI error bars)")
		procs    = flag.Int("procs", 0, "parallel points (0 = GOMAXPROCS)")
		csv      = flag.Bool("csv", false, "emit CSV")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory (empty = no cache)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	spec, _, err := netFlags.Build()
	if err != nil {
		fatal(err)
	}
	work, err := experiments.ParseWorkloadSpec(experiments.WorkloadOptions{
		Cluster: *scope, Pattern: *pattern, HotX: *hotX, ButterflyI: *bfi,
		AdvIters: *advIters, Arrival: *arrival, Burst: *burst, DwellHi: *dwellHi, DwellLo: *dwellLo,
		MinLen: *minLen, MaxLen: *maxLen,
	})
	if err != nil {
		fatal(err)
	}

	loads, err := experiments.LoadRange(*from, *to, *points)
	if err != nil {
		fatal(err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := simrun.Options{Workers: *procs}
	if *cacheDir != "" {
		store, err := simrun.NewStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opts.Store = store
	}
	plan := simrun.NewPlan()
	h := plan.AddSweep(simrun.SweepSpec{
		Net:   spec,
		Work:  work,
		Loads: loads,
		Budget: simrun.Budget{
			WarmupCycles:  *warmup,
			MeasureCycles: *measure,
			Seed:          *seed,
			Replicas:      *replicas,
		},
	})
	if err := plan.Execute(ctx, opts); err != nil {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "sweep: interrupted: %v\n", err)
		os.Exit(1)
	}
	res, err := h.Points()
	if err != nil {
		fatal(err)
	}

	if *csv {
		if *replicas > 1 {
			fmt.Println("offered,throughput,latency_cycles,latency_ms,messages,sustainable,replicas,latency_ci_lo,latency_ci_hi")
			for _, r := range res {
				fmt.Printf("%.4f,%.4f,%.1f,%.3f,%d,%t,%d,%.1f,%.1f\n",
					r.Offered, r.Throughput, r.LatencyCyc, r.LatencyMs, r.Messages, r.Sustainable,
					r.Replicas, r.LatencyCILo, r.LatencyCIHi)
			}
			return
		}
		fmt.Println("offered,throughput,latency_cycles,latency_ms,messages,sustainable")
		for _, r := range res {
			fmt.Printf("%.4f,%.4f,%.1f,%.3f,%d,%t\n",
				r.Offered, r.Throughput, r.LatencyCyc, r.LatencyMs, r.Messages, r.Sustainable)
		}
		return
	}
	fmt.Printf("%s, %s\n", spec, work)
	if *replicas > 1 {
		fmt.Printf("%-10s %-12s %-14s %-22s %-12s %s\n", "offered", "throughput", "latency(cyc)", "95% CI(cyc)", "latency(ms)", "sustainable")
		for _, r := range res {
			fmt.Printf("%-10.3f %-12.4f %-14.1f [%8.1f, %8.1f]  %-12.3f %t\n",
				r.Offered, r.Throughput, r.LatencyCyc, r.LatencyCILo, r.LatencyCIHi, r.LatencyMs, r.Sustainable)
		}
		return
	}
	fmt.Printf("%-10s %-12s %-14s %-12s %s\n", "offered", "throughput", "latency(cyc)", "latency(ms)", "sustainable")
	for _, r := range res {
		fmt.Printf("%-10.3f %-12.4f %-14.1f %-12.3f %t\n",
			r.Offered, r.Throughput, r.LatencyCyc, r.LatencyMs, r.Sustainable)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(1)
}
