// Command minsim runs a single wormhole-network simulation and prints
// its statistics.
//
// Usage:
//
//	minsim -net dmin -pattern hotspot -hotx 0.05 -load 0.4
//	minsim -net bmin -pattern shuffle -load 0.6 -measure 200000
//
// Networks: tmin, dmin, vmin, bmin (add -wiring butterfly, omega or
// baseline for another interstage pattern; cube is the default,
// matching the paper's Section 5 choice). Patterns: uniform, hotspot,
// shuffle, butterfly, adversarial or a named permutation. Scopes:
// global, cluster16, shared, cluster32.
//
// The flags name a simrun.RunSpec with -seed as its point seed, and the
// point runs through simrun's one engine constructor: its statistics
// are those a plan computes and caches for that spec. The instruments
// (-hist, -util, -ci, -trace) only observe.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"minsim/internal/cli"
	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/trace"
)

func main() {
	switch _, _, err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintf(os.Stderr, "minsim: %v\n", err)
		os.Exit(1)
	}
}

// run executes one minsim command line (without the program name),
// writing the report to w. It returns the point's spec and statistics,
// which the tests hold against a plan's.
func run(args []string, w io.Writer) (simrun.RunSpec, metrics.Point, error) {
	fs := flag.NewFlagSet("minsim", flag.ContinueOnError)
	var (
		netFlags = cli.AddNetworkFlags(fs)

		pattern = fs.String("pattern", "uniform", "traffic: uniform, hotspot, shuffle, butterfly, adversarial, or a named permutation")
		scope   = fs.String("scope", "global", "clustering: global, cluster16, shared, cluster32")
		hotX    = fs.Float64("hotx", 0.05, "hot spot extra fraction")
		bfi     = fs.Int("bfi", 2, "butterfly permutation index")
		ratios  = fs.String("ratios", "", "per-cluster load ratios, e.g. 4:1:1:1")
		minLen  = fs.Int("minlen", 8, "minimum message length (flits)")
		maxLen  = fs.Int("maxlen", 1024, "maximum message length (flits)")

		load    = fs.Float64("load", 0.3, "offered load, flits/node/cycle")
		warmup  = fs.Int64("warmup", 20000, "warmup cycles")
		measure = fs.Int64("measure", 60000, "measurement cycles")
		seed    = fs.Uint64("seed", 1, "random seed")

		hist      = fs.Bool("hist", false, "print the latency histogram")
		util      = fs.Bool("util", false, "print per-layer channel utilization")
		ci        = fs.Bool("ci", false, "print a 95% batch-means confidence interval")
		traceFile = fs.String("trace", "", "write a per-message trace CSV to this file")
	)
	if err := fs.Parse(args); err != nil {
		return simrun.RunSpec{}, metrics.Point{}, err
	}

	spec, net, err := netFlags.Build()
	if err != nil {
		return simrun.RunSpec{}, metrics.Point{}, err
	}
	opts := experiments.WorkloadOptions{
		Cluster: *scope, Pattern: *pattern, HotX: *hotX, ButterflyI: *bfi,
		MinLen: *minLen, MaxLen: *maxLen,
	}
	if *ratios != "" {
		if opts.Ratios, err = cli.ParseRatios(*ratios); err != nil {
			return simrun.RunSpec{}, metrics.Point{}, err
		}
	}
	work, err := experiments.ParseWorkloadSpec(opts)
	if err != nil {
		return simrun.RunSpec{}, metrics.Point{}, err
	}
	rs := simrun.RunSpec{Net: spec, Work: work, Load: *load, Warmup: *warmup, Measure: *measure, Seed: *seed}

	var rec trace.Recorder
	e, err := rs.Point(net).NewEngine(func(cfg *engine.Config) {
		if *traceFile != "" {
			cfg.OnDeliver = rec.OnDeliver
		}
	})
	if err != nil {
		return simrun.RunSpec{}, metrics.Point{}, err
	}
	var h engine.Histogram
	if *hist {
		e.EnableLatencyHistogram(&h)
	}
	if *util {
		e.EnableChannelStats()
	}
	if *ci {
		e.EnableBatchMeans(*measure / 20)
	}
	e.SetMeasureFrom(*warmup)
	e.Run(*warmup + *measure)
	st := e.Stats()
	res := metrics.FromStats(*load, net.Nodes, st)

	fmt.Fprintf(w, "network:            %s (%d channels)\n", net.Name(), net.ChannelCount())
	fmt.Fprintf(w, "workload:           %s/%s, lengths U{%d..%d}\n", *pattern, *scope, *minLen, *maxLen)
	fmt.Fprintf(w, "offered load:       %.3f flits/node/cycle\n", res.Offered)
	fmt.Fprintf(w, "throughput:         %.4f flits/node/cycle (%.1f%% of ejection capacity)\n", res.Throughput, 100*res.Throughput)
	fmt.Fprintf(w, "mean latency:       %.1f cycles (%.3f ms at 20 flits/ms)\n", res.LatencyCyc, res.LatencyMs)
	fmt.Fprintf(w, "latency std dev:    %.1f cycles\n", res.StdDev)
	fmt.Fprintf(w, "messages measured:  %d\n", res.Messages)
	fmt.Fprintf(w, "max source queue:   %d messages\n", st.MaxQueue)
	fmt.Fprintf(w, "sustainable:        %t\n", res.Sustainable)
	if *ci {
		if lo, hi, ok := metrics.ConfidenceInterval(e.BatchMeans(), 1.96); ok {
			fmt.Fprintf(w, "latency 95%% CI:     [%.1f, %.1f] cycles (batch means)\n", lo, hi)
		} else {
			fmt.Fprintln(w, "latency 95% CI:     not enough batches")
		}
	}
	if *hist && h.Count() > 0 {
		fmt.Fprintf(w, "latency quantiles:  p50=%.0f p95=%.0f p99=%.0f cycles\n%s", h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.String())
	}
	if *util {
		fmt.Fprint(w, trace.UtilizationReport(net, e.ChannelFlits(), st.Cycles)+trace.BlockingReport(e.BlockedByStage(), st.Cycles))
	}
	if *traceFile != "" {
		if err := os.WriteFile(*traceFile, []byte(rec.CSV()), 0o644); err != nil {
			return simrun.RunSpec{}, metrics.Point{}, err
		}
		fmt.Fprintf(w, "trace written:      %s\n", *traceFile)
	}
	return rs, res, nil
}
