package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/trace"
)

// run executes one `minsim run` command line: a single simulation,
// whose report it writes to w. The flags name a simrun.RunSpec with
// -seed as its point seed, and the point runs through simrun's one
// engine constructor; the instruments (-hist, -util, -ci, -trace) only
// observe. It returns the point's spec and statistics, which the tests
// hold against a plan's.
func run(args []string, w, stderr io.Writer) (simrun.RunSpec, metrics.Point, error) {
	fs := flag.NewFlagSet("minsim", flag.ContinueOnError)
	var (
		netFlags  = addNetworkFlags(fs)
		workFlags = addWorkloadFlags(fs, " (flits)")
		ratios    = fs.String("ratios", "", "per-cluster load ratios, e.g. 4:1:1:1")
		load      = fs.Float64("load", 0.3, "offered load, flits/node/cycle")
		b         = addBudgetFlags(fs, "", 1)

		hist      = fs.Bool("hist", false, "print the latency histogram")
		util      = fs.Bool("util", false, "print per-layer channel utilization")
		ci        = fs.Bool("ci", false, "print a 95% batch-means confidence interval")
		traceFile = fs.String("trace", "", "write a per-message trace CSV to this file")
	)
	fail := func(err error) (simrun.RunSpec, metrics.Point, error) { return simrun.RunSpec{}, metrics.Point{}, err }
	if err := parse(fs, args, stderr); err != nil {
		return fail(err)
	}
	if err := b.check(); err != nil {
		return fail(err)
	}
	// The interval is over 20 batches of measure/20 cycles each.
	if *ci && b.measure < 20 {
		return fail(fmt.Errorf("-ci needs -measure of at least 20 cycles, got %d", b.measure))
	}

	spec, net, err := buildNetwork(netFlags)
	if err != nil {
		return fail(err)
	}
	if *ratios != "" {
		if workFlags.Ratios, err = parseRatios(*ratios); err != nil {
			return fail(err)
		}
	}
	work, err := experiments.ParseWorkloadSpec(*workFlags)
	if err != nil {
		return fail(err)
	}
	rs := simrun.RunSpec{Net: spec, Work: work, Load: *load, Warmup: b.warmup, Measure: b.measure, Seed: b.seed}

	var rec trace.Recorder
	e, err := rs.Point(net).NewEngine(func(cfg *engine.Config) {
		if *traceFile != "" {
			cfg.OnDeliver = rec.OnDeliver
		}
	})
	if err != nil {
		return fail(err)
	}
	var h engine.Histogram
	if *hist {
		e.EnableLatencyHistogram(&h)
	}
	if *util {
		e.EnableChannelStats()
	}
	if *ci {
		e.EnableBatchMeans(b.measure / 20)
	}
	e.SetMeasureFrom(b.warmup)
	e.Run(b.warmup + b.measure)
	st := e.Stats()
	res := metrics.FromStats(*load, net.Nodes, st)

	fmt.Fprintf(w, "network:            %s (%d channels)\n", net.Name(), net.ChannelCount())
	fmt.Fprintf(w, "workload:           %s/%s, lengths U{%d..%d}\n", workFlags.Pattern, workFlags.Cluster, workFlags.MinLen, workFlags.MaxLen)
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
			return fail(err)
		}
		fmt.Fprintf(w, "trace written:      %s\n", *traceFile)
	}
	return rs, res, nil
}
