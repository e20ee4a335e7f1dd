// Command figures regenerates the paper's evaluation figures
// (Figs. 16-20) and the extension experiments as CSV or text tables.
//
// Usage:
//
//	figures [-id fig18a] [-list] [-csv] [-quick] [-out DIR]
//	        [-warmup N] [-measure N] [-seed S] [-replicas R] [-procs P]
//	        [-cache DIR] [-progress]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Without -id it runs every paper figure. With -out it writes one
// CSV file per figure into DIR; otherwise it prints tables to stdout.
//
// All selected experiments execute as a single simrun plan: load
// points shared between figure panels simulate once, and results land
// in a content-addressed cache (-cache, default results/cache; -cache
// "" disables) so a re-run with the same budget executes zero
// simulations and an interrupted run (SIGINT/SIGTERM) resumes from
// every point it completed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"minsim/internal/cli"
	"minsim/internal/experiments"
	"minsim/internal/report"
	"minsim/internal/simrun"
)

func main() {
	var (
		id       = flag.String("id", "", "run a single experiment by id (e.g. fig18a, ext-cluster32)")
		file     = flag.String("file", "", "run a custom experiment from a JSON definition file")
		rep      = flag.String("report", "", "run every paper figure, evaluate the machine-checkable claims, and write a markdown reproduction report to this file")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		plot     = flag.Bool("plot", false, "render ASCII latency/throughput plots")
		quick    = flag.Bool("quick", false, "use the quick budget (shorter runs, noisier curves)")
		ext      = flag.Bool("extensions", false, "also run the extension experiments")
		outDir   = flag.String("out", "", "write per-figure CSV files into this directory")
		warmup   = flag.Int64("warmup", 0, "override warmup cycles")
		measure  = flag.Int64("measure", 0, "override measurement cycles")
		seed     = flag.Uint64("seed", 0, "override random seed")
		replicas = flag.Int("replicas", 0, "independent replications per load point (>1 adds 95% CI error-bar columns to the CSVs)")
		procs    = flag.Int("procs", 0, "parallel simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", simrun.DefaultCacheDir, "content-addressed result cache directory (empty = no cache)")
		progress = flag.Bool("progress", false, "report live plan progress on stderr")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	exps := experiments.Figures()
	if *ext {
		exps = append(exps, experiments.Extensions()...)
	}
	if *list {
		for _, e := range exps {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}
	if *id != "" {
		e, ok := experiments.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment %q (try -list)\n", *id)
			os.Exit(2)
		}
		exps = []experiments.Experiment{e}
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		e, err := experiments.ParseJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		exps = []experiments.Experiment{e}
	}

	budget := experiments.DefaultBudget
	if *quick {
		budget = experiments.QuickBudget
	}
	if *warmup > 0 {
		budget.WarmupCycles = *warmup
	}
	if *measure > 0 {
		budget.MeasureCycles = *measure
	}
	if *seed != 0 {
		budget.Seed = *seed
	}
	budget.Replicas = *replicas

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := simrun.Options{Workers: *procs}
	if *cacheDir != "" {
		store, err := simrun.NewStore(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		opts.Store = store
	}
	start := time.Now()
	if *progress {
		opts.Progress = progressPrinter(start)
	}
	finish := func(c simrun.Counters, err error) {
		if *progress {
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintf(os.Stderr, "figures: plan: %d points requested, %d unique: %d cached, %d executed, %d failed (%v)\n",
			c.Requested, c.Unique, c.Cached, c.Executed, c.Failed, time.Since(start).Round(time.Millisecond))
		if wf := storeWriteFails(opts.Store); wf > 0 {
			fmt.Fprintf(os.Stderr, "figures: warning: %d cache writes failed; those points will recompute next run\n", wf)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: interrupted: %v (completed points are cached; re-run to resume)\n", err)
			stopProfiles()
			os.Exit(1)
		}
	}

	if *rep != "" {
		md, failures, err := report.Generate(ctx, budget, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*rep, []byte(md), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("reproduction report written to %s (%d failed checks)\n", *rep, failures)
		if failures > 0 {
			os.Exit(1)
		}
		return
	}

	plan := simrun.NewPlan()
	handles := make([]*experiments.FigureHandle, len(exps))
	for i, e := range exps {
		handles[i] = experiments.AddToPlan(plan, e, budget)
	}
	execErr := plan.Execute(ctx, opts)
	finish(plan.Counters(), execErr)

	for i, e := range exps {
		fig, err := handles[i].Figure()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		switch {
		case *outDir != "":
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%s -> %s\n", e.ID, path)
			fmt.Print(fig.Summary())
		case *csv:
			fmt.Print(fig.CSV())
		case *plot:
			fmt.Print(fig.ASCIIPlot(64, 18))
			fmt.Printf("expectation (paper): %s\n\n", e.Expect)
		default:
			fmt.Print(fig.Table())
			fmt.Printf("  expectation (paper): %s\n\n", e.Expect)
		}
	}
}

// progressPrinter returns a simrun progress callback that rewrites one
// stderr status line with counts and an ETA extrapolated from the
// average per-simulation wall time so far.
func progressPrinter(start time.Time) func(simrun.Counters) {
	return func(c simrun.Counters) {
		line := fmt.Sprintf("\r%d/%d done (%d cached, %d simulated, %d running)",
			c.Done, c.Unique, c.Cached, c.Executed, c.Running)
		if c.Executed > 0 && c.Done < c.Unique {
			perPoint := time.Since(start) / time.Duration(c.Executed)
			eta := perPoint * time.Duration(c.Unique-c.Done)
			line += fmt.Sprintf(" ETA %v", eta.Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "%-70s", line)
	}
}

// storeWriteFails reports persist failures on the optional cache
// (0 when no store is configured).
func storeWriteFails(s simrun.Store) int64 {
	if s == nil {
		return 0
	}
	return s.Stats().WriteFails
}
