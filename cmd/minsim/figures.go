package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/report"
	"minsim/internal/simrun"
)

// figures executes one `minsim figures` command line, which
// regenerates the paper's evaluation figures (Figs. 16-20) and the
// extension experiments as tables, CSV or ASCII plots. Without -id it
// runs every paper figure; with -out it writes one CSV file per figure
// into DIR; -report runs every paper figure, evaluates the
// machine-checkable claims and writes the markdown reproduction report.
//
// All selected experiments execute as a single simrun plan: load
// points shared between figure panels simulate once, and results land
// in a content-addressed cache (-cache, default results/cache; -cache
// "" disables) so a re-run with the same budget executes zero
// simulations and an interrupted run (SIGINT/SIGTERM) resumes from
// every point it completed. A stderr line counts the plan's points.
func figures(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		id       = fs.String("id", "", "run a single experiment by id (e.g. fig18a, ext-cluster32)")
		file     = fs.String("file", "", "run a custom experiment from a JSON definition file")
		rep      = fs.String("report", "", "run every paper figure, evaluate the machine-checkable claims, and write a markdown reproduction report to this file")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables")
		plot     = fs.Bool("plot", false, "render ASCII latency/throughput plots")
		quick    = fs.Bool("quick", false, "use the quick budget (shorter runs, noisier curves)")
		ext      = fs.Bool("extensions", false, "also run the extension experiments")
		outDir   = fs.String("out", "", "write per-figure CSV files into this directory")
		warmup   = fs.Int64("warmup", 0, "override warmup cycles")
		measure  = fs.Int64("measure", 0, "override measurement cycles")
		seed     = fs.Uint64("seed", 0, "override random seed")
		replicas = fs.Int("replicas", 0, "independent replications per load point (>1 adds 95% CI error-bar columns to the CSVs)")
		procs    = fs.Int("procs", 0, "parallel simulations (0 = GOMAXPROCS)")
		cacheDir = fs.String("cache", simrun.DefaultCacheDir, "content-addressed result cache directory (empty = no cache)")
		progress = fs.Bool("progress", false, "report live plan progress on stderr")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	// A zero -warmup, -measure or -seed keeps the preset's value.
	b := experiments.DefaultBudget
	if *quick {
		b = experiments.QuickBudget
	}
	if *warmup != 0 {
		b.WarmupCycles = *warmup
	}
	if *measure != 0 {
		b.MeasureCycles = *measure
	}
	if *seed != 0 {
		b.Seed = *seed
	}
	b.Replicas = *replicas
	if err := (budget{warmup: b.WarmupCycles, measure: b.MeasureCycles}).check(); err != nil {
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

	exps := experiments.Figures()
	if *ext {
		exps = append(exps, experiments.Extensions()...)
	}
	if *list {
		for _, e := range exps {
			fmt.Fprintf(w, "%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *id != "" {
		e, ok := experiments.ByID(*id)
		if !ok {
			return usageError(fmt.Sprintf("minsim figures: unknown experiment %q (try -list)", *id))
		}
		exps = []experiments.Experiment{e}
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		e, err := experiments.ParseJSON(data)
		if err != nil {
			return err
		}
		exps = []experiments.Experiment{e}
	}

	opts, err := withStore(simrun.Options{Workers: *procs}, *cacheDir)
	if err != nil {
		return err
	}
	start := time.Now()
	if *progress {
		opts.Progress = progressPrinter(start, stderr)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *rep != "" {
		md, failures, err := report.Generate(ctx, b, opts)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*rep, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "reproduction report written to %s (%d failed checks)\n", *rep, failures)
		if failures > 0 {
			return fmt.Errorf("%d failed checks", failures)
		}
		return nil
	}

	plan := simrun.NewPlan()
	handles := make([]*experiments.FigureHandle, len(exps))
	for i, e := range exps {
		handles[i] = experiments.AddToPlan(plan, e, b)
	}
	execErr := plan.Execute(ctx, opts)
	if *progress {
		fmt.Fprintln(stderr)
	}
	c := plan.Counters()
	fmt.Fprintf(stderr, "figures: plan: %d points requested, %d unique: %d cached, %d executed, %d failed (%v)\n",
		c.Requested, c.Unique, c.Cached, c.Executed, c.Failed, time.Since(start).Round(time.Millisecond))
	if opts.Store != nil {
		if wf := opts.Store.Stats().WriteFails; wf > 0 {
			fmt.Fprintf(stderr, "figures: warning: %d cache writes failed; those points will recompute next run\n", wf)
		}
	}
	if execErr != nil {
		return fmt.Errorf("interrupted: %w (completed points are cached; re-run to resume)", execErr)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for i, e := range exps {
		fig, err := handles[i].Figure()
		if err != nil {
			return err
		}
		switch {
		case *outDir != "":
			path := filepath.Join(*outDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s -> %s\n", e.ID, path)
			fmt.Fprint(w, fig.Summary())
		case *csv:
			fmt.Fprint(w, fig.CSV())
		case *plot:
			fmt.Fprint(w, fig.ASCIIPlot(64, 18))
			fmt.Fprintf(w, "expectation (paper): %s\n\n", e.Expect)
		default:
			fmt.Fprint(w, fig.Table())
			fmt.Fprintf(w, "  expectation (paper): %s\n\n", e.Expect)
		}
	}
	return nil
}

// progressPrinter returns a simrun progress callback that rewrites one
// stderr status line with counts and an ETA extrapolated from the
// average per-simulation wall time so far. The plan serializes its
// calls.
func progressPrinter(start time.Time, stderr io.Writer) func(simrun.Counters) {
	return func(c simrun.Counters) {
		line := fmt.Sprintf("\r%d/%d done (%d cached, %d simulated, %d running)",
			c.Done, c.Unique, c.Cached, c.Executed, c.Running)
		if c.Executed > 0 && c.Done < c.Unique {
			perPoint := time.Since(start) / time.Duration(c.Executed)
			eta := perPoint * time.Duration(c.Unique-c.Done)
			line += fmt.Sprintf(" ETA %v", eta.Round(time.Second))
		}
		fmt.Fprintf(stderr, "%-70s", line)
	}
}
