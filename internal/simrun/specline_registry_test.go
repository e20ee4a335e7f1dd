package simrun_test

import (
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
)

// TestSpecLineMatchesFmtOnTheRegistry holds RunSpec.String to the fmt
// formula it replaced (simrun.FmtSpecLine) on every point of the paper
// figures and extensions, at the default and the quick budget and at
// the budget TestRegistryDigests runs.
func TestSpecLineMatchesFmtOnTheRegistry(t *testing.T) {
	n := 0
	for _, e := range append(experiments.Figures(), experiments.Extensions()...) {
		for _, c := range e.Curves {
			for i, load := range e.Loads {
				for _, b := range []simrun.Budget{experiments.DefaultBudget, experiments.QuickBudget, {WarmupCycles: 100, MeasureCycles: 300, Seed: 777}} {
					r := simrun.RunSpec{
						Net: c.Net, Work: c.Work, Load: load,
						Warmup: b.WarmupCycles, Measure: b.MeasureCycles, Seed: simrun.DeriveSeed(b.Seed, i),
						BufferDepth: c.BufferDepth, Arbitration: c.Arbitration,
					}
					if got, want := r.String(), simrun.FmtSpecLine(r); got != want {
						t.Errorf("%s/%s: RunSpec.String:\n  got  %q\n  want %q", e.ID, c.Label, got, want)
					}
					n++
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("the registry has no points")
	}
}
