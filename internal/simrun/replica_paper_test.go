package simrun_test

import (
	"context"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// TestReplicasArePointsPaperSpecs holds the replication contract on all
// five paper networks under both arbitration modes: every replica of a
// replicated sweep, run as an ordinary point on a two-worker pool, is
// exactly the point a lone engine simulates at that replica's seed, so
// the merged points equal merging those lone runs.
func TestReplicasArePointsPaperSpecs(t *testing.T) {
	work := simrun.WorkloadSpec{Cluster: simrun.Global, Pattern: simrun.PatternSpec{Kind: simrun.Uniform}}
	loads := []float64{0.30, 0.40}
	const reps = 3
	for _, ns := range experiments.PaperSpecs() {
		t.Run(ns.Name, func(t *testing.T) {
			net, err := ns.Spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, arb := range []engine.Arbitration{engine.ArbitrateRandom, engine.ArbitrateOldestFirst} {
				sweep := simrun.SweepSpec{
					Net: ns.Spec, Work: work, Loads: loads, Arbitration: arb,
					Budget: simrun.Budget{WarmupCycles: 1000, MeasureCycles: 3000, Seed: 1995, Replicas: reps},
				}
				plan := simrun.NewPlan()
				h := plan.AddSweep(sweep)
				if err := plan.Execute(context.Background(), simrun.Options{Workers: 2}); err != nil {
					t.Fatal(err)
				}
				merged, err := h.Points()
				if err != nil {
					t.Fatal(err)
				}
				for i, load := range loads {
					pts := make([]metrics.Point, reps)
					for rep := range pts {
						pts[rep], err = simrun.PointConfig{
							Net:         net,
							Factory:     work.Factory(net),
							Load:        load,
							Seed:        simrun.DeriveReplicaSeed(1995, i, rep),
							Warmup:      1000,
							Measure:     3000,
							Arbitration: arb,
						}.Simulate()
						if err != nil {
							t.Fatal(err)
						}
					}
					if want := metrics.MergeReplicas(pts); merged[i] != want {
						t.Errorf("arb %v load %g: plan merge diverges from lone engines:\nplan: %+v\nlone: %+v", arb, load, merged[i], want)
					}
					if merged[i].Messages == 0 || merged[i].Replicas != reps {
						t.Errorf("arb %v load %g: merged point %+v, want %d replicas that measured something", arb, load, merged[i], reps)
					}
				}
			}
		})
	}
}
