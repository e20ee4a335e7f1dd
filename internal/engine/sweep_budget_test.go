package engine_test

import (
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
)

// TestSweepVisitBudget bounds the share of worm-cycles the advance
// sweep has to look at on saturated paper networks (load 0.9, the
// benchmark's "sat" probe). The counts are pure functions of the
// simulation, so this is a cost gate that does not depend on the
// machine's clock: where links are private nearly every worm is asleep
// nearly all the time, parked or streaming (0.008 and 0.011 measured);
// where they are shared (VMIN) only parking is available (0.517).
func TestSweepVisitBudget(t *testing.T) {
	for _, tc := range []struct {
		spec   experiments.NetworkSpec
		budget float64
	}{
		{experiments.TMINCube, 0.05},
		{experiments.DMINCube, 0.05},
		{experiments.VMINCube, 0.60},
	} {
		net, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(engine.Config{Net: net, Source: uniformSource(t, net.Nodes, 0.9, 1995), Seed: 1995})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(30_000)
		slots, visited := e.SweepCounts()
		share := float64(visited) / float64(slots)
		t.Logf("%s: visited %d of %d worm-cycles (%.3f)", net.Name(), visited, slots, share)
		if slots == 0 || share > tc.budget {
			t.Errorf("%s: the sweep visited %.3f of its worm-cycles, budget %.2f", net.Name(), share, tc.budget)
		}
	}
}
