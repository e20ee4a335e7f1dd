package engine_test

import (
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
)

// TestSweepVisitBudget bounds, on the five saturated paper networks and
// a BMIN with virtual channels (load 0.9, the benchmark's "sat" probe),
// the share of worm-cycles the advance sweep has to look at and the
// share of waiting heads and queues allocate has to ask. The counts are
// pure functions of the simulation, so this is a cost gate that does not
// depend on the machine's clock. Sweep: where links are private nearly
// every worm is asleep nearly all the time, parked or streaming
// (0.007-0.011 measured); where they are shared a worm streams asleep
// only while no other worm that can move holds a channel on its links
// (VMIN 0.310, BMIN with virtual channels 0.355; 0.517 and 0.523 when
// only parking was available there). Allocate: a head or a queue is
// asked once per release that could serve it (0.003-0.005 measured on
// all six; 1.0 before blocked heads waited for a release).
//
// The counts themselves are pinned too: a walk skipped because it would
// visit nobody still counts every slot it passes over and visits none,
// so skipping must leave both pairs of counts as they were.
func TestSweepVisitBudget(t *testing.T) {
	for _, tc := range []struct {
		spec                   experiments.NetworkSpec
		sweep                  float64
		sweepSlots, sweepSeen  int64
		allocSlots, allocAsked int64
	}{
		{experiments.TMINCube, 0.05, 1868352, 14452, 2987842, 9407},
		{experiments.TMINButterfly, 0.05, 1864986, 13854, 3017575, 9065},
		{experiments.DMINCube, 0.05, 1843968, 19774, 2642492, 13268},
		{experiments.VMINCube, 0.35, 1864828, 577564, 2708997, 10265},
		{experiments.BMINButterfly, 0.05, 1862820, 19091, 2932965, 13566},
		{experiments.NetworkSpec{Kind: experiments.BMINButterfly.Kind, K: 4, Stages: 3, VCs: 2}, 0.40, 1866996, 662023, 2701490, 13284},
	} {
		const allocate = 0.01
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
		t.Logf("%s: sweep visited %d of %d worm-cycles (%.4f)", net.Name(), visited, slots, share)
		if slots == 0 || share > tc.sweep {
			t.Errorf("%s: the sweep visited %.3f of its worm-cycles, budget %.2f", net.Name(), share, tc.sweep)
		}
		if slots != tc.sweepSlots || visited != tc.sweepSeen {
			t.Errorf("%s: SweepCounts = %d, %d, recorded %d, %d", net.Name(), slots, visited, tc.sweepSlots, tc.sweepSeen)
		}
		slots, visited = e.AllocateCounts()
		share = float64(visited) / float64(slots)
		t.Logf("%s: allocate asked %d of %d waiting heads and queues (%.4f)", net.Name(), visited, slots, share)
		if slots == 0 || share > allocate {
			t.Errorf("%s: allocate asked %.4f of its heads and queues, budget %.2f", net.Name(), share, allocate)
		}
		if slots != tc.allocSlots || visited != tc.allocAsked {
			t.Errorf("%s: AllocateCounts = %d, %d, recorded %d, %d", net.Name(), slots, visited, tc.allocSlots, tc.allocAsked)
		}
	}
}
