package engine_test

import (
	"fmt"
	"slices"
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
//
// Each network runs a second time with channel statistics on from the
// first cycle. Counting is bookkeeping, so that run must visit exactly
// what the first did (before statistics were credited in bulk it woke
// every sleeper and asked every blocked head: 0.35-0.52 of the sweep and
// 0.33-0.40 of allocate), and its counters must equal the checksum of
// ChannelFlits and the BlockedByStage vector recorded when every hop and
// every blocked cycle was counted where it happened.
func TestSweepVisitBudget(t *testing.T) {
	for _, tc := range []struct {
		spec                   experiments.NetworkSpec
		sweep                  float64
		sweepSlots, sweepSeen  int64
		allocSlots, allocAsked int64
		flits                  uint64
		blocked                []int64
	}{
		{experiments.TMINCube, 0.05, 1868352, 14452, 2987842, 9407, 0xabe1b0b70eddba00, []int64{711746, 294963, 175815}},
		{experiments.TMINButterfly, 0.05, 1864986, 13854, 3017575, 9065, 0x2420f22b509b8d5d, []int64{747731, 292905, 166930}},
		{experiments.DMINCube, 0.05, 1843968, 19774, 2642492, 13268, 0xc24c20e2b17e084f, []int64{144916, 158964, 579608}},
		{experiments.VMINCube, 0.35, 1864828, 577564, 2708997, 10265, 0xbfc193b7e8b14cf2, []int64{158867, 190079, 553926}},
		{experiments.BMINButterfly, 0.05, 1862820, 19091, 2932965, 13566, 0xa49bd4bd5fb0d170, []int64{217030, 442517, 476897}},
		{experiments.NetworkSpec{Kind: experiments.BMINButterfly.Kind, K: 4, Stages: 3, VCs: 2}, 0.40, 1866996, 662023, 2701490, 13284, 0x5301c0c5dae938a8, []int64{548701, 229095, 113396}},
	} {
		const allocate = 0.01
		net, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, chanStats := range []bool{false, true} {
			name := fmt.Sprintf("%s/stats=%v", net.Name(), chanStats)
			e, err := engine.New(engine.Config{Net: net, Source: uniformSource(t, net.Nodes, 0.9, 1995), Seed: 1995})
			if err != nil {
				t.Fatal(err)
			}
			if chanStats {
				e.EnableChannelStats()
			}
			e.Run(30_000)
			slots, visited := e.SweepCounts()
			share := float64(visited) / float64(slots)
			t.Logf("%s: sweep visited %d of %d worm-cycles (%.4f)", name, visited, slots, share)
			if slots == 0 || share > tc.sweep {
				t.Errorf("%s: the sweep visited %.3f of its worm-cycles, budget %.2f", name, share, tc.sweep)
			}
			if slots != tc.sweepSlots || visited != tc.sweepSeen {
				t.Errorf("%s: SweepCounts = %d, %d, recorded %d, %d", name, slots, visited, tc.sweepSlots, tc.sweepSeen)
			}
			slots, visited = e.AllocateCounts()
			share = float64(visited) / float64(slots)
			t.Logf("%s: allocate asked %d of %d waiting heads and queues (%.4f)", name, visited, slots, share)
			if slots == 0 || share > allocate {
				t.Errorf("%s: allocate asked %.4f of its heads and queues, budget %.2f", name, share, allocate)
			}
			if slots != tc.allocSlots || visited != tc.allocAsked {
				t.Errorf("%s: AllocateCounts = %d, %d, recorded %d, %d", name, slots, visited, tc.allocSlots, tc.allocAsked)
			}
			if !chanStats {
				continue
			}
			if got := flitChecksum(e.ChannelFlits()); got != tc.flits {
				t.Errorf("%s: ChannelFlits checksum %#x, recorded %#x", name, got, tc.flits)
			}
			if got := e.BlockedByStage(); !slices.Equal(got, tc.blocked) {
				t.Errorf("%s: BlockedByStage = %v, recorded %v", name, got, tc.blocked)
			}
		}
	}
}
