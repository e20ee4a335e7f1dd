package simrun

import (
	"context"
	"math"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// TestSweepPinned holds two load sweeps to literal results recorded
// before sweeps ran as plans: a DMIN hot-spot MMPP workload with a
// message-length range, and cluster-16 ratios under on-off arrivals
// with lengths U{1..48}. Every point field is compared, floats by bit
// pattern. The maxQueue column is the deepest source queue, which a
// plan's point does not carry; it was 0 in the recording too.
func TestSweepPinned(t *testing.T) {
	type pinned struct {
		offered, offeredMeasured, throughput, latency, latencyMs, stdDev uint64
		messages                                                         int64
		maxQueue                                                         int
		sustainable                                                      bool
	}
	cases := []struct {
		net   NetworkSpec
		work  WorkloadSpec
		sweep [2]pinned // loads 0.1 and 0.3
	}{
		{
			NetworkSpec{Kind: topology.DMIN, K: 4, Stages: 3},
			WorkloadSpec{
				Pattern: PatternSpec{Kind: HotSpot, HotX: 0.1},
				Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 8, DwellHi: 500, DwellLo: 2000},
				Lengths: &traffic.Lengths{Kind: "uniform", Min: 16, Max: 64},
			},
			[2]pinned{
				{0x3fb999999999999a, 0x3fb8c9fbe76c8b44, 0x3fb88c083126e979, 0x404cf87878787878, 0x40072d2d2d2d2d2d, 0x40418ed19f51b440, 612, 0, true},
				{0x3fd3333333333333, 0x3fd3ee872b020c4a, 0x3fc5a10624dd2f1b, 0x40874e832c6e043b, 0x4042a535bd24d02f, 0x4088ba4e07a1d3c8, 968, 0, true},
			},
		},
		{
			NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3},
			WorkloadSpec{
				Cluster: Cluster16,
				Pattern: PatternSpec{Kind: Uniform},
				Arrival: ArrivalSpec{Kind: ArrivalOnOff, Burst: 8, DwellHi: 300, DwellLo: 2000},
				Ratios:  []float64{4, 1, 1, 1},
				Lengths: &traffic.Lengths{Kind: "uniform", Min: 1, Max: 48},
			},
			[2]pinned{
				{0x3fb999999999999a, 0x3fb9b0a3d70a3d71, 0x3fb98d916872b021, 0x406ac105e1d27a3f, 0x40256737e7db94ff, 0x406e697f211212ad, 1001, 0, true},
				{0x3fd3333333333333, 0x3fd1b2c083126e98, 0x3fc88147ae147ae1, 0x4082685fa42f2edd, 0x403d73cc39e517c8, 0x40865e00f2e71b2b, 1606, 0, false},
			},
		},
	}
	for i, c := range cases {
		plan := NewPlan()
		h := plan.AddSweep(SweepSpec{
			Net: c.net, Work: c.work, Loads: []float64{0.1, 0.3},
			Budget: Budget{WarmupCycles: 1000, MeasureCycles: 4000, Seed: 9},
		})
		if err := plan.Execute(context.Background(), Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		pts, err := h.Points()
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range pts {
			got := pinned{
				math.Float64bits(p.Offered), math.Float64bits(p.OfferedMeasured), math.Float64bits(p.Throughput),
				math.Float64bits(p.LatencyCyc), math.Float64bits(p.LatencyMs), math.Float64bits(p.StdDev),
				p.Messages, 0, p.Sustainable,
			}
			if got != c.sweep[j] {
				t.Errorf("case %d: point %d = %#v, want %#v", i, j, got, c.sweep[j])
			}
		}
	}
}
