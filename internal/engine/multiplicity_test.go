package engine_test

import (
	"fmt"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/topology"
)

// TestMultiplicityThreeEnginesPinned holds engines whose wires carry
// three channels — a count the routing digit arithmetic cannot express
// as a shift — to literal results: Stats and an order-sensitive
// checksum of the per-channel flit counts, under both arbitration
// modes. The literals were recorded when these networks still routed
// through a dense (channel, destination) table built from the Router
// walking the struct graph, so they pin the candidate sets and their
// order end to end, not just the statistics.
func TestMultiplicityThreeEnginesPinned(t *testing.T) {
	must := func(net *topology.Network, err error) *topology.Network {
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	dmin := must(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 3, VCs: 1}))
	cases := []struct {
		name   string
		net    *topology.Network
		failed bool      // fail the first channel of layer 1
		want   [2]pinned // random, oldest-first
	}{
		{"dmin-d3", dmin, false, [2]pinned{
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 227, DeliveredFlits: 104782, MeasuredMsgs: 171, LatencySum: 170367, LatencySumSq: 2.41576841e+08, LatencyMin: 15, LatencyMax: 3285, MaxQueue: 5, IdleSkipped: 3, InjectedFlits: 119323, GeneratedFlitsMeasured: 130394}, 0x36993200eba3d45f},
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 228, DeliveredFlits: 104845, MeasuredMsgs: 172, LatencySum: 180685, LatencySumSq: 2.67772635e+08, LatencyMin: 15, LatencyMax: 3339, MaxQueue: 5, IdleSkipped: 3, InjectedFlits: 119384, GeneratedFlitsMeasured: 130394}, 0x1d959a9e7ad004c1},
		}},
		{"dmin-d3-extra", must(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 3, VCs: 1, Extra: 1})), false, [2]pinned{
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 221, DeliveredFlits: 101515, MeasuredMsgs: 165, LatencySum: 166356, LatencySumSq: 2.48309746e+08, LatencyMin: 16, LatencyMax: 3340, MaxQueue: 6, IdleSkipped: 3, InjectedFlits: 116078, GeneratedFlitsMeasured: 130394}, 0x7a61f413cc3849e},
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 228, DeliveredFlits: 104749, MeasuredMsgs: 172, LatencySum: 181563, LatencySumSq: 2.69207761e+08, LatencyMin: 16, LatencyMax: 3340, MaxQueue: 5, IdleSkipped: 3, InjectedFlits: 119307, GeneratedFlitsMeasured: 130394}, 0x2b114a058e8289},
		}},
		{"vmin-vc3", must(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 3})), false, [2]pinned{
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 162, DeliveredFlits: 76713, MeasuredMsgs: 107, LatencySum: 143183, LatencySumSq: 2.58412827e+08, LatencyMin: 16, LatencyMax: 3433, MaxQueue: 6, IdleSkipped: 3, InjectedFlits: 89414, GeneratedFlitsMeasured: 130394}, 0x82658797df5dbfbe},
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 180, DeliveredFlits: 84776, MeasuredMsgs: 124, LatencySum: 166908, LatencySumSq: 2.99314996e+08, LatencyMin: 15, LatencyMax: 3339, MaxQueue: 6, IdleSkipped: 3, InjectedFlits: 98138, GeneratedFlitsMeasured: 130394}, 0xb8338a4667d7e753},
		}},
		{"bmin-vc3", must(topology.NewBMINVC(4, 3, 3)), false, [2]pinned{
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 160, DeliveredFlits: 76697, MeasuredMsgs: 106, LatencySum: 139018, LatencySumSq: 2.55749202e+08, LatencyMin: 30, LatencyMax: 3521, MaxQueue: 7, IdleSkipped: 3, InjectedFlits: 89422, GeneratedFlitsMeasured: 130394}, 0xaf21303f3a4fe360},
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 165, DeliveredFlits: 77043, MeasuredMsgs: 111, LatencySum: 135540, LatencySumSq: 2.380388e+08, LatencyMin: 17, LatencyMax: 3706, MaxQueue: 6, IdleSkipped: 3, InjectedFlits: 90498, GeneratedFlitsMeasured: 130394}, 0xec49b2ccdfaf548f},
		}},
		{"dmin-d3-fault", dmin, true, [2]pinned{
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 226, DeliveredFlits: 104010, MeasuredMsgs: 170, LatencySum: 170336, LatencySumSq: 2.4523307e+08, LatencyMin: 15, LatencyMax: 3473, MaxQueue: 4, IdleSkipped: 3, InjectedFlits: 118554, GeneratedFlitsMeasured: 130394}, 0xfc656ef0334393a3},
			{engine.Stats{Cycles: 5000, MeasuredCycles: 4000, Generated: 310, Delivered: 228, DeliveredFlits: 104845, MeasuredMsgs: 172, LatencySum: 180685, LatencySumSq: 2.67772635e+08, LatencyMin: 15, LatencyMax: 3339, MaxQueue: 5, IdleSkipped: 3, InjectedFlits: 119384, GeneratedFlitsMeasured: 130394}, 0x6ef27f8c41c65959},
		}},
	}
	for _, c := range cases {
		for i, arb := range []engine.Arbitration{engine.ArbitrateRandom, engine.ArbitrateOldestFirst} {
			cfg := engine.Config{Net: c.net, Source: uniformSource(t, c.net.Nodes, 0.5, 7), Seed: 99, Arbitration: arb}
			if c.failed {
				engine.SetFailedChannels(&cfg, c.net.LayerBase(1))
			}
			e, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.EnableChannelStats()
			e.SetMeasureFrom(1000)
			e.Run(5000)
			got := pinned{e.Stats(), flitChecksum(e.ChannelFlits())}
			if got != c.want[i] {
				t.Errorf("%s arb=%d:\n got %s\nwant %s", c.name, arb, got, c.want[i])
			}
		}
	}
}

// pinned is one engine run's observable result.
type pinned struct {
	Stats engine.Stats
	Flits uint64 // flitChecksum of the per-channel flit counts
}

func (p pinned) String() string { return fmt.Sprintf("{%#v, %#x}", p.Stats, p.Flits) }

// flitChecksum is FNV-1a over the per-channel flit counts in channel
// order, so a flit counted on a sibling channel changes it.
func flitChecksum(flits []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range flits {
		h ^= uint64(n)
		h *= 1099511628211
	}
	return h
}
