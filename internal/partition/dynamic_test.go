package partition

import (
	"testing"

	"minsim/internal/engine"
	"minsim/internal/routing"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// TestDynamicChannelIsolation cross-validates the static Theorem 2
// analysis against the simulator: running cluster-16 uniform traffic
// on the 64-node cube TMIN, flits flow only over the channels the
// static analysis assigns to each cluster, and channels outside every
// cluster's wire set stay silent.
func TestDynamicChannelIsolation(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Static: channels used by each 16-node top-digit cluster.
	var clusters [][]int
	for v := 0; v < 4; v++ {
		clusters = append(clusters, MustCube(net.R, v, Free, Free).Nodes())
	}
	allowed := make(map[int]bool) // channel id -> allowed by some cluster
	for _, nodes := range clusters {
		for _, s := range nodes {
			for _, d := range nodes {
				if s == d {
					continue
				}
				for _, p := range routing.AllPaths(net, s, d) {
					for _, c := range p {
						allowed[c] = true
					}
				}
			}
		}
	}

	// Dynamic: run cluster-16 uniform traffic with channel counters.
	c := traffic.Cluster16(net.R)
	w, err := traffic.NewWorkload(traffic.Config{
		Clusters: c,
		Pattern:  traffic.Uniform{C: c},
		Lengths:  traffic.Lengths{Kind: "fixed", L: 64},
		Load:     0.3,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: w, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableChannelStats()
	e.Run(30000)

	flits := e.ChannelFlits()
	if flits == nil {
		t.Fatal("channel stats not collected")
	}
	totalAllowed := int64(0)
	for id, n := range flits {
		if n > 0 && !allowed[id] {
			ch := net.ChannelAt(id)
			t.Errorf("channel %d (layer %d wire %d) carried %d flits outside every cluster's set",
				id, ch.Layer, ch.Wire, n)
		}
		if allowed[id] {
			totalAllowed += n
		}
	}
	if totalAllowed == 0 {
		t.Fatal("no traffic flowed")
	}
	// Every allowed interstage channel should see some traffic in a
	// 30k-cycle run at moderate load (balance, not silence).
	for id := range allowed {
		ch := net.ChannelAt(id)
		if ch.Layer > 0 && ch.Layer < net.Stages && flits[id] == 0 {
			t.Errorf("allowed interstage channel %d (layer %d) carried no flits", id, ch.Layer)
		}
	}
}

// TestDynamicUtilizationBalance: under global uniform traffic on the
// cube TMIN, interstage link utilizations are roughly equal — the
// dynamic counterpart of channel balance.
func TestDynamicUtilizationBalance(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := traffic.Global(net.Nodes)
	w, err := traffic.NewWorkload(traffic.Config{
		Clusters: c,
		Pattern:  traffic.Uniform{C: c},
		Lengths:  traffic.Lengths{Kind: "fixed", L: 32},
		Load:     0.25,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: w, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableChannelStats()
	e.Run(60000)

	util := e.LinkUtilization()
	if util == nil {
		t.Fatal("no utilization data")
	}
	// Collect interstage link utilizations.
	var sum float64
	var vals []float64
	for i := range util {
		first, _ := net.LinkChannels(i)
		if layer, _, _ := net.Address(first); layer > 0 && layer < net.Stages {
			vals = append(vals, util[i])
			sum += util[i]
		}
	}
	mean := sum / float64(len(vals))
	if mean <= 0.1 {
		t.Fatalf("mean interstage utilization %v too low for load 0.25", mean)
	}
	for i, v := range vals {
		if v < 0.5*mean || v > 1.5*mean {
			t.Errorf("interstage link %d utilization %v far from mean %v", i, v, mean)
		}
	}
}
