package analytic

import (
	"math"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/routing"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

func tmin64(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func runUniform(t *testing.T, net *topology.Network, load float64, lengths traffic.Lengths, cycles int64) engine.Stats {
	t.Helper()
	c := traffic.Global(net.Nodes)
	src, err := traffic.NewWorkload(traffic.Config{
		Clusters: c, Pattern: traffic.Uniform{C: c}, Lengths: lengths, Load: load, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	e.SetMeasureFrom(cycles / 4)
	e.Run(cycles)
	return e.Stats()
}

// TestMG1MatchesSimulationAtLowLoad: with light uniform traffic the
// network is nearly contention-free and the M/G/1 source model should
// predict the simulated mean latency closely.
func TestMG1MatchesSimulationAtLowLoad(t *testing.T) {
	net := tmin64(t)
	const load = 0.08
	lengths := traffic.Lengths{Kind: "fixed", L: 64}
	st := runUniform(t, net, load, lengths, 120_000)
	if st.MeasuredMsgs < 300 {
		t.Fatalf("only %d messages measured", st.MeasuredMsgs)
	}
	model := SourceQueueModel{
		Lambda:  load / lengths.Mean(),
		Lengths: FixedMoments(64),
		PathLen: net.Stages + 1,
	}
	sim := st.MeanLatency()
	pred := model.Latency()
	if ratio := sim / pred; ratio < 0.9 || ratio > 1.3 {
		t.Errorf("low-load latency: simulated %v vs M/G/1 %v (ratio %v)", sim, pred, ratio)
	}
	// The model is a lower bound (it ignores in-network contention).
	if sim < pred*0.95 {
		t.Errorf("simulation %v beat the contention-free model %v", sim, pred)
	}
}

// TestMG1TracksLoadGrowth: the model and the simulator agree that
// latency grows superlinearly as the source queue saturates.
func TestMG1TracksLoadGrowth(t *testing.T) {
	net := tmin64(t)
	lengths := traffic.Lengths{Kind: "fixed", L: 32}
	var sims, preds []float64
	for _, load := range []float64{0.05, 0.15, 0.25} {
		st := runUniform(t, net, load, lengths, 60_000)
		sims = append(sims, st.MeanLatency())
		preds = append(preds, SourceQueueModel{
			Lambda:  load / lengths.Mean(),
			Lengths: FixedMoments(32),
			PathLen: net.Stages + 1,
		}.Latency())
	}
	for i := 1; i < len(sims); i++ {
		if sims[i] <= sims[i-1] {
			t.Errorf("simulated latency not increasing: %v", sims)
		}
		if preds[i] <= preds[i-1] {
			t.Errorf("modeled latency not increasing: %v", preds)
		}
	}
}

// TestHotSpotBoundHoldsInSimulation: delivered throughput under a hot
// spot cannot exceed the structural bound by more than the non-hot
// traffic that still flows; more precisely, the hot node's share is
// capped, so the paper's "tree saturation" caps the sustainable
// offered load at the analytic bound.
func TestHotSpotBoundHoldsInSimulation(t *testing.T) {
	net := tmin64(t)
	const x = 0.10
	bound := HotSpotLoadBound(net.Nodes, x) // ~0.149 flits/node/cycle

	c := traffic.Global(net.Nodes)
	lengths := traffic.Lengths{Kind: "fixed", L: 64}
	run := func(load float64) engine.Stats {
		src, err := traffic.NewWorkload(traffic.Config{
			Clusters: c, Pattern: traffic.HotSpot{C: c, X: x}, Lengths: lengths, Load: load, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(150_000)
		return e.Stats()
	}
	// Well below the bound: sustainable.
	if st := run(bound * 0.5); st.QueueExceeded {
		t.Errorf("load %.3f (half the bound) was unsustainable", bound*0.5)
	}
	// Well above the bound: queues must blow past the watermark.
	if st := run(bound * 2); !st.QueueExceeded {
		t.Errorf("load %.3f (twice the bound) was reported sustainable", bound*2)
	}
}

// TestFairRatesPredictsPermutationSaturation: the water-filling bound
// over the static shuffle-permutation paths predicts the simulated
// TMIN saturation (~25% of ejection capacity) closely.
func TestFairRatesPredictsPermutationSaturation(t *testing.T) {
	net := tmin64(t)
	perm := net.R.ShufflePerm()
	var flows [][]int
	active := 0
	for s := 0; s < net.Nodes; s++ {
		if perm[s] == s {
			continue
		}
		flows = append(flows, routing.OnePath(net, s, perm[s]))
		active++
	}
	rates := FairRates(flows, net.ChannelCount())
	agg := 0.0
	for _, rt := range rates {
		agg += rt
	}
	predicted := agg / float64(net.Nodes) // flits/node/cycle at saturation

	// Simulate the shuffle permutation at an offered load above the
	// prediction and compare delivered throughput.
	lengths := traffic.Lengths{Kind: "fixed", L: 128}
	c := traffic.Global(net.Nodes)
	src, err := traffic.NewWorkload(traffic.Config{
		Clusters: c, Pattern: traffic.Permutation{P: perm}, Lengths: lengths, Load: 0.9, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	e.SetMeasureFrom(30_000)
	e.Run(120_000)
	sim := e.Stats().Throughput(net.Nodes)

	if math.Abs(sim-predicted)/predicted > 0.15 {
		t.Errorf("shuffle saturation: simulated %v vs water-filling %v", sim, predicted)
	}
}
