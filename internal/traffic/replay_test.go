package traffic_test

import (
	"testing"

	"minsim/internal/engine"
	"minsim/internal/topology"
	"minsim/internal/trace"
	"minsim/internal/traffic"
)

// TestRecordThenReplay: capture a trace on a TMIN, replay its
// source→destination pairs through a TracePattern on a DMIN, and check
// that the replayed run sends only recorded pairs, from recorded
// sources. This is the trace-driven-simulation loop end to end.
func TestRecordThenReplay(t *testing.T) {
	tmin, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(net *topology.Network, pattern traffic.Pattern, seed uint64) trace.Recorder {
		t.Helper()
		w, err := traffic.NewWorkload(traffic.Config{Clusters: traffic.Global(net.Nodes), Pattern: pattern, Lengths: traffic.Lengths{Kind: "fixed", L: 32}, Load: 0.2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var rec trace.Recorder
		e, err := engine.New(engine.Config{Net: net, Source: w, Seed: seed, OnDeliver: rec.OnDeliver})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(5000)
		return rec
	}
	recorded := run(tmin, traffic.Uniform{C: traffic.Global(tmin.Nodes)}, 77)
	if len(recorded.Records) < 20 {
		t.Fatalf("only %d messages recorded", len(recorded.Records))
	}

	// Replay the first 20 deliveries: most sources have no pair and stay silent.
	pairs := make([]traffic.Pair, 20)
	seen := map[traffic.Pair]bool{}
	for i, m := range recorded.Records[:20] {
		pairs[i] = traffic.Pair{Src: m.Src, Dst: m.Dst}
		seen[pairs[i]] = true
	}
	dmin, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := traffic.NewTracePattern(dmin.Nodes, pairs)
	if err != nil {
		t.Fatal(err)
	}
	replayed := run(dmin, tp, 1)
	if len(replayed.Records) < 20 {
		t.Fatalf("replay delivered only %d messages", len(replayed.Records))
	}
	for _, m := range replayed.Records {
		if p := (traffic.Pair{Src: m.Src, Dst: m.Dst}); !seen[p] {
			t.Fatalf("replay delivered %d->%d, which the trace never sent", m.Src, m.Dst)
		}
	}
}
