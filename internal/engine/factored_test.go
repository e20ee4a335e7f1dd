package engine_test

import (
	"testing"

	"minsim/internal/engine"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

// TestFactoredEngine64K is the scaling acceptance check: a 64K-node
// destination-tag MIN (2^16 nodes, 16 stages) must build, route out
// of ≤ 1 MiB of routing state, and simulate. A table of every
// (channel, destination) candidate set would need ~300 GB here.
func TestFactoredEngine64K(t *testing.T) {
	if testing.Short() {
		t.Skip("64K-node construction in -short mode")
	}
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 16, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b := routing.NewFactored(net).Bytes(); b > 1<<20 {
		t.Fatalf("64K-node routing state is %d bytes, want <= 1 MiB", b)
	}
	e, err := engine.New(engine.Config{
		Net:    net,
		Source: uniformSource(t, net.Nodes, 0.1, 3),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	if got := e.Stats().Delivered; got == 0 {
		t.Error("64K-node engine delivered no messages in 300 cycles at load 0.1")
	}
}
