package topology_test

import (
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// TestFig4aCubeWiring spot-checks the 8-node cube TMIN of Fig. 4a
// against hand-derived wires: C_0 is the perfect shuffle, C_1 = β_2,
// C_2 = β_1, C_3 = identity (all on 3-bit addresses).
func TestFig4aCubeWiring(t *testing.T) {
	net, err := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Injection: node a lands on stage-0 left port σ(a).
	wantInject := map[int]int{
		0b000: 0b000, 0b001: 0b010, 0b010: 0b100, 0b011: 0b110,
		0b100: 0b001, 0b101: 0b011, 0b110: 0b101, 0b111: 0b111,
	}
	for a, p := range wantInject {
		ch := &net.Channels[net.Inject[a]]
		if ch.Wire != p {
			t.Errorf("node %03b injects to port %03b, want %03b", a, ch.Wire, p)
		}
		sw := &net.Switches[ch.To.Switch]
		if sw.Stage != 0 || sw.Index != p/2 || ch.To.Port != p%2 {
			t.Errorf("node %03b lands at G%d.%d port %d, want G0.%d port %d",
				a, sw.Stage, sw.Index, ch.To.Port, p/2, p%2)
		}
	}
	// C_1 = β_2 swaps bits 2 and 0: stage-0 right port p feeds stage-1
	// left port β_2(p).
	for _, c := range layerChannels(net, 1, topology.Forward) {
		ch := &net.Channels[c]
		fromPort := net.Switches[ch.From.Switch].Index*2 + ch.From.Port
		want := net.R.Butterfly(2, fromPort)
		if ch.Wire != want {
			t.Errorf("C1: right port %03b wired to %03b, want β2 = %03b", fromPort, ch.Wire, want)
		}
	}
	// C_2 = β_1 swaps bits 1 and 0.
	for _, c := range layerChannels(net, 2, topology.Forward) {
		ch := &net.Channels[c]
		fromPort := net.Switches[ch.From.Switch].Index*2 + ch.From.Port
		want := net.R.Butterfly(1, fromPort)
		if ch.Wire != want {
			t.Errorf("C2: right port %03b wired to %03b, want β1 = %03b", fromPort, ch.Wire, want)
		}
	}
	// Ejection: identity — right port p of stage 2 feeds node p.
	for _, c := range layerChannels(net, 3, topology.Forward) {
		ch := &net.Channels[c]
		fromPort := net.Switches[ch.From.Switch].Index*2 + ch.From.Port
		if ch.To.Node != fromPort {
			t.Errorf("C3: right port %03b delivers to node %03b, want identity", fromPort, ch.To.Node)
		}
	}
}

// TestFig4bButterflyWiring spot-checks the 8-node butterfly TMIN of
// Fig. 4b: C_0 identity, C_1 = β_1, C_2 = β_2, C_3 identity.
func TestFig4bButterflyWiring(t *testing.T) {
	net, err := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Butterfly, Dilation: 1, VCs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		if ch := &net.Channels[net.Inject[a]]; ch.Wire != a {
			t.Errorf("node %03b injects to port %03b, want identity", a, ch.Wire)
		}
	}
	for layer, beta := range map[int]int{1: 1, 2: 2} {
		for _, c := range layerChannels(net, layer, topology.Forward) {
			ch := &net.Channels[c]
			fromPort := net.Switches[ch.From.Switch].Index*2 + ch.From.Port
			want := net.R.Butterfly(beta, fromPort)
			if ch.Wire != want {
				t.Errorf("C%d: right port %03b wired to %03b, want β%d = %03b",
					layer, fromPort, ch.Wire, beta, want)
			}
		}
	}
}

// TestFig6BMINStage0: in the 8-node BMIN of Fig. 6 (drawn with 2x2
// switches in Fig. 8), stage-0 switches pair adjacent nodes and the
// interstage wires are identity on addresses.
func TestFig6BMINStage0(t *testing.T) {
	net, err := graphtest.Of(topology.NewBMIN(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		inj := &net.Channels[net.Inject[a]]
		sw := &net.Switches[inj.To.Switch]
		if sw.Stage != 0 || sw.Index != a/2 || inj.To.Port != a%2 {
			t.Errorf("node %03b attaches to G%d.%d port %d, want G0.%d port %d",
				a, sw.Stage, sw.Index, inj.To.Port, a/2, a%2)
		}
		ej := &net.Channels[net.Eject[a]]
		if ej.From.Switch != inj.To.Switch || ej.From.Port != inj.To.Port {
			t.Errorf("node %03b eject does not mirror inject", a)
		}
	}
}
