package topology_test

import (
	"strings"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// corrupt applies a mutation to a freshly built network and asserts
// Validate reports a violation mentioning the given substring.
func corrupt(t *testing.T, wantErr string, mutate func(n *graphtest.Graph)) {
	t.Helper()
	net, err := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	mutate(net)
	err = net.Validate()
	if err == nil {
		t.Errorf("corruption %q not detected", wantErr)
		return
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Errorf("corruption detected with %q, want mention of %q", err, wantErr)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	corrupt(t, "has ID", func(n *graphtest.Graph) { n.Channels[3].ID = 99 })
	corrupt(t, "out of range", func(n *graphtest.Graph) { n.Channels[3].Link = 9999 })
	corrupt(t, "out of range", func(n *graphtest.Graph) { n.Channels[3].To.Switch = 9999; n.Channels[3].To.Node = -1 })
	corrupt(t, "node to node", func(n *graphtest.Graph) {
		n.Channels[0].From = topology.Loc{Node: 0, Switch: -1}
		n.Channels[0].To = topology.Loc{Node: 1, Switch: -1}
	})
	corrupt(t, "has ID", func(n *graphtest.Graph) { n.Links[2].ID = 0 })
	corrupt(t, "no channels", func(n *graphtest.Graph) { n.Links[2].Channels = nil })
	corrupt(t, "belongs to link", func(n *graphtest.Graph) { n.Links[2].Channels = []int{n.Links[3].Channels[0]} })
	corrupt(t, "does not terminate", func(n *graphtest.Graph) {
		sw := &n.Switches[0]
		// Claim an input that terminates elsewhere.
		for i := range n.Channels {
			if !n.Channels[i].To.IsNode() && n.Channels[i].To.Switch != 0 {
				sw.In = append(sw.In, i)
				break
			}
		}
	})
	corrupt(t, "port offset", func(n *graphtest.Graph) { n.Switches[0].Ports[0].Offset = 9 })
	corrupt(t, "has no channels", func(n *graphtest.Graph) { n.Switches[0].Ports[0].Channels = nil })
	corrupt(t, "invalid injection", func(n *graphtest.Graph) { n.Inject[0] = n.Eject[0] })
	corrupt(t, "invalid ejection", func(n *graphtest.Graph) { n.Eject[0] = n.Inject[0] })
	corrupt(t, "channels, want", func(n *graphtest.Graph) {
		// Duplicate a channel on a port: wrong multiplicity.
		p := n.SwitchAt(1, 0).PortAt(topology.Right, 0)
		p.Channels = append(p.Channels, p.Channels[0])
	})
}

func TestValidateAcceptsAllBuilders(t *testing.T) {
	builders := []func() (*graphtest.Graph, error){
		func() (*graphtest.Graph, error) {
			return graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Omega, Dilation: 1, VCs: 1}))
		},
		func() (*graphtest.Graph, error) {
			return graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Baseline, Dilation: 1, VCs: 1}))
		},
		func() (*graphtest.Graph, error) {
			return graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1, Extra: 2}))
		},
		func() (*graphtest.Graph, error) { return graphtest.Of(topology.NewBMINVC(4, 3, 4)) },
	}
	for i, b := range builders {
		net, err := b()
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("builder %d (%s): %v", i, net.Name(), err)
		}
	}
}

func TestLayerChannels(t *testing.T) {
	net, _ := graphtest.Of(topology.NewBMIN(2, 3))
	for g := 1; g < 3; g++ {
		if got := len(layerChannels(net, g, topology.Forward)); got != 8 {
			t.Errorf("layer %d fwd: %d channels", g, got)
		}
		if got := len(layerChannels(net, g, topology.Backward)); got != 8 {
			t.Errorf("layer %d bwd: %d channels", g, got)
		}
	}
	if got := len(layerChannels(net, 0, topology.Forward)); got != 8 {
		t.Errorf("inject layer: %d", got)
	}
	// Unidirectional networks have no backward channels.
	uni, _ := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1}))
	if got := len(layerChannels(uni, 1, topology.Backward)); got != 0 {
		t.Errorf("unidirectional backward channels: %d", got)
	}
}

// layerChannels returns the ids of all channels in the given
// connection layer (and, for BMINs, direction).
func layerChannels(n *graphtest.Graph, layer int, dir topology.Dir) []int {
	var out []int
	for i := range n.Channels {
		ch := &n.Channels[i]
		if ch.Layer == layer && ch.Dir == dir {
			out = append(out, i)
		}
	}
	return out
}
