package topology_test

import (
	"slices"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

func bminConfigs() [][2]int {
	return [][2]int{{2, 2}, {2, 3}, {2, 4}, {4, 2}, {4, 3}, {8, 2}}
}

func TestBMINValidate(t *testing.T) {
	for _, kn := range bminConfigs() {
		net, err := graphtest.Of(topology.NewBMIN(kn[0], kn[1]))
		if err != nil {
			t.Fatalf("NewBMIN(%d, %d): %v", kn[0], kn[1], err)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", net.Name(), err)
		}
	}
}

func TestBMINCounts(t *testing.T) {
	for _, kn := range bminConfigs() {
		k, n := kn[0], kn[1]
		net, _ := graphtest.Of(topology.NewBMIN(k, n))
		N := net.Nodes
		// n stages of k^{n-1} switches each.
		if len(net.Switches) != n*N/k {
			t.Errorf("BMIN(%d,%d): %d switches, want %d", k, n, len(net.Switches), n*N/k)
		}
		// Each node pair + each interstage wire pair is two links/channels.
		wantLinks := 2*N + 2*(n-1)*N
		if len(net.Links) != wantLinks || len(net.Channels) != wantLinks {
			t.Errorf("BMIN(%d,%d): %d links %d channels, want %d", k, n, len(net.Links), len(net.Channels), wantLinks)
		}
	}
}

// TestBMINvsDMINHardware checks the paper's claim that a two-dilated
// DMIN and the corresponding BMIN have similar hardware complexity:
// at 64 nodes with 4x4 switches both carry the same total number of
// channels.
func TestBMINvsDMINHardware(t *testing.T) {
	dmin, _ := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1}))
	bmin, _ := graphtest.Of(topology.NewBMIN(4, 3))
	if dmin.ChannelCount() != bmin.ChannelCount() {
		t.Errorf("DMIN has %d channels, BMIN %d; the paper calls these similar",
			dmin.ChannelCount(), bmin.ChannelCount())
	}
}

func TestBMINLastStageHasNoRightPorts(t *testing.T) {
	net, _ := graphtest.Of(topology.NewBMIN(4, 3))
	for i := range net.Switches {
		sw := &net.Switches[i]
		hasRight := sw.PortAt(topology.Right, 0) != nil
		if sw.Stage == net.Stages-1 && hasRight {
			t.Errorf("last-stage switch %d has right output ports", i)
		}
		if sw.Stage < net.Stages-1 && !hasRight {
			t.Errorf("stage-%d switch %d is missing right output ports", sw.Stage, i)
		}
		if sw.PortAt(topology.Left, 0) == nil {
			t.Errorf("switch %d is missing left output ports", i)
		}
	}
}

func TestBMINWireIdentity(t *testing.T) {
	// Between adjacent stages, forward and backward channels of the
	// same wire address connect the same pair of switch ports, in
	// opposite directions.
	net, _ := graphtest.Of(topology.NewBMIN(4, 3))
	for g := 1; g < net.Stages; g++ {
		fwd := layerChannels(net, g, topology.Forward)
		bwd := layerChannels(net, g, topology.Backward)
		if len(fwd) != net.Nodes || len(bwd) != net.Nodes {
			t.Fatalf("layer %d: %d fwd, %d bwd channels, want %d", g, len(fwd), len(bwd), net.Nodes)
		}
		byWire := make(map[int]*topology.Channel)
		for _, id := range fwd {
			byWire[net.Channels[id].Wire] = &net.Channels[id]
		}
		for _, id := range bwd {
			b := &net.Channels[id]
			f := byWire[b.Wire]
			if f == nil {
				t.Fatalf("layer %d wire %d has no forward channel", g, b.Wire)
			}
			if f.From != b.To || f.To != b.From {
				t.Errorf("layer %d wire %d: forward and backward endpoints are not opposite", g, b.Wire)
			}
		}
	}
}

// fatTreeConfigs are the BMIN sizes whose fat-tree view (Section 3.3)
// is checked against the built network.
func fatTreeConfigs() [][2]int {
	return [][2]int{{2, 3}, {2, 4}, {4, 2}, {4, 3}, {8, 2}}
}

// TestBMINSubtree: a stage-s switch's subtree is a level-(s+1) vertex of
// the fat tree, k^(s+1) consecutive leaves from a multiple of k^(s+1),
// and exactly the nodes its backward channels descend to.
func TestBMINSubtree(t *testing.T) {
	for _, kn := range fatTreeConfigs() {
		net, err := topology.NewBMIN(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		span := 1
		for stage := 0; stage < net.Stages; stage++ {
			span *= net.K()
			for index := 0; index < net.SwitchCount()/net.Stages; index++ {
				got := net.Subtree(stage, index)
				below := descend(net, net.SwitchID(stage, index), nil)
				slices.Sort(below)
				if len(got) != span || got[0]%span != 0 || got[span-1] != got[0]+span-1 || !slices.Equal(got, below) {
					t.Fatalf("%s: Subtree(%d, %d) = %v; backward channels reach %v", net.Name(), stage, index, got, below)
				}
			}
		}
	}
}

// descend appends the nodes the backward channels of switch sw lead to.
func descend(net *topology.Network, sw int, nodes []int) []int {
	for off := 0; off < net.K(); off++ {
		base, _ := net.PortChannels(sw, topology.Left, off)
		if to := net.ChannelAt(base).To; to.IsNode() {
			nodes = append(nodes, to.Node)
		} else {
			nodes = descend(net, to.Switch, nodes)
		}
	}
	return nodes
}

// TestBMINCapacityLaw: the fat tree's capacity law on the built BMIN,
// with and without virtual channels. The stage-s switches of one
// k^(s+1)-leaf subtree, one level-(s+1) vertex, have k^(s+1) distinct
// forward links leaving them, as many as the leaves below, so
// bandwidth does not thin toward the root.
func TestBMINCapacityLaw(t *testing.T) {
	for _, kn := range fatTreeConfigs() {
		for _, vcs := range []int{1, 2} {
			net, err := topology.NewBMINVC(kn[0], kn[1], vcs)
			if err != nil {
				t.Fatal(err)
			}
			span := 1
			for stage := 0; stage < net.Stages-1; stage++ {
				span *= net.K()
				up := map[int]map[int]bool{} // first leaf of a subtree -> forward links
				for index := 0; index < net.SwitchCount()/net.Stages; index++ {
					leaf := net.Subtree(stage, index)[0]
					if up[leaf] == nil {
						up[leaf] = map[int]bool{}
					}
					for off := 0; off < net.K(); off++ {
						base, count := net.PortChannels(net.SwitchID(stage, index), topology.Right, off)
						for c := base; c < base+count; c++ {
							up[leaf][net.LinkOf(c)] = true
						}
					}
				}
				if len(up) != net.Nodes/span {
					t.Fatalf("%s stage %d: %d subtrees, want %d", net.Name(), stage, len(up), net.Nodes/span)
				}
				for leaf, links := range up {
					if len(links) != span {
						t.Errorf("%s stage %d: subtree from leaf %d has %d forward links leaving it, want %d",
							net.Name(), stage, leaf, len(links), span)
					}
				}
			}
		}
	}
}

func TestBMINSubtreePanicsOnUnidirectional(t *testing.T) {
	net, _ := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 3, Dilation: 1, VCs: 1}))
	defer func() {
		if recover() == nil {
			t.Error("Subtree on a unidirectional network did not panic")
		}
	}()
	net.Subtree(0, 0)
}

func TestBMINErrors(t *testing.T) {
	if _, err := topology.NewBMIN(3, 2); err == nil {
		t.Error("k = 3 accepted")
	}
	if _, err := topology.NewBMIN(2, 0); err == nil {
		t.Error("n = 0 accepted")
	}
}

// TestRightmostStageRedundancy demonstrates the Fig. 12 observation:
// with k = 2, every stage-(n-1) switch of the BMIN has both its left
// ports wired to the same stage-(n-2) switch pair such that the last
// stage only ever swaps between two wires — i.e. a message turning at
// stage n-1 could equivalently turn "in the wiring". We verify the
// structural precondition: the two left ports of each last-stage
// switch lead (backward) to ports of switches whose subtrees partition
// the whole network.
func TestRightmostStageRedundancy(t *testing.T) {
	net, _ := graphtest.Of(topology.NewBMIN(2, 3))
	last := net.Stages - 1
	for idx := 0; idx < net.Nodes/2; idx++ {
		sw := net.SwitchAt(last, idx)
		subs := make(map[int]bool)
		for off := 0; off < 2; off++ {
			p := sw.PortAt(topology.Left, off)
			ch := &net.Channels[p.Channels[0]]
			down := &net.Switches[ch.To.Switch]
			for _, node := range net.Subtree(down.Stage, down.Index) {
				if subs[node] {
					t.Fatalf("subtrees below last-stage switch %d overlap", idx)
				}
				subs[node] = true
			}
		}
		if len(subs) != net.Nodes {
			t.Fatalf("last-stage switch %d reaches %d nodes, want %d", idx, len(subs), net.Nodes)
		}
	}
}
