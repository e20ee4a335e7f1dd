package topology_test

import (
	"testing"

	"minsim/internal/kary"
	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

func TestExtraStageValidate(t *testing.T) {
	for _, e := range []int{1, 2} {
		for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly} {
			net, err := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1, Extra: e}))
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Validate(); err != nil {
				t.Fatalf("%s: %v", net.Name(), err)
			}
			if net.Stages != 3+e || net.Extra != e {
				t.Fatalf("%s: stages %d extra %d", net.Name(), net.Stages, net.Extra)
			}
			if len(net.Switches) != (3+e)*16 {
				t.Fatalf("%s: %d switches", net.Name(), len(net.Switches))
			}
		}
	}
	if _, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Dilation: 1, VCs: 1, Extra: -1}); err == nil {
		t.Error("negative extra stages accepted")
	}
}

// TestExtraStageDelivery: from every extra-stage output choice, the
// self-routing stages still deliver to the right node — the
// entry-independence property of Delta-network destination-tag
// routing that extra-stage MINs rely on.
func TestExtraStageDelivery(t *testing.T) {
	for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly} {
		net, err := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1, Extra: 1}))
		if err != nil {
			t.Fatal(err)
		}
		r := net.R
		for src := 0; src < net.Nodes; src += 3 {
			for dst := 0; dst < net.Nodes; dst++ {
				// Try every extra-stage exit port.
				for choice := 0; choice < 4; choice++ {
					ch := &net.Channels[net.Inject[src]]
					first := true
					for !ch.To.IsNode() {
						sw := &net.Switches[ch.To.Switch]
						var tag int
						if sw.Stage < net.Extra {
							tag = choice
							first = false
						} else {
							tag = topology.RoutingTag(r, pat, sw.Stage-net.Extra, dst)
						}
						p := sw.PortAt(topology.Right, tag)
						ch = &net.Channels[p.Channels[0]]
					}
					if first {
						t.Fatal("walk never visited the extra stage")
					}
					if ch.To.Node != dst {
						t.Fatalf("%s: %d->%d via choice %d delivered to %d", net.Name(), src, dst, choice, ch.To.Node)
					}
				}
			}
		}
	}
}

func TestExtraStageName(t *testing.T) {
	net, _ := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1, Extra: 1}))
	if got := net.Name(); got != "TMIN(cube+1xs) 64 nodes 4x4" {
		t.Errorf("Name = %q", got)
	}
}

func TestBMINVC(t *testing.T) {
	net, err := graphtest.Of(topology.NewBMINVC(4, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if net.VCs != 2 {
		t.Fatalf("VCs = %d", net.VCs)
	}
	// Interstage links carry 2 channels; node links 1.
	for i := range net.Links {
		l := &net.Links[i]
		ch := &net.Channels[l.Channels[0]]
		nodeFacing := ch.From.IsNode() || ch.To.IsNode()
		want := 2
		if nodeFacing {
			want = 1
		}
		if len(l.Channels) != want {
			t.Fatalf("link %d (layer %d) has %d channels, want %d", i, ch.Layer, len(l.Channels), want)
		}
	}
	if got := net.Name(); got != "BMIN(vc=2) 64 nodes 4x4" {
		t.Errorf("Name = %q", got)
	}
	if _, err := topology.NewBMINVC(4, 3, 0); err == nil {
		t.Error("vcs = 0 accepted")
	}
}

func TestExtraStageLemma1Unaffected(t *testing.T) {
	// The plain networks (Extra = 0) still wire C_0 per pattern, so
	// the partitionability analysis of Section 4 is untouched.
	net, _ := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1}))
	r := kary.MustNew(4, 3)
	for s := 0; s < net.Nodes; s++ {
		if net.Channels[net.Inject[s]].Wire != r.Shuffle(s) {
			t.Fatalf("C_0 changed for the standard cube MIN")
		}
	}
}
