package topology_test

import (
	"slices"
	"testing"

	"minsim/internal/kary"
	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// allConfigs returns a spread of unidirectional configurations used by
// several tests.
func allUniConfigs() []topology.UniConfig {
	var out []topology.UniConfig
	for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly} {
		out = append(out,
			topology.UniConfig{K: 2, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1},
			topology.UniConfig{K: 2, Stages: 4, Pattern: pat, Dilation: 1, VCs: 1},
			topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1},
			topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: 2, VCs: 1},
			topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: 1, VCs: 2},
			topology.UniConfig{K: 8, Stages: 2, Pattern: pat, Dilation: 1, VCs: 1},
			topology.UniConfig{K: 4, Stages: 2, Pattern: pat, Dilation: 3, VCs: 1},
			topology.UniConfig{K: 4, Stages: 2, Pattern: pat, Dilation: 1, VCs: 4},
		)
	}
	return out
}

func TestUnidirectionalValidate(t *testing.T) {
	for _, cfg := range allUniConfigs() {
		net, err := graphtest.Of(topology.NewUnidirectional(cfg))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", net.Name(), err)
		}
	}
}

func TestUnidirectionalCounts(t *testing.T) {
	for _, cfg := range allUniConfigs() {
		net, _ := graphtest.Of(topology.NewUnidirectional(cfg))
		k, n, N := cfg.K, cfg.Stages, net.Nodes
		if len(net.Switches) != n*N/k {
			t.Errorf("%s: %d switches, want %d", net.Name(), len(net.Switches), n*N/k)
		}
		// Edge layers have N single-channel links each; interstage
		// layers have N ports with dilation links of VCs channels.
		wantLinks := 2*N + (n-1)*N*cfg.Dilation
		if len(net.Links) != wantLinks {
			t.Errorf("%s: %d links, want %d", net.Name(), len(net.Links), wantLinks)
		}
		wantChans := 2*N + (n-1)*N*cfg.Dilation*cfg.VCs
		if len(net.Channels) != wantChans {
			t.Errorf("%s: %d channels, want %d", net.Name(), len(net.Channels), wantChans)
		}
		// Every switch has k input links' worth of channels and k output ports.
		for i := range net.Switches {
			sw := &net.Switches[i]
			if len(sw.Ports) != k {
				t.Fatalf("%s: switch %d has %d ports, want %d", net.Name(), i, len(sw.Ports), k)
			}
		}
	}
}

func TestConnPermsAreValid(t *testing.T) {
	r := kary.MustNew(4, 3)
	for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly} {
		for layer := 0; layer <= 3; layer++ {
			if !topology.ConnPerm(r, pat, layer).Valid() {
				t.Errorf("%v C_%d is not a permutation", pat, layer)
			}
		}
	}
	// Cube C_0 is the shuffle; butterfly C_0 is the identity.
	if !slices.Equal(topology.ConnPerm(r, topology.Cube, 0), r.ShufflePerm()) {
		t.Error("cube C_0 != σ")
	}
	if !topology.ConnPerm(r, topology.Butterfly, 0).Fixed() {
		t.Error("butterfly C_0 != identity")
	}
	// Both wirings have identity output connections.
	if !topology.ConnPerm(r, topology.Cube, 3).Fixed() || !topology.ConnPerm(r, topology.Butterfly, 3).Fixed() {
		t.Error("C_n != identity")
	}
}

// TestDestinationTagDelivery is the fundamental wiring check: in every
// unidirectional configuration, following the destination-tag route
// from any source reaches exactly the intended destination. This
// validates Fig. 4 (TMINs) and Fig. 5 (DMINs) structurally.
func TestDestinationTagDelivery(t *testing.T) {
	for _, cfg := range allUniConfigs() {
		net, _ := graphtest.Of(topology.NewUnidirectional(cfg))
		r := net.R
		for src := 0; src < net.Nodes; src++ {
			for dst := 0; dst < net.Nodes; dst++ {
				ch := &net.Channels[net.Inject[src]]
				for !ch.To.IsNode() {
					sw := &net.Switches[ch.To.Switch]
					tag := topology.RoutingTag(r, cfg.Pattern, sw.Stage, dst)
					p := sw.PortAt(topology.Right, tag)
					if p == nil {
						t.Fatalf("%s: no port %d at stage %d", net.Name(), tag, sw.Stage)
					}
					ch = &net.Channels[p.Channels[0]]
				}
				if ch.To.Node != dst {
					t.Fatalf("%s: route %d->%d delivered to %d", net.Name(), src, dst, ch.To.Node)
				}
				if ch.ID != net.Eject[dst] {
					t.Fatalf("%s: route %d->%d ended on channel %d, want ejection %d", net.Name(), src, dst, ch.ID, net.Eject[dst])
				}
			}
		}
	}
}

// TestLemma1ChannelAddresses checks the channel-address evolution used
// in the proof of Lemma 1: in a cube MIN, the wire entering stage 0 is
// σ(s) = s_{n-2}...s_0 s_{n-1}, and the wire exiting stage i carries
// address d_{n-1}...d_{n-i} s_{n-i-2}...s_0 d_{n-i-1}.
func TestLemma1ChannelAddresses(t *testing.T) {
	net, _ := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1}))
	r := net.R
	n := r.N()
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			// Entering stage 0.
			in := &net.Channels[net.Inject[s]]
			if in.Wire != r.Shuffle(s) {
				t.Fatalf("inject wire for %d is %d, want σ(s) = %d", s, in.Wire, r.Shuffle(s))
			}
			// Walk and verify each stage-exit wire address.
			ch := in
			expect := r.Shuffle(s)
			for stage := 0; stage < n; stage++ {
				sw := &net.Switches[ch.To.Switch]
				if sw.Stage != stage {
					t.Fatalf("walk out of sync at stage %d", stage)
				}
				tag := topology.RoutingTag(r, topology.Cube, stage, d)
				// Exiting wire: digit 0 of the entering wire replaced
				// by the routing tag d_{n-stage-1}.
				exit := r.SetDigit(expect, 0, tag)
				p := sw.PortAt(topology.Right, tag)
				ch = &net.Channels[p.Channels[0]]
				if stage < n-1 {
					if ch.Wire != topology.ConnPerm(r, topology.Cube, stage+1)[exit] {
						t.Fatalf("stage %d exit: wire %d, want C_%d(%d)", stage, ch.Wire, stage+1, exit)
					}
					expect = ch.Wire
				} else if ch.To.Node != d {
					t.Fatalf("route %d->%d misdelivered", s, d)
				}
			}
		}
	}
}

func TestUniErrors(t *testing.T) {
	bad := []topology.UniConfig{
		{K: 3, Stages: 2, Dilation: 1, VCs: 1}, // k not a power of two
		{K: 4, Stages: 0, Dilation: 1, VCs: 1}, // no stages
		{K: 4, Stages: 2, Dilation: 0, VCs: 1}, // bad dilation
		{K: 4, Stages: 2, Dilation: 1, VCs: 0}, // bad vcs
		{K: 4, Stages: 2, Dilation: 2, VCs: 2}, // both refinements
		{K: 1, Stages: 2, Dilation: 1, VCs: 1}, // k too small
	}
	for _, cfg := range bad {
		if _, err := topology.NewUnidirectional(cfg); err == nil {
			t.Errorf("%+v: expected error", cfg)
		}
	}
}

func TestKindClassification(t *testing.T) {
	cases := []struct {
		cfg  topology.UniConfig
		want topology.Kind
	}{
		{topology.UniConfig{K: 4, Stages: 3, Dilation: 1, VCs: 1}, topology.TMIN},
		{topology.UniConfig{K: 4, Stages: 3, Dilation: 2, VCs: 1}, topology.DMIN},
		{topology.UniConfig{K: 4, Stages: 3, Dilation: 1, VCs: 2}, topology.VMIN},
	}
	for _, c := range cases {
		net, err := graphtest.Of(topology.NewUnidirectional(c.cfg))
		if err != nil {
			t.Fatal(err)
		}
		if net.Kind != c.want {
			t.Errorf("%+v: kind %v, want %v", c.cfg, net.Kind, c.want)
		}
	}
}

func TestNodeEdgesSingleChannel(t *testing.T) {
	// The one-port rule: node links carry exactly one channel in every
	// network, including DMINs and VMINs.
	for _, cfg := range allUniConfigs() {
		net, _ := graphtest.Of(topology.NewUnidirectional(cfg))
		for node := 0; node < net.Nodes; node++ {
			inj := net.Channels[net.Inject[node]]
			if got := len(net.Links[inj.Link].Channels); got != 1 {
				t.Fatalf("%s: injection link of node %d has %d channels", net.Name(), node, got)
			}
			ej := net.Channels[net.Eject[node]]
			if got := len(net.Links[ej.Link].Channels); got != 1 {
				t.Fatalf("%s: ejection link of node %d has %d channels", net.Name(), node, got)
			}
		}
	}
}

func TestPaperConfiguration(t *testing.T) {
	// Section 5: 64 nodes, 4x4 switches, three stages, 16 switches per stage.
	net, err := graphtest.Of(topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes != 64 || net.Stages != 3 || len(net.Switches) != 48 {
		t.Fatalf("got %d nodes, %d stages, %d switches", net.Nodes, net.Stages, len(net.Switches))
	}
	for s := 0; s < 3; s++ {
		count := 0
		for i := range net.Switches {
			if net.Switches[i].Stage == s {
				count++
			}
		}
		if count != 16 {
			t.Fatalf("stage %d has %d switches, want 16", s, count)
		}
	}
}

func TestDumpAndDOT(t *testing.T) {
	net, _ := topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	d := net.Dump()
	if len(d) == 0 {
		t.Error("empty dump")
	}
	dot := net.DOT()
	if len(dot) == 0 {
		t.Error("empty DOT")
	}
	bnet, _ := topology.NewBMIN(2, 3)
	if len(bnet.Dump()) == 0 || len(bnet.DOT()) == 0 {
		t.Error("empty BMIN dump")
	}
}
