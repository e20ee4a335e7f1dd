package routing

import (
	"fmt"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// The structural verification NewFactored ran against the built network
// on every engine.New, moved here whole now that Factored and the
// channel layout are read off the same description and there is
// nothing left to compare at run time: every switch port's channel
// list must equal the arithmetic run the factored lookup would emit for
// it, every channel's (Layer, Wire) must address its downstream switch,
// and the routing-tag bit positions must reproduce topology.RoutingTag.
// What it holds the lookup against is the struct view.

func verifyFactoredUni(net *graphtest.Graph, f *Factored) error {
	k := net.K()
	n := net.R.N()
	total := net.Stages
	N := net.Nodes
	if total != n+net.Extra || N != net.R.Size() {
		return fmt.Errorf("routing: network geometry (%d stages, %d nodes) does not match its radix (%d^%d)", total, N, k, n)
	}
	if want := f.layerBase[total] + N; len(net.Channels) != want {
		return fmt.Errorf("routing: %d channels, want %d for the canonical layer layout", len(net.Channels), want)
	}

	// Routing-tag digit positions, checked against RoutingTag for
	// every (stage, digit value) so the bit-field extraction in Lookup
	// provably matches the pattern's tag rule.
	for s := net.Extra; s < total; s++ {
		st := s - net.Extra
		for v := 0; v < k; v++ {
			if got := topology.RoutingTag(net.R, net.Pat, st, v<<f.tagShift[s]); got != v {
				return fmt.Errorf("routing: stage %d routing tag mismatch: bit position %d gives %d, want %d", st, f.tagShift[s], got, v)
			}
		}
	}

	// Structural verification: incoming channels address their switch
	// through (Layer, Wire), and every output port's channel list is
	// exactly the ascending run the layer arithmetic predicts.
	for ci := range net.Channels {
		ch := &net.Channels[ci]
		if ch.To.IsNode() {
			continue
		}
		sw := &net.Switches[ch.To.Switch]
		if ch.Layer != sw.Stage || ch.Layer < 0 || ch.Layer >= total || ch.Wire != sw.Index*k+ch.To.Port {
			return fmt.Errorf("routing: channel %d (layer %d, wire %d) does not address switch %d canonically", ci, ch.Layer, ch.Wire, sw.ID)
		}
	}
	for si := range net.Switches {
		sw := &net.Switches[si]
		right := 0
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			if p.Side != topology.Right {
				continue
			}
			if p.Offset != right {
				return fmt.Errorf("routing: switch %d right ports out of order at offset %d", si, p.Offset)
			}
			right++
			L := sw.Stage + 1
			base := f.layerBase[L] + (sw.Index*k+p.Offset)*f.layerCPW[L]
			if err := checkRun(p.Channels, base, f.layerCPW[L]); err != nil {
				return fmt.Errorf("routing: switch %d port R%d: %w", si, p.Offset, err)
			}
		}
		if right != k {
			return fmt.Errorf("routing: switch %d has %d right ports, want %d", si, right, k)
		}
	}
	return nil
}

func verifyFactoredBMIN(net *graphtest.Graph, f *Factored) error {
	k := net.K()
	vcs := net.VCs
	vcs2 := f.vcs2
	n := net.R.N()
	N := net.Nodes
	if net.Stages != n || N != net.R.Size() || net.Extra != 0 {
		return fmt.Errorf("routing: BMIN geometry (%d stages, %d nodes) does not match its radix (%d^%d)", net.Stages, N, k, n)
	}
	r := net.R
	if want := 2*N + (n-1)*2*N*vcs; len(net.Channels) != want {
		return fmt.Errorf("routing: %d channels, want %d for the canonical BMIN layout", len(net.Channels), want)
	}

	for ci := range net.Channels {
		ch := &net.Channels[ci]
		if ch.To.IsNode() {
			continue
		}
		sw := &net.Switches[ch.To.Switch]
		j := ch.Layer
		if ch.Dir == topology.Backward {
			j--
		}
		if j != sw.Stage || j < 0 || j >= n || r.DeleteDigit(ch.Wire, j) != sw.Index || r.Digit(ch.Wire, j) != ch.To.Port {
			return fmt.Errorf("routing: channel %d (layer %d, wire %d, %v) does not address switch %d canonically", ci, ch.Layer, ch.Wire, ch.Dir, sw.ID)
		}
	}
	for si := range net.Switches {
		sw := &net.Switches[si]
		j := sw.Stage
		left, right := 0, 0
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			a := r.InsertDigit(sw.Index, j, p.Offset) // the port's wire address
			if p.Side == topology.Left {
				if p.Offset != left {
					return fmt.Errorf("routing: switch %d left ports out of order at offset %d", si, p.Offset)
				}
				left++
				// Left-port outputs are the backward channels.
				if j == 0 {
					if err := checkRun(p.Channels, 2*a+1, 1); err != nil {
						return fmt.Errorf("routing: switch %d port L%d: %w", si, p.Offset, err)
					}
					continue
				}
				if err := checkRun(p.Channels, f.layerBase[j]+a*vcs2+vcs, vcs); err != nil {
					return fmt.Errorf("routing: switch %d port L%d: %w", si, p.Offset, err)
				}
				continue
			}
			if p.Offset != right {
				return fmt.Errorf("routing: switch %d right ports out of order at offset %d", si, p.Offset)
			}
			right++
			if j == n-1 {
				return fmt.Errorf("routing: switch %d at the last stage has a right port", si)
			}
			if err := checkRun(p.Channels, f.layerBase[j+1]+a*vcs2, vcs); err != nil {
				return fmt.Errorf("routing: switch %d port R%d: %w", si, p.Offset, err)
			}
		}
		if left != k || (j < n-1 && right != k) || (j == n-1 && right != 0) {
			return fmt.Errorf("routing: switch %d has %d left / %d right ports, want %d-wide sides", si, left, right, k)
		}
	}
	return nil
}

// checkRun verifies a port's channel list is exactly `count`
// consecutive ids starting at base.
func checkRun(chans []int, base, count int) error {
	if len(chans) != count {
		return fmt.Errorf("%d channels, want %d", len(chans), count)
	}
	for i, c := range chans {
		if c != base+i {
			return fmt.Errorf("channel %d at run offset %d, want %d", c, i, base+i)
		}
	}
	return nil
}

// TestFactoredLayout runs the verification over every family, pattern,
// arity, depth, extra-stage count and channel multiplicity 1 to 4.
func TestFactoredLayout(t *testing.T) {
	check := func(net *topology.Network, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		f := NewFactored(net)
		verify := verifyFactoredUni
		if net.Kind == topology.BMIN {
			verify = verifyFactoredBMIN
		}
		if err := verify(graphtest.New(net), f); err != nil {
			t.Errorf("%s: %v", net.Name(), err)
		}
	}
	for _, k := range []int{2, 4, 8} {
		for n := 1; n <= 4; n++ {
			if k == 8 && n == 4 && testing.Short() {
				continue
			}
			for m := 1; m <= 4; m++ {
				net, err := topology.NewBMINVC(k, n, m)
				check(net, err)
				for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly, topology.Omega, topology.Baseline} {
					for extra := 0; extra <= 2; extra++ {
						net, err := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: n, Pattern: pat, Dilation: m, VCs: 1, Extra: extra})
						check(net, err)
						net, err = topology.NewUnidirectional(topology.UniConfig{K: k, Stages: n, Pattern: pat, Dilation: 1, VCs: m, Extra: extra})
						check(net, err)
					}
				}
			}
		}
	}
}
