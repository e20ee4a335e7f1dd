package graphtest

import (
	"fmt"

	"minsim/internal/topology"
)

// Validate checks structural invariants of the struct form and
// returns the first violation found, or nil. The form is filled from
// the Network's closed-form accessors, so this is a check on them: it
// runs in the tests over every configuration.
func (n *Graph) Validate() error {
	if err := n.validateChannels(); err != nil {
		return err
	}
	if err := n.validateLinks(); err != nil {
		return err
	}
	if err := n.validateSwitches(); err != nil {
		return err
	}
	return n.validateNodeEdges()
}

func (n *Graph) validateChannels() error {
	for i := range n.Channels {
		ch := &n.Channels[i]
		if ch.ID != i {
			return fmt.Errorf("channel %d has ID %d", i, ch.ID)
		}
		if ch.Link < 0 || ch.Link >= len(n.Links) {
			return fmt.Errorf("channel %d references link %d out of range", i, ch.Link)
		}
		for _, loc := range []topology.Loc{ch.From, ch.To} {
			if loc.IsNode() {
				if loc.Node >= n.Nodes {
					return fmt.Errorf("channel %d endpoint node %d out of range", i, loc.Node)
				}
				continue
			}
			if loc.Switch < 0 || loc.Switch >= len(n.Switches) {
				return fmt.Errorf("channel %d endpoint switch %d out of range", i, loc.Switch)
			}
			if loc.Port < 0 || loc.Port >= n.K() {
				return fmt.Errorf("channel %d endpoint port %d out of range", i, loc.Port)
			}
		}
		if ch.From.IsNode() && ch.To.IsNode() {
			return fmt.Errorf("channel %d connects node to node", i)
		}
	}
	return nil
}

func (n *Graph) validateLinks() error {
	// Indexed by channel id: a map here costs hundreds of megabytes
	// on million-channel large-N networks.
	seen := make([]bool, len(n.Channels))
	total := 0
	for i := range n.Links {
		l := &n.Links[i]
		if l.ID != i {
			return fmt.Errorf("link %d has ID %d", i, l.ID)
		}
		if len(l.Channels) == 0 {
			return fmt.Errorf("link %d carries no channels", i)
		}
		for _, c := range l.Channels {
			if c < 0 || c >= len(n.Channels) {
				return fmt.Errorf("link %d references channel %d out of range", i, c)
			}
			if n.Channels[c].Link != i {
				return fmt.Errorf("link %d lists channel %d which belongs to link %d", i, c, n.Channels[c].Link)
			}
			if seen[c] {
				return fmt.Errorf("channel %d appears on multiple links", c)
			}
			seen[c] = true
			total++
			// All channels of a physical link share endpoints.
			if n.Channels[c].From != n.Channels[l.Channels[0]].From || n.Channels[c].To != n.Channels[l.Channels[0]].To {
				return fmt.Errorf("link %d carries channels with different endpoints", i)
			}
		}
	}
	if total != len(n.Channels) {
		return fmt.Errorf("%d channels assigned to links, want %d", total, len(n.Channels))
	}
	return nil
}

func (n *Graph) validateSwitches() error {
	k := n.K()
	for i := range n.Switches {
		sw := &n.Switches[i]
		if sw.ID != i {
			return fmt.Errorf("switch %d has ID %d", i, sw.ID)
		}
		for _, c := range sw.In {
			ch := &n.Channels[c]
			if ch.To.IsNode() || ch.To.Switch != i {
				return fmt.Errorf("switch %d lists input channel %d that does not terminate there", i, c)
			}
		}
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			if p.Offset < 0 || p.Offset >= k {
				return fmt.Errorf("switch %d port offset %d out of range", i, p.Offset)
			}
			if len(p.Channels) == 0 {
				return fmt.Errorf("switch %d port %s%d has no channels", i, p.Side, p.Offset)
			}
			want := 1
			switch n.Kind {
			case topology.DMIN:
				want = n.Dilation
			case topology.VMIN, topology.BMIN:
				want = n.VCs
			}
			// Node-facing ports always carry a single channel.
			if n.Channels[p.Channels[0]].To.IsNode() {
				want = 1
			}
			if len(p.Channels) != want {
				return fmt.Errorf("switch %d port %s%d has %d channels, want %d", i, p.Side, p.Offset, len(p.Channels), want)
			}
			for _, c := range p.Channels {
				ch := &n.Channels[c]
				if ch.From.IsNode() || ch.From.Switch != i || ch.From.Side != p.Side || ch.From.Port != p.Offset {
					return fmt.Errorf("switch %d port %s%d lists channel %d that does not originate there", i, p.Side, p.Offset, c)
				}
			}
		}
	}
	return nil
}

func (n *Graph) validateNodeEdges() error {
	for node := 0; node < n.Nodes; node++ {
		inj := n.Inject[node]
		if inj < 0 || inj >= len(n.Channels) || !n.Channels[inj].From.IsNode() || n.Channels[inj].From.Node != node {
			return fmt.Errorf("node %d has invalid injection channel %d", node, inj)
		}
		ej := n.Eject[node]
		if ej < 0 || ej >= len(n.Channels) || !n.Channels[ej].To.IsNode() || n.Channels[ej].To.Node != node {
			return fmt.Errorf("node %d has invalid ejection channel %d", node, ej)
		}
	}
	return nil
}
