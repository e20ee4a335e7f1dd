// Package graphtest is the struct form of a topology.Network and the
// routers that walk it: the independent specification the closed-form
// accessors and the factored routing are tested against. Only test
// files import it; production code reads the description's accessors
// and routes through routing.Factored.
package graphtest

import "minsim/internal/topology"

// Link is a physical communication link transmitting at most one flit
// per cycle, shared by its Channels (one for plain channels, m for a
// virtual-channel link).
type Link struct {
	ID       int
	Channels []int
}

// Port is an output port of a switch: the set of candidate channels a
// packet routed to this port may use (d channels when dilated, m when
// virtual, 1 otherwise).
type Port struct {
	Side     topology.Side
	Offset   int
	Channels []int
}

// Switch is a k x k crossbar (possibly dilated / virtual-channel /
// bidirectional).
type Switch struct {
	ID    int
	Stage int
	Index int   // index of the switch within its stage
	In    []int // ids of channels whose To is this switch
	Ports []Port
}

// PortAt returns the output port on the given side with the given
// offset, or nil if the switch has no such port (e.g. right ports of
// the last BMIN stage).
func (sw *Switch) PortAt(side topology.Side, offset int) *Port {
	for i := range sw.Ports {
		p := &sw.Ports[i]
		if p.Side == side && p.Offset == offset {
			return p
		}
	}
	return nil
}

// Graph is the struct form of a Network: every channel, link and
// switch as a value, each switch with its input channels and output
// ports. It is a view, filled in one pass from the Network's accessors,
// for the tests that walk a graph — Validate, the Routers and the
// oracle comparisons. It costs memory by the channel (64 MB at 16K
// nodes).
type Graph struct {
	*topology.Network

	Channels []topology.Channel
	Links    []Link
	Switches []Switch

	Inject []int // per-node injection channel id
	Eject  []int // per-node ejection channel id
}

// New builds the struct form of the network.
func New(n *topology.Network) *Graph {
	g := &Graph{
		Network:  n,
		Channels: make([]topology.Channel, n.ChannelCount()),
		Links:    make([]Link, n.LinkCount()),
		Switches: make([]Switch, n.SwitchCount()),
		Inject:   make([]int, n.Nodes),
		Eject:    make([]int, n.Nodes),
	}
	// Every channel sits on one link, enters at most one switch and
	// leaves at most one port, so three slabs hold every id list.
	ids := make([]int, 0, 3*len(g.Channels))
	list := func(base, count int) []int {
		from := len(ids)
		for c := base; c < base+count; c++ {
			ids = append(ids, c)
		}
		return ids[from:len(ids):len(ids)]
	}
	for c := range g.Channels {
		g.Channels[c] = n.ChannelAt(c)
	}
	for l := range g.Links {
		g.Links[l] = Link{ID: l, Channels: list(n.LinkChannels(l))}
	}
	k := n.K()
	sides := 1 // output ports on the right side only, or on both
	if n.Kind == topology.BMIN {
		sides = 2
	}
	ports := make([]Port, 0, sides*k*len(g.Switches))
	for s := range g.Switches {
		sw := &g.Switches[s]
		sw.ID = s
		sw.Stage, sw.Index = n.StageOf(s)
		in, first := len(ids), len(ports)
		for _, side := range []topology.Side{topology.Left, topology.Right} {
			for offset := 0; offset < k; offset++ {
				list(n.PortInputs(s, side, offset))
			}
		}
		sw.In = ids[in:len(ids):len(ids)]
		for _, side := range []topology.Side{topology.Left, topology.Right} {
			for offset := 0; offset < k; offset++ {
				if base, count := n.PortChannels(s, side, offset); count > 0 {
					ports = append(ports, Port{Side: side, Offset: offset, Channels: list(base, count)})
				}
			}
		}
		sw.Ports = ports[first:len(ports):len(ports)]
	}
	for node := range g.Inject {
		g.Inject[node], g.Eject[node] = n.Inject(node), n.Eject(node)
	}
	return g
}

// Of turns a constructor's result into the struct form, for tests
// that walk it.
func Of(n *topology.Network, err error) (*Graph, error) {
	if err != nil {
		return nil, err
	}
	return New(n), nil
}

// SwitchAt returns the switch at (stage, index).
func (g *Graph) SwitchAt(stage, index int) *Switch {
	return &g.Switches[g.SwitchID(stage, index)]
}
