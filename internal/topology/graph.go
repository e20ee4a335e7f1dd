package topology

// Graph is the struct form of a Network: every channel, link and
// switch as a value, each switch with its input channels and output
// ports. It is a view, filled in one pass from the Network's accessors,
// for code that walks a graph — Validate, Dump, the Routers and the
// analyses built on them. It costs memory by the channel (64 MB at 16K
// nodes), so nothing on the simulation path asks for it or retains it.
type Graph struct {
	*Network

	Channels []Channel
	Links    []Link
	Switches []Switch

	Inject []int // per-node injection channel id
	Eject  []int // per-node ejection channel id
}

// Graph builds the struct form of the network.
func (n *Network) Graph() *Graph {
	g := &Graph{
		Network:  n,
		Channels: make([]Channel, n.ChannelCount()),
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
	ports := make([]Port, 0, n.perNode*k*len(g.Switches)) // k a side that has any
	for s := range g.Switches {
		sw := &g.Switches[s]
		sw.ID = s
		sw.Stage, sw.Index = n.StageOf(s)
		in, first := len(ids), len(ports)
		for _, side := range []Side{Left, Right} {
			for offset := 0; offset < k; offset++ {
				list(n.PortInputs(s, side, offset))
			}
		}
		sw.In = ids[in:len(ids):len(ids)]
		for _, side := range []Side{Left, Right} {
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

// SwitchAt returns the switch at (stage, index).
func (g *Graph) SwitchAt(stage, index int) *Switch {
	return &g.Switches[g.SwitchID(stage, index)]
}
