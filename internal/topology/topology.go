// Package topology describes the four wormhole multistage
// interconnection networks (MINs) studied by Ni/Gui/Moore: traditional
// MINs (TMIN), dilated MINs (DMIN), MINs with virtual channels (VMIN) —
// all unidirectional, with either cube or butterfly interstage wiring —
// and bidirectional butterfly MINs (BMIN) routed by turnaround routing.
//
// A network is a set of switches connected by physical links; each
// link carries one or more (virtual) channels. A channel is the unit
// of wormhole allocation: it has a single-flit buffer at its
// downstream end and is owned by at most one worm at a time. Dilated
// ports are d parallel links of one channel each; virtual-channel
// ports are one link carrying m channels.
package topology

import (
	"fmt"

	"minsim/internal/kary"
)

// Kind identifies one of the four network families of the paper.
type Kind int

const (
	TMIN Kind = iota // traditional unidirectional MIN
	DMIN             // d-dilated unidirectional MIN
	VMIN             // unidirectional MIN with virtual channels
	BMIN             // bidirectional butterfly MIN (fat tree)
)

// String returns the human-readable name.
func (k Kind) String() string {
	switch k {
	case TMIN:
		return "TMIN"
	case DMIN:
		return "DMIN"
	case VMIN:
		return "VMIN"
	case BMIN:
		return "BMIN"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pattern selects the interstage wiring of a unidirectional MIN
// (Section 2 of the paper). Both are Delta networks; they differ in
// partitionability (Section 4).
type Pattern int

const (
	// Cube wiring: C_0 = perfect k-shuffle, C_i = β_{n-i}, C_n = identity.
	Cube Pattern = iota
	// Butterfly wiring: C_i = β_i for i < n, C_n = identity.
	Butterfly
	// Omega wiring: C_i = σ for i < n, C_n = identity. The paper's
	// conclusion notes the Omega network has the same network
	// partitionability as the cube network.
	Omega
	// Baseline wiring: C_0 = identity, C_i = the inverse shuffle
	// applied to the low n-i+1 digits, C_n = identity. The paper's
	// conclusion notes its partitionability is similar to the
	// butterfly network's.
	Baseline
)

// String returns the human-readable name.
func (p Pattern) String() string {
	switch p {
	case Cube:
		return "cube"
	case Butterfly:
		return "butterfly"
	case Omega:
		return "omega"
	case Baseline:
		return "baseline"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Side distinguishes the two sides of a switch. In unidirectional
// networks inputs are on the Left and outputs on the Right; in
// bidirectional networks both sides have inputs and outputs.
type Side int8

const (
	Left Side = iota
	Right
)

// String returns the human-readable name.
func (s Side) String() string {
	if s == Left {
		return "L"
	}
	return "R"
}

// Dir is the direction a channel carries traffic. Unidirectional
// networks only have Forward channels. In a BMIN, Forward moves away
// from the nodes (up the fat tree) and Backward toward them.
type Dir int8

const (
	Forward Dir = iota
	Backward
)

// String returns the human-readable name.
func (d Dir) String() string {
	if d == Forward {
		return "fwd"
	}
	return "bwd"
}

// Loc is one endpoint of a channel: either a node (Node >= 0,
// Switch == -1) or a switch port.
type Loc struct {
	Node   int  // node id, or -1
	Switch int  // switch id (see Network.SwitchID), or -1
	Side   Side // side of the switch the port is on
	Port   int  // port offset in [0, k)
}

// IsNode reports whether the endpoint is a processor node.
func (l Loc) IsNode() bool { return l.Node >= 0 }

// Channel is a unidirectional virtual channel with a single-flit
// buffer at its downstream (To) end.
type Channel struct {
	ID   int
	Link int // physical link carrying this channel
	From Loc
	To   Loc
	Dir  Dir
	// Layer is the connection layer the channel belongs to. For
	// unidirectional MINs layer i is connection C_i (0 = injection,
	// n = ejection). For BMINs layer g covers the wires between stage
	// g-1 and stage g, with layer 0 being the node<->stage-0 links.
	Layer int
	// Wire is the n-digit port/wire address of the channel within its
	// layer (the quantity manipulated in the paper's Lemma 1 proof),
	// or -1 when not meaningful.
	Wire int
}

// Network is a MIN as the paper defines one: a family, a wiring
// pattern, a radix and a few multiplicities. Every channel, link,
// switch and port follows from that in closed form, and the accessors
// below compute them on demand in O(1) without allocating: ids are
// layer-major (see place) and a layer's wiring is one primitive digit
// permutation (see wiring). Nothing builds a graph of structs from it:
// the engine, the routing and the analyses read the accessors.
// Construct with NewUnidirectional, NewBMIN or NewBMINVC.
type Network struct {
	Kind     Kind
	Pat      Pattern // meaningful for unidirectional kinds
	R        kary.Radix
	Dilation int // channels per port for DMIN (1 otherwise)
	VCs      int // virtual channels per internal link for VMIN/BMIN (1 otherwise)
	Extra    int // leading distribution stages (extra-stage MINs; 0 otherwise)

	Nodes  int
	Stages int

	// The id layout, derived from the fields above. Layer 0 holds edge
	// channels on as many links, perNode to a node; each of the Stages-1
	// interstage layers perLayer channels on linksPerLayer links, cpw to
	// a wire and direction; a unidirectional network ends with Nodes
	// ejection channels from ejectBase on (a BMIN ejects in layer 0).
	perStage, perNode                  int // switches per stage, Nodes/k
	cpw, edge, perLayer, linksPerLayer int
	ejectBase, chans, links            int
}

// newNetwork fills in the id layout of a checked description.
func newNetwork(kind Kind, pat Pattern, r kary.Radix, dilation, vcs, extra int) *Network {
	N := r.Size()
	n := &Network{
		Kind: kind, Pat: pat, R: r, Dilation: dilation, VCs: vcs, Extra: extra,
		Nodes: N, Stages: r.N() + extra,
		perStage: N / r.K(),
	}
	inner := n.Stages - 1
	if kind == BMIN {
		// A full-duplex pair of single-channel links per node, and per
		// interstage wire a pair of links of vcs channels.
		n.perNode, n.cpw, n.edge, n.perLayer, n.linksPerLayer = 2, vcs, 2*N, 2*N*vcs, 2*N
		n.chans, n.links = n.edge+inner*n.perLayer, n.edge+inner*n.linksPerLayer
		n.ejectBase = n.chans
		return n
	}
	// One single-channel link per node at each end, and per interstage
	// wire either Dilation one-channel links or one link of VCs
	// channels (the two never combine).
	n.perNode, n.cpw, n.edge, n.perLayer, n.linksPerLayer = 1, dilation*vcs, N, N*dilation*vcs, N*dilation
	n.ejectBase = n.edge + inner*n.perLayer
	n.chans, n.links = n.ejectBase+N, n.edge+inner*n.linksPerLayer+N
	return n
}

// K returns the switch arity.
func (n *Network) K() int { return n.R.K() }

// ChannelCount returns the total number of (virtual) channels,
// a proxy for the paper's hardware-complexity comparison.
func (n *Network) ChannelCount() int { return n.chans }

// LinkCount returns the number of physical links.
func (n *Network) LinkCount() int { return n.links }

// SwitchCount returns the number of switches.
func (n *Network) SwitchCount() int { return n.Stages * n.perStage }

// SwitchID returns the id of the switch at (stage, index); switch ids
// are stage-major.
func (n *Network) SwitchID(stage, index int) int { return stage*n.perStage + index }

// StageOf returns the stage and the index within it of switch sw.
func (n *Network) StageOf(sw int) (stage, index int) { return sw / n.perStage, sw % n.perStage }

// Inject returns the id of the node's injection channel.
func (n *Network) Inject(node int) int { return n.perNode * node }

// Eject returns the id of the node's ejection channel.
func (n *Network) Eject(node int) int {
	if n.Kind == BMIN {
		return 2*node + 1
	}
	return n.ejectBase + n.connInv(n.Stages, node)
}

// LayerBase returns the first channel id of connection layer L >= 1
// (layer 0 starts at 0).
func (n *Network) LayerBase(L int) int { return n.edge + (L-1)*n.perLayer }

// place decodes a channel id into its layer, the wire p it rides —
// named by the node or previous-stage output port the wire leaves, in a
// BMIN by its wire address — and its index j among that wire's channels
// (a BMIN wire's forward channels first): the inverse of the layer-major
// numbering LayerBase(layer) + p*(channels per wire) + j.
func (n *Network) place(c int) (layer, p, j int) {
	if c < 0 || c >= n.chans {
		panic(fmt.Sprintf("topology: channel %d out of range [0, %d)", c, n.chans))
	}
	switch {
	case c >= n.ejectBase: // unidirectional only: a BMIN ejects in layer 0
		return n.Stages, c - n.ejectBase, 0
	case c < n.edge && n.Kind == BMIN:
		return 0, c >> 1, c & 1
	case c < n.edge:
		return 0, c, 0
	}
	per := n.cpw
	if n.Kind == BMIN {
		per = 2 * n.cpw
	}
	off := c - n.edge
	layer = off/n.perLayer + 1
	off %= n.perLayer
	return layer, off / per, off % per
}

// EndsAtNode reports whether channel c is an ejection channel: the last
// layer of a unidirectional network, the odd edge channels of a BMIN.
func (n *Network) EndsAtNode(c int) bool {
	return c >= n.ejectBase || n.Kind == BMIN && c < n.edge && c&1 == 1
}

// dirOf returns the direction of the j-th channel of a wire: every
// unidirectional channel runs forward, and a BMIN wire carries its
// forward channels first (one at the node edge, cpw elsewhere).
func (n *Network) dirOf(layer, j int) Dir {
	if n.Kind == BMIN && (j >= n.cpw || (layer == 0 && j == 1)) {
		return Backward
	}
	return Forward
}

// Address returns what the routing functions read off the channel a
// head flit waits in: its connection layer, its wire address within
// the layer and its direction (see Channel).
func (n *Network) Address(c int) (layer, wire int, dir Dir) {
	layer, p, j := n.place(c)
	if n.Kind != BMIN && layer < n.Stages {
		p = n.conn(layer, p)
	}
	return layer, p, n.dirOf(layer, j)
}

// StageEntered returns the stage of the switch at the downstream end
// of channel c, which must not end at a node: a forward channel of
// layer g enters stage g, a backward one stage g-1.
func (n *Network) StageEntered(c int) int {
	layer, _, j := n.place(c)
	return layer - int(n.dirOf(layer, j))
}

// LinkOf returns the physical link carrying channel c.
func (n *Network) LinkOf(c int) int {
	switch layer, p, _ := n.place(c); layer {
	case 0:
		return c
	case n.Stages:
		return n.links - n.Nodes + p
	default: // every VCs channels of an interstage layer share a link
		return n.edge + (layer-1)*n.linksPerLayer + (c-n.LayerBase(layer))/n.VCs
	}
}

// LinkChannels returns the channels of link l as the run of count
// consecutive ids starting at base.
func (n *Network) LinkChannels(l int) (base, count int) {
	if l < 0 || l >= n.links {
		panic(fmt.Sprintf("topology: link %d out of range [0, %d)", l, n.links))
	}
	if l < n.edge {
		return l, 1
	}
	off := l - n.edge
	layer := off/n.linksPerLayer + 1
	if layer >= n.Stages {
		return n.ejectBase + off - (n.Stages-1)*n.linksPerLayer, 1
	}
	return n.LayerBase(layer) + off%n.linksPerLayer*n.VCs, n.VCs
}

// ChannelAt returns channel c in struct form.
func (n *Network) ChannelAt(c int) Channel {
	layer, p, j := n.place(c)
	ch := Channel{ID: c, Link: n.LinkOf(c), Dir: n.dirOf(layer, j), Layer: layer, Wire: p}
	// The wire runs from right port lo of stage layer-1 (or node p) to
	// left port hi of stage layer (or node hi). Unidirectional: port p
	// to port C_layer(p), which is the channel's address. BMIN: the
	// wire's own address names it at both ends.
	lo, hi := p, p
	if n.Kind == BMIN {
		lo, hi = n.bminPort(max(layer-1, 0), p), n.bminPort(layer, p)
	} else if hi = n.conn(layer, p); layer < n.Stages {
		ch.Wire = hi
	}
	k := n.K()
	ch.From, ch.To = nodeLoc(p), nodeLoc(hi)
	if layer > 0 {
		ch.From = swLoc(n.SwitchID(layer-1, lo/k), Right, lo%k)
	}
	if layer < n.Stages {
		ch.To = swLoc(n.SwitchID(layer, hi/k), Left, hi%k)
	}
	if ch.Dir == Backward {
		ch.From, ch.To = ch.To, ch.From
	}
	return ch
}

// PortChannels returns the channels leaving switch sw through the port
// on the given side at the given offset, as a run of count consecutive
// ids starting at base; count is 0 where no channel does (the left
// side of a unidirectional switch, the right side of the last BMIN
// stage). A left port sends backward, a right port forward.
func (n *Network) PortChannels(sw int, side Side, offset int) (base, count int) {
	layer, p := n.wireAt(sw, side, offset)
	return n.run(layer, p, Backward-Dir(side))
}

// PortInputs returns the channels entering switch sw through that
// port, likewise. Left ports 0..k-1, then right ports 0..k-1, list a
// switch's input channels in ascending id.
func (n *Network) PortInputs(sw int, side Side, offset int) (base, count int) {
	layer, p := n.wireAt(sw, side, offset)
	return n.run(layer, p, Dir(side))
}

// wireAt returns the wire a switch port ends: the left ports of stage s
// end the wires of layer s — found through the inverse of the layer's
// connection — and the right ports those of layer s+1.
func (n *Network) wireAt(sw int, side Side, offset int) (layer, p int) {
	stage, index := n.StageOf(sw)
	layer = stage + int(side)
	switch {
	case n.Kind == BMIN:
		return layer, n.R.InsertDigit(index, stage, offset)
	case side == Left:
		return layer, n.connInv(stage, index*n.K()+offset)
	}
	return layer, index*n.K() + offset
}

// run returns the channels wire p of a layer carries in one direction.
func (n *Network) run(layer, p int, dir Dir) (base, count int) {
	bmin := n.Kind == BMIN
	switch {
	case dir == Backward && !bmin, layer == n.Stages && bmin:
		return 0, 0
	case layer == 0:
		return n.perNode*p + int(dir), 1
	case layer == n.Stages:
		return n.ejectBase + p, 1
	case bmin:
		return n.LayerBase(layer) + (2*p+int(dir))*n.cpw, n.cpw
	}
	return n.LayerBase(layer) + p*n.cpw, n.cpw
}

// bminPort returns the stage-j port of wire a, as switch index * k +
// offset: the switch is a with digit j deleted, the offset digit j.
func (n *Network) bminPort(stage, a int) int {
	return n.R.DeleteDigit(a, stage)*n.K() + n.R.Digit(a, stage)
}

// Name returns a short human-readable description, e.g.
// "DMIN(cube,d=2) 64 nodes 4x4".
func (n *Network) Name() string {
	xs := ""
	if n.Extra > 0 {
		xs = fmt.Sprintf("+%dxs", n.Extra)
	}
	switch n.Kind {
	case TMIN:
		return fmt.Sprintf("TMIN(%s%s) %d nodes %dx%d", n.Pat, xs, n.Nodes, n.K(), n.K())
	case DMIN:
		return fmt.Sprintf("DMIN(%s%s,d=%d) %d nodes %dx%d", n.Pat, xs, n.Dilation, n.Nodes, n.K(), n.K())
	case VMIN:
		return fmt.Sprintf("VMIN(%s%s,vc=%d) %d nodes %dx%d", n.Pat, xs, n.VCs, n.Nodes, n.K(), n.K())
	case BMIN:
		if n.VCs > 1 {
			return fmt.Sprintf("BMIN(vc=%d) %d nodes %dx%d", n.VCs, n.Nodes, n.K(), n.K())
		}
		return fmt.Sprintf("BMIN %d nodes %dx%d", n.Nodes, n.K(), n.K())
	}
	return "unknown network"
}

func nodeLoc(n int) Loc               { return Loc{Node: n, Switch: -1} }
func swLoc(sw int, s Side, p int) Loc { return Loc{Node: -1, Switch: sw, Side: s, Port: p} }
