package graphtest

import (
	"fmt"

	"minsim/internal/topology"
)

// Router computes candidate output channels for a head flit by walking
// the struct form: the paper's destination-tag self-routing of
// unidirectional Delta MINs and the turnaround routing of butterfly
// BMINs (Fig. 7), stated port by port. It is the specification
// routing.Factored — the one routing function production code runs —
// is tested against.
type Router interface {
	// Candidates appends to dst the ids of every output channel the
	// head of a packet for destination dest may take from the switch
	// at the downstream end of input channel in, and returns dst.
	// The input channel's To must be a switch.
	Candidates(dst []int, net *Graph, in *topology.Channel, dest int) []int
}

// RouterFor returns the router appropriate for the network kind.
func RouterFor(net *topology.Network) Router {
	if net.Kind == topology.BMIN {
		return Turnaround{}
	}
	return DestinationTag{}
}

// DestinationTag routes unidirectional MINs: at stage i the packet
// leaves via the output port selected by the i-th routing tag digit of
// its destination (cube: t_i = d_{n-i-1}; butterfly: t_i = d_{i+1},
// t_{n-1} = d_0). The candidate set is every channel of that port —
// one for a TMIN, d for a DMIN, m virtual channels for a VMIN.
type DestinationTag struct{}

// Candidates implements Router.
func (DestinationTag) Candidates(dst []int, net *Graph, in *topology.Channel, dest int) []int {
	sw := &net.Switches[in.To.Switch]
	if sw.Stage < net.Extra {
		// Distribution stage of an extra-stage MIN: any output port
		// works (self-routing delivers from every entry), so the head
		// may pick among all k ports' channels.
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			if p.Side == topology.Right {
				dst = append(dst, p.Channels...)
			}
		}
		return dst
	}
	tag := topology.RoutingTag(net.R, net.Pat, sw.Stage-net.Extra, dest)
	p := sw.PortAt(topology.Right, tag)
	if p == nil {
		panic(fmt.Sprintf("graphtest: switch %d has no output port %d", sw.ID, tag))
	}
	return append(dst, p.Channels...)
}

// Turnaround routes butterfly BMINs by the algorithm of Fig. 7,
// implemented in the distributed subtree-check form: a message moving
// forward (up the fat tree) turns around at the first stage whose
// switch subtree contains the destination — which is exactly stage
// t = FirstDifference(S, D) — and from then on follows the unique
// backward path taking left output port d_j at each stage j.
type Turnaround struct{}

// Candidates implements Router.
func (Turnaround) Candidates(dst []int, net *Graph, in *topology.Channel, dest int) []int {
	if net.Kind != topology.BMIN {
		panic("graphtest: Turnaround router on a non-BMIN network")
	}
	sw := &net.Switches[in.To.Switch]
	j := sw.Stage
	r := net.R
	if in.Dir == topology.Forward {
		// Moving up. The current wire address shares digits above j
		// with the source; the subtree of this stage-j switch contains
		// dest iff those digits match dest's.
		span := 1
		for i := 0; i <= j; i++ {
			span *= r.K()
		}
		if in.Wire/span == dest/span {
			// Turn around: left output port d_j.
			p := sw.PortAt(topology.Left, r.Digit(dest, j))
			return append(dst, p.Channels...)
		}
		// Continue forward: any right output port.
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			if p.Side == topology.Right {
				dst = append(dst, p.Channels...)
			}
		}
		return dst
	}
	// Moving down: unique backward path, left output port d_j.
	p := sw.PortAt(topology.Left, r.Digit(dest, j))
	return append(dst, p.Channels...)
}
