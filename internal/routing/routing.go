// Package routing implements the paper's routing algorithms: the
// destination-tag self-routing of unidirectional Delta MINs (cube and
// butterfly wirings, with dilated-channel and virtual-channel
// candidate sets) and the turnaround routing of bidirectional
// butterfly MINs (Fig. 7 of the paper).
//
// A Router answers one question: given the input channel where a
// worm's head flit waits and the packet's destination, which output
// channels may the head take next? The wormhole engine picks randomly
// among the free candidates, which realizes both the paper's dilated
// "randomly distributed to one of the free channels" rule and the
// turnaround rule of "randomly selecting from among those forward
// output channels which are not blocked".
package routing

import (
	"fmt"

	"minsim/internal/topology"
)

// Router computes candidate output channels for a head flit, walking
// the network's struct form: the specification that Factored — the
// engine's closed form — is tested against, and what the path, fault
// and partition analyses walk.
type Router interface {
	// Candidates appends to dst the ids of every output channel the
	// head of a packet for destination dest may take from the switch
	// at the downstream end of input channel in, and returns dst.
	// The input channel's To must be a switch.
	Candidates(dst []int, net *topology.Graph, in *topology.Channel, dest int) []int
}

// New returns the router appropriate for the network kind.
func New(net *topology.Network) Router {
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

// Candidates implements Router. It runs once per blocked head per
// path extension inside the engine's allocation phase.
//
//simvet:hotpath
func (DestinationTag) Candidates(dst []int, net *topology.Graph, in *topology.Channel, dest int) []int {
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
		panic(fmt.Sprintf("routing: switch %d has no output port %d", sw.ID, tag))
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

// Candidates implements Router. It runs once per blocked head per
// path extension inside the engine's allocation phase.
//
//simvet:hotpath
func (Turnaround) Candidates(dst []int, net *topology.Graph, in *topology.Channel, dest int) []int {
	if net.Kind != topology.BMIN {
		panic("routing: Turnaround router on a non-BMIN network")
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

// FirstDifferenceTag mirrors the paper's source-aware statement of the
// turnaround algorithm (Fig. 7) for verification: given source and
// destination it returns t = FirstDifference(S, D), the stage where
// the message must turn. ok is false when S == D (no routing needed).
func FirstDifferenceTag(net *topology.Network, src, dest int) (t int, ok bool) {
	return net.R.FirstDifference(src, dest)
}
