package routing

import (
	"fmt"

	"minsim/internal/topology"
)

// Factored is the stage-factored form of the two family routing
// functions. It exploits the regularity of the network description:
// channel ids within a connection layer are consecutive per wire
// (topology.Network's layer-major layout), so the candidate set of any
// hop is a handful of arithmetic runs computable from the incoming
// channel's (layer, wire, direction) and the destination's radix-k
// digits. Total state is a few O(stages) integer slices — O(stages · k)
// memory per network where a table of every (channel, destination)
// candidate set would be O(C · N), gigabytes at 64K nodes.
//
// The description enforces power-of-two k, so every radix digit is a
// bit field (kary.Radix.Bits); channels per wire may be any count and
// scale a wire address by multiplication. Candidate order is identical
// to the port-by-port specification (graphtest's Routers) — run
// expansion walks ascending channel ids, which is exactly the order a
// port lists its channels in — so a random pick among the free
// candidates draws the same channel the specification would. Factored
// and the layout it assumes are read off one description, so nothing
// is verified at run time; the tests hold it against the Routers
// walking the struct form, for every family, pattern, extra-stage and
// channel count (TestFactoredMatchesRouters).
type Factored struct {
	bmin bool

	b   int // bits per radix digit: k == 1<<b
	k   int // switch arity
	km1 int // k - 1, the digit mask

	// Unidirectional state. layerBase[L] is the first channel id of
	// connection layer L and layerCPW[L] the channels per wire in that
	// layer (max(dilation, VCs) for interstage layers, 1 for the
	// ejection layer). tagShift[s] is the bit position of the
	// destination digit consumed at routing stage s (the pattern's
	// RoutingTag digit), unused for the leading distribution stages
	// s < extra.
	extra     int
	layerBase []int
	layerCPW  []int
	tagShift  []int

	// BMIN state: interstage wires carry vcs forward + vcs backward
	// channels, so consecutive wire addresses are vcs2 = 2*vcs ids apart.
	vcs  int
	vcs2 int
}

// Lookup returns the candidate output channels for a head flit
// waiting at the downstream end of the input channel with the given
// address (topology.Network.Address; the channel must terminate at a
// switch) and destined for node dest, as `runs` arithmetic runs of
// `count` consecutive ids starting at base, base+stride,
// base+2·stride, ... Candidates enumerate in ascending id order within
// a run and across runs — the order the specification's Routers
// produce. runs > 1 only occurs for the continue-forward hop of a BMIN
// (one run per right port).
func (f *Factored) Lookup(layer, wire int, dir topology.Dir, dest int) (base, count, runs, stride int) {
	if f.bmin {
		return f.lookupBMIN(layer, wire, dir, dest)
	}
	s := layer
	q := wire &^ f.km1
	cpw := f.layerCPW[s+1]
	if s >= f.extra {
		// Self-routing stage: the output port is the destination's
		// routing-tag digit; candidates are that wire's channels.
		q |= (dest >> f.tagShift[s]) & f.km1
		return f.layerBase[s+1] + q*cpw, cpw, 1, 0
	}
	// Distribution stage of an extra-stage MIN: all k output ports
	// deliver, and their wires' channels are consecutive.
	return f.layerBase[s+1] + q*cpw, f.k * cpw, 1, 0
}

// lookupBMIN routes the turnaround algorithm (Figs. 6-8 of the paper)
// arithmetically. A forward head at stage j turns around iff the wire
// address agrees with the destination on every digit above j; the
// turn and every backward hop rewrite digit j of the wire with the
// destination's digit j and take that wire's backward channels.
func (f *Factored) lookupBMIN(j, w int, dir topology.Dir, dest int) (base, count, runs, stride int) {
	if dir == topology.Forward {
		sh := j * f.b
		if w>>(sh+f.b) != dest>>(sh+f.b) {
			// Destination outside this subtree: continue forward on
			// any right port — k runs of vcs channels, one per value
			// of wire digit j, spaced k^j wires apart.
			return f.layerBase[j+1] + (w&^(f.km1<<sh))*f.vcs2, f.vcs, f.k, (1 << sh) * f.vcs2
		}
		a := w&^(f.km1<<sh) | (dest>>sh&f.km1)<<sh
		if j == 0 {
			// Turn at stage 0: straight to the ejection channel.
			return 2*a + 1, 1, 1, 0
		}
		// Turn around: the backward channels of wire a at layer j.
		return f.layerBase[j] + a*f.vcs2 + f.vcs, f.vcs, 1, 0
	}
	// Moving down: a layer-j backward channel enters stage j-1, where
	// the unique backward path sets digit j-1.
	j--
	sh := j * f.b
	a := w&^(f.km1<<sh) | (dest>>sh&f.km1)<<sh
	if j == 0 {
		return 2*a + 1, 1, 1, 0
	}
	return f.layerBase[j] + a*f.vcs2 + f.vcs, f.vcs, 1, 0
}

// Expand appends the candidate ids Lookup describes, in order: the
// run expansion the engine inlines, for the analyses' walker.
func (f *Factored) Expand(dst []int, layer, wire int, dir topology.Dir, dest int) []int {
	base, count, runs, stride := f.Lookup(layer, wire, dir, dest)
	for ; runs > 0; runs-- {
		for c := base; c < base+count; c++ {
			dst = append(dst, c)
		}
		base += stride
	}
	return dst
}

// Bytes returns the resident size of the factored representation's
// tables plus the struct header: a 64K-node MIN fits in a few hundred
// bytes. Capacity planning at large N hinges on this number (see
// DESIGN.md §12).
func (f *Factored) Bytes() int {
	return 8*(len(f.layerBase)+len(f.layerCPW)+len(f.tagShift)) + 96
}

// NewFactored builds the stage-factored representation of the
// network's own family routing function (destination-tag for
// unidirectional kinds, turnaround for BMINs) from the network
// description alone, in O(stages). Every network the topology
// constructors build is accepted.
func NewFactored(net *topology.Network) *Factored {
	k := net.K()
	b, ok := net.R.Bits()
	if !ok {
		panic(fmt.Sprintf("routing: arity k = %d is not a power of two, which the topology constructors refuse", k))
	}
	f := &Factored{bmin: net.Kind == topology.BMIN, b: b, k: k, km1: k - 1, extra: net.Extra, vcs: net.VCs}
	last := net.Stages
	if f.bmin {
		last = net.Stages - 1
	}
	f.layerBase = make([]int, last+1)
	for L := 1; L <= last; L++ {
		f.layerBase[L] = net.LayerBase(L)
	}
	if f.bmin {
		// A BMIN wire carries its vcs forward channels, then its vcs
		// backward ones.
		f.vcs2 = 2 * net.VCs
		return f
	}
	f.layerCPW = make([]int, last+1)
	for L := 1; L < last; L++ {
		f.layerCPW[L] = max(net.Dilation, net.VCs)
	}
	f.layerCPW[last] = 1 // the ejection layer is single-channel
	f.tagShift = make([]int, net.Stages)
	for s := net.Extra; s < net.Stages; s++ {
		f.tagShift[s] = b * topology.TagDigit(net.R.N(), net.Pat, s-net.Extra)
	}
	return f
}
