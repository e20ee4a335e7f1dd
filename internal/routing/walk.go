// Package routing implements the paper's routing algorithms — the
// destination-tag self-routing of unidirectional Delta MINs (cube and
// butterfly wirings, with dilated-channel and virtual-channel
// candidate sets) and the turnaround routing of bidirectional
// butterfly MINs (Fig. 7 of the paper) — as one function, Factored,
// and the analyses that walk it: path enumeration (Theorem 1), the
// reach walk behind Section 4's cluster usage, channel sharing and the
// adversarial permutation search.
//
// The routing function answers one question: given the input channel
// where a worm's head flit waits and the packet's destination, which
// output channels may the head take next? The wormhole engine picks
// randomly among the free candidates, which realizes both the paper's
// dilated "randomly distributed to one of the free channels" rule and
// the turnaround rule of "randomly selecting from among those forward
// output channels which are not blocked".
package routing

import "minsim/internal/topology"

// walker steps a network's routing function hop by hop, the way the
// engine does: it reads a channel's address off the description and
// expands the candidate runs Factored returns. Every analysis here
// walks it, so none of them holds more than O(stages) of routing state.
type walker struct {
	net  *topology.Network
	f    *Factored
	cand [][]int // candidate lists by hop, reused from walk to walk
}

func newWalker(net *topology.Network) *walker {
	// No route is longer than 2·stages+1 channels: stages+1 in a
	// unidirectional network, 2(t+1) <= 2·stages in a BMIN.
	return &walker{net: net, f: NewFactored(net), cand: make([][]int, 2*net.Stages+1)}
}

// next returns the channels a head waiting in channel c, which must end
// at a switch, may take toward dest. c is the hop-th channel of its
// route; the list stays valid until next is asked for that hop again.
func (w *walker) next(hop, c, dest int) []int {
	layer, wire, dir := w.net.Address(c)
	w.cand[hop] = w.f.Expand(w.cand[hop][:0], layer, wire, dir, dest)
	return w.cand[hop]
}

// ejectsTo reports whether channel c ends at a node, and which one.
func (w *walker) ejectsTo(c int) (node int, ok bool) {
	if !w.net.EndsAtNode(c) {
		return -1, false
	}
	return w.net.ChannelAt(c).To.Node, true
}

// route starts a route at src's injection channel, with room for the
// longest route.
func (w *walker) route(src int) Path {
	return append(make(Path, 0, len(w.cand)), w.net.Inject(src))
}
