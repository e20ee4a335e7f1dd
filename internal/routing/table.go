package routing

import (
	"fmt"

	"minsim/internal/topology"
)

// Table is a flat, precomputed route table: the candidate output
// channels for every (input channel, destination) pair, laid out in
// one shared int32 arena with a dense offset index. Both routing
// algorithms of the paper are pure functions of the current channel
// and the destination (destination-tag digits for TMIN/DMIN/VMIN,
// the turnaround test of Definitions 3-4 for BMINs), so the whole
// routing function can be materialized once at network-construction
// time and the per-hop cost in the engine collapses to two index
// loads — no interface dispatch, no digit arithmetic, no per-worm
// candidate caching.
//
// Entry (ch, dest) occupies arena[off[ch*nodes+dest] :
// off[ch*nodes+dest+1]]. Channels whose downstream end is a node
// (ejection channels) have empty rows: a head arriving there has
// finished routing and the engine never asks.
type Table struct {
	nodes int
	off   []int32
	arena []int32
}

// Lookup returns the candidate output channels for a head flit
// waiting at the downstream end of input channel ch and destined for
// node dest, in the same order the Router implementation would
// produce them (so a random pick among the free ones draws the same
// channel). The returned slice aliases the shared arena: callers must
// treat it as read-only and must not append to it.
//
//simvet:hotpath
func (t *Table) Lookup(ch, dest int) []int32 {
	base := ch*t.nodes + dest
	return t.arena[t.off[base]:t.off[base+1]]
}

// Nodes returns the destination count the table was built for.
func (t *Table) Nodes() int { return t.nodes }

// Bytes returns the memory footprint of the table's backing arrays,
// for capacity planning (see DESIGN.md §7 for the per-family costs).
func (t *Table) Bytes() int { return 4 * (len(t.off) + len(t.arena)) }

// newTableShell allocates the offset index for a network, sized for
// every (channel, destination) pair.
func newTableShell(net *topology.Graph) *Table {
	return &Table{
		nodes: net.Nodes,
		off:   make([]int32, len(net.Channels)*net.Nodes+1),
	}
}

// BuildTable materializes the route table for the network's own
// family (destination-tag for unidirectional kinds, turnaround for
// BMINs) using the direct per-family builders below, and verifies
// every entry against the corresponding Router implementation before
// returning — a construction-time equivalence proof that the flat
// table and the algorithmic router route identically.
func BuildTable(net *topology.Graph) (*Table, error) {
	fill := destinationTagCandidates
	if net.Kind == topology.BMIN {
		fill = turnaroundCandidates
	}
	ref := New(net.Network)
	t := newTableShell(net)
	var scratch []int
	for ci := range net.Channels {
		ch := &net.Channels[ci]
		for dest := 0; dest < net.Nodes; dest++ {
			start := len(t.arena)
			if !ch.To.IsNode() {
				t.arena = fill(t.arena, net, ch, dest)
				scratch = ref.Candidates(scratch[:0], net, ch, dest)
				if !spanEqual(t.arena[start:], scratch) {
					return nil, fmt.Errorf("routing: table entry (channel %d, dest %d) is %v, router says %v",
						ci, dest, t.arena[start:], scratch)
				}
			}
			t.off[ci*t.nodes+dest+1] = int32(len(t.arena))
		}
	}
	return t, nil
}

// NewTableFromRouter materializes the route table of an arbitrary
// Router by querying it for every (channel, destination) pair. Routers
// are deterministic pure functions of that pair (the engine's
// candidate handling has always relied on this), so the table is an
// exact snapshot. Used for routers the per-family builders do not
// cover, e.g. routing.FaultAware.
func NewTableFromRouter(net *topology.Graph, r Router) *Table {
	t := newTableShell(net)
	var scratch []int
	for ci := range net.Channels {
		ch := &net.Channels[ci]
		for dest := 0; dest < net.Nodes; dest++ {
			if !ch.To.IsNode() {
				scratch = r.Candidates(scratch[:0], net, ch, dest)
				for _, c := range scratch {
					t.arena = append(t.arena, int32(c))
				}
			}
			t.off[ci*t.nodes+dest+1] = int32(len(t.arena))
		}
	}
	return t
}

// TableFor builds the route table the engine should consult for the
// given configured router: the verified per-family table when r is
// nil or the family's own algorithmic router, and a generic snapshot
// of r otherwise.
func TableFor(net *topology.Graph, r Router) (*Table, error) {
	switch r.(type) {
	case nil:
		return BuildTable(net)
	case DestinationTag:
		if net.Kind != topology.BMIN {
			return BuildTable(net)
		}
	case Turnaround:
		if net.Kind == topology.BMIN {
			return BuildTable(net)
		}
	}
	return NewTableFromRouter(net, r), nil
}

// spanEqual compares a freshly built arena span with the router's
// candidate slice.
func spanEqual(span []int32, cand []int) bool {
	if len(span) != len(cand) {
		return false
	}
	for i, c := range cand {
		if span[i] != int32(c) {
			return false
		}
	}
	return true
}

// destinationTagCandidates is the direct (non-interface) form of
// DestinationTag.Candidates, used by the table builder. Any change
// here must keep the append order identical to the Router method —
// BuildTable fails otherwise.
func destinationTagCandidates(dst []int32, net *topology.Graph, in *topology.Channel, dest int) []int32 {
	sw := &net.Switches[in.To.Switch]
	if sw.Stage < net.Extra {
		// Distribution stage of an extra-stage MIN: every output port
		// delivers, in port order.
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			if p.Side == topology.Right {
				dst = appendChannels(dst, p.Channels)
			}
		}
		return dst
	}
	tag := topology.RoutingTag(net.R, net.Pat, sw.Stage-net.Extra, dest)
	p := sw.PortAt(topology.Right, tag)
	if p == nil {
		panic(fmt.Sprintf("routing: switch %d has no output port %d", sw.ID, tag))
	}
	return appendChannels(dst, p.Channels)
}

// turnaroundCandidates is the direct (non-interface) form of
// Turnaround.Candidates, used by the table builder. Any change here
// must keep the append order identical to the Router method —
// BuildTable fails otherwise.
func turnaroundCandidates(dst []int32, net *topology.Graph, in *topology.Channel, dest int) []int32 {
	sw := &net.Switches[in.To.Switch]
	j := sw.Stage
	r := net.R
	if in.Dir == topology.Forward {
		span := 1
		for i := 0; i <= j; i++ {
			span *= r.K()
		}
		if in.Wire/span == dest/span {
			// Turn around: left output port d_j.
			p := sw.PortAt(topology.Left, r.Digit(dest, j))
			return appendChannels(dst, p.Channels)
		}
		// Continue forward: any right output port, in port order.
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			if p.Side == topology.Right {
				dst = appendChannels(dst, p.Channels)
			}
		}
		return dst
	}
	// Moving down: unique backward path, left output port d_j.
	p := sw.PortAt(topology.Left, r.Digit(dest, j))
	return appendChannels(dst, p.Channels)
}

// appendChannels widens a port's channel ids into the arena.
func appendChannels(dst []int32, chans []int) []int32 {
	for _, c := range chans {
		dst = append(dst, int32(c))
	}
	return dst
}
