package routing

import "minsim/internal/topology"

// Reachable reports whether a packet from src to dst can be delivered
// by the router when the given channels are faulty: some minimal
// route avoiding every failed channel must exist. For a TMIN this is
// simply "the unique path avoids the faults"; for DMINs, VMINs,
// extra-stage MINs and BMINs the router's alternatives are searched.
func Reachable(net *topology.Graph, r Router, failed map[int]bool, src, dst int) bool {
	if src == dst {
		return true
	}
	inj := net.Inject[src]
	if failed[inj] {
		return false
	}
	var walk func(ch int) bool
	walk = func(ch int) bool {
		c := &net.Channels[ch]
		if c.To.IsNode() {
			return c.To.Node == dst
		}
		for _, next := range r.Candidates(nil, net, c, dst) {
			if failed[next] {
				continue
			}
			if walk(next) {
				return true
			}
		}
		return false
	}
	return walk(inj)
}

// DisconnectedPairs returns every ordered (src, dst) pair the faults
// cut off, for fault-impact reports. The cost is the full route
// enumeration per pair; intended for analysis, not per-cycle use.
func DisconnectedPairs(net *topology.Graph, r Router, failed map[int]bool) [][2]int {
	var out [][2]int
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			if !Reachable(net, r, failed, s, d) {
				out = append(out, [2]int{s, d})
			}
		}
	}
	return out
}

// FaultAware wraps a router and prunes candidates that are failed or
// lead only to failed continuations. A fault-oblivious wormhole
// router can commit a worm into a region from which the only exit is
// a faulty channel (e.g. a BMIN turnaround whose unique downward path
// is broken); the wrapper performs the reachability lookahead a
// fault-aware switch would, so any statically reachable destination
// stays dynamically reachable. The engine routes only the family
// algorithms, so the wrapper is an analysis: routing's
// TestFaultAwareAvoidsBackwardDeadEnds checks the property statically.
type FaultAware struct {
	Inner  Router
	Failed map[int]bool
}

// Candidates implements Router.
func (f FaultAware) Candidates(dst []int, net *topology.Graph, in *topology.Channel, dest int) []int {
	start := len(dst)
	dst = f.Inner.Candidates(dst, net, in, dest)
	keep := start
	for _, c := range dst[start:] {
		if f.Failed[c] {
			continue
		}
		if f.leads(net, c, dest) {
			dst[keep] = c
			keep++
		}
	}
	return dst[:keep]
}

// leads reports whether some fault-free continuation from channel c
// reaches dest.
func (f FaultAware) leads(net *topology.Graph, c int, dest int) bool {
	ch := &net.Channels[c]
	if ch.To.IsNode() {
		return ch.To.Node == dest
	}
	for _, next := range f.Inner.Candidates(nil, net, ch, dest) {
		if f.Failed[next] {
			continue
		}
		if f.leads(net, next, dest) {
			return true
		}
	}
	return false
}

// CriticalChannels returns, for each channel, how many ordered pairs
// become unreachable if that channel alone fails — zero everywhere
// for a fault-tolerant network (under single faults), positive for
// the single-path TMIN. A direct quantification of the paper's
// Section 2.1 motivation for multipath MINs.
func CriticalChannels(net *topology.Graph, r Router) []int {
	out := make([]int, len(net.Channels))
	for c := range net.Channels {
		failed := map[int]bool{c: true}
		// Only pairs whose routes may use c can be affected; a full
		// scan is simplest and still fast at 64 nodes.
		out[c] = len(DisconnectedPairs(net, r, failed))
	}
	return out
}
