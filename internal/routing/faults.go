package routing

import "minsim/internal/topology"

// Reachable reports whether a packet from src to dst can be delivered
// by the routing function when the given channels are faulty: some
// minimal route avoiding every failed channel must exist. For a TMIN
// this is simply "the unique path avoids the faults"; for DMINs,
// VMINs, extra-stage MINs and BMINs the alternatives are searched.
func Reachable(net *topology.Network, failed map[int]bool, src, dst int) bool {
	return reachable(newWalker(net), failed, src, dst)
}

func reachable(w *walker, failed map[int]bool, src, dst int) bool {
	if src == dst {
		return true
	}
	inj := w.net.Inject(src)
	if failed[inj] {
		return false
	}
	var walk func(ch, hop int) bool
	walk = func(ch, hop int) bool {
		if node, ok := w.ejectsTo(ch); ok {
			return node == dst
		}
		for _, next := range w.next(hop, ch, dst) {
			if failed[next] {
				continue
			}
			if walk(next, hop+1) {
				return true
			}
		}
		return false
	}
	return walk(inj, 0)
}

// DisconnectedPairs returns every ordered (src, dst) pair the faults
// cut off, for fault-impact reports. The cost is the full route
// enumeration per pair; intended for analysis, not per-cycle use.
func DisconnectedPairs(net *topology.Network, failed map[int]bool) [][2]int {
	w := newWalker(net)
	var out [][2]int
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			if !reachable(w, failed, s, d) {
				out = append(out, [2]int{s, d})
			}
		}
	}
	return out
}

// CriticalChannels returns, for each channel, how many ordered pairs
// become unreachable if that channel alone fails — zero everywhere
// for a fault-tolerant network (under single faults), positive for
// the single-path TMIN. A direct quantification of the paper's
// Section 2.1 motivation for multipath MINs.
func CriticalChannels(net *topology.Network) []int {
	w := newWalker(net)
	out := make([]int, net.ChannelCount())
	failed := map[int]bool{}
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			// Only a channel some route of the pair uses can cut it.
			for _, c := range w.span(s, d) {
				failed[c] = true
				if !reachable(w, failed, s, d) {
					out[c]++
				}
				delete(failed, c)
			}
		}
	}
	return out
}

// span returns every channel some route from src to dst uses, in the
// order a depth-first walk first meets them.
func (w *walker) span(src, dst int) []int {
	var out []int
	seen := map[int]bool{}
	var walk func(ch, hop int)
	walk = func(ch, hop int) {
		if seen[ch] {
			return
		}
		seen[ch] = true
		out = append(out, ch)
		if w.net.EndsAtNode(ch) {
			return
		}
		for _, next := range w.next(hop, ch, dst) {
			walk(next, hop+1)
		}
	}
	walk(w.net.Inject(src), 0)
	return out
}
