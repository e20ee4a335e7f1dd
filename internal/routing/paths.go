package routing

import (
	"fmt"

	"minsim/internal/topology"
)

// Path is a route through the network as a sequence of channel ids,
// starting at the source's injection channel and ending at the
// destination's ejection channel.
type Path []int

// Length returns the number of channels the packet traverses — the
// paper's path length metric (n+1 for unidirectional MINs, 2(t+1) for
// BMINs).
func (p Path) Length() int { return len(p) }

// AllPaths enumerates every route the network's routing function can
// generate from src to dst by exhaustive search over candidate
// channels. For a TMIN this is the unique destination-tag path; for a
// DMIN it is the d^{n-1} channel-level variants of that path; for a
// BMIN it is the k^t shortest turnaround paths of Theorem 1. It
// panics if src == dst.
func AllPaths(net *topology.Network, src, dst int) []Path {
	if src == dst {
		panic("routing: AllPaths with src == dst")
	}
	return allPaths(newWalker(net), src, dst)
}

func allPaths(w *walker, src, dst int) []Path {
	var out []Path
	var walk func(prefix Path)
	walk = func(prefix Path) {
		last := prefix[len(prefix)-1]
		if node, ok := w.ejectsTo(last); ok {
			if node != dst {
				panic(fmt.Sprintf("routing: path from %d to %d delivered to node %d", src, dst, node))
			}
			out = append(out, append(Path(nil), prefix...))
			return
		}
		for _, c := range w.next(len(prefix)-1, last, dst) {
			walk(append(prefix, c))
		}
	}
	// The prefix never outgrows its first array, so besides the paths
	// it returns the walk allocates one candidate list per hop.
	walk(w.route(src))
	return out
}

// Reach returns every channel that lies on some route from a source in
// srcs to dst, each once, in the order a depth-first walk first meets
// it; a source equal to dst is skipped. Its set is the union of
// AllPaths' channels over the sources, but where AllPaths lists k^t
// routes per pair, Reach expands each channel once: a hop's candidates
// depend only on (channel, destination), and every route ends at dst,
// so a channel once met needs no second walk.
func Reach(net *topology.Network, dst int, srcs []int) []int {
	w := newWalker(net)
	seen := make([]bool, net.ChannelCount())
	var out []int
	var walk func(hop, c int)
	walk = func(hop, c int) {
		if seen[c] {
			return
		}
		seen[c] = true
		out = append(out, c)
		if node, ok := w.ejectsTo(c); ok {
			if node != dst {
				panic(fmt.Sprintf("routing: route to %d delivered to node %d", dst, node))
			}
			return
		}
		// Recursion writes only deeper hops' lists, so this one can
		// be ranged over in place.
		for _, next := range w.next(hop, c, dst) {
			walk(hop+1, next)
		}
	}
	for _, s := range srcs {
		if s != dst {
			walk(0, net.Inject(s))
		}
	}
	return out
}

// OnePath returns the route obtained by always taking the first
// candidate. Useful for deterministic traces and the blocking example
// tests.
func OnePath(net *topology.Network, src, dst int) Path {
	return onePath(newWalker(net), src, dst)
}

func onePath(w *walker, src, dst int) Path {
	p := w.route(src)
	for {
		last := p[len(p)-1]
		if w.net.EndsAtNode(last) {
			return p
		}
		p = append(p, w.next(0, last, dst)[0])
	}
}

// SharesChannel reports whether two paths have any channel in common —
// the contention criterion of the paper's blocking discussion
// (Fig. 11).
func SharesChannel(a, b Path) bool {
	set := make(map[int]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if set[c] {
			return true
		}
	}
	return false
}

// ContentionFreeAssignment reports whether the given set of
// source/destination pairs admits a simultaneous channel-disjoint
// routing, searching over each pair's alternative paths by
// backtracking. The paper uses this notion to argue that in a BMIN
// "theoretically, all source and destination pairs can be transmitted
// simultaneously without contention if the forward channel is
// properly chosen" for permutation traffic. The search is exponential
// in the worst case; intended for small test instances.
func ContentionFreeAssignment(net *topology.Network, pairs [][2]int) ([]Path, bool) {
	w := newWalker(net)
	alts := make([][]Path, len(pairs))
	for i, pr := range pairs {
		alts[i] = allPaths(w, pr[0], pr[1])
	}
	used := make(map[int]bool)
	chosen := make([]Path, len(pairs))
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(pairs) {
			return true
		}
	next:
		for _, p := range alts[i] {
			for _, c := range p {
				if used[c] {
					continue next
				}
			}
			for _, c := range p {
				used[c] = true
			}
			chosen[i] = p
			if try(i + 1) {
				return true
			}
			for _, c := range p {
				delete(used, c)
			}
		}
		return false
	}
	if try(0) {
		return chosen, true
	}
	return nil, false
}
