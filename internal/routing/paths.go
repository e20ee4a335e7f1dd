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

// AllPaths enumerates every route the router can generate from src to
// dst by exhaustive search over candidate channels. For a TMIN this is
// the unique destination-tag path; for a DMIN it is the d^{n-1}
// channel-level variants of that path; for a BMIN it is the k^t
// shortest turnaround paths of Theorem 1. It panics if src == dst.
func AllPaths(net *topology.Graph, r Router, src, dst int) []Path {
	if src == dst {
		panic("routing: AllPaths with src == dst")
	}
	var out []Path
	var walk func(prefix Path)
	walk = func(prefix Path) {
		last := &net.Channels[prefix[len(prefix)-1]]
		if last.To.IsNode() {
			if last.To.Node != dst {
				panic(fmt.Sprintf("routing: path from %d to %d delivered to node %d", src, dst, last.To.Node))
			}
			out = append(out, append(Path(nil), prefix...))
			return
		}
		cands := r.Candidates(nil, net, last, dst)
		if len(cands) == 0 {
			panic(fmt.Sprintf("routing: dead end at channel %d routing %d -> %d", last.ID, src, dst))
		}
		for _, c := range cands {
			walk(append(prefix, c))
		}
	}
	walk(Path{net.Inject[src]})
	return out
}

// OnePath returns the route obtained by always taking the first
// candidate. Useful for deterministic traces and the blocking example
// tests.
func OnePath(net *topology.Graph, r Router, src, dst int) Path {
	p := Path{net.Inject[src]}
	//simvet:bounded — each step moves toward the destination; the walk ends at the ejection channel after at most a few stages
	for {
		last := &net.Channels[p[len(p)-1]]
		if last.To.IsNode() {
			return p
		}
		cands := r.Candidates(nil, net, last, dst)
		p = append(p, cands[0])
	}
}

// LinksOf maps a path to the physical links it occupies.
func LinksOf(net *topology.Graph, p Path) []int {
	links := make([]int, len(p))
	for i, c := range p {
		links[i] = net.Channels[c].Link
	}
	return links
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
func ContentionFreeAssignment(net *topology.Graph, r Router, pairs [][2]int) ([]Path, bool) {
	alts := make([][]Path, len(pairs))
	for i, pr := range pairs {
		alts[i] = AllPaths(net, r, pr[0], pr[1])
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
