package routing

import (
	"minsim/internal/kary"
	"minsim/internal/topology"
)

// Sharing summarizes the channel contention a full permutation
// imposes on a single-path (or first-candidate) routing: how many
// source/destination pairs share the most-contended channel and how
// many channels carry more than one pair. The paper's Section 5.3.3
// observation — "some channels have to be shared by four source and
// destination pairs" for the shuffle on the 64-node TMIN — is
// Sharing{MaxShare: 4, ...}.
type Sharing struct {
	MaxShare       int // pairs on the most contended channel
	SharedChannels int // channels carrying >= 2 pairs
	ActivePairs    int // permutation pairs with dst != src
}

// PermutationSharing computes channel sharing of a permutation routed
// on the first-candidate paths.
func PermutationSharing(net *topology.Network, perm kary.Perm) Sharing {
	w := newWalker(net)
	use := map[int]int{}
	s := Sharing{}
	for src := 0; src < net.Nodes; src++ {
		dst := perm[src]
		if dst == src {
			continue
		}
		s.ActivePairs++
		for _, c := range onePath(w, src, dst) {
			use[c]++
		}
	}
	// Map order is free here: max and a threshold count both commute.
	for _, n := range use {
		if n > s.MaxShare {
			s.MaxShare = n
		}
		if n >= 2 {
			s.SharedChannels++
		}
	}
	return s
}

// Admissible reports whether the permutation can be routed in one
// pass with no channel shared by two pairs — i.e. whether the
// (blocking) network passes the permutation without contention. For
// single-path networks this uses the unique paths; for multipath
// networks it searches the alternatives (the Section 5.3.3 "properly
// chosen forward channel" question).
func Admissible(net *topology.Network, perm kary.Perm) bool {
	var pairs [][2]int
	for src := 0; src < net.Nodes; src++ {
		if perm[src] != src {
			pairs = append(pairs, [2]int{src, perm[src]})
		}
	}
	if len(pairs) == 0 {
		return true
	}
	_, ok := ContentionFreeAssignment(net, pairs)
	return ok
}
