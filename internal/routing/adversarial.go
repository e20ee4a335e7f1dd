package routing

import (
	"minsim/internal/kary"
	"minsim/internal/topology"
	"minsim/internal/xrand"
)

// WorstPermutation searches for a full (fixed-point-free where
// possible) permutation that maximizes congestion under the network's
// first-candidate routing — the adversarial counterpart of the
// paper's Section 5.3.3 observation that the perfect shuffle forces
// four pairs onto one channel of the 64-node TMIN. The search is a
// seeded hill-climb over pairwise swaps scored lexicographically by
// (total bottleneck share summed over the pairs, SharedChannels);
// sideways moves are accepted, so the walk drifts across plateaus.
//
// The primary score is Σ over pairs of the largest per-channel pair
// count along the pair's path. Maximizing the single worst channel
// instead would throttle only the few pairs crossing it and leave the
// rest running free; what makes the shuffle slow is that every pair
// is bottlenecked at once, and the sum rewards exactly that.
//
// The search is a pure function of (net, seed, iters): the same
// inputs always return the same permutation, which lets spec
// canonicalization hash only the parameters while factories resolve
// the permutation at build time.
//
// The search precomputes every pair's first-candidate path, so memory
// and setup are O(N^2 · pathlen) and each iteration rescans the pairs
// in O(N · pathlen); intended for the paper-scale networks (tens to a
// few thousand nodes), not the 64K-node engines.
func WorstPermutation(net *topology.Network, seed uint64, iters int) (kary.Perm, Sharing) {
	w := newWalker(net)
	n := net.Nodes
	rng := xrand.New(seed ^ 0xadbe75a12a35b0d1)

	// paths[src*n+dst] is the first-candidate route, nil on the diagonal.
	paths := make([]Path, n*n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if d != s {
				paths[s*n+d] = onePath(w, s, d)
			}
		}
	}

	// Start from a random derangement attempt: a shuffled permutation
	// with any fixed points swapped away when a neighbor allows it.
	perm := make(kary.Perm, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}

	// use[c] counts pairs on channel c and shared counts channels with
	// use >= 2, both maintained incrementally so a swap costs
	// O(pathlen). The bottleneck sum is recomputed by scanning the
	// pairs: a swap shifts use on the touched channels, which can move
	// other pairs' bottlenecks too, so there is no cheap delta for it.
	use := make([]int, net.ChannelCount())
	shared := 0
	bump := func(c, delta int) {
		old := use[c]
		use[c] = old + delta
		if old < 2 && use[c] >= 2 {
			shared++
		} else if old >= 2 && use[c] < 2 {
			shared--
		}
	}
	route := func(src int, delta int) {
		if perm[src] == src {
			return
		}
		for _, c := range paths[src*n+perm[src]] {
			bump(c, delta)
		}
	}
	for s := 0; s < n; s++ {
		route(s, +1)
	}
	score := func() int64 {
		var sum int64
		for src := 0; src < n; src++ {
			if perm[src] == src {
				continue
			}
			b := 0
			for _, c := range paths[src*n+perm[src]] {
				if use[c] > b {
					b = use[c]
				}
			}
			sum += int64(b)
		}
		return sum
	}

	bestSum, bestShared := score(), shared
	for it := 0; it < iters; it++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		route(i, -1)
		route(j, -1)
		perm[i], perm[j] = perm[j], perm[i]
		route(i, +1)
		route(j, +1)
		if s := score(); s > bestSum || (s == bestSum && shared >= bestShared) {
			bestSum, bestShared = s, shared
			continue
		}
		// Worse: undo the swap.
		route(i, -1)
		route(j, -1)
		perm[i], perm[j] = perm[j], perm[i]
		route(i, +1)
		route(j, +1)
	}
	return perm, PermutationSharing(net, perm)
}

// PermutationBottleneck is the adversarial search's primary score on
// an arbitrary permutation: the sum over pairs of the largest
// per-channel pair count along each pair's first-candidate path. It
// proxies (inverse) sustainable throughput — a pair bottlenecked on a
// k-shared channel drains at ~1/k of a private channel's rate.
func PermutationBottleneck(net *topology.Network, perm kary.Perm) int64 {
	w := newWalker(net)
	n := net.Nodes
	use := make([]int, net.ChannelCount())
	paths := make([]Path, n)
	for src := 0; src < n; src++ {
		if perm[src] == src {
			continue
		}
		paths[src] = onePath(w, src, perm[src])
		for _, c := range paths[src] {
			use[c]++
		}
	}
	var sum int64
	for src := 0; src < n; src++ {
		b := 0
		for _, c := range paths[src] {
			if use[c] > b {
				b = use[c]
			}
		}
		sum += int64(b)
	}
	return sum
}
