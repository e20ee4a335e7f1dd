package routing

import (
	"slices"
	"testing"

	"minsim/internal/topology"
)

func TestWorstPermutationDeterministicAndValid(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	p1, s1 := WorstPermutation(net, 9, 2000)
	p2, s2 := WorstPermutation(net, 9, 2000)
	if !slices.Equal(p1, p2) || s1 != s2 {
		t.Fatal("same seed and iters produced different permutations")
	}
	if !p1.Valid() {
		t.Fatal("search returned an invalid permutation")
	}
	if s1 != PermutationSharing(net, p1) {
		t.Errorf("reported sharing %+v does not match recomputation", s1)
	}
}

// TestWorstPermutationBeatsShuffle: the paper's Section 5.3.3 notes
// the perfect shuffle forces 4-way sharing on the 64-node TMIN, and
// its slowness comes from every pair being bottlenecked at once. The
// searched worst case must score at least as high on the search's own
// congestion proxy — the summed per-pair bottleneck share.
func TestWorstPermutationBeatsShuffle(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	shuffle := PermutationBottleneck(net, net.R.ShufflePerm())
	perm, worst := WorstPermutation(net, 1, 4096)
	searched := PermutationBottleneck(net, perm)
	if searched < shuffle {
		t.Errorf("searched bottleneck score %d below the shuffle's %d", searched, shuffle)
	}
	if worst.MaxShare < 2 {
		t.Errorf("searched permutation shares no channel at all (MaxShare %d)", worst.MaxShare)
	}
}
