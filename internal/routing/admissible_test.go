package routing

import (
	"testing"

	"minsim/internal/topology"
)

// TestShuffleSharingOnTMIN reproduces the Section 5.3.3 count: on the
// 64-node cube TMIN, the perfect-shuffle permutation forces some
// channels to carry four source/destination pairs.
func TestShuffleSharingOnTMIN(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	s := PermutationSharing(net, net.R.ShufflePerm())
	if s.MaxShare != 4 {
		t.Errorf("max share %d, paper says 4", s.MaxShare)
	}
	if s.ActivePairs != 60 {
		t.Errorf("active pairs %d, want 60 (4 fixed points)", s.ActivePairs)
	}
	if s.SharedChannels == 0 {
		t.Error("no shared channels found")
	}
	// The 2nd butterfly permutation also forces four-way sharing.
	b := PermutationSharing(net, net.R.ButterflyPerm(2))
	if b.MaxShare < 2 {
		t.Errorf("butterfly-2 max share %d, want >= 2", b.MaxShare)
	}
}

// TestIdentityLikeAdmissibility: a permutation with no pairs is
// trivially admissible; the neighbor permutation on the TMIN is not
// (channels shared); the shuffle IS admissible on the BMIN (paper's
// claim that a properly chosen forward channel avoids contention).
func TestAdmissibility(t *testing.T) {
	tmin := mustUni(t, topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if !Admissible(tmin, tmin.R.IdentityPerm()) {
		t.Error("identity should be admissible")
	}
	shuffle := tmin.R.ShufflePerm()
	if Admissible(tmin, shuffle) {
		t.Error("shuffle should not be admissible on the single-path TMIN")
	}

	bmin := mustBMIN(t, 2, 3)
	if !Admissible(bmin, shuffle) {
		t.Error("shuffle should be admissible on the BMIN")
	}

	// On the DMIN the extra channels also make the shuffle routable
	// without sharing.
	dmin := mustUni(t, topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	if !Admissible(dmin, shuffle) {
		t.Error("shuffle should be admissible on the two-dilated DMIN")
	}
}

// TestComplementIsAdmissibleOnCube: the digit-complement permutation
// routes conflict-free on the cube TMIN (every channel carries exactly
// one pair), which is why the ext-patterns experiment measures ~93%
// saturation for it on every network.
func TestComplementIsAdmissibleOnCube(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	perm := make([]int, net.Nodes)
	rr := net.R
	for x := range perm {
		y := x
		for i := 0; i < rr.N(); i++ {
			y = rr.SetDigit(y, i, rr.K()-1-rr.Digit(y, i))
		}
		perm[x] = y
	}
	s := PermutationSharing(net, perm)
	if s.MaxShare != 1 {
		t.Errorf("complement max share %d, want 1 (conflict-free)", s.MaxShare)
	}
	if s.ActivePairs != net.Nodes {
		t.Errorf("complement active pairs %d, want %d", s.ActivePairs, net.Nodes)
	}
}

// TestSharingMatchesSaturation: the reciprocal of the max share bounds
// the per-node saturation under that permutation — the link between
// the static analysis and Fig. 20's 25% TMIN plateau.
func TestSharingMatchesSaturation(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	s := PermutationSharing(net, net.R.ShufflePerm())
	bound := float64(s.ActivePairs) / float64(net.Nodes) / float64(s.MaxShare)
	if bound < 0.2 || bound > 0.26 {
		t.Errorf("sharing-derived saturation bound %v, want about 0.23", bound)
	}
}
