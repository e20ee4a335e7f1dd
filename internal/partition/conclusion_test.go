package partition

import (
	"testing"

	"minsim/internal/topology"
)

// The paper's conclusion: "the Omega network and the cube network
// have the same network partitionability; while the baseline network
// and the butterfly network have a similar network partitionability."
// These tests verify both claims computationally.

func analyzeDigitClusters(t *testing.T, pat topology.Pattern, digit int) Report {
	t.Helper()
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var clusters [][]int
	for v := 0; v < 4; v++ {
		pattern := []int{Free, Free, Free}
		pattern[2-digit] = v // NewCube takes msd-first
		clusters = append(clusters, MustCube(net.R, pattern...).Nodes())
	}
	return Analyze(net, clusters)
}

func TestOmegaPartitionsLikeCube(t *testing.T) {
	for digit := 0; digit < 3; digit++ {
		omega := analyzeDigitClusters(t, topology.Omega, digit)
		cube := analyzeDigitClusters(t, topology.Cube, digit)
		if omega.ContentionFree() != cube.ContentionFree() {
			t.Errorf("digit %d: omega contention-free=%t, cube=%t",
				digit, omega.ContentionFree(), cube.ContentionFree())
		}
		for i := range omega.Clusters {
			if omega.Clusters[i].Verdict.Balanced != cube.Clusters[i].Verdict.Balanced {
				t.Errorf("digit %d cluster %d: omega balanced=%t, cube=%t", digit, i,
					omega.Clusters[i].Verdict.Balanced, cube.Clusters[i].Verdict.Balanced)
			}
		}
		// Both must actually be contention-free and balanced (Lemma 1
		// applies to any k-ary cube on either wiring).
		if !omega.ContentionFree() {
			t.Errorf("digit %d: omega clustering not contention free", digit)
		}
		for i, cr := range omega.Clusters {
			if !cr.Verdict.Balanced {
				t.Errorf("digit %d: omega cluster %d not balanced: %v", digit, i, cr.Usage.ByLayer)
			}
		}
	}
}

func TestBaselinePartitionsLikeButterfly(t *testing.T) {
	// Top-digit clusters: both are contention-free but channel-reduced.
	baseTop := analyzeDigitClusters(t, topology.Baseline, 2)
	bflyTop := analyzeDigitClusters(t, topology.Butterfly, 2)
	if !baseTop.ContentionFree() || !bflyTop.ContentionFree() {
		t.Error("top-digit clusterings should be contention free on both wirings")
	}
	for i := range baseTop.Clusters {
		if !baseTop.Clusters[i].Verdict.Reduced {
			t.Errorf("baseline top-digit cluster %d not channel-reduced: %v",
				i, baseTop.Clusters[i].Usage.ByLayer)
		}
		if !bflyTop.Clusters[i].Verdict.Reduced {
			t.Errorf("butterfly top-digit cluster %d not channel-reduced", i)
		}
	}
	// Bottom-digit clusters: both share channels.
	baseBot := analyzeDigitClusters(t, topology.Baseline, 0)
	bflyBot := analyzeDigitClusters(t, topology.Butterfly, 0)
	if baseBot.ContentionFree() {
		t.Error("baseline bottom-digit clustering should share channels")
	}
	if bflyBot.ContentionFree() {
		t.Error("butterfly bottom-digit clustering should share channels")
	}
}
