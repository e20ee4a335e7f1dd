package multicast

import (
	"testing"
	"testing/quick"

	"minsim/internal/topology"
	"minsim/internal/xrand"
)

func bmin(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func tmin(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func algorithms() []Algorithm {
	return []Algorithm{SeparateAddressing{}, Binomial{}, SubtreeAware{}}
}

func TestTreeValidity(t *testing.T) {
	net := bmin(t)
	dests := []int{1, 5, 9, 17, 33, 48, 63, 2, 30}
	for _, alg := range algorithms() {
		tree, err := alg.Tree(net, 0, dests)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := tree.Validate(dests); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
		if tree.Size() != len(dests) {
			t.Errorf("%s: %d unicasts for %d destinations", alg.Name(), tree.Size(), len(dests))
		}
	}
}

func TestSeparateAddressingShape(t *testing.T) {
	net := tmin(t)
	tree, err := SeparateAddressing{}.Tree(net, 3, []int{1, 2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children[3]) != 3 || depth(tree) != 1 {
		t.Errorf("separate addressing should be a one-level star, got %+v", tree.Children)
	}
}

func TestBinomialDepth(t *testing.T) {
	net := tmin(t)
	// With 15 destinations (16 participants), binomial depth is 4.
	var dests []int
	for i := 1; i <= 15; i++ {
		dests = append(dests, i)
	}
	tree, err := Binomial{}.Tree(net, 0, dests)
	if err != nil {
		t.Fatal(err)
	}
	if d := depth(tree); d != 4 {
		t.Errorf("binomial depth %d for 16 participants, want 4", d)
	}
	// Nobody sends more than log2(16) = 4 messages.
	for n, c := range tree.Children {
		if len(c) > 4 {
			t.Errorf("node %d sends %d messages", n, len(c))
		}
	}
}

func TestSubtreeAwareStructure(t *testing.T) {
	net := bmin(t)
	dests := []int{1, 2, 3, 16, 32, 48}
	tree, err := SubtreeAware{}.Tree(net, 0, dests)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(dests); err != nil {
		t.Fatal(err)
	}
	// Sorted halving over [0 1 2 3 16 32 48]: root first informs the
	// midpoint (3), then its own half's midpoint (1); depth is
	// ceil(log2(7)) = 3.
	sent := tree.Children[0]
	if len(sent) != 2 || sent[0] != 3 || sent[1] != 1 {
		t.Errorf("root sent to %v, want [3 1]", sent)
	}
	if d := depth(tree); d != 3 {
		t.Errorf("depth %d, want 3", d)
	}
	// Rotation: a root in the middle of the address range keeps the
	// ascending-wrapped order.
	tree2, err := SubtreeAware{}.Tree(net, 32, []int{1, 16, 48})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree2.Validate([]int{1, 16, 48}); err != nil {
		t.Fatal(err)
	}
	// Members: [32 48 1 16]; root's first send is the midpoint (1).
	if sent := tree2.Children[32]; len(sent) == 0 || sent[0] != 1 {
		t.Errorf("rotated root sent first to %v, want 1", sent)
	}
}

func TestRunCorrectnessAllAlgorithms(t *testing.T) {
	for _, build := range []func(*testing.T) *topology.Network{bmin, tmin} {
		net := build(t)
		dests := []int{1, 7, 13, 21, 34, 55, 62}
		for _, alg := range algorithms() {
			res, err := Run(net, alg, 5, dests, 64)
			if err != nil {
				t.Fatalf("%s on %s: %v", alg.Name(), net.Name(), err)
			}
			if res.Unicasts != len(dests) {
				t.Errorf("%s: %d unicasts", alg.Name(), res.Unicasts)
			}
			if res.Latency <= 64 {
				t.Errorf("%s: latency %d impossibly fast", alg.Name(), res.Latency)
			}
		}
	}
}

// TestLatenciesPinned holds the collectives to the cycle counts the
// engine produced before its worms learned to sleep through the advance
// sweep: forwards are offered from inside OnDeliver, so a delivery made
// in a different cycle, or two deliveries of one cycle made in a
// different order, would move them.
func TestLatenciesPinned(t *testing.T) {
	dests := []int{1, 7, 13, 21, 34, 55, 62, 3, 40, 41, 18}
	for _, tc := range []struct {
		net         *topology.Network
		run, gather []int64 // per algorithms()
	}{
		{bmin(t), []int64{2216, 820, 820}, []int64{2212, 820, 820}},
		{tmin(t), []int64{2214, 816, 816}, []int64{2214, 816, 816}},
	} {
		for i, alg := range algorithms() {
			res, err := Run(tc.net, alg, 5, dests, 200)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Gather(tc.net, alg, 5, dests, 200)
			if err != nil {
				t.Fatal(err)
			}
			if res.Latency != tc.run[i] || g.Latency != tc.gather[i] {
				t.Errorf("%s on %s: multicast %d, gather %d; pinned %d, %d",
					alg.Name(), tc.net.Name(), res.Latency, g.Latency, tc.run[i], tc.gather[i])
			}
		}
	}
}

// TestBinomialBeatsSeparateAddressing: with enough destinations the
// logarithmic tree wins clearly — the headline result of software
// multicast.
func TestBinomialBeatsSeparateAddressing(t *testing.T) {
	net := bmin(t)
	var dests []int
	for i := 1; i < 32; i++ {
		dests = append(dests, i*2)
	}
	const L = 256
	sep, err := Run(net, SeparateAddressing{}, 0, dests, L)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Run(net, Binomial{}, 0, dests, L)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Latency*2 > sep.Latency {
		t.Errorf("binomial %d vs separate %d: expected at least 2x win", bin.Latency, sep.Latency)
	}
	// Rough asymptotics: separate ~ m*L, binomial ~ log2(m+1)*L.
	if sep.Latency < int64(len(dests))*L {
		t.Errorf("separate addressing %d faster than serialization bound %d", sep.Latency, int64(len(dests))*L)
	}
	if bin.Latency > 8*L {
		t.Errorf("binomial latency %d exceeds ~log rounds bound %d", bin.Latency, 8*L)
	}
}

// TestSubtreeAwareCompetitive: on the BMIN the topology-aware tree is
// at least as fast as binomial for a full broadcast (its rounds are
// contention-free).
func TestSubtreeAwareCompetitive(t *testing.T) {
	net := bmin(t)
	var dests []int
	for i := 1; i < net.Nodes; i++ {
		dests = append(dests, i)
	}
	const L = 128
	bin, err := Run(net, Binomial{}, 0, dests, L)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Run(net, SubtreeAware{}, 0, dests, L)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Latency > bin.Latency*5/4 {
		t.Errorf("subtree-aware %d much slower than binomial %d", sub.Latency, bin.Latency)
	}
}

func TestErrors(t *testing.T) {
	net := tmin(t)
	for _, alg := range algorithms() {
		if _, err := alg.Tree(net, 0, nil); err == nil {
			t.Errorf("%s: empty destinations accepted", alg.Name())
		}
		if _, err := alg.Tree(net, 0, []int{0}); err == nil {
			t.Errorf("%s: root destination accepted", alg.Name())
		}
		if _, err := alg.Tree(net, 0, []int{1, 1}); err == nil {
			t.Errorf("%s: duplicate destination accepted", alg.Name())
		}
		if _, err := alg.Tree(net, 0, []int{99}); err == nil {
			t.Errorf("%s: out-of-range destination accepted", alg.Name())
		}
		if _, err := alg.Tree(net, -1, []int{1}); err == nil {
			t.Errorf("%s: bad root accepted", alg.Name())
		}
	}
	if _, err := Run(net, Binomial{}, 0, []int{1}, 0); err == nil {
		t.Error("zero-length multicast accepted")
	}
}

// TestQuickRandomDestinationSets: every algorithm produces valid,
// complete multicasts for random destination sets on random roots.
func TestQuickRandomDestinationSets(t *testing.T) {
	net := bmin(t)
	f := func(seed uint64, sz uint8) bool {
		rng := xrand.New(seed)
		root := rng.Intn(net.Nodes)
		m := int(sz)%20 + 1
		picked := map[int]bool{root: true}
		var dests []int
		for len(dests) < m {
			d := rng.Intn(net.Nodes)
			if !picked[d] {
				picked[d] = true
				dests = append(dests, d)
			}
		}
		for _, alg := range algorithms() {
			res, err := Run(net, alg, root, dests, 16)
			if err != nil {
				t.Logf("%s root=%d dests=%v: %v", alg.Name(), root, dests, err)
				return false
			}
			if res.Unicasts != len(dests) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
