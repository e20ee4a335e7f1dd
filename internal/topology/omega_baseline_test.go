package topology_test

import (
	"slices"
	"testing"

	"minsim/internal/kary"
	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

func TestRotateLowRight(t *testing.T) {
	r := kary.MustNew(4, 3)
	// Full rotation equals Unshuffle.
	for x := 0; x < r.Size(); x++ {
		if r.RotateLowRight(x, 3) != r.Unshuffle(x) {
			t.Fatalf("RotateLowRight(%d, 3) != Unshuffle", x)
		}
		if r.RotateLowRight(x, 1) != x {
			t.Fatalf("RotateLowRight(%d, 1) != identity", x)
		}
	}
	// Low-2 rotation swaps the bottom two digits: 123 -> 132.
	x := r.FromDigits([]int{3, 2, 1})
	want := r.FromDigits([]int{2, 3, 1})
	if got := r.RotateLowRight(x, 2); got != want {
		t.Errorf("RotateLowRight(123, 2) = %s, want 132", r.Format(got))
	}
}

// TestOmegaBaselineDelivery: destination-tag routing delivers in the
// Omega and Baseline wirings for every pair, across sizes.
func TestOmegaBaselineDelivery(t *testing.T) {
	for _, pat := range []topology.Pattern{topology.Omega, topology.Baseline} {
		for _, cfg := range []topology.UniConfig{
			{K: 2, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1},
			{K: 2, Stages: 4, Pattern: pat, Dilation: 1, VCs: 1},
			{K: 4, Stages: 3, Pattern: pat, Dilation: 1, VCs: 1},
			{K: 8, Stages: 2, Pattern: pat, Dilation: 1, VCs: 1},
		} {
			net, err := graphtest.Of(topology.NewUnidirectional(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Validate(); err != nil {
				t.Fatalf("%s: %v", net.Name(), err)
			}
			r := net.R
			for src := 0; src < net.Nodes; src++ {
				for dst := 0; dst < net.Nodes; dst++ {
					ch := &net.Channels[net.Inject[src]]
					for !ch.To.IsNode() {
						sw := &net.Switches[ch.To.Switch]
						tag := topology.RoutingTag(r, pat, sw.Stage, dst)
						ch = &net.Channels[sw.PortAt(topology.Right, tag).Channels[0]]
					}
					if ch.To.Node != dst {
						t.Fatalf("%s: %d->%d delivered to %d", net.Name(), src, dst, ch.To.Node)
					}
				}
			}
		}
	}
}

func TestOmegaConnIsShuffle(t *testing.T) {
	r := kary.MustNew(4, 3)
	for layer := 0; layer < 3; layer++ {
		if !slices.Equal(topology.ConnPerm(r, topology.Omega, layer), r.ShufflePerm()) {
			t.Errorf("omega C_%d != σ", layer)
		}
	}
	if !topology.ConnPerm(r, topology.Omega, 3).Fixed() {
		t.Error("omega C_n != identity")
	}
}

func TestBaselineConnStructure(t *testing.T) {
	r := kary.MustNew(2, 3)
	if !topology.ConnPerm(r, topology.Baseline, 0).Fixed() || !topology.ConnPerm(r, topology.Baseline, 3).Fixed() {
		t.Error("baseline edge connections should be identity")
	}
	// C_1 rotates all 3 digits; C_2 swaps the low 2.
	c1 := topology.ConnPerm(r, topology.Baseline, 1)
	for x := 0; x < r.Size(); x++ {
		if c1[x] != r.Unshuffle(x) {
			t.Fatalf("baseline C_1(%d) = %d, want σ^-1", x, c1[x])
		}
	}
	c2 := topology.ConnPerm(r, topology.Baseline, 2)
	for x := 0; x < r.Size(); x++ {
		if c2[x] != r.SwapDigits(x, 0, 1) {
			t.Fatalf("baseline C_2(%d) = %d, want low swap", x, c2[x])
		}
	}
	// All connections are valid permutations.
	for layer := 0; layer <= 3; layer++ {
		if !topology.ConnPerm(r, topology.Baseline, layer).Valid() {
			t.Errorf("baseline C_%d invalid", layer)
		}
	}
}
