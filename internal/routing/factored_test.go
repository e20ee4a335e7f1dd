package routing_test

// External test package: the paper's evaluation specs live in
// internal/experiments, which imports routing — an internal test
// package here would cycle.

import (
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/routing"
	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// checkFactoredEquivalence asserts the property the engine relies on:
// for every (input channel, destination) pair the stage-factored
// lookup — asked the way the engine asks it, with the address the
// description's closed form gives the channel — expands to exactly the
// candidate list the Router finds walking the struct view: same
// channels, same order (the order feeds the random pick, so it is part
// of the determinism contract).
func checkFactoredEquivalence(t *testing.T, net *graphtest.Graph, f *routing.Factored, r graphtest.Router) {
	t.Helper()
	var got, want []int
	for ci := range net.Channels {
		ch := &net.Channels[ci]
		if ch.To.IsNode() {
			continue // ejection channel: the engine never asks
		}
		layer, wire, dir := net.Address(ci)
		for dest := 0; dest < net.Nodes; dest++ {
			got = f.Expand(got[:0], layer, wire, dir, dest)
			want = r.Candidates(want[:0], net, ch, dest)
			if !equalInts(got, want) {
				t.Fatalf("%s: channel %d dest %d: factored %v, router %v",
					net.Name(), ci, dest, got, want)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fuzzNetwork decodes the network the equivalence checks draw: kind 0
// is a BMIN with dv virtual channels, 1 a TMIN, 2 a DMIN with dilation
// dv, 3 a VMIN with dv virtual channels.
func fuzzNetwork(k, n int, kind uint8, pat topology.Pattern, dv, extra int) (*topology.Network, error) {
	cfg := topology.UniConfig{K: k, Stages: n, Pattern: pat, Dilation: 1, VCs: 1, Extra: extra}
	switch kind {
	case 0:
		return topology.NewBMINVC(k, n, dv)
	case 2:
		cfg.Dilation = dv
	case 3:
		cfg.VCs = dv
	}
	return topology.NewUnidirectional(cfg)
}

// enumerate calls f on every network of one (k, n) that
// TestFactoredMatchesRouters and TestAnalysesPinned walk, in a fixed
// order: every family, wiring, channel multiplicity 1 to 4 and extra
// stage count 0 to 2, and returns how many there were.
func enumerate(t *testing.T, k, n int, f func(*topology.Network)) int {
	t.Helper()
	count := 0
	for kind := uint8(0); kind < 4; kind++ {
		for _, pat := range []topology.Pattern{topology.Cube, topology.Butterfly, topology.Omega, topology.Baseline} {
			for _, dv := range []int{1, 2, 3, 4} {
				for extra := 0; extra <= 2; extra++ {
					if kind == 0 && (pat != topology.Cube || extra != 0) || kind == 1 && dv != 1 || kind > 1 && dv == 1 {
						continue // a BMIN has one wiring; a TMIN is the d = m = 1 case
					}
					net, err := fuzzNetwork(k, n, kind, pat, dv, extra)
					if err != nil {
						t.Fatal(err)
					}
					f(net)
					count++
				}
			}
		}
	}
	return count
}

// TestFactoredMatchesRouterPaperConfigs proves factored ≡ Router
// pairwise-exhaustively on the paper's five 64-node evaluation
// configurations, and pins the size the representation exists for:
// under a kilobyte, where a table of every (channel, destination)
// candidate set is O(channels × nodes).
func TestFactoredMatchesRouterPaperConfigs(t *testing.T) {
	for _, ns := range experiments.PaperSpecs() {
		desc, err := ns.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		f := routing.NewFactored(desc)
		checkFactoredEquivalence(t, graphtest.New(desc), f, graphtest.RouterFor(desc))
		if f.Bytes() > 1024 {
			t.Errorf("%s: factored routing state is %d bytes, want under 1 KiB", ns.Name, f.Bytes())
		}
	}
}

// TestFactoredMatchesRouters is the check NewFactored used to make on
// every engine.New, over everything it can be asked to route: every
// family, pattern, arity, extra-stage count and channel multiplicity 1
// to 4, pairwise-exhaustively against the family's Router walking the
// struct view (networks past 64 nodes are left to TestFactoredLayout's
// O(channels) check).
func TestFactoredMatchesRouters(t *testing.T) {
	configs := 0
	for _, k := range []int{2, 4, 8} {
		for n := 1; n <= 4; n++ {
			enumerate(t, k, n, func(desc *topology.Network) {
				if desc.Nodes > 64 {
					return
				}
				checkFactoredEquivalence(t, graphtest.New(desc), routing.NewFactored(desc), graphtest.RouterFor(desc))
				configs++
			})
		}
	}
	t.Logf("%d configurations", configs)
}

// FuzzFactoredEquivalence extends the property over randomized
// (k, stages, kind, wiring, dilation/VCs, extra), k ∈ {2,4,8}.
func FuzzFactoredEquivalence(f *testing.F) {
	// kRaw: 0/1/2 -> k = 2/4/8; nRaw: stages - 2; kind: 0 BMIN,
	// 1 TMIN, 2 DMIN, 3 VMIN; pat: Cube..Baseline; dvRaw: d or m - 1.
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0)) // k=2 TMIN cube, 4 stages
	f.Add(uint8(2), uint8(0), uint8(2), uint8(1), uint8(1), uint8(0)) // k=8 DMIN(d=2) butterfly, 64 nodes
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0)) // k=2 BMIN, 3 stages
	f.Add(uint8(2), uint8(0), uint8(3), uint8(2), uint8(1), uint8(0)) // k=8 VMIN(m=2) omega
	f.Add(uint8(1), uint8(0), uint8(1), uint8(3), uint8(0), uint8(1)) // k=4 extra-stage TMIN baseline
	f.Fuzz(func(t *testing.T, kRaw, nRaw, kindRaw, patRaw, dvRaw, extraRaw uint8) {
		k := 2 << (kRaw % 3)       // 2, 4 or 8
		n := int(nRaw)%3 + 2       // 2..4 stages
		dv := int(dvRaw)%3 + 1     // dilation or VC count 1..3
		extra := int(extraRaw) % 2 // 0 or 1 extra stage
		pat := topology.Pattern(int(patRaw) % 4)
		size := 1
		for i := 0; i < n; i++ {
			size *= k
		}
		if size > 256 {
			t.Skip() // keep the exhaustive pair check cheap
		}
		desc, err := fuzzNetwork(k, n, kindRaw%4, pat, dv, extra)
		if err != nil {
			t.Skip()
		}
		checkFactoredEquivalence(t, graphtest.New(desc), routing.NewFactored(desc), graphtest.RouterFor(desc))
	})
}
