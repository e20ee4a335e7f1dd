package routing

import (
	"testing"

	"minsim/internal/topology"
)

// TestExtraStagePathCount: an e-extra-stage TMIN offers k^e distinct
// routes per pair.
func TestExtraStagePathCount(t *testing.T) {
	for _, e := range []int{1, 2} {
		net := mustUni(t, topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1, Extra: e})
		want := 1 << e
		for src := 0; src < net.Nodes; src++ {
			for dst := 0; dst < net.Nodes; dst++ {
				if src == dst {
					continue
				}
				paths := AllPaths(net, src, dst)
				if len(paths) != want {
					t.Fatalf("extra=%d: %d->%d has %d paths, want %d", e, src, dst, len(paths), want)
				}
				for _, p := range paths {
					if p.Length() != net.Stages+1 {
						t.Fatalf("extra=%d: path length %d, want %d", e, p.Length(), net.Stages+1)
					}
					last := net.ChannelAt(p[len(p)-1])
					if last.To.Node != dst {
						t.Fatalf("extra=%d: misdelivered %d->%d", e, src, dst)
					}
				}
			}
		}
	}
}

// TestExtraStagePathsDiverge: the alternative routes of a 1-extra
// stage network are channel-disjoint in the extra layer, giving the
// fault-tolerance / congestion-avoidance the paper's future work
// asks about.
func TestExtraStagePathsDiverge(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 2, Pattern: topology.Cube, Dilation: 1, VCs: 1, Extra: 1})
	for src := 0; src < net.Nodes; src += 3 {
		for dst := 0; dst < net.Nodes; dst++ {
			if src == dst {
				continue
			}
			paths := AllPaths(net, src, dst)
			seen := map[int]bool{}
			for _, p := range paths {
				// Channel leaving the extra stage (index 1 on the path).
				c := p[1]
				if seen[c] {
					t.Fatalf("%d->%d: two paths share extra-stage exit channel %d", src, dst, c)
				}
				seen[c] = true
			}
		}
	}
}

// TestBMINVCPathCount: a BMIN with m VCs multiplies Theorem 1's k^t
// path count by the per-hop VC choices; we only verify delivery and
// that the plain k^t distinct wire-level routes survive.
func TestBMINVCDelivery(t *testing.T) {
	net, err := topology.NewBMINVC(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < net.Nodes; src++ {
		for dst := 0; dst < net.Nodes; dst++ {
			if src == dst {
				continue
			}
			paths := AllPaths(net, src, dst)
			if len(paths) == 0 {
				t.Fatalf("no paths %d->%d", src, dst)
			}
			tt, _ := net.R.FirstDifference(src, dst)
			for _, p := range paths {
				if p.Length() != 2*(tt+1) {
					t.Fatalf("%d->%d: length %d, want %d", src, dst, p.Length(), 2*(tt+1))
				}
				last := net.ChannelAt(p[len(p)-1])
				if last.To.Node != dst {
					t.Fatalf("misdelivered %d->%d", src, dst)
				}
			}
			// Wire-level distinct routes still number k^t.
			wires := map[string]bool{}
			for _, p := range paths {
				key := ""
				for _, c := range p {
					ch := net.ChannelAt(c)
					key += string(rune(ch.Layer)) + string(rune(ch.Wire)) + string(rune(ch.Dir))
				}
				wires[key] = true
			}
			want := 1 << tt
			if len(wires) != want {
				t.Fatalf("%d->%d: %d wire-level routes, want %d", src, dst, len(wires), want)
			}
		}
	}
}
