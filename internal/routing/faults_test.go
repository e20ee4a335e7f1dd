package routing

import (
	"testing"

	"minsim/internal/topology"
)

// The paper's Section 2.1 motivates multipath MINs by fault tolerance:
// a single failed channel disconnects a pair exactly when every route
// the routing function offers it crosses that channel. These tests
// check that property on AllPaths.

// cutBy returns the channels lying on every route from src to dst
// (src != dst): the single faults that disconnect the pair.
func cutBy(net *topology.Network, src, dst int) map[int]bool {
	paths := AllPaths(net, src, dst)
	cut := map[int]bool{}
	for _, c := range paths[0] {
		cut[c] = true
	}
	for _, p := range paths[1:] {
		on := map[int]bool{}
		for _, c := range p {
			on[c] = true
		}
		for c := range cut {
			if !on[c] {
				delete(cut, c)
			}
		}
	}
	return cut
}

func TestReachableNoFaults(t *testing.T) {
	net := mustBMIN(t, 4, 3)
	for s := 0; s < net.Nodes; s += 7 {
		for d := 0; d < net.Nodes; d++ {
			if s != d && len(AllPaths(net, s, d)) == 0 {
				t.Fatalf("%d->%d unreachable with no faults", s, d)
			}
		}
	}
}

// TestTMINSingleFaultDisconnects: failing an interstage channel of a
// TMIN disconnects exactly the pairs whose unique path crosses it —
// the unique-path fragility of Section 2.1.
func TestTMINSingleFaultDisconnects(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	victim := net.LayerBase(1) // the first interstage channel
	cut, crossing := 0, 0
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			cuts := cutBy(net, s, d)[victim]
			crosses := false
			for _, c := range OnePath(net, s, d) {
				crosses = crosses || c == victim
			}
			if cuts != crosses {
				t.Fatalf("%d->%d: cut by the victim %t, unique path crosses it %t", s, d, cuts, crosses)
			}
			if cuts {
				cut++
			}
			if crosses {
				crossing++
			}
		}
	}
	// k sources x k^2 destinations, minus the self-pairs among them.
	if cut < 60 || cut > 64 || cut != crossing {
		t.Errorf("victim cuts %d pairs and carries %d, want about k*k^2 = 64 of each", cut, crossing)
	}
}

// TestDMINToleratesSingleInterstageFault: the dilated sibling covers
// any single interstage channel failure.
func TestDMINToleratesSingleInterstageFault(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			for c := range cutBy(net, s, d) {
				if l := net.ChannelAt(c).Layer; l != 0 && l != net.Stages {
					t.Fatalf("DMIN: failing interstage channel %d disconnects %d->%d", c, s, d)
				}
			}
		}
	}
}

// TestBMINSingleInterstageFaultTolerance: a BMIN tolerates ANY single
// interstage channel failure, forward or backward. The downward path
// is unique only once the turnaround switch is committed; across the
// k^t route choices both the forward and the backward segments
// diverge, so a fresh message can always avoid one fault. (Node links
// remain critical, as in every one-port network.)
func TestBMINSingleInterstageFaultTolerance(t *testing.T) {
	net := mustBMIN(t, 2, 3)
	ej := net.Eject(3)
	cutByEject := 0
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			cut := cutBy(net, s, d)
			for c := range cut {
				if ch := net.ChannelAt(c); ch.Layer != 0 {
					t.Errorf("BMIN: failing %s channel %d (layer %d) disconnects %d->%d", ch.Dir, c, ch.Layer, s, d)
				}
			}
			if cut[ej] {
				cutByEject++
			}
		}
	}
	// Failing an ejection channel cuts off all traffic into its node.
	if cutByEject != net.Nodes-1 {
		t.Errorf("failed ejection channel disconnects %d pairs, want %d", cutByEject, net.Nodes-1)
	}
}

// TestCriticalChannels quantifies the fragility ranking: every TMIN
// channel is critical for some pair; no DMIN interstage channel is.
func TestCriticalChannels(t *testing.T) {
	critical := func(net *topology.Network) map[int]bool {
		crit := map[int]bool{}
		for s := 0; s < net.Nodes; s++ {
			for d := 0; d < net.Nodes; d++ {
				if s != d {
					for c := range cutBy(net, s, d) {
						crit[c] = true
					}
				}
			}
		}
		return crit
	}
	tminNet := mustUni(t, topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	crit := critical(tminNet)
	for c := range tminNet.ChannelCount() {
		if !crit[c] {
			t.Errorf("TMIN channel %d is not critical", c)
		}
	}
	dminNet := mustUni(t, topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	critD := critical(dminNet)
	for c := range dminNet.ChannelCount() {
		ch := dminNet.ChannelAt(c)
		interstage := ch.Layer > 0 && ch.Layer < dminNet.Stages
		if interstage && critD[c] {
			t.Errorf("DMIN interstage channel %d is critical", c)
		}
		if !interstage && !critD[c] {
			t.Errorf("DMIN node-edge channel %d should be critical", c)
		}
	}
}

func TestInjectionFaultUnreachable(t *testing.T) {
	net := mustBMIN(t, 2, 2)
	inj := net.Inject(1)
	if !cutBy(net, 1, 2)[inj] {
		t.Error("node with failed injection channel reported reachable")
	}
	if cutBy(net, 2, 1)[inj] {
		t.Error("incoming traffic should not need the injection channel")
	}
}
