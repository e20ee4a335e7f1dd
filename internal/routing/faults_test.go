package routing

import (
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

func TestReachableNoFaults(t *testing.T) {
	net := mustBMIN(t, 4, 3)
	for s := 0; s < net.Nodes; s += 7 {
		for d := 0; d < net.Nodes; d++ {
			if !Reachable(net, nil, s, d) {
				t.Fatalf("%d->%d unreachable with no faults", s, d)
			}
		}
	}
}

// TestTMINSingleFaultDisconnects: failing any interstage channel of a
// TMIN disconnects some pairs — the unique-path fragility of
// Section 2.1.
func TestTMINSingleFaultDisconnects(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	// Pick an interstage channel (layer 1).
	var victim int = -1
	for i := range net.ChannelCount() {
		if layer, _, _ := net.Address(i); layer == 1 {
			victim = i
			break
		}
	}
	pairs := DisconnectedPairs(net, map[int]bool{victim: true})
	// The disconnected set must be exactly the pairs whose unique
	// path crosses the victim: k sources x k^2 destinations minus the
	// self-pairs among them.
	want := 0
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			for _, c := range OnePath(net, s, d) {
				if c == victim {
					want++
					break
				}
			}
		}
	}
	if want < 60 || want > 64 {
		t.Fatalf("victim carries %d pairs, expected about k*k^2 = 64", want)
	}
	if len(pairs) != want {
		t.Errorf("TMIN single fault disconnected %d pairs, want %d", len(pairs), want)
	}
	// Every disconnected pair routes through the victim.
	for _, p := range pairs {
		path := OnePath(net, p[0], p[1])
		found := false
		for _, c := range path {
			if c == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("pair %v reported disconnected but avoids the fault", p)
		}
	}
}

// TestDMINToleratesSingleInterstageFault: the dilated sibling covers
// any single interstage channel failure.
func TestDMINToleratesSingleInterstageFault(t *testing.T) {
	net := mustUni(t, topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	for i := range net.ChannelCount() {
		ch := net.ChannelAt(i)
		if ch.Layer == 0 || ch.Layer == net.Stages {
			continue // node links are necessarily critical
		}
		if pairs := DisconnectedPairs(net, map[int]bool{i: true}); len(pairs) != 0 {
			t.Fatalf("DMIN: failing interstage channel %d disconnected %d pairs", i, len(pairs))
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
	for i := range net.ChannelCount() {
		ch := net.ChannelAt(i)
		if ch.Layer == 0 {
			continue // node links
		}
		if pairs := DisconnectedPairs(net, map[int]bool{i: true}); len(pairs) != 0 {
			t.Errorf("BMIN: failing %s channel %d (layer %d) disconnected %d pairs",
				ch.Dir, i, ch.Layer, len(pairs))
		}
	}
	// Node links are critical: failing an ejection channel cuts off
	// all traffic into that node.
	ej := net.Eject(3)
	pairs := DisconnectedPairs(net, map[int]bool{ej: true})
	if len(pairs) != net.Nodes-1 {
		t.Errorf("failed ejection channel disconnected %d pairs, want %d", len(pairs), net.Nodes-1)
	}
}

// TestCriticalChannels quantifies the fragility ranking: every TMIN
// channel is critical; no DMIN interstage channel is.
func TestCriticalChannels(t *testing.T) {
	tminNet := mustUni(t, topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	crit := CriticalChannels(tminNet)
	for c, n := range crit {
		if n == 0 {
			t.Errorf("TMIN channel %d reported non-critical", c)
		}
	}
	dminNet := mustUni(t, topology.UniConfig{K: 2, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	critD := CriticalChannels(dminNet)
	for c, n := range critD {
		ch := dminNet.ChannelAt(c)
		interstage := ch.Layer > 0 && ch.Layer < dminNet.Stages
		if interstage && n != 0 {
			t.Errorf("DMIN interstage channel %d critical for %d pairs", c, n)
		}
		if !interstage && n == 0 {
			t.Errorf("DMIN node-edge channel %d should be critical", c)
		}
	}
}

// TestFaultAwareAvoidsBackwardDeadEnds is the lookahead half of the
// engine's TestBMINBackwardFaultNeedsLookahead, checked statically.
// With one backward channel of a BMIN(4,3) failed, every pair stays
// reachable, yet turnaround routing alone offers some walk that turns
// around above the fault and then finds its unique downward channel
// failed — a dead end, where a wormhole head would wait forever.
// Through FaultAware's candidates no walk from any pair dead-ends.
func TestFaultAwareAvoidsBackwardDeadEnds(t *testing.T) {
	net := mustBMIN(t, 4, 3)
	victim := net.LayerBase(2) + net.VCs // wire 0's first backward channel
	failed := map[int]bool{victim: true}
	g := graphtest.New(net)
	oblivious := graphtest.RouterFor(net)
	aware := graphtest.FaultAware{Inner: oblivious, Failed: failed}
	stranded := 0
	for s := 0; s < net.Nodes; s++ {
		for d := 0; d < net.Nodes; d++ {
			if s == d {
				continue
			}
			if !Reachable(net, failed, s, d) {
				t.Fatalf("%d->%d unreachable with one backward fault", s, d)
			}
			if deadEnd(g, aware, failed, s, d) {
				t.Fatalf("%d->%d: a walk through fault-aware candidates dead-ends", s, d)
			}
			if deadEnd(g, oblivious, failed, s, d) {
				stranded++
			}
		}
	}
	if stranded == 0 {
		t.Fatal("turnaround routing alone has no dead end here; choose another victim")
	}
	t.Logf("turnaround alone can strand %d pairs; fault-aware none", stranded)
}

// deadEnd reports whether some walk from src's injection channel that
// takes any non-failed candidate of r at every hop reaches a channel
// whose candidates have all failed, or ejects at a node other than dst.
func deadEnd(net *graphtest.Graph, r graphtest.Router, failed map[int]bool, src, dst int) bool {
	seen := map[int]bool{}
	var walk func(c int) bool
	walk = func(c int) bool {
		if seen[c] {
			return false
		}
		seen[c] = true
		ch := &net.Channels[c]
		if ch.To.IsNode() {
			return ch.To.Node != dst
		}
		live := 0
		for _, next := range r.Candidates(nil, net, ch, dst) {
			if failed[next] {
				continue
			}
			live++
			if walk(next) {
				return true
			}
		}
		return live == 0
	}
	return walk(net.Inject[src])
}

func TestInjectionFaultUnreachable(t *testing.T) {
	net := mustBMIN(t, 2, 2)
	failed := map[int]bool{net.Inject(1): true}
	if Reachable(net, failed, 1, 2) {
		t.Error("node with failed injection channel reported reachable")
	}
	if !Reachable(net, failed, 2, 1) {
		t.Error("incoming traffic should not need the injection channel")
	}
	if !Reachable(net, failed, 1, 1) {
		t.Error("self reachability should hold trivially")
	}
}
