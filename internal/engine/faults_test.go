package engine

import (
	"slices"
	"testing"

	"minsim/internal/routing"
	"minsim/internal/topology"
)

// TestDMINRoutesAroundFault: with one interstage channel failed, a
// DMIN still delivers every message (through the dilated sibling).
func TestDMINRoutesAroundFault(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := net.LayerBase(1) // the first channel of layer 1
	var msgs []Message
	for s := 0; s < net.Nodes; s++ {
		msgs = append(msgs, Message{Src: s, Dst: (s + 17) % net.Nodes, Len: 24, Created: 0})
	}
	e, err := New(Config{
		Net:            net,
		Source:         scripted(net.Nodes, msgs...),
		Seed:           3,
		failedChannels: []int{victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableChannelStats()
	if !e.RunUntilDrained(100000) {
		t.Fatalf("DMIN with one fault did not drain: %d active", e.ActiveWorms())
	}
	if e.Stats().Delivered != int64(len(msgs)) {
		t.Errorf("delivered %d of %d", e.Stats().Delivered, len(msgs))
	}
	// The failed channel carried nothing.
	if e.owner(victim) != nil || e.ChannelFlits()[victim] != 0 {
		t.Error("failed channel was used")
	}
}

// TestTMINFaultStallsAffectedPairsOnly: messages whose unique path
// crosses the fault stall; everything else is delivered.
func TestTMINFaultStallsAffectedPairsOnly(t *testing.T) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := net.LayerBase(2) // the first channel of layer 2
	failed := map[int]bool{victim: true}
	var msgs []Message
	affected := 0
	for s := 0; s < net.Nodes; s++ {
		d := (s + 9) % net.Nodes
		msgs = append(msgs, Message{Src: s, Dst: d, Len: 16, Created: 0})
		if !reachable(net, failed, s, d) {
			affected++
		}
	}
	if affected == 0 {
		t.Fatal("test needs at least one affected pair; choose another victim")
	}
	e, err := New(Config{
		Net:            net,
		Source:         scripted(net.Nodes, msgs...),
		Seed:           4,
		failedChannels: []int{victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntilDrained(50000)
	st := e.Stats()
	if st.Delivered != int64(len(msgs)-affected) {
		t.Errorf("delivered %d, want %d (total %d, affected %d)",
			st.Delivered, len(msgs)-affected, len(msgs), affected)
	}
	if e.ActiveWorms() != affected {
		t.Errorf("%d worms stalled, want %d", e.ActiveWorms(), affected)
	}
}

func TestFailedChannelValidation(t *testing.T) {
	net, _ := topology.NewBMIN(2, 2)
	if _, err := New(Config{Net: net, failedChannels: []int{-1}}); err == nil {
		t.Error("negative failed channel accepted")
	}
	if _, err := New(Config{Net: net, failedChannels: []int{9999}}); err == nil {
		t.Error("out-of-range failed channel accepted")
	}
}

// TestBMINBackwardFaultNeedsLookahead: with a failed backward channel
// a fault-oblivious turnaround router can commit a worm past the point
// of no return and stall, even though every pair keeps a route that
// avoids the fault.
func TestBMINBackwardFaultNeedsLookahead(t *testing.T) {
	net, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := net.LayerBase(2) + net.VCs // wire 0's first backward channel
	var msgs []Message
	for s := 0; s < net.Nodes; s++ {
		d := (s + 33) % net.Nodes
		msgs = append(msgs, Message{Src: s, Dst: d, Len: 20, Created: 0})
		if !reachable(net, map[int]bool{victim: true}, s, d) {
			t.Fatalf("%d->%d unreachable with one backward fault", s, d)
		}
	}
	e, err := New(Config{
		Net:            net,
		Source:         scripted(net.Nodes, msgs...),
		Seed:           5,
		failedChannels: []int{victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.RunUntilDrained(100000) {
		t.Fatal("oblivious routing delivered everything; seed 5 used to strand a worm")
	}
	stranded := e.ActiveWorms()
	if int(e.Stats().Delivered)+stranded != len(msgs) {
		t.Errorf("delivered %d and stranded %d of %d", e.Stats().Delivered, stranded, len(msgs))
	}
	t.Logf("oblivious routing stranded %d worm(s)", stranded)
}

// reachable reports whether some route the routing function can take
// from src to dst (src != dst) avoids every failed channel.
func reachable(net *topology.Network, failed map[int]bool, src, dst int) bool {
	for _, p := range routing.AllPaths(net, src, dst) {
		if !slices.ContainsFunc(p, func(c int) bool { return failed[c] }) {
			return true
		}
	}
	return false
}
