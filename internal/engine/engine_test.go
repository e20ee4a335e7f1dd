package engine

import (
	"testing"

	"minsim/internal/topology"
)

// script is a deterministic Source fed from per-node message lists.
type script struct {
	msgs [][]Message
}

func (s *script) Next(node int) (Message, bool) {
	if node >= len(s.msgs) || len(s.msgs[node]) == 0 {
		return Message{}, false
	}
	m := s.msgs[node][0]
	s.msgs[node] = s.msgs[node][1:]
	return m, true
}

func scripted(nodes int, msgs ...Message) *script {
	s := &script{msgs: make([][]Message, nodes)}
	for _, m := range msgs {
		s.msgs[m.Src] = append(s.msgs[m.Src], m)
	}
	return s
}

func tmin(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newEngine(t *testing.T, net *topology.Network, src Source) *Engine {
	t.Helper()
	e, err := New(Config{Net: net, Source: src, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleMessageLatency(t *testing.T) {
	// With no contention, wormhole latency is distance-insensitive:
	// roughly path length + message length cycles.
	net := tmin(t)
	const L = 32
	e := newEngine(t, net, scripted(net.Nodes, Message{Src: 3, Dst: 42, Len: L, Created: 0}))
	if !e.RunUntilDrained(10000) {
		t.Fatal("network did not drain")
	}
	st := e.Stats()
	if st.Delivered != 1 || st.Generated != 1 {
		t.Fatalf("delivered %d of %d generated", st.Delivered, st.Generated)
	}
	// Path length is n+1 = 4; the head needs one cycle per hop and the
	// tail follows L-1 cycles behind, plus injection/consumption
	// overhead of a couple of cycles.
	lat := st.MeanLatency()
	min, max := float64(L+4), float64(L+4+3)
	if lat < min || lat > max {
		t.Errorf("latency %.0f cycles, want within [%v, %v]", lat, min, max)
	}
}

func TestDistanceInsensitivity(t *testing.T) {
	// Latency of an uncontended message barely depends on where it
	// goes (wormhole's defining property).
	net := tmin(t)
	var lats []float64
	for _, dst := range []int{1, 17, 63} {
		e := newEngine(t, net, scripted(net.Nodes, Message{Src: 0, Dst: dst, Len: 64, Created: 0}))
		if !e.RunUntilDrained(10000) {
			t.Fatal("did not drain")
		}
		lats = append(lats, e.Stats().MeanLatency())
	}
	for i := 1; i < len(lats); i++ {
		if lats[i] != lats[0] {
			t.Errorf("latency differs across destinations: %v", lats)
		}
	}
}

func TestPipelining(t *testing.T) {
	// A worm streams at 1 flit/cycle once the head arrives: delivering
	// L flits takes about L cycles beyond the head latency.
	net := tmin(t)
	const L = 512
	e := newEngine(t, net, scripted(net.Nodes, Message{Src: 0, Dst: 63, Len: L, Created: 0}))
	if !e.RunUntilDrained(5000) {
		t.Fatal("did not drain")
	}
	if lat := e.Stats().MeanLatency(); lat > L+10 {
		t.Errorf("latency %.0f for %d flits: pipelining broken", lat, L)
	}
}

func TestChannelHeldUntilTailPasses(t *testing.T) {
	// Two messages from different sources to the same destination:
	// the second must wait for the first to release the ejection
	// channel, so total time is about 2L.
	net := tmin(t)
	const L = 100
	e := newEngine(t, net,
		scripted(net.Nodes,
			Message{Src: 0, Dst: 63, Len: L, Created: 0},
			Message{Src: 1, Dst: 63, Len: L, Created: 0},
		))
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.Delivered != 2 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	// The slower of the two should finish at about 2L + overhead.
	if st.LatencyMax < 2*L || st.LatencyMax > 2*L+20 {
		t.Errorf("max latency %d, want about %d", st.LatencyMax, 2*L)
	}
}

func TestOnePortSerialization(t *testing.T) {
	// One node sending two messages injects them in sequence through
	// its single injection channel.
	net := tmin(t)
	const L = 100
	e := newEngine(t, net,
		scripted(net.Nodes,
			Message{Src: 0, Dst: 10, Len: L, Created: 0},
			Message{Src: 0, Dst: 20, Len: L, Created: 0},
		))
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.LatencyMax < 2*L {
		t.Errorf("second message finished after %d cycles; expected serialization to about %d", st.LatencyMax, 2*L)
	}
}

func TestVirtualChannelMultiplexing(t *testing.T) {
	// In a VMIN, two worms crossing the same physical link each get
	// about half the bandwidth; both should take about 2L.
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Sources 0 and 1 are on the same stage-0 switch after the shuffle?
	// Choose sources mapping to the same first-hop physical link:
	// destinations sharing all routing tags except the final stage
	// digits force the two worms through the same interstage ports.
	const L = 200
	e := newEngine(t, net,
		scripted(net.Nodes,
			// Nodes 0 and 16 both enter stage-0 switches; route both to
			// destinations 0 area so they share interstage wires.
			Message{Src: 1, Dst: 2, Len: L, Created: 0},
			Message{Src: 5, Dst: 3, Len: L, Created: 0},
		))
	if !e.RunUntilDrained(20000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.Delivered != 2 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	// Whether or not these two share a link depends on wiring; the
	// hard invariant is that both finish and neither exceeds 2L + slack.
	if st.LatencyMax > 2*L+30 {
		t.Errorf("max latency %d exceeds fair-share bound %d", st.LatencyMax, 2*L+30)
	}
}

func TestVMINSharedLinkFairness(t *testing.T) {
	// Construct a guaranteed shared physical link: same source switch,
	// same routing tags through stage 0 and 1. In the cube TMIN wiring,
	// destinations with equal high digits share tags at early stages.
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// σ(s) maps s=0 and s=16 to stage-0 ports 0 and 1: both on switch 0.
	// Destinations 0 and 1 share digits 2 and 1 (tags d2, d1), so both
	// worms want the same stage-0 and stage-1 output ports.
	const L = 300
	e := newEngine(t, net,
		scripted(net.Nodes,
			Message{Src: 16, Dst: 1, Len: L, Created: 0},
			Message{Src: 32, Dst: 2, Len: L, Created: 0},
		))
	if !e.RunUntilDrained(20000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	// Both worms share the stage0->stage1 physical link (both tagged
	// port 0 at stage 0): each gets about W/2, so both finish around
	// 2L rather than one at L and one at 2L.
	if st.LatencyMin < int64(1.6*L) {
		t.Errorf("min latency %d: expected flit-level sharing to slow both worms to about %d", st.LatencyMin, 2*L)
	}
	if st.LatencyMax > int64(2*L+40) {
		t.Errorf("max latency %d too high for fair multiplexing", st.LatencyMax)
	}
}

func TestTMINSameConflictSerializes(t *testing.T) {
	// The same scenario on a TMIN: one worm grabs the contended
	// channel and the other waits, so the first finishes near L.
	net := tmin(t)
	const L = 300
	e := newEngine(t, net,
		scripted(net.Nodes,
			Message{Src: 16, Dst: 1, Len: L, Created: 0},
			Message{Src: 32, Dst: 2, Len: L, Created: 0},
		))
	if !e.RunUntilDrained(20000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.LatencyMin > int64(L+20) {
		t.Errorf("min latency %d: winner should finish near %d", st.LatencyMin, L)
	}
	if st.LatencyMax < int64(2*L) {
		t.Errorf("max latency %d: loser should wait for the winner", st.LatencyMax)
	}
}

func TestDMINParallelTransfer(t *testing.T) {
	// On a two-dilated DMIN the same two worms can use the two dilated
	// channels of the contended port and both finish near L.
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	const L = 300
	e := newEngine(t, net,
		scripted(net.Nodes,
			Message{Src: 16, Dst: 1, Len: L, Created: 0},
			Message{Src: 32, Dst: 2, Len: L, Created: 0},
		))
	if !e.RunUntilDrained(20000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.LatencyMax > int64(L+20) {
		t.Errorf("max latency %d: dilation should let both worms proceed concurrently near %d", st.LatencyMax, L)
	}
}

func TestDeterminism(t *testing.T) {
	net := tmin(t)
	run := func() Stats {
		msgs := []Message{}
		for s := 0; s < net.Nodes; s++ {
			msgs = append(msgs, Message{Src: s, Dst: (s + 13) % net.Nodes, Len: 16 + s%32, Created: int64(s % 7)})
		}
		e := newEngine(t, net, scripted(net.Nodes, msgs...))
		if !e.RunUntilDrained(100000) {
			t.Fatal("did not drain")
		}
		return e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestInvariantsDuringLoad(t *testing.T) {
	nets := []*topology.Network{tmin(t)}
	if d, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1}); err == nil {
		nets = append(nets, d)
	}
	if v, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Butterfly, Dilation: 1, VCs: 2}); err == nil {
		nets = append(nets, v)
	}
	if b, err := topology.NewBMIN(4, 3); err == nil {
		nets = append(nets, b)
	}
	for _, net := range nets {
		var msgs []Message
		for s := 0; s < net.Nodes; s++ {
			msgs = append(msgs,
				Message{Src: s, Dst: (s + 1) % net.Nodes, Len: 20, Created: 0},
				Message{Src: s, Dst: (s + 31) % net.Nodes, Len: 40, Created: 10},
				Message{Src: s, Dst: (s*7 + 5) % net.Nodes, Len: 9, Created: 25},
			)
		}
		// Remove self-sends.
		valid := msgs[:0]
		for _, m := range msgs {
			if m.Src != m.Dst {
				valid = append(valid, m)
			}
		}
		e := newEngine(t, net, scripted(net.Nodes, valid...))
		for i := 0; i < 2000; i++ {
			e.Step()
			if i%50 == 0 {
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("%s: cycle %d: %v", net.Name(), i, err)
				}
			}
			if e.drained() {
				break
			}
		}
		if !e.RunUntilDrained(100000) {
			t.Fatalf("%s: did not drain; %d worms active, %d queued",
				net.Name(), e.ActiveWorms(), e.QueuedMessages())
		}
		st := e.Stats()
		if st.Delivered != st.Generated || int(st.Delivered) != len(valid) {
			t.Fatalf("%s: delivered %d of %d (%d offered)", net.Name(), st.Delivered, st.Generated, len(valid))
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: after drain: %v", net.Name(), err)
		}
	}
}

// TestRecycledWormsKeepTheirSlots: channel owners are slab slots, so a
// worm taken off the free list must come back at the slot it was first
// given. A thousand messages through a few dozen worms recycle
// every slot many times over; the owner check runs after every cycle.
func TestRecycledWormsKeepTheirSlots(t *testing.T) {
	vmin, err := topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 4, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*topology.Network{tmin(t), vmin} {
		e := newEngine(t, net, randomScript(net, 11, 1000))
		slots := make(map[*worm]int32)
		for !e.drained() {
			if e.now > 200000 {
				t.Fatalf("%s: did not drain; %d worms active", net.Name(), e.ActiveWorms())
			}
			e.Step()
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%s: cycle %d: %v", net.Name(), e.now, err)
			}
			for _, w := range e.worms {
				if s, ok := slots[w]; !ok {
					slots[w] = w.slot
				} else if s != w.slot {
					t.Fatalf("%s: worm %d moved from slot %d to %d", net.Name(), w.id, s, w.slot)
				}
			}
		}
		for i, w := range e.slab[1:] {
			if w.slot != int32(i+1) {
				t.Fatalf("%s: slab slot %d holds a worm that says %d", net.Name(), i+1, w.slot)
			}
		}
		t.Logf("%s: %d worms made in %d slots over %d cycles", net.Name(), e.nextID, len(slots), e.now)
		if made := int(e.nextID); made < 4*len(slots) {
			t.Fatalf("%s: %d worms made in %d slots, too few recycled to test", net.Name(), made, len(slots))
		}
	}
}

func TestMeasurementWindow(t *testing.T) {
	net := tmin(t)
	e := newEngine(t, net, scripted(net.Nodes,
		Message{Src: 0, Dst: 1, Len: 10, Created: 0},   // before window
		Message{Src: 2, Dst: 3, Len: 10, Created: 500}, // inside window
	))
	e.SetMeasureFrom(100)
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.Delivered != 2 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	if st.MeasuredMsgs != 1 {
		t.Errorf("measured %d messages, want 1", st.MeasuredMsgs)
	}
	if st.DeliveredFlits != 10 {
		t.Errorf("measured %d flits, want 10", st.DeliveredFlits)
	}
}

func TestOfferedMeasuredAccounting(t *testing.T) {
	// Generated-flit accounting respects the measurement window.
	net := tmin(t)
	e := newEngine(t, net, scripted(net.Nodes,
		Message{Src: 0, Dst: 1, Len: 10, Created: 0},    // before window
		Message{Src: 2, Dst: 3, Len: 30, Created: 200},  // inside
		Message{Src: 4, Dst: 5, Len: 50, Created: 300})) // inside
	e.SetMeasureFrom(100)
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	st := e.Stats()
	if st.GeneratedFlitsMeasured != 80 {
		t.Errorf("measured generated flits %d, want 80", st.GeneratedFlitsMeasured)
	}
	if got := st.OfferedMeasured(net.Nodes); got <= 0 {
		t.Errorf("OfferedMeasured = %v", got)
	}
	if zero := (Stats{}).OfferedMeasured(64); zero != 0 {
		t.Errorf("empty stats OfferedMeasured = %v", zero)
	}
}

func TestBlockedByStage(t *testing.T) {
	// Two worms converging only at the final stage: in the cube MIN
	// every source reaches a destination through the same stage-2
	// switch entering at port s_0, so sources differing in digit 0
	// (and routed without earlier overlap) contend exactly at G2 for
	// the ejection port.
	net := tmin(t)
	e := newEngine(t, net, scripted(net.Nodes,
		Message{Src: 0, Dst: 5, Len: 200, Created: 0},
		Message{Src: 2, Dst: 5, Len: 50, Created: 0}))
	e.EnableChannelStats()
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	blocked := e.BlockedByStage()
	if blocked == nil {
		t.Fatal("no blocking stats")
	}
	total := int64(0)
	for _, b := range blocked {
		total += b
	}
	if total < 100 {
		t.Errorf("expected substantial head blocking, got %d cycles", total)
	}
	if blocked[net.Stages-1] == 0 {
		t.Errorf("last stage should carry the ejection contention: %v", blocked)
	}
}

func TestQueueWatermark(t *testing.T) {
	// Flood one node: its queue must exceed the limit and be reported.
	net := tmin(t)
	var msgs []Message
	for i := 0; i < 150; i++ {
		msgs = append(msgs, Message{Src: 0, Dst: 1, Len: 1000, Created: 0})
	}
	e, err := New(Config{Net: net, Source: scripted(net.Nodes, msgs...), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	st := e.Stats()
	if !st.QueueExceeded {
		t.Error("queue limit not reported as exceeded")
	}
	if st.MaxQueue < 140 {
		t.Errorf("max queue %d, want >= 140", st.MaxQueue)
	}
}

func TestConfigValidation(t *testing.T) {
	net := tmin(t)
	if _, err := New(Config{Net: nil, Source: scripted(1)}); err == nil {
		t.Error("nil network accepted")
	}
	// A nil source is allowed: the engine can be driven with Offer.
	e, err := New(Config{Net: net, Source: nil, Seed: 1})
	if err != nil {
		t.Fatalf("nil source rejected: %v", err)
	}
	e.Offer(Message{Src: 2, Dst: 7, Len: 12})
	if !e.RunUntilDrained(10000) {
		t.Fatal("offered message not delivered")
	}
	if e.Stats().Delivered != 1 {
		t.Errorf("delivered %d", e.Stats().Delivered)
	}
}

func TestOfferValidation(t *testing.T) {
	net := tmin(t)
	e, _ := New(Config{Net: net, Seed: 1})
	for name, m := range map[string]Message{
		"zero length": {Src: 0, Dst: 1, Len: 0},
		"bad src":     {Src: -1, Dst: 1, Len: 5},
		"bad dst":     {Src: 0, Dst: 64, Len: 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Offer(%s) did not panic", name)
				}
			}()
			e.Offer(m)
		}()
	}
	// Past creation times are clamped to the current cycle.
	e.Run(50)
	e.Offer(Message{Src: 0, Dst: 1, Len: 5, Created: 3})
	if !e.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	if lat := e.Stats().LatencyMax; lat > 30 {
		t.Errorf("latency %d suggests Created was not clamped", lat)
	}
}

func TestBadMessagePanics(t *testing.T) {
	net := tmin(t)
	e := newEngine(t, net, scripted(net.Nodes, Message{Src: 0, Dst: 1, Len: 0, Created: 0}))
	defer func() {
		if recover() == nil {
			t.Error("zero-length message did not panic")
		}
	}()
	e.Step()
}

func TestBMINHeavyRandomDrains(t *testing.T) {
	// Deadlock-freedom sanity: a heavy all-to-all burst on the BMIN
	// always drains (turnaround routing is deadlock free).
	net, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []Message
	for s := 0; s < net.Nodes; s++ {
		for j := 1; j <= 5; j++ {
			d := (s*11 + j*17) % net.Nodes
			if d == s {
				continue
			}
			msgs = append(msgs, Message{Src: s, Dst: d, Len: 8 + (s+j)%64, Created: int64(j)})
		}
	}
	e := newEngine(t, net, scripted(net.Nodes, msgs...))
	if !e.RunUntilDrained(200000) {
		t.Fatalf("BMIN did not drain: %d worms, %d queued, stalls %d",
			e.ActiveWorms(), e.QueuedMessages(), e.Stats().StallCycles)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
