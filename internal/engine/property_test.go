package engine

import (
	"testing"
	"testing/quick"

	"minsim/internal/topology"
	"minsim/internal/xrand"
)

// buildNet constructs one of the four network families from a fuzz
// selector.
func buildNet(sel uint8) (*topology.Network, error) {
	switch sel % 9 {
	case 0:
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	case 1:
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Butterfly, Dilation: 2, VCs: 1})
	case 2:
		return topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 4, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	case 3:
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1, Extra: 1})
	case 4:
		return topology.NewBMINVC(4, 3, 2)
	case 5:
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Omega, Dilation: 1, VCs: 1})
	case 6:
		return topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 4, Pattern: topology.Baseline, Dilation: 1, VCs: 1})
	case 7:
		return topology.NewBMIN(4, 3)
	default:
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 4})
	}
}

// randomScript builds a random but valid message script.
func randomScript(net *topology.Network, seed uint64, msgs int) *script {
	rng := xrand.New(seed)
	s := &script{msgs: make([][]Message, net.Nodes)}
	for i := 0; i < msgs; i++ {
		src := rng.Intn(net.Nodes)
		dst := rng.Intn(net.Nodes)
		if dst == src {
			dst = (dst + 1) % net.Nodes
		}
		m := Message{
			Src:     src,
			Dst:     dst,
			Len:     1 + rng.Intn(100),
			Created: int64(rng.Intn(500)),
		}
		s.msgs[src] = append(s.msgs[src], m)
	}
	s.makeCreatedMonotone()
	return s
}

// makeCreatedMonotone raises creation times where needed so that each
// node's are nondecreasing, as Source.Next requires.
func (s *script) makeCreatedMonotone() {
	for n := range s.msgs {
		q := s.msgs[n]
		for i := 1; i < len(q); i++ {
			if q[i].Created < q[i-1].Created {
				q[i].Created = q[i-1].Created
			}
		}
	}
}

// TestQuickConservation: every generated message is delivered exactly
// once, with all flits accounted for, on every network family, for
// arbitrary random workloads.
func TestQuickConservation(t *testing.T) {
	f := func(sel uint8, seed uint64, msgCount uint8) bool {
		net, err := buildNet(sel)
		if err != nil {
			t.Fatal(err)
		}
		msgs := int(msgCount)%120 + 1
		src := randomScript(net, seed, msgs)
		totalFlits := int64(0)
		for _, q := range src.msgs {
			for _, m := range q {
				totalFlits += int64(m.Len)
			}
		}
		e, err := New(Config{Net: net, Source: src, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !e.RunUntilDrained(1_000_000) {
			t.Logf("sel=%d seed=%d msgs=%d: did not drain", sel, seed, msgs)
			return false
		}
		st := e.Stats()
		if st.Delivered != int64(msgs) || st.Generated != int64(msgs) {
			t.Logf("delivered %d generated %d want %d", st.Delivered, st.Generated, msgs)
			return false
		}
		if st.DeliveredFlits != totalFlits || st.InjectedFlits != totalFlits {
			t.Logf("flits delivered %d injected %d want %d", st.DeliveredFlits, st.InjectedFlits, totalFlits)
			return false
		}
		// Deadlock freedom (Section 3.2.1 for BMINs; unidirectional
		// MINs are acyclic): a cycle in which no flit moves while
		// worms are active would be a permanent deadlock in this
		// engine, so it must never happen.
		if st.StallCycles != 0 {
			t.Logf("observed %d stalled cycles", st.StallCycles)
			return false
		}
		return e.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickInvariantsMidFlight: engine invariants hold at arbitrary
// points during the simulation, not just after draining.
func TestQuickInvariantsMidFlight(t *testing.T) {
	f := func(sel uint8, seed uint64, checkAt uint16) bool {
		net, err := buildNet(sel)
		if err != nil {
			t.Fatal(err)
		}
		src := randomScript(net, seed, 80)
		e, err := New(Config{Net: net, Source: src, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		steps := int(checkAt)%800 + 1
		for i := 0; i < steps; i++ {
			e.Step()
		}
		if err := e.CheckInvariants(); err != nil {
			t.Logf("sel=%d seed=%d after %d steps: %v", sel, seed, steps, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickLatencyLowerBound: no message finishes faster than its
// length plus its path length (the wormhole physical limit).
func TestQuickLatencyLowerBound(t *testing.T) {
	f := func(seed uint64, length uint16) bool {
		net, err := buildNet(0) // TMIN: path length is stages+1 = 4
		if err != nil {
			t.Fatal(err)
		}
		l := int(length)%500 + 1
		s := scripted(net.Nodes, Message{Src: 0, Dst: 63, Len: l, Created: 0})
		e, err := New(Config{Net: net, Source: s, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !e.RunUntilDrained(100_000) {
			return false
		}
		// Lower bound: l-1 cycles of streaming + 4 hops + injection.
		return e.Stats().LatencyMin >= int64(l+4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickEjectionBandwidth: a node never receives more than one
// flit per cycle (one-port architecture).
func TestQuickEjectionBandwidth(t *testing.T) {
	f := func(sel uint8, seed uint64) bool {
		net, err := buildNet(sel)
		if err != nil {
			t.Fatal(err)
		}
		// Everyone sends to node 0: the ultimate hot spot.
		s := &script{msgs: make([][]Message, net.Nodes)}
		flits := int64(0)
		for src := 1; src < net.Nodes; src++ {
			l := 10 + int(seed%50)
			s.msgs[src] = append(s.msgs[src], Message{Src: src, Dst: 0, Len: l, Created: 0})
			flits += int64(l)
		}
		e, err := New(Config{Net: net, Source: s, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		start := e.Now()
		if !e.RunUntilDrained(1_000_000) {
			return false
		}
		elapsed := e.Now() - start
		// Delivering `flits` flits through one ejection channel needs
		// at least `flits` cycles.
		return elapsed >= flits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestQuickSeedInsensitiveConservation: conservation holds across
// engine seeds even though the arbitration order changes.
func TestQuickSeedInsensitiveConservation(t *testing.T) {
	net, err := topology.NewBMIN(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		src := randomScript(net, 42, 60) // same workload every time
		e, err := New(Config{Net: net, Source: src, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !e.RunUntilDrained(1_000_000) {
			return false
		}
		return e.Stats().Delivered == 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
