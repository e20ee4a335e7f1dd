package engine

import (
	"fmt"
	"slices"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

// Scenarios for the heads and queues allocate passes over, which the
// contended scripts of TestTrainAdvanceMatchesPerHop do not force. Each
// is stepped against the reference of train_test.go, whose allocate asks
// every head and every queue every cycle.

// destVia returns a destination for which a head waiting in channel in
// may take channel out next, or -1.
func destVia(g *graphtest.Graph, in, out int) int {
	r := graphtest.RouterFor(g.Network)
	for d := 0; d < g.Nodes; d++ {
		if slices.Contains(r.Candidates(nil, g, &g.Channels[in], d), out) {
			return d
		}
	}
	return -1
}

// nodeInputs returns the nodes attached to a switch and their injection
// channels.
func nodeInputs(g *graphtest.Graph, sw *graphtest.Switch) (nodes, chans []int) {
	for _, in := range sw.In {
		if from := g.Channels[in].From; from.IsNode() {
			nodes = append(nodes, from.Node)
			chans = append(chans, in)
		}
	}
	return nodes, chans
}

// headOf returns the routable worm sent by src, or nil.
func headOf(e *Engine, src int) *worm {
	for _, w := range e.heads {
		if w.msg.Src == src {
			return w
		}
	}
	return nil
}

// TestFailedCandidateWokenNeverGranted strands a head at a switch whose
// only channel toward its destination has failed, and sends pairs of
// short worms from two other inputs through a sibling output of the same
// switch, the two of a pair at once and the pairs far apart. One of each
// pair wins the sibling and the other waits for it, so the winner's
// release wakes the heads at the switch — the stranded one among them,
// which finds nothing and is flagged again — and the loser's release,
// which nobody waits for, wakes no one. Nothing else wakes the stranded
// head: the first pair is ahead of it in the head set, so the winner's
// retirement swap-moves the stranded head's slot while it is flagged,
// and the flag must move too.
func TestFailedCandidateWokenNeverGranted(t *testing.T) {
	net := tmin(t)
	g := graphtest.New(net)
	dead := firstInterstageChannel(net)
	sw := &g.Switches[g.Channels[dead].From.Switch]
	nodes, ins := nodeInputs(g, sw)
	sibling := -1
	for _, p := range sw.Ports {
		if p.Channels[0] != dead {
			sibling = p.Channels[0]
			break
		}
	}
	stranded := Message{Src: nodes[0], Dst: destVia(g, ins[0], dead), Len: 20, Created: 1}
	const pairs = 5
	script := func() *script {
		msgs := []Message{stranded}
		for i := 0; i < pairs; i++ {
			for _, from := range []int{1, 2} {
				msgs = append(msgs, Message{Src: nodes[from], Dst: destVia(g, ins[from], sibling), Len: 8, Created: int64(40 * i)})
			}
		}
		return scripted(net.Nodes, msgs...)
	}
	cfg := Config{Net: net, Seed: 3, failedChannels: []int{dead}}
	p := newDiffPair(t, cfg, script(), script(), false, 0, nil)
	var cov trainCoverage
	flagged, wakes, slot, moves := false, 0, -1, 0
	p.run(t, 400, &cov, func(cycle int64) {
		w := headOf(p.got, stranded.Src)
		if w == nil {
			return
		}
		if flagged && w.headIdx != slot {
			moves++
		}
		slot = w.headIdx
		// The flag is set in allocate and cleared by a release later in
		// the same cycle, so a clear flag here is a wake-up.
		if b := p.got.blocked[w.headIdx]; b {
			flagged = true
		} else if flagged {
			wakes++
		}
	})
	w := headOf(p.got, stranded.Src)
	if w == nil || len(w.path) != 1 || !p.got.blocked[w.headIdx] {
		t.Fatalf("the stranded head is not waiting at its first switch: %+v", w)
	}
	if wakes != pairs || moves == 0 {
		t.Errorf("stranded head woken %d times by %d pairs passing through a sibling channel, its slot moved %d times", wakes, pairs, moves)
	}
	if st := p.got.Stats(); st.Delivered != 2*pairs {
		t.Errorf("%d of %d passing worms delivered", st.Delivered, 2*pairs)
	}
}

// TestReactiveOfferBusyFreeFailed offers from inside OnDeliver to three
// nodes: one whose injection channel is held by a worm still leaving
// (the message waits for that release), one that is idle (it injects in
// the next cycle) and one whose injection channel has failed (it waits
// forever and is never scanned again).
func TestReactiveOfferBusyFreeFailed(t *testing.T) {
	net := tmin(t)
	const busy, free, cut = 20, 30, 9
	react := func(e *Engine, m Message, at int64) {
		if m.Src != 0 {
			return
		}
		if e.owner(net.Inject(busy)) == nil || e.owner(net.Inject(free)) != nil {
			t.Fatalf("cycle %d: node %d is not injecting or node %d is", at, busy, free)
		}
		for i, src := range []int{busy, free, cut} {
			e.Offer(Message{Src: src, Dst: 41 + i, Len: 5, Created: at})
		}
	}
	script := func() *script {
		return scripted(net.Nodes,
			Message{Src: 0, Dst: 1, Len: 4},
			Message{Src: busy, Dst: 40, Len: 200})
	}
	cfg := Config{Net: net, Seed: 1, failedChannels: []int{net.Inject(cut)}}
	p := newDiffPair(t, cfg, script(), script(), false, 0, react)
	var cov trainCoverage
	p.run(t, 600, &cov, nil)
	var order []int
	for _, d := range p.gotDel {
		order = append(order, d.msg.Dst)
	}
	if want := []int{1, 42, 40, 41}; !slices.Equal(order, want) {
		t.Errorf("deliveries reached %v, want %v", order, want)
	}
	if p.got.QueuedMessages() != 1 || len(p.got.queues[cut]) != 1 || len(p.got.qlive) != 0 {
		t.Errorf("the cut-off node's message: %d queued, qlive %v", p.got.QueuedMessages(), p.got.qlive)
	}
	if cov.queueSkips == 0 {
		t.Error("no queue was ever left off the scan")
	}
}

// TestChannelStatsEnabledWhileHeadsFlagged turns channel statistics on
// in the middle of a contended run: the flagged heads must be charged to
// their stages from that cycle on, as the reference charges them.
func TestChannelStatsEnabledWhileHeadsFlagged(t *testing.T) {
	for _, fam := range paperFamilies(t) {
		net := fam.net
		p := newDiffPair(t, Config{Net: net, Seed: 5}, contendedScript(net, 21, 150), contendedScript(net, 21, 150), false, 50, nil)
		var cov trainCoverage
		p.run(t, 6000, &cov, func(cycle int64) {
			if cycle != 150 {
				return
			}
			if !slices.Contains(p.got.blocked, true) {
				t.Fatalf("%s: no head is flagged at cycle %d", fam.name, cycle)
			}
			p.got.EnableChannelStats()
			p.want.EnableChannelStats()
		})
		total := int64(0)
		for _, n := range p.got.BlockedByStage() {
			total += n
		}
		if total == 0 || !p.got.drained() {
			t.Errorf("%s: %d blocked cycles charged, drained: %v", fam.name, total, p.got.drained())
		}
	}
}

// TestBMINForwardHeadWokenByAnyUpChannel blocks a head on the forward
// hop of a BMIN, where its candidates are one run per right port: with
// all but one up-channel of its switch failed and a long worm holding
// the last, the head waits for exactly that release — whichever of the
// k runs it belongs to.
func TestBMINForwardHeadWokenByAnyUpChannel(t *testing.T) {
	net, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := graphtest.New(net)
	sw := &g.Switches[g.Channels[net.Inject(0)].To.Switch]
	nodes, ins := nodeInputs(g, sw)
	var ups []int
	for _, p := range sw.Ports {
		if p.Side == topology.Right {
			ups = append(ups, p.Channels...)
		}
	}
	if len(ups) != net.K() {
		t.Fatalf("switch %d has up-channels %v", sw.ID, ups)
	}
	for _, live := range ups {
		t.Run(fmt.Sprint(live), func(t *testing.T) {
			cfg := Config{Net: net, Seed: 2}
			for _, c := range ups {
				if c != live {
					cfg.failedChannels = append(cfg.failedChannels, c)
				}
			}
			script := func() *script {
				return scripted(net.Nodes,
					Message{Src: nodes[0], Dst: 63, Len: 60},
					Message{Src: nodes[1], Dst: 62, Len: 10, Created: 5})
			}
			p := newDiffPair(t, cfg, script(), script(), false, 0, nil)
			if _, _, runs, _ := p.got.fact.Lookup(g.Channels[ins[1]].Layer, g.Channels[ins[1]].Wire, g.Channels[ins[1]].Dir, 62); runs != net.K() {
				t.Fatalf("the forward hop offers %d runs of candidates, want %d", runs, net.K())
			}
			var cov trainCoverage
			waited := 0
			p.run(t, 1000, &cov, func(int64) {
				if w := headOf(p.got, nodes[1]); w != nil && p.got.blocked[w.headIdx] {
					waited++
				}
			})
			if st := p.got.Stats(); waited == 0 || st.Delivered != 2 {
				t.Errorf("second worm waited %d cycles flagged, %d delivered", waited, st.Delivered)
			}
		})
	}
}

// TestWaitingOnWiderNetworks runs the contended scripts over networks
// outside the paper's five — an extra-stage MIN, whose distribution
// stage offers a head every output port, a BMIN with virtual channels
// and a binary VMIN — at buffer depths 1 and 3 under both arbitrations.
func TestWaitingOnWiderNetworks(t *testing.T) {
	for _, sel := range []uint8{3, 4, 2} {
		net, err := buildNet(sel)
		if err != nil {
			t.Fatal(err)
		}
		var cov trainCoverage
		distributing := 0
		for _, arb := range []Arbitration{ArbitrateRandom, ArbitrateOldestFirst} {
			for _, depth := range []int{1, 3} {
				seed := uint64(sel)*16 + uint64(arb)*4 + uint64(depth)
				p := newDiffPair(t, Config{Net: net, Seed: seed, Arbitration: arb, BufferDepth: depth},
					contendedScript(net, seed, 200), contendedScript(net, seed, 200), false, 50, nil)
				p.run(t, 8000, &cov, func(int64) {
					for i, w := range p.got.heads {
						if p.got.blocked[i] && net.StageEntered(w.path[len(w.path)-1]) < net.Extra {
							distributing++
						}
					}
				})
				if !p.got.drained() {
					t.Errorf("%s: did not drain", net.Name())
				}
			}
		}
		t.Logf("%s: %+v, %d flagged in a distribution stage", net.Name(), cov, distributing)
		if cov.headSkips == 0 || cov.queueSkips == 0 || (net.Extra > 0 && distributing == 0) {
			t.Errorf("%s: waiting not exercised: %+v, %d flagged in a distribution stage", net.Name(), cov, distributing)
		}
	}
}
