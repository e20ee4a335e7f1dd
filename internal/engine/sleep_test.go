package engine

import (
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
	"minsim/internal/xrand"
)

// Scenarios the contended scripts of TestTrainAdvanceMatchesPerHop do
// not force, each stepped against the per-hop reference (train_test.go)
// with the statistics compared after every cycle.

// streamingAt reports whether worms[i] exists and is asleep streaming.
func streamingAt(e *Engine, i int) bool { return i < len(e.wake) && e.streams(i) }

// TestSleepAcrossMeasureBoundary moves the measurement start into the
// middle of a sleep: the flits a sleeper delivers are credited in bulk,
// and the credit must start counting at the boundary cycle exactly.
// The boundary is set while the worm already sleeps.
func TestSleepAcrossMeasureBoundary(t *testing.T) {
	net := tmin(t)
	msg := Message{Src: 3, Dst: 42, Len: 300}
	p := newDiffPair(t, Config{Net: net, Seed: 1}, scripted(net.Nodes, msg), scripted(net.Nodes, msg), false, 0, nil)
	var cov trainCoverage
	const setAt, boundary = 50, 100
	p.run(t, 1000, &cov, func(cycle int64) {
		if cycle == setAt || cycle == boundary {
			if !streamingAt(p.got, 0) {
				t.Fatalf("cycle %d: the worm is not asleep streaming", cycle)
			}
		}
		if cycle == setAt {
			p.got.SetMeasureFrom(boundary)
			p.want.SetMeasureFrom(boundary)
		}
	})
	st := p.got.Stats()
	if st.DeliveredFlits == 0 || st.DeliveredFlits >= int64(msg.Len) || st.InjectedFlits != int64(msg.Len) {
		t.Errorf("boundary did not split the worm: %+v", st)
	}
}

// refRunTo is Engine.Run's loop over refStep, up to an absolute cycle.
func refRunTo(e *Engine, target int64, cov *trainCoverage) {
	for e.now < target {
		if e.skipIdle(target) {
			continue
		}
		refStep(e, cov)
	}
}

// TestChunkedRunMatchesPerHop returns from Run with worms asleep, reads
// the statistics there and resumes: every leg boundary must show what
// the per-hop reference shows at that cycle, channel statistics
// included — a leg of up to 97 cycles leaves that many cycles of a
// sleeper's flits and a flagged head's waiting to settle — and the legs
// must add up to one Run without statistics, visits included: neither
// counting nor reading the counts changes what a cycle looks at.
func TestChunkedRunMatchesPerHop(t *testing.T) {
	for _, fam := range paperFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			net := fam.net
			cfg := Config{Net: net, Seed: 1995}
			p := newDiffPair(t, cfg, contendedScript(net, 11, 150), contendedScript(net, 11, 150), true, 50, nil)
			var cov trainCoverage
			legs := xrand.New(5)
			asleepAtReturn := 0
			const total = 6000
			for p.got.now < total {
				leg := int64(1 + legs.Intn(97))
				if p.got.now+leg > total {
					leg = total - p.got.now
				}
				p.got.Run(leg)
				refRunTo(p.want, p.got.now, &cov)
				p.compare(t, p.got.now, &cov)
				asleepAtReturn += p.got.streaming
			}
			if asleepAtReturn == 0 {
				t.Error("Run never returned with a worm asleep streaming")
			}
			cfg.Source = contendedScript(net, 11, 150)
			whole, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			whole.SetMeasureFrom(50)
			whole.Run(total)
			if whole.Stats() != p.got.Stats() {
				t.Errorf("legs do not add up to one Run:\n legs: %+v\nwhole: %+v", p.got.Stats(), whole.Stats())
			}
			ls, lv := p.got.SweepCounts()
			ws, wv := whole.SweepCounts()
			la, lq := p.got.AllocateCounts()
			wa, wq := whole.AllocateCounts()
			if ls != ws || lv != wv || la != wa || lq != wq {
				t.Errorf("legs visit what one Run does not: sweep %d/%d vs %d/%d, allocate %d/%d vs %d/%d", lv, ls, wv, ws, lq, la, wq, wa)
			}
			if st := whole.Stats(); st.IdleSkipped == 0 || st.Delivered != 150 {
				t.Errorf("script neither drained nor idled: %+v", st)
			}
		})
	}
}

// TestFinishMovesSleepingSlot has a short worm in slot 0 finish while a
// long worm sleeps in slot 1: the swap-removal moves the sleeper, and
// its wake slot must move with it.
func TestFinishMovesSleepingSlot(t *testing.T) {
	net := tmin(t)
	script := func() *script {
		return scripted(net.Nodes,
			Message{Src: 0, Dst: 1, Len: 12},
			Message{Src: 63, Dst: 62, Len: 200})
	}
	p := newDiffPair(t, Config{Net: net, Seed: 1}, script(), script(), false, 0, nil)
	var cov trainCoverage
	beside, moved := false, false
	p.run(t, 1000, &cov, func(cycle int64) {
		if beside && len(p.got.worms) == 1 {
			if !streamingAt(p.got, 0) {
				t.Fatalf("cycle %d: the sleeper moved to slot 0 and its wake slot did not", cycle)
			}
			moved = true
		}
		beside = len(p.got.worms) == 2 && p.got.worms[1].msg.Len == 200 && streamingAt(p.got, 1)
	})
	if !moved {
		t.Error("the short worm never finished beside a sleeping one")
	}
}

// TestSleepersWithReactiveOffers drives the engines the way a
// store-and-forward driver would: every delivery offers follow-on
// traffic from inside OnDeliver, which runs in the middle of advance
// while other worms sleep. The order of deliveries decides the order of the offers, and
// compare holds both.
func TestSleepersWithReactiveOffers(t *testing.T) {
	for _, fam := range paperFamilies(t) {
		for _, arb := range []Arbitration{ArbitrateRandom, ArbitrateOldestFirst} {
			net := fam.net
			react := func(e *Engine, m Message, at int64) {
				if m.Len < 16 {
					return
				}
				for _, hop := range []int{5, 11} {
					dst := (m.Dst*hop + m.Src + 1) % net.Nodes
					if dst == m.Dst {
						dst = (dst + 1) % net.Nodes
					}
					e.Offer(Message{Src: m.Dst, Dst: dst, Len: m.Len / 2, Created: at})
				}
			}
			seed := func() *script {
				return scripted(net.Nodes,
					Message{Src: 0, Dst: 37, Len: 256},
					Message{Src: 21, Dst: 37, Len: 256},
					Message{Src: 60, Dst: 2, Len: 128})
			}
			p := newDiffPair(t, Config{Net: net, Seed: 7, Arbitration: arb}, seed(), seed(), false, 0, react)
			var cov trainCoverage
			p.run(t, 20000, &cov, nil)
			// 3 seeds, each the root of a binary tree of halving lengths
			// down to 8 flits.
			if want := 2*(1<<6-1) + (1<<5 - 1); len(p.gotDel) != want {
				t.Errorf("%s: %d deliveries, want %d", fam.name, len(p.gotDel), want)
			}
			if cov.parked == 0 || cov.slept == 0 {
				t.Errorf("%s: sleeping not exercised: %+v", fam.name, cov)
			}
		}
	}
}

// TestChannelStatsEnabledMidSleep turns channel statistics on while a
// worm sleeps streaming: from that cycle its hops must be counted one
// by one, as the reference counts them.
func TestChannelStatsEnabledMidSleep(t *testing.T) {
	net := tmin(t)
	msg := Message{Src: 9, Dst: 54, Len: 120}
	p := newDiffPair(t, Config{Net: net, Seed: 1}, scripted(net.Nodes, msg), scripted(net.Nodes, msg), false, 0, nil)
	var cov trainCoverage
	p.run(t, 1000, &cov, func(cycle int64) {
		if cycle == 40 {
			if !streamingAt(p.got, 0) {
				t.Fatal("the worm is not asleep streaming at cycle 40")
			}
			p.got.EnableChannelStats()
			p.want.EnableChannelStats()
		}
	})
	if n := p.got.ChannelFlits()[net.Inject(msg.Src)]; n == 0 || n >= int64(msg.Len) {
		t.Errorf("injection channel counted %d flits of %d", n, msg.Len)
	}
}

// Scripted cases for the two ways a quiet link (see Engine.quiet) stops
// being quiet under a worm asleep streaming on a VMIN: a channel beside
// it is granted, or a parked worm beside it is woken — by a grant that
// extends its path, or by the grant of the ejection channel that retires
// its head. In each the sleeper must be roused in allocate, so that it
// takes its turn on the link in the drawn order; the reference stamps
// every hop, and compare holds the two to the same flit positions.

// vminRoutes builds the 64-node VMIN with two virtual channels and, per
// source and destination, the links a worm between them crosses: every
// candidate of a hop lies on the same link, so the links of a route are
// fixed even though its channels are drawn.
func vminRoutes(t *testing.T) (*topology.Network, [][][]int) {
	t.Helper()
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, r := graphtest.New(net), graphtest.RouterFor(net)
	routes := make([][][]int, net.Nodes)
	for src := range routes {
		routes[src] = make([][]int, net.Nodes)
		for dst := range routes[src] {
			c := net.Inject(src)
			links := []int{net.LinkOf(c)}
			for !net.EndsAtNode(c) {
				c = r.Candidates(nil, g, &g.Channels[c], dst)[0]
				links = append(links, net.LinkOf(c))
			}
			routes[src][dst] = links
		}
	}
	return net, routes
}

// route is one source-destination pair and the links between them.
type route struct {
	src, dst int
	links    []int
}

// findRoute returns the first route, in source then destination order,
// with endpoints not in used and whose links satisfy ok.
func findRoute(t *testing.T, routes [][][]int, used []route, ok func(links []int) bool) route {
	t.Helper()
	for src := range routes {
		for dst, links := range routes[src] {
			free := src != dst
			for _, u := range used {
				free = free && src != u.src && dst != u.dst
			}
			if free && ok(links) {
				return route{src, dst, links}
			}
		}
	}
	t.Fatal("no route fits the scenario")
	return route{}
}

// wormFrom returns the live worm sent by src, or nil.
func wormFrom(e *Engine, src int) *worm {
	for _, w := range e.worms {
		if w.msg.Src == src {
			return w
		}
	}
	return nil
}

// runBeside steps a VMIN script against the reference until it drains
// and reports, for the first cycle at whose end event holds for the worm
// from other, whether at its start the worm from sleeper was asleep
// streaming and the worm from other parked.
func runBeside(t *testing.T, net *topology.Network, msgs []Message, sleeper, other int, event func(*worm) bool) (asleep, parked bool) {
	t.Helper()
	p := newDiffPair(t, Config{Net: net, Seed: 1}, scripted(net.Nodes, msgs...), scripted(net.Nodes, msgs...), false, 0, nil)
	var cov trainCoverage
	fired, was, wasParked := false, false, false
	p.run(t, 5000, &cov, func(int64) {
		o := wormFrom(p.got, other)
		if !fired && o != nil && event(o) {
			fired, asleep, parked = true, was, wasParked
		}
		s := wormFrom(p.got, sleeper)
		was = s != nil && p.got.streams(s.index)
		wasParked = o != nil && p.got.wake[o.index] == never
	})
	if !fired || !p.got.drained() {
		t.Fatalf("event met: %v, drained: %v", fired, p.got.drained())
	}
	return asleep, parked
}

// TestGrantBesideStreamingSleeper sends a long worm A and, once it is
// asleep streaming, a worm B whose head is granted the other channel of
// A's first interstage link. B has just injected its head and is awake,
// so only the grant rouses A.
func TestGrantBesideStreamingSleeper(t *testing.T) {
	net, routes := vminRoutes(t)
	a := route{0, 42, routes[0][42]}
	b := findRoute(t, routes, []route{a}, func(l []int) bool { return l[1] == a.links[1] && l[2] != a.links[2] })
	msgs := []Message{
		{Src: a.src, Dst: a.dst, Len: 600},
		{Src: b.src, Dst: b.dst, Len: 60, Created: 40},
	}
	asleep, parked := runBeside(t, net, msgs, a.src, b.src, func(w *worm) bool { return len(w.path) == 2 })
	if !asleep || parked {
		t.Errorf("B granted the channel beside A: A asleep %v, B parked %v; want true, false", asleep, parked)
	}
}

// TestParkedSharerExtended parks a worm P at its first switch, waiting
// for the link that two long worms Q1 and Q2 fill, and sends a long worm
// A over the other channel of P's first interstage link: A sleeps
// streaming beside the parked P. When a Q releases, P is extended onto a
// link A does not use, so only P's wake rouses A.
func TestParkedSharerExtended(t *testing.T) {
	net, routes := vminRoutes(t)
	p := route{0, 42, routes[0][42]}
	fill := func(l []int) bool { return l[2] == p.links[2] && l[1] != p.links[1] }
	q1 := findRoute(t, routes, []route{p}, fill)
	q2 := findRoute(t, routes, []route{p, q1}, fill)
	a := findRoute(t, routes, []route{p, q1, q2}, func(l []int) bool { return l[1] == p.links[1] && l[2] != p.links[2] })
	msgs := []Message{
		{Src: q1.src, Dst: q1.dst, Len: 150},
		{Src: q2.src, Dst: q2.dst, Len: 150},
		{Src: p.src, Dst: p.dst, Len: 30, Created: 4},
		{Src: a.src, Dst: a.dst, Len: 800, Created: 10},
	}
	asleep, parked := runBeside(t, net, msgs, a.src, p.src, func(w *worm) bool { return len(w.path) == 3 })
	if !asleep || !parked {
		t.Errorf("P extended: A asleep %v, P parked %v; want both", asleep, parked)
	}
}

// TestParkedSharerRetiresHead parks a worm P at the last switch, waiting
// for the ejection channel a long worm Q holds, and sends a long worm A
// over the other channel of P's first interstage link. When Q's tail
// leaves, P is granted the ejection channel, a link of its own, and its
// head retires: only P's wake rouses A.
func TestParkedSharerRetiresHead(t *testing.T) {
	net, routes := vminRoutes(t)
	p := route{0, 42, routes[0][42]}
	var q route
	for src := range routes {
		if l := routes[src][p.dst]; src != p.src && l[1] != p.links[1] {
			q = route{src, p.dst, l}
			break
		}
	}
	a := findRoute(t, routes, []route{p, q}, func(l []int) bool {
		return l[1] == p.links[1] && l[2] != p.links[2] && l[2] != q.links[2]
	})
	msgs := []Message{
		{Src: q.src, Dst: q.dst, Len: 150},
		{Src: p.src, Dst: p.dst, Len: 30, Created: 4},
		{Src: a.src, Dst: a.dst, Len: 600, Created: 10},
	}
	asleep, parked := runBeside(t, net, msgs, a.src, p.src, func(w *worm) bool { return w.done })
	if !asleep || !parked {
		t.Errorf("P's head retired: A asleep %v, P parked %v; want both", asleep, parked)
	}
}
