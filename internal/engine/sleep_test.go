package engine

import (
	"testing"

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
// the per-hop reference shows at that cycle, and the legs must add up
// to one Run.
func TestChunkedRunMatchesPerHop(t *testing.T) {
	for _, fam := range paperFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			net := fam.net
			cfg := Config{Net: net, Seed: 1995}
			p := newDiffPair(t, cfg, contendedScript(net, 11, 150), contendedScript(net, 11, 150), false, 50, nil)
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
			if shared := net.LinkCount() < net.ChannelCount(); (asleepAtReturn > 0) == shared {
				t.Errorf("Run returned with sleepers %d times, shared links: %v", asleepAtReturn, shared)
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

// TestSleepersWithReactiveOffers drives the engines the way package
// multicast does: every delivery offers follow-on traffic from inside
// OnDeliver, which runs in the middle of advance while other worms
// sleep. The order of deliveries decides the order of the offers, and
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
			if shared := net.LinkCount() < net.ChannelCount(); cov.parked == 0 || (cov.slept > 0) == shared {
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
