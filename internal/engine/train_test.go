package engine

import (
	"fmt"
	"slices"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/xrand"
)

// The per-hop advance is the definition of how a worm moves: every
// flit of every worm is visited every cycle, and every hop spends its
// link's budget whether or not the link is shared. Engine.advanceWorm
// must be indistinguishable from it, and so must the sweep that skips
// sleeping worms. Allocation has its definition too: every routable head
// and every non-empty queue is asked every cycle, and Engine.allocate,
// which asks only those a release could have served, must be
// indistinguishable from that. refStep drives an Engine through one
// cycle with the per-hop kernel in place of advance and with everything
// woken before allocate (admission is the engine's own), so two engines
// fed the same script can be stepped side by side and compared. The
// reference stamps links on every network, never puts a worm to sleep
// and never lets a head or a queue wait unasked, and it counts every
// hop and every blocked head's cycle where it happens.

// refAdvanceWorm is the per-hop advance of one worm.
func refAdvanceWorm(e *Engine, w *worm) bool {
	moved := false
	n := len(w.path)
	for i := n - 1; i >= 0; i-- {
		if w.cnt[i] == 0 {
			continue
		}
		if i == n-1 {
			if w.done {
				w.cnt[i]--
				w.del++
				moved = true
				if e.now >= e.measureFrom {
					e.stats.DeliveredFlits++
				}
			}
			continue
		}
		next := w.path[i+1]
		if w.cnt[i+1] >= e.depth || e.linkMark[e.chanLink[next]] == e.epoch {
			continue
		}
		e.linkMark[e.chanLink[next]] = e.epoch
		w.cnt[i+1]++
		w.cnt[i]--
		if e.chanFlits != nil {
			e.chanFlits[next]++
		}
		moved = true
	}
	if w.inj < w.msg.Len && n > 0 && w.cnt[0] < e.depth && e.linkMark[e.chanLink[w.path[0]]] != e.epoch {
		e.linkMark[e.chanLink[w.path[0]]] = e.epoch
		w.cnt[0]++
		if e.chanFlits != nil {
			e.chanFlits[w.path[0]]++
		}
		w.inj++
		e.stats.InjectedFlits++
		moved = true
	}
	if w.inj == w.msg.Len {
		if w.tail < 0 {
			w.tail = 0
		}
		for w.tail < n && w.cnt[w.tail] == 0 {
			e.release(w, w.tail)
			w.tail++
		}
	}
	return moved
}

// refStep is Engine.Step with refAdvanceWorm as the advance kernel. It
// tallies into cov which fates the cycle's worms met; an engine in
// step with this one met the same.
func refStep(e *Engine, cov *trainCoverage) {
	e.admitArrivals()
	refWakeAll(e)
	e.allocate()
	refChargeBlocked(e)
	e.epoch++
	moved := false
	e.order = e.wormOrder()
	for _, wi := range e.order {
		w := e.worms[wi]
		compact := isCompact(e, w)
		if refAdvanceWorm(e, w) {
			moved = true
		}
		cov.wormCycles++
		switch {
		case !compact:
		case !w.done:
			cov.held++
		case w.del == w.msg.Len || isCompact(e, w):
			cov.streamed++
		default:
			cov.broke++
		}
		if w.del == w.msg.Len {
			e.finished = append(e.finished, w)
		}
	}
	for _, w := range e.finished {
		e.finish(w)
	}
	e.finished = e.finished[:0]
	if !moved && len(e.worms) > 0 {
		e.stats.StallCycles++
	}
	if e.now >= e.measureFrom {
		e.stats.MeasuredCycles++
	}
	e.now++
	e.stats.Cycles++
}

// refWakeAll makes the allocate that follows a full scan: every node
// with a queued message is listed, ascending, and no head is flagged
// (refChargeBlocked cleared the flags the last allocate set).
func refWakeAll(e *Engine) {
	e.qlive = e.qlive[:0]
	for node, q := range e.queues {
		if len(q) > 0 {
			e.qlive = append(e.qlive, node)
		}
	}
	e.qunsorted = false
}

// refChargeBlocked charges one cycle to the stage of each head the
// allocate just found blocked, when blocked cycles are counted, and
// clears its flag, so the next allocate asks it again.
func refChargeBlocked(e *Engine) {
	for i, w := range e.heads {
		if !e.blocked[i] {
			continue
		}
		if e.blockedByStage != nil {
			e.blockedByStage[e.net.StageEntered(w.path[len(w.path)-1])]++
		}
		e.blocked[i] = false
		e.unblocked++
	}
}

// isCompact restates the compact-worm condition from the buffers
// themselves rather than from the inj/del arithmetic the engine uses.
func isCompact(e *Engine, w *worm) bool {
	lo := 0
	if w.inj == w.msg.Len {
		lo = w.tail
	}
	if w.cnt[lo] == 0 {
		return false
	}
	for _, c := range w.cnt[lo+1:] {
		if c != e.depth {
			return false
		}
	}
	return true
}

// trainCoverage counts the fates of the worms that began a cycle
// compact, out of wormCycles worm-cycles in all, how many worm-cycles
// the engine under test ended asleep, and how many heads and queues its
// next allocate was set to pass over. The differential tests keep one
// for the runs with channel statistics and one for those without.
type trainCoverage struct {
	wormCycles int
	held       int // head not routed through: stood still
	streamed   int // done: moved as a train
	broke      int // done, but a shared link was spent and a bubble opened
	parked     int // ended the cycle parked
	slept      int // ended the cycle asleep streaming
	// sleptBeside counts the streaming worm-cycles with a parked worm
	// holding another channel on one of the sleeper's links.
	sleptBeside int
	headSkips   int // routable heads left flagged blocked
	queueSkips  int // non-empty queues left off the injection scan
}

// contendedScript offers msgs messages within the first few hundred
// cycles so that worms block, bubble and share links. Lengths mix
// single flits, worms shorter than any path, and worms long enough to
// span their whole path at every tested buffer depth.
func contendedScript(net *topology.Network, seed uint64, msgs int) *script {
	rng := xrand.New(seed)
	s := &script{msgs: make([][]Message, net.Nodes)}
	for i := 0; i < msgs; i++ {
		src := rng.Intn(net.Nodes)
		dst := rng.Intn(net.Nodes)
		if dst == src {
			dst = (dst + 1) % net.Nodes
		}
		var l int
		switch rng.Intn(4) {
		case 0:
			l = 1
		case 1:
			l = 2 + rng.Intn(3) // shorter than a path
		default:
			l = 8 + rng.Intn(120)
		}
		s.msgs[src] = append(s.msgs[src], Message{Src: src, Dst: dst, Len: l, Created: int64(rng.Intn(300))})
	}
	s.makeCreatedMonotone()
	return s
}

// delivery is one OnDeliver call.
type delivery struct {
	msg Message
	at  int64
}

// diffPair is an engine under test and the per-hop reference built
// from the same configuration, with what each has delivered so far.
type diffPair struct {
	got, want       *Engine
	gotDel, wantDel []delivery
}

// newDiffPair builds the two engines, one per source. OnDeliver is
// recorded on both sides; react, when non-nil, is called after the
// record with the engine that delivered, to offer follow-on traffic.
func newDiffPair(t testing.TB, cfg Config, gotSrc, wantSrc Source, chanStats bool, measureFrom int64, react func(*Engine, Message, int64)) *diffPair {
	t.Helper()
	p := &diffPair{}
	build := func(src Source, del *[]delivery) *Engine {
		var e *Engine
		c := cfg
		c.Source = src
		c.OnDeliver = func(m Message, at int64) {
			*del = append(*del, delivery{m, at})
			if react != nil {
				react(e, m, at)
			}
		}
		e, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if chanStats {
			e.EnableChannelStats()
		}
		e.SetMeasureFrom(measureFrom)
		return e
	}
	p.got = build(gotSrc, &p.gotDel)
	p.want = build(wantSrc, &p.wantDel)
	if !p.want.sharedLinks {
		// The engine keeps link state only where links are shared;
		// the reference stamps every hop.
		p.want.linkMark = make([]int64, cfg.Net.LinkCount())
		p.want.chanLink = make([]int32, cfg.Net.ChannelCount())
		for c := range p.want.chanLink {
			p.want.chanLink[c] = int32(cfg.Net.LinkOf(c))
		}
	}
	return p
}

// compare checks that the two engines are in the same state: the
// statistics as they stand — a sleeping worm's flits are credited in
// bulk, cycle by cycle, and this is what holds that to account — the
// per-channel and per-stage counters read through the accessors, which
// settle what sleepers and flagged heads have not yet credited, the
// deliveries in order, every worm's flit positions (a streaming
// sleeper's counters read through its lag, which is 0 once settled)
// and the engine's own invariants. It tallies into cov how the engine
// under test's worms sleep and its heads wait.
func (p *diffPair) compare(t testing.TB, cycle int64, cov *trainCoverage) {
	t.Helper()
	got, want := p.got, p.want
	if got.stats != want.stats {
		t.Fatalf("cycle %d: Stats diverge:\n got: %+v\nwant: %+v", cycle, got.stats, want.stats)
	}
	if !slices.Equal(got.ChannelFlits(), want.ChannelFlits()) {
		t.Fatalf("cycle %d: ChannelFlits diverge", cycle)
	}
	if g, w := got.BlockedByStage(), want.BlockedByStage(); !slices.Equal(g, w) {
		t.Fatalf("cycle %d: BlockedByStage diverge: %v vs %v", cycle, g, w)
	}
	if !slices.Equal(p.gotDel, p.wantDel) {
		t.Fatalf("cycle %d: deliveries diverge:\n got: %v\nwant: %v", cycle, p.gotDel, p.wantDel)
	}
	if len(got.worms) != len(want.worms) {
		t.Fatalf("cycle %d: %d worms in flight, want %d", cycle, len(got.worms), len(want.worms))
	}
	for i, g := range got.worms {
		w := want.worms[i]
		lag := lag(got, g)
		if g.id != w.id || g.inj+lag != w.inj || g.del+lag != w.del || g.tail != w.tail || g.done != w.done ||
			!slices.Equal(g.path, w.path) || !slices.Equal(g.cnt, w.cnt) {
			t.Fatalf("cycle %d: worm %d diverges:\n got: id=%d inj=%d del=%d lag=%d tail=%d done=%v path=%v cnt=%v\nwant: id=%d inj=%d del=%d tail=%d done=%v path=%v cnt=%v",
				cycle, i, g.id, g.inj, g.del, lag, g.tail, g.done, g.path, g.cnt, w.id, w.inj, w.del, w.tail, w.done, w.path, w.cnt)
		}
		switch wk := got.wake[i]; {
		case wk == 0:
		case wk == never:
			cov.parked++
		default:
			cov.slept++
			moving, parked := sharers(got, g)
			if g.msg.Len <= 2 || moving != nil {
				t.Fatalf("cycle %d: worm %d (%d flits) sleeps streaming, beside a worm that can move: %v", cycle, g.id, g.msg.Len, moving != nil)
			}
			if parked {
				cov.sleptBeside++
			}
		}
	}
	for _, b := range got.blocked {
		if b {
			cov.headSkips++
		}
	}
	cov.queueSkips += got.waiting - len(got.qlive)
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", cycle, err)
	}
}

// lag returns how many flits a worm's inj and del are behind: one for
// each cycle it has slept streaming since it was last caught up, nothing
// for any other worm.
func lag(e *Engine, w *worm) int {
	if !e.streams(w.index) {
		return 0
	}
	return int(e.now - 1 - w.since)
}

// sharers looks at the other channels of the links under w's path, read
// off the network: moving is a worm holding one that is not parked, or
// nil, and parked whether a parked worm holds one.
func sharers(e *Engine, w *worm) (moving *worm, parked bool) {
	for _, c := range w.path {
		base, count := e.net.LinkChannels(e.net.LinkOf(c))
		for s := base; s < base+count; s++ {
			switch o := e.owner(s); {
			case o == nil || o == w:
			case e.wake[o.index] == never:
				parked = true
			default:
				return o, parked
			}
		}
	}
	return nil, parked
}

// run steps the pair side by side — got through Engine.Step, want
// through refStep — until both drain or maxCycles pass, comparing them
// after every cycle. before, when non-nil, is called ahead of each
// cycle with the state the previous one left.
func (p *diffPair) run(t testing.TB, maxCycles int64, cov *trainCoverage, before func(cycle int64)) {
	t.Helper()
	for cycle := int64(0); cycle < maxCycles; cycle++ {
		if cycle > 0 && p.got.drained() && p.want.drained() {
			return
		}
		if before != nil {
			before(cycle)
		}
		p.got.Step()
		refStep(p.want, cov)
		p.compare(t, cycle, cov)
	}
}

// stepBothAndCompare builds two engines from cfg, one per source, and
// runs them side by side with measurement from cycle 50.
func stepBothAndCompare(t testing.TB, cfg Config, gotSrc, wantSrc Source, chanStats bool, maxCycles int64, cov *trainCoverage) {
	t.Helper()
	newDiffPair(t, cfg, gotSrc, wantSrc, chanStats, 50, nil).run(t, maxCycles, cov, nil)
}

// paperFamilies builds the five 64-node networks of the paper's
// evaluation (experiments.PaperSpecs, which this package cannot
// import).
func paperFamilies(t testing.TB) []namedNet {
	t.Helper()
	uni := func(pat topology.Pattern, dil, vcs int) *topology.Network {
		net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: pat, Dilation: dil, VCs: vcs})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	bmin, err := topology.NewBMIN(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []namedNet{
		{"tmin-cube", uni(topology.Cube, 1, 1)},
		{"tmin-butterfly", uni(topology.Butterfly, 1, 1)},
		{"dmin-cube", uni(topology.Cube, 2, 1)},
		{"vmin-cube", uni(topology.Cube, 1, 2)},
		{"bmin-butterfly", bmin},
	}
}

type namedNet struct {
	name string
	net  *topology.Network
}

// sharedFamilies builds two networks beyond the paper's whose links are
// shared other than two channels to a link: a VMIN with four virtual
// channels, three sharers per link, and a BMIN with virtual channels,
// whose turnaround paths can cross the same link at different path
// indices.
func sharedFamilies(t testing.TB) []namedNet {
	t.Helper()
	vmin4, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 4})
	if err != nil {
		t.Fatal(err)
	}
	bminVC, err := topology.NewBMINVC(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []namedNet{{"vmin-cube-vc4", vmin4}, {"bmin-vc2", bminVC}}
}

// firstInterstageChannel returns a channel between two switch stages —
// failing it leaves every node attached.
func firstInterstageChannel(net *topology.Network) int {
	for i := 0; i < net.ChannelCount(); i++ {
		if ch := net.ChannelAt(i); !ch.From.IsNode() && !ch.To.IsNode() {
			return i
		}
	}
	return -1
}

// TestTrainAdvanceMatchesPerHop is the differential test of the
// compact-worm path: five paper families and two more with shared links
// x both arbitrations x buffer depths 1-4 x channel statistics on/off x
// (no fault | one failed interstage channel), on scripts whose lengths
// include 1 and values below the path length.
func TestTrainAdvanceMatchesPerHop(t *testing.T) {
	seed := uint64(1)
	for _, fam := range append(paperFamilies(t), sharedFamilies(t)...) {
		name, net := fam.name, fam.net
		var covs [2]trainCoverage // without, with channel statistics
		for _, arb := range []Arbitration{ArbitrateRandom, ArbitrateOldestFirst} {
			for depth := 1; depth <= 4; depth++ {
				for _, chanStats := range []bool{false, true} {
					for _, fault := range []bool{false, true} {
						seed++
						cfg := Config{Net: net, Seed: seed, Arbitration: arb, BufferDepth: depth}
						if fault {
							cfg.failedChannels = []int{firstInterstageChannel(net)}
						}
						label := fmt.Sprintf("%s/arb=%d/depth=%d/stats=%v/fault=%v", name, arb, depth, chanStats, fault)
						cov := &covs[0]
						if chanStats {
							cov = &covs[1]
						}
						t.Run(label, func(t *testing.T) {
							// A faulted single-path network strands the
							// worms that need the failed channel, so the
							// run is bounded by cycles, not by draining.
							stepBothAndCompare(t, cfg,
								contendedScript(net, seed, 150), contendedScript(net, seed, 150),
								chanStats, 4000, cov)
						})
					}
				}
			}
		}
		for i, cov := range covs {
			name := fmt.Sprintf("%s/stats=%v", name, i == 1)
			// The comparison means little unless the compact path did a
			// large share of the work (the scripts are half short worms,
			// so less than on the paper's traffic, and four channels to a
			// link interleave more of them into bubbles), in each of its
			// fates.
			t.Logf("%s: %+v", name, cov)
			share := 3
			if net.VCs > 2 {
				share = 4
			}
			if compact := cov.held + cov.streamed + cov.broke; share*compact < cov.wormCycles {
				t.Errorf("%s: only %d of %d worm-cycles began compact", name, compact, cov.wormCycles)
			}
			if cov.held == 0 || cov.streamed == 0 {
				t.Errorf("%s: a compact fate was never met: %+v", name, cov)
			}
			shared := net.LinkCount() < net.ChannelCount()
			if (cov.broke > 0) != shared {
				t.Errorf("%s: trains broken by a spent link: %d, shared links: %v", name, cov.broke, shared)
			}
			// Both ways of sleeping must have been exercised — streaming
			// beside a parked worm where links are shared — with channel
			// statistics as without: counting costs no visits.
			if cov.parked == 0 || cov.slept == 0 || (cov.sleptBeside > 0) != shared {
				t.Errorf("%s: a way of sleeping was never met (shared links: %v): %+v", name, shared, cov)
			}
			// And allocate must have passed over heads and queues the
			// reference asked, blocked cycles counted per stage or not.
			if cov.headSkips == 0 || cov.queueSkips == 0 {
				t.Errorf("%s: allocate never passed over a waiting head or queue: %+v", name, cov)
			}
		}
	}
}

// FuzzTrainAdvanceMatchesPerHop widens the differential test to the
// fuzz selector's networks (extra-stage, Omega, Baseline, BMINs with
// virtual channels and a VMIN with four of them among them), deeper
// buffers and fuzzer-chosen scripts. Bits of flags: 1 oldest-first
// arbitration, 2 channel statistics from the start, 4 a failed channel,
// 8 channel statistics from cycle 25 times the high four bits.
func FuzzTrainAdvanceMatchesPerHop(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(40), uint8(0), uint8(0))
	f.Add(uint8(2), uint64(42), uint8(90), uint8(1), uint8(2))
	f.Add(uint8(4), uint64(7), uint8(120), uint8(2), uint8(7))
	f.Add(uint8(3), uint64(1995), uint8(60), uint8(3), uint8(5))
	f.Add(uint8(8), uint64(2930), uint8(110), uint8(0), uint8(0))
	f.Add(uint8(1), uint64(12), uint8(130), uint8(0), uint8(0x38))
	f.Add(uint8(5), uint64(77), uint8(100), uint8(1), uint8(0x79))
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, msgCount, depth, flags uint8) {
		net, err := buildNet(sel)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Net: net, Seed: seed, BufferDepth: int(depth)%4 + 1}
		if flags&1 != 0 {
			cfg.Arbitration = ArbitrateOldestFirst
		}
		if flags&4 != 0 {
			cfg.failedChannels = []int{firstInterstageChannel(net)}
		}
		msgs := int(msgCount)%150 + 1
		var cov trainCoverage
		p := newDiffPair(t, cfg, contendedScript(net, seed, msgs), contendedScript(net, seed, msgs), flags&2 != 0, 50, nil)
		p.run(t, 3000, &cov, func(cycle int64) {
			if flags&8 != 0 && cycle == 25*int64(flags>>4) {
				p.got.EnableChannelStats()
				p.want.EnableChannelStats()
			}
		})
	})
}
