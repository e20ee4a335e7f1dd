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
// must be indistinguishable from it. refStep drives an Engine through
// one cycle with this kernel in place of advanceWorm (admission and
// allocation are the engine's own), so two engines fed the same script
// can be stepped side by side and compared.

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
	e.allocate()
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
// compact, out of wormCycles worm-cycles in all.
type trainCoverage struct {
	wormCycles int
	held       int // head not routed through: stood still
	streamed   int // done: moved as a train
	broke      int // done, but a shared link was spent and a bubble opened
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

// stepBothAndCompare builds two engines from cfg, one per source, and
// steps them side by side — got through Engine.Step, want through
// refStep — until both drain or maxCycles pass. After every cycle the
// statistics, the per-channel and per-stage counters, every worm's
// flit positions and the engine's own invariants must agree.
func stepBothAndCompare(t testing.TB, cfg Config, gotSrc, wantSrc Source, chanStats bool, maxCycles int64, cov *trainCoverage) {
	t.Helper()
	cfg.Source = gotSrc
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = wantSrc
	want, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if chanStats {
		got.EnableChannelStats()
		want.EnableChannelStats()
	}
	got.SetMeasureFrom(50)
	want.SetMeasureFrom(50)
	for cycle := int64(0); cycle < maxCycles; cycle++ {
		if cycle > 0 && got.drained() && want.drained() {
			break
		}
		got.Step()
		refStep(want, cov)
		if got.stats != want.stats {
			t.Fatalf("cycle %d: Stats diverge:\n got: %+v\nwant: %+v", cycle, got.stats, want.stats)
		}
		if !slices.Equal(got.chanFlits, want.chanFlits) {
			t.Fatalf("cycle %d: ChannelFlits diverge", cycle)
		}
		if !slices.Equal(got.blockedByStage, want.blockedByStage) {
			t.Fatalf("cycle %d: BlockedByStage diverge: %v vs %v", cycle, got.blockedByStage, want.blockedByStage)
		}
		if len(got.worms) != len(want.worms) {
			t.Fatalf("cycle %d: %d worms in flight, want %d", cycle, len(got.worms), len(want.worms))
		}
		for i, g := range got.worms {
			w := want.worms[i]
			if g.id != w.id || g.inj != w.inj || g.del != w.del || g.tail != w.tail || g.done != w.done ||
				!slices.Equal(g.path, w.path) || !slices.Equal(g.cnt, w.cnt) {
				t.Fatalf("cycle %d: worm %d diverges:\n got: id=%d inj=%d del=%d tail=%d done=%v path=%v cnt=%v\nwant: id=%d inj=%d del=%d tail=%d done=%v path=%v cnt=%v",
					cycle, i, g.id, g.inj, g.del, g.tail, g.done, g.path, g.cnt, w.id, w.inj, w.del, w.tail, w.done, w.path, w.cnt)
			}
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
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

// firstInterstageChannel returns a channel between two switch stages —
// failing it leaves every node attached.
func firstInterstageChannel(net *topology.Network) int {
	for i := range net.Channels {
		ch := &net.Channels[i]
		if !ch.From.IsNode() && !ch.To.IsNode() {
			return i
		}
	}
	return -1
}

// TestTrainAdvanceMatchesPerHop is the differential test of the
// compact-worm path: five paper families x both arbitrations x buffer
// depths 1-3 x channel statistics on/off x (no fault | one failed
// interstage channel), on scripts whose lengths include 1 and values
// below the path length.
func TestTrainAdvanceMatchesPerHop(t *testing.T) {
	seed := uint64(1)
	for _, fam := range paperFamilies(t) {
		name, net := fam.name, fam.net
		var cov trainCoverage
		for _, arb := range []Arbitration{ArbitrateRandom, ArbitrateOldestFirst} {
			for depth := 1; depth <= 3; depth++ {
				for _, chanStats := range []bool{false, true} {
					for _, fault := range []bool{false, true} {
						seed++
						cfg := Config{Net: net, Seed: seed, Arbitration: arb, BufferDepth: depth}
						if fault {
							cfg.FailedChannels = []int{firstInterstageChannel(net)}
						}
						label := fmt.Sprintf("%s/arb=%d/depth=%d/stats=%v/fault=%v", name, arb, depth, chanStats, fault)
						t.Run(label, func(t *testing.T) {
							// A faulted single-path network strands the
							// worms that need the failed channel, so the
							// run is bounded by cycles, not by draining.
							stepBothAndCompare(t, cfg,
								contendedScript(net, seed, 150), contendedScript(net, seed, 150),
								chanStats, 4000, &cov)
						})
					}
				}
			}
		}
		// The comparison means little unless the compact path did a
		// large share of the work (the scripts are half short worms, so
		// less than on the paper's traffic), in each of its fates.
		t.Logf("%s: %+v", name, cov)
		if compact := cov.held + cov.streamed + cov.broke; 3*compact < cov.wormCycles {
			t.Errorf("%s: only %d of %d worm-cycles began compact", name, compact, cov.wormCycles)
		}
		if cov.held == 0 || cov.streamed == 0 {
			t.Errorf("%s: a compact fate was never met: %+v", name, cov)
		}
		if shared := len(net.Links) < len(net.Channels); (cov.broke > 0) != shared {
			t.Errorf("%s: trains broken by a spent link: %d, shared links: %v", name, cov.broke, shared)
		}
	}
}

// FuzzTrainAdvanceMatchesPerHop widens the differential test to the
// fuzz selector's networks (extra-stage, Omega, Baseline and BMINs
// with virtual channels among them), deeper buffers and fuzzer-chosen
// scripts.
func FuzzTrainAdvanceMatchesPerHop(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(40), uint8(0), uint8(0))
	f.Add(uint8(2), uint64(42), uint8(90), uint8(1), uint8(2))
	f.Add(uint8(4), uint64(7), uint8(120), uint8(2), uint8(7))
	f.Add(uint8(3), uint64(1995), uint8(60), uint8(3), uint8(5))
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
			cfg.FailedChannels = []int{firstInterstageChannel(net)}
		}
		msgs := int(msgCount)%150 + 1
		var cov trainCoverage
		stepBothAndCompare(t, cfg, contendedScript(net, seed, msgs), contendedScript(net, seed, msgs), flags&2 != 0, 3000, &cov)
	})
}
