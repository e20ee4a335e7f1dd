package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"minsim/internal/topology"
)

// TestResetMatchesNew: an engine New re-initialises from one a finished
// point gave back must simulate exactly as a fresh one. reset is called
// directly, so the engine under test is known to be dirty. Each dirty
// engine first runs a saturated point over a larger (256-node) or a
// smaller (16-node) network with shared links, channel statistics, a
// latency histogram and batch means on, so that its owner slots, link
// stamps, queues, worms and batches are all stale; then it is reset to
// each paper and shared-link network, at both arbitrations and buffer
// depths 1 and 2, and run beside a fresh engine.
func TestResetMatchesNew(t *testing.T) {
	uni := func(k, stages, vcs int) *topology.Network {
		net, err := topology.NewUnidirectional(topology.UniConfig{K: k, Stages: stages, Pattern: topology.Cube, Dilation: 1, VCs: vcs})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	dirtyNets := []namedNet{{"large", uni(4, 4, 2)}, {"small", uni(2, 4, 2)}}
	seed := uint64(0)
	for _, fam := range append(paperFamilies(t), sharedFamilies(t)...) {
		for _, dirty := range dirtyNets {
			for _, arb := range []Arbitration{ArbitrateRandom, ArbitrateOldestFirst} {
				for depth := 1; depth <= 2; depth++ {
					for _, chanStats := range []bool{false, true} {
						seed++
						cfg := Config{Net: fam.net, Seed: seed, Arbitration: arb, BufferDepth: depth}
						t.Run(fmt.Sprintf("%s-to-%s/arb=%d/depth=%d/stats=%v", dirty.name, fam.name, arb, depth, chanStats), func(t *testing.T) {
							// Sources are consumed, so each engine gets its own.
							cfg.Source = contendedScript(fam.net, seed, 30*fam.net.Nodes)
							want, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							got := dirtyEngine(t, dirty.net, seed)
							cfg.Source = contendedScript(fam.net, seed, 30*fam.net.Nodes)
							got.reset(cfg, depth)
							runResetPoint(want, chanStats)
							runResetPoint(got, chanStats)
							compareResetPoint(t, got, want)
						})
					}
				}
			}
		}
	}
}

// TestSparesStayBounded: Recycle parks at most GOMAXPROCS engines, so
// more points finishing at once than there are Ps leave exactly that
// many behind. It empties the list afterwards so that the allocation
// tests after it start cold.
func TestSparesStayBounded(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() {
		spares.Lock()
		spares.list = nil
		spares.Unlock()
	})
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 4, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, procs+3)
	for i := range engines {
		engines[i], err = New(Config{Net: net, Seed: uint64(i), Source: contendedScript(net, uint64(i), 4*net.Nodes)})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Run(200)
			e.Recycle()
		}()
	}
	wg.Wait()
	spares.Lock()
	kept := len(spares.list)
	spares.Unlock()
	if kept != procs {
		t.Errorf("%d engines recycled at once left %d spares, want GOMAXPROCS = %d", len(engines), kept, procs)
	}
}

// dirtyEngine returns an engine that has run a saturated point over net
// with every optional collector on, and stopped with worms in flight and
// queues growing. It stops at cycle 300, once every node has started: a
// stale link stamp changes a run only if the run's first flit over that
// link falls in the very cycle stamped, which happens while the network
// is still filling and not after.
func dirtyEngine(t *testing.T, net *topology.Network, seed uint64) *Engine {
	t.Helper()
	e, err := New(Config{Net: net, Source: contendedScript(net, seed^0xd1e7, 40*net.Nodes), Seed: seed, BufferDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableChannelStats()
	e.EnableLatencyHistogram(&Histogram{})
	e.EnableBatchMeans(100)
	e.SetMeasureFrom(200)
	e.Run(300)
	if e.ActiveWorms() == 0 || e.QueuedMessages() == 0 {
		t.Fatalf("the dirty engine over %s is not saturated", net.Name())
	}
	return e
}

// runResetPoint runs e's saturated point with the collectors on.
func runResetPoint(e *Engine, chanStats bool) {
	if chanStats {
		e.EnableChannelStats()
	}
	e.EnableLatencyHistogram(&Histogram{})
	e.EnableBatchMeans(200)
	e.SetMeasureFrom(100)
	e.Run(1500)
}

// compareResetPoint requires got's results to be bit-identical to want's.
func compareResetPoint(t *testing.T, got, want *Engine) {
	t.Helper()
	g, w := got.Stats(), want.Stats()
	if g != w || math.Float64bits(g.LatencySumSq) != math.Float64bits(w.LatencySumSq) {
		t.Fatalf("Stats diverge:\n got: %+v\nwant: %+v", g, w)
	}
	if w.Delivered == 0 || !w.QueueExceeded && w.MaxQueue < 10 {
		t.Fatalf("the point is not saturated: %+v", w)
	}
	gs, gv := got.SweepCounts()
	ws, wv := want.SweepCounts()
	if gs != ws || gv != wv {
		t.Errorf("SweepCounts = %d, %d, want %d, %d", gs, gv, ws, wv)
	}
	gs, gv = got.AllocateCounts()
	ws, wv = want.AllocateCounts()
	if gs != ws || gv != wv {
		t.Errorf("AllocateCounts = %d, %d, want %d, %d", gs, gv, ws, wv)
	}
	if !slices.Equal(got.ChannelFlits(), want.ChannelFlits()) {
		t.Errorf("ChannelFlits diverge")
	}
	if !slices.Equal(got.BlockedByStage(), want.BlockedByStage()) {
		t.Errorf("BlockedByStage = %v, want %v", got.BlockedByStage(), want.BlockedByStage())
	}
	gb, wb := got.BatchMeans(), want.BatchMeans()
	if !slices.EqualFunc(gb, wb, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Errorf("BatchMeans = %v, want %v", gb, wb)
	}
	if got.latencyHist.Count() != want.latencyHist.Count() ||
		math.Float64bits(got.latencyHist.Mean()) != math.Float64bits(want.latencyHist.Mean()) {
		t.Errorf("latency histograms diverge")
	}
}
