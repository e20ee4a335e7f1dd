// Determinism regression tests: the engine must be a pure function of
// its Config — same network, workload, and seed twice must produce
// byte-identical statistics, including the per-channel and per-stage
// accounting. This gates the hot-path rewrite (arrival heap, routable
// heads, idle skipping): any hidden dependence on map iteration,
// scheduling, or scratch-buffer state shows up here.
package engine_test

import (
	"reflect"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// runOnce builds a fresh engine over the spec's network with a uniform
// workload and runs warmup+measure cycles, returning the full set of
// observable statistics.
func runOnce(t *testing.T, spec experiments.NetworkSpec, arb engine.Arbitration, load float64) (engine.Stats, []int64, []int64) {
	t.Helper()
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := traffic.Global(net.Nodes)
	src, err := traffic.NewWorkload(traffic.Config{
		Clusters: c,
		Pattern:  traffic.Uniform{C: c},
		Lengths:  traffic.PaperLengths,
		Load:     load,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 42, Arbitration: arb})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableChannelStats()
	e.SetMeasureFrom(2000)
	e.Run(8000)
	flits := append([]int64(nil), e.ChannelFlits()...)
	blocked := append([]int64(nil), e.BlockedByStage()...)
	return e.Stats(), blocked, flits
}

func TestDeterminismPaperSpecs(t *testing.T) {
	for _, ns := range experiments.PaperSpecs() {
		for _, arb := range []engine.Arbitration{engine.ArbitrateRandom, engine.ArbitrateOldestFirst} {
			st1, bl1, fl1 := runOnce(t, ns.Spec, arb, 0.4)
			st2, bl2, fl2 := runOnce(t, ns.Spec, arb, 0.4)
			if st1 != st2 {
				t.Errorf("%s arb=%d: Stats differ between identical runs:\n%+v\n%+v", ns.Name, arb, st1, st2)
			}
			if !reflect.DeepEqual(bl1, bl2) {
				t.Errorf("%s arb=%d: BlockedByStage differs between identical runs", ns.Name, arb)
			}
			if !reflect.DeepEqual(fl1, fl2) {
				t.Errorf("%s arb=%d: ChannelFlits differs between identical runs", ns.Name, arb)
			}
			if st1.Delivered == 0 {
				t.Errorf("%s arb=%d: run delivered nothing; the comparison is vacuous", ns.Name, arb)
			}
		}
	}
}

// TestIdleSkipEquivalence pins down that fast-forwarding over idle
// stretches is invisible in the statistics: a low-load run driven by
// Run (which skips) must match the same run driven cycle-by-cycle
// through Step (which never skips) in every field except the skip
// counter itself, and must actually have skipped something.
func TestIdleSkipEquivalence(t *testing.T) {
	build := func() *engine.Engine {
		net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := traffic.Global(net.Nodes)
		// A very low load leaves the network empty between bursts.
		src, err := traffic.NewWorkload(traffic.Config{
			Clusters: c,
			Pattern:  traffic.Uniform{C: c},
			Lengths:  traffic.PaperLengths,
			Load:     0.002,
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		e.SetMeasureFrom(5000)
		return e
	}

	const cycles = 60_000
	fast := build()
	fast.Run(cycles)
	slow := build()
	for i := 0; i < cycles; i++ {
		slow.Step()
	}

	fs, ss := fast.Stats(), slow.Stats()
	if fs.IdleSkipped == 0 {
		t.Fatal("low-load run skipped no idle cycles; the fast path was not exercised")
	}
	if ss.IdleSkipped != 0 {
		t.Fatalf("Step skipped %d cycles; Step must simulate exactly one cycle", ss.IdleSkipped)
	}
	fs.IdleSkipped = 0
	if fs != ss {
		t.Errorf("idle skipping changed the statistics:\nRun:  %+v\nStep: %+v", fs, ss)
	}
	if fast.Now() != slow.Now() {
		t.Errorf("clocks diverged: Run at %d, Step at %d", fast.Now(), slow.Now())
	}
}
