package engine_test

import (
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/traffic"
)

// uniformSource builds a fresh uniform workload over a network of the
// given size with the given offered load and seed. Sources are
// stateful, so every engine needs its own instance.
func uniformSource(t testing.TB, nodes int, load float64, seed uint64) engine.Source {
	t.Helper()
	c := traffic.Global(nodes)
	rates, err := traffic.NodeRates(c, load, traffic.PaperLengths.Mean(), nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewWorkload(traffic.Config{
		Nodes:   nodes,
		Pattern: traffic.Uniform{C: c},
		Lengths: traffic.PaperLengths,
		Rates:   rates,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStepAllocs machine-checks the 0 allocs/cycle contract of Step and
// Run, complementing the static simvet hotalloc gate with a dynamic
// measurement. The cases reach every helper of the advance kernel:
// private links (tmin-cube) take the train path with no per-hop work,
// shared links (vmin-cube) claim link stamps hop by hop, fall back to
// the per-hop loop, and sleep streaming while their links are quiet
// (rousing sleepers in allocate), and channel statistics add the
// per-hop flit counts to both.
func TestStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      experiments.NetworkSpec
		chanStats bool
	}{
		{"tmin-cube", experiments.TMINCube, false},
		{"tmin-cube-chanstats", experiments.TMINCube, true},
		{"vmin-cube", experiments.VMINCube, false},
		{"vmin-cube-chanstats", experiments.VMINCube, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			// A clearly sustainable load: at saturation the source queues
			// grow without bound and their append-doubling would charge
			// (amortized, legitimate) allocations to the measurement.
			e, err := engine.New(engine.Config{Net: net, Source: uniformSource(t, net.Nodes, 0.2, 7), Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if tc.chanStats {
				e.EnableChannelStats()
			}
			// Warm up past the transient so scratch buffers, the worm pool
			// and source queues reach their steady-state capacities.
			e.Run(50_000)
			if allocs := testing.AllocsPerRun(200, e.Step); allocs != 0 {
				t.Errorf("Step allocates %.1f times per cycle, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { e.Run(100) }); allocs != 0 {
				t.Errorf("Run allocates %.1f times per 100 cycles, want 0", allocs)
			}
		})
	}
}
