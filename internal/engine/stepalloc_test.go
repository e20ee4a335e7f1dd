package engine_test

import (
	"reflect"
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
	src, err := traffic.NewWorkload(traffic.Config{
		Clusters: c,
		Pattern:  traffic.Uniform{C: c},
		Lengths:  traffic.PaperLengths,
		Load:     load,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStepAllocs machine-checks the 0 allocs/cycle contract of Step,
// Run and RunUntilDrained. The rows reach every helper of the advance
// kernel and every branch of the factored lookup: private links
// (tmin-cube, dmin-cube) take the train path with no per-hop work,
// shared links (vmin-cube) claim link stamps hop by hop, fall back to
// the per-hop loop, and sleep streaming while their links are quiet
// (rousing sleepers in allocate), bmin-butterfly routes forward, turns
// around and descends, channel statistics add the per-hop flit counts,
// oldest-first arbitration keeps its age lists, deep buffers hold
// several flits a channel, and the idle row's Run and RunUntilDrained
// jump over idle stretches. Step is measured over 200 single cycles,
// which misses an allocation made less than once a cycle (AllocsPerRun
// rounds down); Run and RunUntilDrained, over 20 calls of 100 cycles,
// catch one made every few cycles.
//
// Between them, the rows and two runs they cannot hold at 0 allocs —
// an overloaded network and one with a failed channel — must write
// every Stats field at least once, read by reflection so a new field
// is covered too: a field no run sets is dead or untested.
func TestStepAllocs(t *testing.T) {
	rows := []struct {
		name      string
		spec      experiments.NetworkSpec
		idle      bool // load 0.01, and the measured calls must skip idle cycles
		chanStats bool
		arb       engine.Arbitration
		depth     int
	}{
		{name: "tmin-cube", spec: experiments.TMINCube},
		{name: "tmin-cube-chanstats", spec: experiments.TMINCube, chanStats: true},
		{name: "tmin-cube-depth4", spec: experiments.TMINCube, depth: 4},
		{name: "tmin-cube-idle", spec: experiments.TMINCube, idle: true},
		{name: "dmin-cube", spec: experiments.DMINCube},
		{name: "vmin-cube", spec: experiments.VMINCube},
		{name: "vmin-cube-chanstats", spec: experiments.VMINCube, chanStats: true},
		{name: "vmin-cube-oldest", spec: experiments.VMINCube, arb: engine.ArbitrateOldestFirst},
		{name: "bmin-butterfly", spec: experiments.BMINButterfly},
		{name: "bmin-butterfly-chanstats", spec: experiments.BMINButterfly, chanStats: true},
	}
	written := make(map[string]bool)
	ran := 0
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			net, err := tc.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			// A clearly sustainable load: at saturation the source queues
			// grow without bound and their append-doubling would charge
			// (amortized, legitimate) allocations to the measurement.
			load := 0.2
			if tc.idle {
				load = 0.01
			}
			e, err := engine.New(engine.Config{Net: net, Source: uniformSource(t, net.Nodes, load, 7), Seed: 42, Arbitration: tc.arb, BufferDepth: tc.depth})
			if err != nil {
				t.Fatal(err)
			}
			if tc.chanStats {
				e.EnableChannelStats()
			}
			// Warm up past the transient so scratch buffers, the worm pool
			// and source queues reach their steady-state capacities.
			e.Run(50_000)
			skipped := e.Stats().IdleSkipped
			if allocs := testing.AllocsPerRun(200, e.Step); allocs != 0 {
				t.Errorf("Step allocates %.1f times per cycle, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { e.Run(100) }); allocs != 0 {
				t.Errorf("Run allocates %.1f times per 100 cycles, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { e.RunUntilDrained(100) }); allocs != 0 {
				t.Errorf("RunUntilDrained allocates %.1f times per 100 cycles, want 0", allocs)
			}
			if tc.idle && e.Stats().IdleSkipped == skipped {
				t.Errorf("no idle stretch skipped while measured at load %g", load)
			}
			markWritten(written, e.Stats())
		})
	}
	if ran < len(rows) {
		return // a -run filter left rows out, and with them the fields they write
	}

	net, err := experiments.TMINCube.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The overloaded run's queues pass QueueLimit (QueueExceeded). In
	// the faulty one, worms routed over the failed channel never leave,
	// and at a low load they are often all that is in flight
	// (StallCycles).
	overload := engine.Config{Net: net, Source: uniformSource(t, net.Nodes, 1, 7), Seed: 42}
	fault := engine.Config{Net: net, Source: uniformSource(t, net.Nodes, 0.02, 7), Seed: 42}
	engine.SetFailedChannels(&fault, net.LayerBase(1))
	for _, cfg := range []engine.Config{overload, fault} {
		e, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(100_000)
		markWritten(written, e.Stats())
	}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[engine.Stats]()) {
		if !written[f.Name] {
			t.Errorf("no run wrote Stats.%s", f.Name)
		}
	}
}

// markWritten records the name of every Stats field s holds nonzero
// (or true).
func markWritten(written map[string]bool, s engine.Stats) {
	v := reflect.ValueOf(s)
	for i := range v.NumField() {
		if !v.Field(i).IsZero() {
			written[v.Type().Field(i).Name] = true
		}
	}
}
