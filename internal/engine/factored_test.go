// Bit-exactness suite for the stage-factored routing path: an engine
// routing through routing.Factored must be observationally identical
// — same Stats, same per-channel flit counts — to one routing through
// the dense table, on every paper network, under both arbitration
// modes; and the factored path must carry the engine to sizes the
// dense table cannot represent (64K nodes in ~100 bytes of routing
// state).
package engine_test

import (
	"reflect"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/routing"
	"minsim/internal/topology"
)

// denseOnly hides the concrete router type from the engine's
// FactoredFor/TableFor dispatch, forcing the dense-table path (via
// the generic router snapshot) with unchanged routing semantics — the
// oracle configuration for the equivalence runs below.
type denseOnly struct{ inner routing.Router }

func (d denseOnly) Candidates(dst []int, net *topology.Graph, in *topology.Channel, dest int) []int {
	return d.inner.Candidates(dst, net, in, dest)
}

// runLookupPath builds one engine over spec with either the default
// (factored) or the dense-forced lookup and runs it to the budget.
func runLookupPath(t *testing.T, spec experiments.NetworkSpec, arb engine.Arbitration, warmup, measure int64, dense bool) (engine.Stats, []int64) {
	t.Helper()
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Net:         net,
		Source:      uniformSource(t, net.Nodes, 0.4, 7),
		Seed:        99,
		Arbitration: arb,
	}
	if dense {
		cfg.Router = denseOnly{inner: routing.New(net)}
	}
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.RoutingFactored() == dense {
		t.Fatalf("%s: RoutingFactored() = %v with dense = %v", net.Name(), e.RoutingFactored(), dense)
	}
	e.EnableChannelStats()
	e.SetMeasureFrom(warmup)
	e.Run(warmup + measure)
	return e.Stats(), append([]int64(nil), e.ChannelFlits()...)
}

// TestFactoredEngineBitExactPaperSpecs: full engine runs over the
// paper's five evaluation networks under both arbitration modes must
// produce identical Stats and per-channel flit counts whether routing
// goes through the stage-factored lookup or the dense table.
func TestFactoredEngineBitExactPaperSpecs(t *testing.T) {
	for _, ns := range experiments.PaperSpecs() {
		for _, arb := range []engine.Arbitration{engine.ArbitrateRandom, engine.ArbitrateOldestFirst} {
			stats, flits := runLookupPath(t, ns.Spec, arb, 1000, 4000, false)
			dStats, dFlits := runLookupPath(t, ns.Spec, arb, 1000, 4000, true)
			if !reflect.DeepEqual(stats, dStats) {
				t.Errorf("%s arb=%d: factored stats %+v\ndense stats %+v", ns.Name, arb, stats, dStats)
			}
			if !reflect.DeepEqual(flits, dFlits) {
				t.Errorf("%s arb=%d: per-channel flit counts differ between lookup paths", ns.Name, arb)
			}
		}
	}
}

// TestFactoredEngine1KNodes repeats the equivalence at 1024 nodes —
// the largest size where building the dense table is still reasonable
// — and pins the memory asymmetry: the factored state is under a
// kilobyte while the dense offset index alone is ~50 MB.
func TestFactoredEngine1KNodes(t *testing.T) {
	spec := experiments.NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 10}
	stats, flits := runLookupPath(t, spec, engine.ArbitrateRandom, 500, 1500, false)
	dStats, dFlits := runLookupPath(t, spec, engine.ArbitrateRandom, 500, 1500, true)
	if !reflect.DeepEqual(stats, dStats) {
		t.Errorf("1K nodes: factored stats %+v\ndense stats %+v", stats, dStats)
	}
	if !reflect.DeepEqual(flits, dFlits) {
		t.Error("1K nodes: per-channel flit counts differ between lookup paths")
	}

	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: uniformSource(t, net.Nodes, 0.4, 7), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !e.RoutingFactored() || e.RoutingBytes() > 1024 {
		t.Errorf("1K nodes: factored = %v, routing bytes = %d, want factored under 1 KiB", e.RoutingFactored(), e.RoutingBytes())
	}
}

// TestFactoredEngine64K is the scaling acceptance check: a 64K-node
// destination-tag MIN (2^16 nodes, 16 stages) must build, route out
// of ≤ 1 MiB of routing state, and simulate. The dense table's offset
// index alone would need ~300 GB here, so this size only exists on
// the factored path.
func TestFactoredEngine64K(t *testing.T) {
	if testing.Short() {
		t.Skip("64K-node construction in -short mode")
	}
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 2, Stages: 16, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Net:    net,
		Source: uniformSource(t, net.Nodes, 0.1, 3),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.RoutingFactored() {
		t.Fatal("64K-node MIN did not select the factored path")
	}
	if e.RoutingBytes() > 1<<20 {
		t.Fatalf("64K-node routing state is %d bytes, want <= 1 MiB", e.RoutingBytes())
	}
	e.Run(300)
	if got := e.Stats().Delivered; got == 0 {
		t.Error("64K-node engine delivered no messages in 300 cycles at load 0.1")
	}
}
