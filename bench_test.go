// Benchmarks regenerating the paper's evaluation artifacts: one
// benchmark per figure panel (Figs. 16-20 have ten panels; the paper
// has no numbered tables in its evaluation). Each benchmark runs the
// panel's full load sweep and reports the quantities the paper plots
// as custom metrics:
//
//	satX_pct    maximum sustained throughput of series X (% ejection capacity)
//	latX_cyc    latency of series X at the common reference load (cycles)
//
// Run with:
//
//	go test -bench=Fig -benchmem            # all panels, compact budget
//	go test -bench=Fig18a -benchtime=3x     # more repetitions
//
// The engine micro-benchmarks at the bottom measure raw simulation
// speed (cycles/sec) for each network family.
package minsim_test

import (
	"fmt"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/routing"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// benchBudget keeps full-sweep benchmarks around a second per
// iteration; use cmd/figures for publication-quality runs.
var benchBudget = experiments.Budget{WarmupCycles: 10_000, MeasureCycles: 30_000, Seed: 1995}

// runFigure executes a figure experiment b.N times and reports the
// per-series saturation throughput and mid-load latency.
func runFigure(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var fig metrics.Figure
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = e.Run(benchBudget)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ref := e.Loads[len(e.Loads)/2]
	for si, s := range fig.Series {
		if sat, ok := s.SaturationThroughput(); ok {
			b.ReportMetric(100*sat, fmt.Sprintf("sat%d_pct", si))
		}
		for _, p := range s.Points {
			if p.Offered == ref {
				b.ReportMetric(p.LatencyCyc, fmt.Sprintf("lat%d_cyc", si))
			}
		}
	}
	b.Logf("%s series: %s", fig.ID, seriesLabels(fig))
	b.Logf("\n%s", fig.Summary())
}

func seriesLabels(fig metrics.Figure) string {
	s := ""
	for i, series := range fig.Series {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d=%s", i, series.Label)
	}
	return s
}

// Fig. 16: cube vs butterfly TMIN.
func BenchmarkFig16a(b *testing.B) { runFigure(b, "fig16a") }
func BenchmarkFig16b(b *testing.B) { runFigure(b, "fig16b") }

// Fig. 17: cluster load ratios on cube vs channel-shared butterfly.
func BenchmarkFig17a(b *testing.B) { runFigure(b, "fig17a") }
func BenchmarkFig17b(b *testing.B) { runFigure(b, "fig17b") }

// Fig. 18: the four networks under uniform traffic.
func BenchmarkFig18a(b *testing.B) { runFigure(b, "fig18a") }
func BenchmarkFig18b(b *testing.B) { runFigure(b, "fig18b") }

// Fig. 19: hot-spot traffic.
func BenchmarkFig19a(b *testing.B) { runFigure(b, "fig19a") }
func BenchmarkFig19b(b *testing.B) { runFigure(b, "fig19b") }

// Fig. 20: permutation traffic.
func BenchmarkFig20a(b *testing.B) { runFigure(b, "fig20a") }
func BenchmarkFig20b(b *testing.B) { runFigure(b, "fig20b") }

// Extension experiments (paper's future-work list).
func BenchmarkExtCluster32(b *testing.B)  { runFigure(b, "ext-cluster32") }
func BenchmarkExtVMINDepth(b *testing.B)  { runFigure(b, "ext-vmin-depth") }
func BenchmarkExtDilation(b *testing.B)   { runFigure(b, "ext-dilation") }
func BenchmarkExtMsgShort(b *testing.B)   { runFigure(b, "ext-msglen-short") }
func BenchmarkExtMsgLong(b *testing.B)    { runFigure(b, "ext-msglen-long") }
func BenchmarkExtMsgBimodal(b *testing.B) { runFigure(b, "ext-msglen-bimodal") }

// benchEngine measures raw simulation speed: cycles per second for a
// 64-node network at moderate uniform load.
func benchEngine(b *testing.B, build func() (*topology.Network, error)) {
	b.Helper()
	net, err := build()
	if err != nil {
		b.Fatal(err)
	}
	c := traffic.Global(net.Nodes)
	src, err := traffic.NewWorkload(traffic.Config{
		Clusters: c,
		Pattern:  traffic.Uniform{C: c},
		Lengths:  traffic.PaperLengths,
		Load:     0.4,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.StopTimer()
	st := e.Stats()
	if st.Cycles > 0 {
		b.ReportMetric(float64(st.DeliveredFlits)/float64(st.Cycles), "flits/cycle")
	}
}

func BenchmarkEngineTMIN(b *testing.B) {
	benchEngine(b, func() (*topology.Network, error) {
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	})
}

func BenchmarkEngineDMIN(b *testing.B) {
	benchEngine(b, func() (*topology.Network, error) {
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 2, VCs: 1})
	})
}

func BenchmarkEngineVMIN(b *testing.B) {
	benchEngine(b, func() (*topology.Network, error) {
		return topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 2})
	})
}

func BenchmarkEngineBMIN(b *testing.B) {
	benchEngine(b, func() (*topology.Network, error) {
		return topology.NewBMIN(4, 3)
	})
}

// BenchmarkEngineLowLoad measures Run (not Step) on a trickle
// workload where the network is empty most of the time: the
// idle-cycle skipper fast-forwards those stretches, so the reported
// time covers 10,000 simulated cycles per op at a small fraction of
// the per-cycle stepping cost. idle_frac reports the fraction of
// cycles skipped.
func BenchmarkEngineLowLoad(b *testing.B) {
	net, err := topology.NewUnidirectional(topology.UniConfig{K: 4, Stages: 3, Pattern: topology.Cube, Dilation: 1, VCs: 1})
	if err != nil {
		b.Fatal(err)
	}
	c := traffic.Global(net.Nodes)
	src, err := traffic.NewWorkload(traffic.Config{
		Clusters: c,
		Pattern:  traffic.Uniform{C: c},
		Lengths:  traffic.PaperLengths,
		Load:     0.005,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(10_000)
	}
	b.StopTimer()
	st := e.Stats()
	if st.Cycles > 0 {
		b.ReportMetric(float64(st.IdleSkipped)/float64(st.Cycles), "idle_frac")
	}
}

// BenchmarkTopologyBuild measures network construction cost.
func BenchmarkTopologyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewBMIN(4, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// Large-N scaling benchmarks: binary destination-tag MINs at 1K, 4K
// and 64K nodes — the sizes the stage-factored routing representation
// exists for. The dense table's offset index alone is O(C·N): ~50 MB
// at 1K nodes and ~300 GB at 64K, so these sizes only run on the
// factored path, which each benchmark asserts.
var largeNSizes = []struct {
	Name   string
	Stages int // k = 2, nodes = 2^Stages
}{
	{"dtag-1k", 10},
	{"dtag-4k", 12},
	{"dtag-64k", 16},
}

func largeNNet(b *testing.B, stages int) *topology.Network {
	b.Helper()
	net, err := topology.NewUnidirectional(topology.UniConfig{
		K: 2, Stages: stages, Pattern: topology.Cube, Dilation: 1, VCs: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// largeNSource builds a uniform workload at load 0.1 — deep binary
// MINs saturate well below the 64-node benchmarks' 0.4, and the
// scaling question is per-cycle cost, not congestion behavior.
func largeNSource(b *testing.B, net *topology.Network) engine.Source {
	b.Helper()
	c := traffic.Global(net.Nodes)
	src, err := traffic.NewWorkload(traffic.Config{
		Clusters: c,
		Pattern:  traffic.Uniform{C: c},
		Lengths:  traffic.PaperLengths,
		Load:     0.1,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// BenchmarkEngineLargeN steps the large MINs in steady state and
// reports ns/cycle (the op time) plus the resident routing bytes.
func BenchmarkEngineLargeN(b *testing.B) {
	for _, s := range largeNSizes {
		b.Run(s.Name, func(b *testing.B) {
			net := largeNNet(b, s.Stages)
			e, err := engine.New(engine.Config{Net: net, Source: largeNSource(b, net), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			e.Run(256) // fill the pipeline before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(routing.NewFactored(net).Bytes()), "routing_B")
		})
	}
}

// BenchmarkEngineLargeNBuild measures cold construction — topology,
// workload and engine, routing lookup included — for each size.
func BenchmarkEngineLargeNBuild(b *testing.B) {
	for _, s := range largeNSizes {
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := largeNNet(b, s.Stages)
				if _, err := engine.New(engine.Config{Net: net, Source: largeNSource(b, net), Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// New extension ablations.
func BenchmarkExtXMIN(b *testing.B)     { runFigure(b, "ext-xmin") }
func BenchmarkExtBMINVC(b *testing.B)   { runFigure(b, "ext-bmin-vc") }
func BenchmarkExtBufDepth(b *testing.B) { runFigure(b, "ext-bufdepth") }
func BenchmarkExt8ary(b *testing.B)     { runFigure(b, "ext-8ary") }

// BenchmarkRouting measures candidate computation throughput, the
// inner loop of the allocation phase: the factored lookup, expanded.
func BenchmarkRouting(b *testing.B) {
	net, err := topology.NewBMIN(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	f := routing.NewFactored(net)
	layer, wire, dir := net.Address(net.Inject(5))
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = f.Expand(buf[:0], layer, wire, dir, 42)
	}
	_ = buf
}

// BenchmarkAllPaths measures the Theorem 1 path enumeration used in
// the partition analyses.
func BenchmarkAllPaths(b *testing.B) {
	net, err := topology.NewBMIN(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := routing.AllPaths(net, 0, 63); len(got) != 16 {
			b.Fatal("wrong path count")
		}
	}
}
