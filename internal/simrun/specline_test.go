package simrun

import (
	"fmt"
	"math"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// fmtSpecLine is RunSpec.String as the fmt formulas wrote it before
// String became one append chain: the reference its bytes must equal.
// It is exported to the package's external tests as FmtSpecLine.
func fmtSpecLine(r RunSpec) string {
	return fmt.Sprintf("%s %s load=%g warm=%d meas=%d seed=%d", fmtNetwork(r.Net), fmtWorkload(r.Work), r.Load, r.Warmup, r.Measure, r.Seed)
}

var FmtSpecLine = fmtSpecLine

// longRatios makes a spec line longer than RunSpec.String's buffer.
var longRatios = func() []float64 {
	r := make([]float64, 64)
	for i := range r {
		r[i] = float64(i+1) / 7
	}
	return r
}()

func fmtNetwork(s NetworkSpec) string {
	c := s.canon()
	detail := fmt.Sprintf("%s k=%d s=%d", c.Pattern, c.K, c.Stages)
	if s.Kind == topology.BMIN {
		detail = fmt.Sprintf("k=%d s=%d", c.K, c.Stages)
	}
	if c.Dilation > 1 {
		detail += fmt.Sprintf(" d=%d", c.Dilation)
	}
	if c.VCs > 1 {
		detail += fmt.Sprintf(" vc=%d", c.VCs)
	}
	if c.Extra > 0 {
		detail += fmt.Sprintf(" x=%d", c.Extra)
	}
	return fmt.Sprintf("%s(%s)", s.Kind, detail)
}

func fmtPattern(p PatternSpec) string {
	switch p.Kind {
	case Uniform:
		return "uniform"
	case HotSpot:
		return fmt.Sprintf("hotspot-%g%%", 100*p.HotX)
	case ShufflePerm:
		return "shuffle"
	case ButterflyPerm:
		return fmt.Sprintf("butterfly-%d", p.Butterfly)
	case NamedPerm:
		return p.Name
	case TraceReplay:
		return fmt.Sprintf("trace-%d", len(p.Trace))
	case Adversarial:
		c, _ := p.canon()
		return fmt.Sprintf("adversarial-%d", c.AdvIters)
	}
	return fmt.Sprintf("PatternSpec(%d)", int(p.Kind))
}

func fmtArrival(a ArrivalSpec) string {
	switch a.Kind {
	case ArrivalExponential:
		return "poisson"
	case ArrivalMMPP:
		return fmt.Sprintf("mmpp-b%g-d%g/%g", a.Burst, a.DwellHi, a.DwellLo)
	case ArrivalOnOff:
		return fmt.Sprintf("onoff-d%g/%g", a.DwellHi, a.DwellLo)
	}
	return fmt.Sprintf("ArrivalSpec(%d)", int(a.Kind))
}

func fmtWorkload(w WorkloadSpec) string {
	s := fmt.Sprintf("%s %s", w.Cluster, fmtPattern(w.Pattern))
	if w.Arrival.Kind != ArrivalExponential {
		s += " " + fmtArrival(w.Arrival)
	}
	if w.Ratios != nil {
		s += fmt.Sprintf(" ratios %v", w.Ratios)
	}
	return s
}

// specLineKinds is one spec of each kind the canonical encoder
// accepts — every network family with its dilation, channels and extra
// stages, every pattern, every arrival process, ratios — and a few the
// encoder refuses (unknown kinds), whose names String still writes.
// The pinned-key specs add more.
func specLineKinds() []RunSpec {
	nets := []NetworkSpec{
		{Kind: topology.TMIN, Pattern: topology.Cube, K: 4, Stages: 3},
		{Kind: topology.TMIN, Pattern: topology.Omega, K: 2, Stages: 6, Extra: 1},
		{Kind: topology.DMIN, Pattern: topology.Butterfly, K: 4, Stages: 3},
		{Kind: topology.DMIN, Pattern: topology.Baseline, K: 4, Stages: 3, Dilation: 3, Extra: 2},
		{Kind: topology.VMIN, K: 4, Stages: 3},
		{Kind: topology.VMIN, K: 8, Stages: 2, VCs: 4, Dilation: 5},
		{Kind: topology.BMIN, K: 4, Stages: 3, Pattern: topology.Butterfly, Extra: 3},
		{Kind: topology.BMIN, K: 2, Stages: 14, VCs: 2},
		{Kind: topology.Kind(9), Pattern: topology.Pattern(7), K: -1, Stages: 0},
	}
	works := []WorkloadSpec{
		{Pattern: PatternSpec{Kind: Uniform}},
		{Cluster: Cluster16, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}},
		{Cluster: Cluster32, Pattern: PatternSpec{Kind: HotSpot, HotX: 1.0 / 3}},
		{Pattern: PatternSpec{Kind: HotSpot, HotX: 1e-9}},
		{Pattern: PatternSpec{Kind: HotSpot, HotX: math.Inf(1)}},
		{Pattern: PatternSpec{Kind: HotSpot, HotX: math.NaN()}},
		{Cluster: Cluster16Shared, Pattern: PatternSpec{Kind: ShufflePerm}},
		{Pattern: PatternSpec{Kind: ButterflyPerm, Butterfly: 2}},
		{Pattern: PatternSpec{Kind: NamedPerm, Name: "bitreverse"}},
		{Pattern: PatternSpec{Kind: TraceReplay, Trace: []traffic.Pair{{Src: 0, Dst: 5}, {Src: 3, Dst: 12}}}},
		{Pattern: PatternSpec{Kind: Adversarial}},
		{Pattern: PatternSpec{Kind: Adversarial, AdvIters: 64}},
		{Pattern: PatternSpec{Kind: Uniform}, Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 8, DwellHi: 500, DwellLo: 2000}},
		{Pattern: PatternSpec{Kind: Uniform}, Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 2.5, DwellHi: 1e21, DwellLo: 0.125}},
		{Pattern: PatternSpec{Kind: Uniform}, Arrival: ArrivalSpec{Kind: ArrivalOnOff, Burst: 8, DwellHi: 300, DwellLo: 2000}},
		{Cluster: Cluster16, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}},
		{Cluster: Cluster32, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{0.1, 2.5e-7}},
		{Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{}},
		{Cluster: Cluster16, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.1}, Arrival: ArrivalSpec{Kind: ArrivalOnOff, DwellHi: 1, DwellLo: 1}, Ratios: []float64{1, 2, 3, 4}},
		{Cluster: ClusterSpec(7), Pattern: PatternSpec{Kind: PatternKind(42)}, Arrival: ArrivalSpec{Kind: ArrivalKind(5)}},
		{Pattern: PatternSpec{Kind: Uniform}, Ratios: longRatios}, // a line past String's stack buffer
	}
	var specs []RunSpec
	for i, w := range works {
		specs = append(specs, RunSpec{
			Net: nets[i%len(nets)], Work: w,
			Load: []float64{0.35, 0.05, 1, 1.0 / 3, 1e-5, 0}[i%6], Warmup: int64(i) * 1000, Measure: 120_000,
			Seed: DeriveSeed(1995, i), BufferDepth: i % 3, Arbitration: engine.Arbitration(i % 2),
		})
	}
	for i, n := range nets {
		specs = append(specs, RunSpec{Net: n, Work: works[i], Load: 0.9, Warmup: -1, Measure: math.MaxInt64, Seed: math.MaxUint64})
	}
	for _, c := range pinnedKeys {
		specs = append(specs, c.spec)
	}
	return specs
}

// TestSpecLineMatchesFmt holds RunSpec.String, and the network,
// workload, pattern and arrival names it nests, to the fmt formulas
// they replaced, byte for byte: the line is in every cache entry a
// store has written, and the fleet carries it.
func TestSpecLineMatchesFmt(t *testing.T) {
	for _, r := range specLineKinds() {
		if got, want := r.String(), fmtSpecLine(r); got != want {
			t.Errorf("RunSpec.String:\n  got  %q\n  want %q", got, want)
		}
		if got, want := r.Net.String(), fmtNetwork(r.Net); got != want {
			t.Errorf("NetworkSpec.String = %q, want %q", got, want)
		}
		if got, want := r.Work.String(), fmtWorkload(r.Work); got != want {
			t.Errorf("WorkloadSpec.String = %q, want %q", got, want)
		}
		if got, want := r.Work.Pattern.String(), fmtPattern(r.Work.Pattern); got != want {
			t.Errorf("PatternSpec.String = %q, want %q", got, want)
		}
		if got, want := r.Work.Arrival.String(), fmtArrival(r.Work.Arrival); got != want {
			t.Errorf("ArrivalSpec.String = %q, want %q", got, want)
		}
	}
}
