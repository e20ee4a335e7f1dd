// Package experiments defines the paper's simulation experiments —
// one per figure panel of Section 5 (Figs. 16-20) plus the extensions
// the paper lists as future work — and runs them through the simrun
// plan layer to regenerate the latency/throughput curves. The spec
// vocabulary (NetworkSpec, WorkloadSpec, Budget, ...) lives in
// internal/simrun and is aliased here, so a named spec means the same
// thing in every CLI and every cache entry.
package experiments

import (
	"context"
	"fmt"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
)

// The declarative spec types are simrun's; the aliases keep this
// package the single import experiment authors need.
type (
	// NetworkSpec names a buildable network configuration.
	NetworkSpec = simrun.NetworkSpec
	// WorkloadSpec is a complete traffic description.
	WorkloadSpec = simrun.WorkloadSpec
	// ClusterSpec names a node clustering of the 64-node system.
	ClusterSpec = simrun.ClusterSpec
	// PatternSpec names a destination pattern.
	PatternSpec = simrun.PatternSpec
	// PatternKind enumerates the traffic patterns.
	PatternKind = simrun.PatternKind
	// ArrivalSpec names an interarrival process.
	ArrivalSpec = simrun.ArrivalSpec
	// ArrivalKind enumerates the arrival processes.
	ArrivalKind = simrun.ArrivalKind
	// Budget sets the simulation effort per point.
	Budget = simrun.Budget
)

// Clustering scopes from Section 5.1.
const (
	Global          = simrun.Global
	Cluster16       = simrun.Cluster16
	Cluster16Shared = simrun.Cluster16Shared
	Cluster32       = simrun.Cluster32
)

// The paper's traffic patterns plus named classic permutations, trace
// replay and the adversarial worst-case permutation search.
const (
	Uniform       = simrun.Uniform
	HotSpot       = simrun.HotSpot
	ShufflePerm   = simrun.ShufflePerm
	ButterflyPerm = simrun.ButterflyPerm
	NamedPerm     = simrun.NamedPerm
	TraceReplay   = simrun.TraceReplay
	Adversarial   = simrun.Adversarial
)

// The arrival processes: the paper's Poisson stream plus the bursty
// extensions.
const (
	ArrivalExponential = simrun.ArrivalExponential
	ArrivalMMPP        = simrun.ArrivalMMPP
	ArrivalOnOff       = simrun.ArrivalOnOff
)

// Paper-faithful bursty arrival presets: both preserve the configured
// mean rate, so saturation loads stay comparable with the Poisson
// rows. BurstyMMPP spends most of its time in a low-rate background
// phase with 8x-rate bursts; BurstyOnOff fires with a 1:3 duty cycle.
var (
	BurstyMMPP  = ArrivalSpec{Kind: ArrivalMMPP, Burst: 8, DwellHi: 500, DwellLo: 2000}
	BurstyOnOff = ArrivalSpec{Kind: ArrivalOnOff, DwellHi: 500, DwellLo: 1500}
)

// Paper-standard network specs (Section 5).
var (
	TMINCube      = NetworkSpec{Kind: topology.TMIN, Pattern: topology.Cube, K: 4, Stages: 3}
	TMINButterfly = NetworkSpec{Kind: topology.TMIN, Pattern: topology.Butterfly, K: 4, Stages: 3}
	DMINCube      = NetworkSpec{Kind: topology.DMIN, Pattern: topology.Cube, K: 4, Stages: 3, Dilation: 2}
	VMINCube      = NetworkSpec{Kind: topology.VMIN, Pattern: topology.Cube, K: 4, Stages: 3, VCs: 2}
	BMINButterfly = NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3}
)

// NamedSpec pairs a paper-standard network spec with a stable name,
// for harnesses that iterate over all five evaluation networks (the
// determinism regression tests, minsim saturate).
type NamedSpec struct {
	Name string
	Spec NetworkSpec
}

// PaperSpecs returns the five network configurations of the paper's
// evaluation, in a fixed order.
func PaperSpecs() []NamedSpec {
	return []NamedSpec{
		{"tmin-cube", TMINCube},
		{"tmin-butterfly", TMINButterfly},
		{"dmin-cube", DMINCube},
		{"vmin-cube", VMINCube},
		{"bmin-butterfly", BMINButterfly},
	}
}

// NamedWorkload pairs a paper-standard workload with a stable name.
type NamedWorkload struct {
	Name string
	Work WorkloadSpec
}

// StandardWorkloads returns the four traffic patterns of the paper's
// evaluation matrix (global scope), in a fixed order — shared by
// minsim saturate and any harness sweeping the pattern dimension.
func StandardWorkloads() []NamedWorkload {
	return []NamedWorkload{
		{"uniform", WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}}},
		{"hotspot-5%", WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}}},
		{"shuffle", WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: ShufflePerm}}},
		{"butterfly-2", WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: ButterflyPerm, Butterfly: 2}}},
	}
}

// Curve is one series of a figure: a network under a workload.
type Curve struct {
	Label string
	Net   NetworkSpec
	Work  WorkloadSpec
	// BufferDepth overrides the per-channel flit buffer capacity for
	// this curve (0 = the paper's single-flit buffers).
	BufferDepth int
	// Arbitration overrides the worm-ordering policy (default: the
	// paper's random selection).
	Arbitration engine.Arbitration
}

// Experiment reproduces one figure panel.
type Experiment struct {
	ID    string
	Title string
	// Paper reference and the qualitative outcome the paper reports,
	// used by EXPERIMENTS.md and the shape checks.
	Expect string
	Curves []Curve
	Loads  []float64
}

// LoadRange returns count evenly spaced loads over [from, to], both
// ends included.
func LoadRange(from, to float64, count int) ([]float64, error) {
	if count < 2 || to < from || from < 0 {
		return nil, fmt.Errorf("experiments: bad load range [%v, %v] x%d", from, to, count)
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = from + (to-from)*float64(i)/float64(count-1)
	}
	return out, nil
}

// DefaultBudget is sized so a full figure completes in tens of
// seconds while giving stable curve ordering; increase the cycles for
// smoother curves.
var DefaultBudget = Budget{WarmupCycles: 40_000, MeasureCycles: 120_000, Seed: 1995}

// QuickBudget is for tests and smoke runs.
var QuickBudget = Budget{WarmupCycles: 5_000, MeasureCycles: 15_000, Seed: 1995}

// FigureHandle addresses one experiment's results within a simrun
// plan; call Figure after the plan executes.
type FigureHandle struct {
	exp     Experiment
	handles []*simrun.Handle
}

// AddToPlan registers every curve of the experiment as a sweep on the
// plan. Load points identical across curves, figures and previous
// cache-backed invocations execute once.
func AddToPlan(p *simrun.Plan, e Experiment, b Budget) *FigureHandle {
	fh := &FigureHandle{exp: e, handles: make([]*simrun.Handle, len(e.Curves))}
	for i, c := range e.Curves {
		fh.handles[i] = p.AddSweep(simrun.SweepSpec{
			Net:         c.Net,
			Work:        c.Work,
			Loads:       e.Loads,
			Budget:      b,
			BufferDepth: c.BufferDepth,
			Arbitration: c.Arbitration,
		})
	}
	return fh
}

// Figure assembles the experiment's figure from the executed plan.
func (fh *FigureHandle) Figure() (metrics.Figure, error) {
	fig := metrics.Figure{ID: fh.exp.ID, Title: fh.exp.Title}
	series := make([]metrics.Series, len(fh.exp.Curves))
	for i, c := range fh.exp.Curves {
		pts, err := fh.handles[i].Points()
		if err != nil {
			return fig, fmt.Errorf("experiments: %s/%s: %w", fh.exp.ID, c.Label, err)
		}
		series[i] = metrics.Series{Label: c.Label, Points: pts}
	}
	fig.Series = series
	return fig, nil
}

// RunAll executes a set of experiments as one deduplicated plan —
// identical load points shared across figure panels simulate once —
// and returns the figures in input order. opts.Store enables the
// on-disk result cache; ctx cancellation aborts between points with
// completed cache entries already flushed.
func RunAll(ctx context.Context, exps []Experiment, b Budget, opts simrun.Options) ([]metrics.Figure, error) {
	plan := simrun.NewPlan()
	handles := make([]*FigureHandle, len(exps))
	for i, e := range exps {
		handles[i] = AddToPlan(plan, e, b)
	}
	if err := plan.Execute(ctx, opts); err != nil {
		return nil, err
	}
	figs := make([]metrics.Figure, len(exps))
	for i, fh := range handles {
		fig, err := fh.Figure()
		if err != nil {
			return nil, err
		}
		figs[i] = fig
	}
	return figs, nil
}
