package experiments

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"testing"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
)

// TestCrossFigureDedup registers two figure panels that share a curve
// on one plan and checks the shared load points execute once: the
// whole reason `minsim figures` assembles a single plan instead of
// running panels independently.
func TestCrossFigureDedup(t *testing.T) {
	tiny := NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2}
	uniform := WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}}
	hotspot := WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}}
	loads := []float64{0.1, 0.25}
	b := Budget{WarmupCycles: 200, MeasureCycles: 1000, Seed: 3}

	figA := Experiment{
		ID: "a", Title: "a", Loads: loads,
		Curves: []Curve{
			{Label: "uniform", Net: tiny, Work: uniform},
			{Label: "hotspot", Net: tiny, Work: hotspot},
		},
	}
	figB := Experiment{
		ID: "b", Title: "b", Loads: loads,
		Curves: []Curve{
			{Label: "uniform", Net: tiny, Work: uniform}, // identical to figA's first curve
		},
	}

	plan := simrun.NewPlan()
	ha := AddToPlan(plan, figA, b)
	hb := AddToPlan(plan, figB, b)
	if err := plan.Execute(context.Background(), simrun.Options{}); err != nil {
		t.Fatal(err)
	}
	c := plan.Counters()
	if c.Requested != 6 {
		t.Fatalf("requested %d points, want 6", c.Requested)
	}
	if c.Unique >= c.Requested {
		t.Fatalf("no cross-figure dedup: %d unique of %d requested", c.Unique, c.Requested)
	}
	if c.Executed != c.Unique || c.Unique != 4 {
		t.Errorf("executed %d / unique %d, want 4/4", c.Executed, c.Unique)
	}

	fa, err := ha.Figure()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := hb.Figure()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fa.Series[0].Points, fb.Series[0].Points) {
		t.Error("shared curve differs between figures")
	}
	if reflect.DeepEqual(fa.Series[0].Points, fa.Series[1].Points) {
		t.Error("distinct workloads produced identical curves")
	}
}

// runAlone executes e as a plan of its own, without a store.
func runAlone(e Experiment, b Budget) (metrics.Figure, error) {
	figs, err := RunAll(context.Background(), []Experiment{e}, b, simrun.Options{})
	if err != nil {
		return metrics.Figure{}, err
	}
	return figs[0], nil
}

// TestRunAllMatchesRun checks that a figure batched on one plan with
// another that shares its points, on a pool of workers, is exactly the
// figure run alone — dedup and scheduling must never change results.
func TestRunAllMatchesRun(t *testing.T) {
	tiny := NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2}
	uniform := Curve{Label: "u", Net: tiny, Work: WorkloadSpec{Cluster: Global, Pattern: PatternSpec{Kind: Uniform}}}
	e := Experiment{ID: "x", Title: "x", Loads: []float64{0.1, 0.3}, Curves: []Curve{uniform}}
	other := Experiment{ID: "y", Title: "y", Loads: []float64{0.3, 0.5}, Curves: []Curve{uniform}}
	b := Budget{WarmupCycles: 200, MeasureCycles: 1000, Seed: 9}
	single, err := runAlone(e, b)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := RunAll(context.Background(), []Experiment{other, e}, b, simrun.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, batched[1]) {
		t.Errorf("batched figure differs from the figure run alone:\n%+v\nvs\n%+v", single, batched[1])
	}
}

// TestLargePanelStaysOffTheGraph is the large-n unit of the benchmark,
// bench/panels/tmin-16k.json at its budget, under an allocation bound:
// two points on a 16384-node TMIN allocate two engines' arrays (3 MB
// each), their sources and what 1200 cycles of traffic grow — about 12
// MB — where a struct view of the network alone is 64 MB. Held to 20.
func TestLargePanelStaysOffTheGraph(t *testing.T) {
	data, err := os.ReadFile("../../bench/panels/tmin-16k.json")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan := simrun.NewPlan()
	h := AddToPlan(plan, exp, Budget{WarmupCycles: 300, MeasureCycles: 900, Seed: 1995})
	if err := plan.Execute(context.Background(), simrun.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fig, err := h.Figure()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("unexpected figure shape: %+v", fig)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Plan.Execute of %s allocated %.1f MB", exp.ID, float64(got)/1e6)
	if got >= 20<<20 {
		t.Errorf("Plan.Execute of %s allocated %d bytes, want < 20 MB", exp.ID, got)
	}
}
