package simrun

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// paperCell is a saturation cell on a 64-node paper network, seeded as
// `minsim saturate` seeds its probes.
func paperCell(net NetworkSpec, pat PatternSpec, lengths *traffic.Lengths, warmup, measure int64) RunSpec {
	return RunSpec{
		Net:     net,
		Work:    WorkloadSpec{Pattern: pat, Lengths: lengths},
		Warmup:  warmup,
		Measure: measure,
		Seed:    DeriveSeed(1995, 0),
	}
}

func cube(k topology.Kind) NetworkSpec {
	return NetworkSpec{Kind: k, Pattern: topology.Cube, K: 4, Stages: 3}
}

// TestSaturationPinned holds the search to literal results recorded
// from the per-cell bisection it replaced: for each cell the load found
// and the bits of the throughput measured there, and for a cell whose
// short, cold window cannot track even the lower bound, that error.
func TestSaturationPinned(t *testing.T) {
	short := &traffic.Lengths{Kind: "uniform", Min: 8, Max: 64}
	cells := []RunSpec{
		paperCell(cube(topology.TMIN), PatternSpec{Kind: Uniform}, short, 500, 3000),
		paperCell(cube(topology.DMIN), PatternSpec{Kind: ShufflePerm}, short, 500, 3000),
		paperCell(NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3}, PatternSpec{Kind: ButterflyPerm, Butterfly: 2}, short, 500, 3000),
		paperCell(cube(topology.VMIN), PatternSpec{Kind: HotSpot, HotX: 0.05}, &traffic.Lengths{Kind: "fixed", L: 256}, 0, 300),
	}
	want := []struct {
		load, throughput uint64
		err              bool
	}{
		{0x3fd4e147ae147ae2, 0x3fd42eeeeeeeeeef, false}, // 0.32625
		{0x3fdfa8f5c28f5c29, 0x3fdcc06d3a06d3a0, false}, // 0.4946875
		{0x3fe1ca3d70a3d70a, 0x3fd9996de8ca11c0, false}, // 0.5559375
		{0, 0x3f8c962fc962fc96, true},                   // lower bound 0.02 unsustainable
	}
	res, _, err := FindSaturation(context.Background(), cells, 0.02, 1.0, 0.02, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		got := [2]uint64{math.Float64bits(r.Load), math.Float64bits(r.Point.Throughput)}
		if got != [2]uint64{want[i].load, want[i].throughput} || (r.Err != nil) != want[i].err {
			t.Errorf("cell %d: load %v (%#x) throughput %#x err %v, want %#x %#x err %t",
				i, r.Load, got[0], got[1], r.Err, want[i].load, want[i].throughput, want[i].err)
		}
	}
}

// tinyCell is a saturation cell under uniform fixed-length traffic on
// the 64-node cube TMIN.
func tinyCell(l int, warmup, measure int64, seed uint64) RunSpec {
	return RunSpec{
		Net:     NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3},
		Work:    WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}, Lengths: &traffic.Lengths{Kind: "fixed", L: l}},
		Warmup:  warmup,
		Measure: measure,
		Seed:    DeriveSeed(seed, 0),
	}
}

func TestFindSaturation(t *testing.T) {
	res, _, err := FindSaturation(context.Background(), []RunSpec{tinyCell(64, 2000, 20000, 5)}, 0.05, 2.0, 0.05, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Err != nil || !r.Point.Sustainable {
		t.Fatalf("cell error %v, sustainable %t", r.Err, r.Point.Sustainable)
	}
	// A 64-node TMIN saturates well below ejection capacity but above
	// trivial loads.
	if r.Load < 0.1 || r.Load > 0.9 {
		t.Errorf("saturation load %v outside plausible range", r.Load)
	}
	if r.Point.Throughput <= 0 {
		t.Error("no throughput at saturation point")
	}
}

// TestFindSaturationEndsAtFloatSpacing: a tolerance below the spacing
// of floats near the answer ends the search once the bracket's ends
// are adjacent floats, about 58 halvings of [0.02, 1], instead of
// probing the same midpoint forever. The cell is the warm rerun's. A
// search that never ends is cut at its 70th probe, counted from the
// progress reports (each probe is a plan of one point, so a report of
// one point running is one probe), not by a clock, which the race
// detector's slowdown would outrun.
func TestFindSaturationEndsAtFloatSpacing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probes := 0
	opts := Options{Progress: func(c Counters) {
		if c.Running == 1 {
			if probes++; probes == 70 {
				cancel()
			}
		}
	}}
	res, c, err := FindSaturation(ctx, []RunSpec{tinyCell(16, 500, 3000, 7)}, 0.02, 1.0, 1e-300, opts)
	if err != nil {
		t.Fatalf("after %d probes: %v", probes, err)
	}
	t.Logf("%d probes", c.Requested)
	if c.Requested >= 70 {
		t.Errorf("%d probes, want fewer than 70", c.Requested)
	}
	if r := res[0]; r.Err != nil || !r.Point.Sustainable {
		t.Errorf("cell error %v, sustainable %t", r.Err, r.Point.Sustainable)
	}
}

func TestFindSaturationWholeRangeSustainable(t *testing.T) {
	res, c, err := FindSaturation(context.Background(), []RunSpec{tinyCell(16, 500, 3000, 6)}, 0.01, 0.05, 0.01, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := res[0]; r.Err != nil || r.Load != 0.05 || !r.Point.Sustainable {
		t.Errorf("expected top of bracket, got %v (sustainable %t, err %v)", r.Load, r.Point.Sustainable, r.Err)
	}
	if c.Requested != 2 {
		t.Errorf("%d probes, want 2 (the bracket's ends)", c.Requested)
	}
}

// TestFindSaturationErrors: a bad bracket fails the call; a cell whose
// lower bound is unsustainable fails only that cell.
func TestFindSaturationErrors(t *testing.T) {
	cell := tinyCell(512, 0, 20000, 7)
	for _, b := range [][3]float64{{0.5, 0.1, 0.01}, {-1, 0.1, 0.01}, {0.1, 0.5, 0}} {
		if _, _, err := FindSaturation(context.Background(), []RunSpec{cell}, b[0], b[1], b[2], Options{}); err == nil {
			t.Errorf("bracket %v accepted", b)
		}
	}
	ok := tinyCell(16, 500, 3000, 6)
	res, _, err := FindSaturation(context.Background(), []RunSpec{cell, ok}, 5.0, 6.0, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[0].Point.Sustainable {
		t.Errorf("unsustainable lower bound accepted: %+v", res[0])
	}
	if res[1].Err == nil {
		t.Error("5 flits/node/cycle sustained on a 64-node TMIN")
	}
}

// TestPointErrors: a point whose traffic source cannot be built fails
// with that error, and the error reaches whoever asked for the point —
// the sweep's handle, or the one saturation cell that probed it, not
// its neighbour.
func TestPointErrors(t *testing.T) {
	net, err := NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	failing := PointConfig{
		Net:     net,
		Factory: func(float64, uint64) (engine.Source, error) { return nil, boom },
		Load:    0.1,
		Measure: 10,
	}
	if _, err := failing.Simulate(); !errors.Is(err, boom) {
		t.Errorf("factory error not propagated: %v", err)
	}

	broken := tinyCell(16, 500, 3000, 6)
	broken.Work.Ratios = []float64{1, 2} // one cluster, two ratios
	plan := NewPlan()
	h := plan.AddSweep(SweepSpec{
		Net:    broken.Net,
		Work:   broken.Work,
		Loads:  []float64{0.1},
		Budget: Budget{MeasureCycles: 10},
	})
	if err := plan.Execute(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Points(); err == nil {
		t.Error("a failing point's error did not reach its sweep")
	}

	ok := tinyCell(16, 500, 3000, 6)
	res, _, err := FindSaturation(context.Background(), []RunSpec{broken, ok}, 0.01, 0.05, 0.01, Options{})
	if err != nil || res[0].Err == nil || res[1].Err != nil {
		t.Errorf("a failing cell disturbed its neighbour: call %v, cells %v / %v", err, res[0].Err, res[1].Err)
	}
}

// TestSaturationBehavior: far beyond capacity a point is unsustainable
// under the paper's watermark, and delivers no more than ejection
// capacity.
func TestSaturationBehavior(t *testing.T) {
	spec := tinyCell(64, 0, 20000, 3)
	spec.Load = 5.0
	plan := NewPlan()
	h := plan.AddSpec(spec)
	if err := plan.Execute(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	pts, err := h.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Sustainable {
		t.Error("5 flits/node/cycle should exceed the queue watermark")
	}
	if pts[0].Throughput > 1.0 {
		t.Errorf("throughput %v exceeds ejection capacity", pts[0].Throughput)
	}
}

// TestSweepBasic: at low loads a sweep's throughput tracks the offered
// load and latency rises with it.
func TestSweepBasic(t *testing.T) {
	loads := []float64{0.05, 0.15, 0.3}
	plan := NewPlan()
	h := plan.AddSweep(SweepSpec{
		Net:    NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3},
		Work:   WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}, Lengths: &traffic.Lengths{Kind: "fixed", L: 32}},
		Loads:  loads,
		Budget: Budget{WarmupCycles: 2000, MeasureCycles: 8000, Seed: 1},
	})
	if err := plan.Execute(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
	pts, err := h.Points()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if p.Offered != loads[i] || p.Messages == 0 {
			t.Errorf("point %d: offered %v, %d messages", i, p.Offered, p.Messages)
		}
		if math.Abs(p.Throughput-p.Offered) > 0.05 {
			t.Errorf("point %d: throughput %v far from offered %v", i, p.Throughput, p.Offered)
		}
	}
	if !(pts[0].LatencyCyc < pts[2].LatencyCyc) {
		t.Errorf("latency did not rise with load: %v vs %v", pts[0].LatencyCyc, pts[2].LatencyCyc)
	}
}

// paperSweep runs a six-load sweep of paper-length uniform traffic on
// the 64-node TMIN with the given number of workers.
func paperSweep(t *testing.T, workers int) []metrics.Point {
	t.Helper()
	plan := NewPlan()
	h := plan.AddSweep(SweepSpec{
		Net:    NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3},
		Work:   WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}},
		Loads:  []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55},
		Budget: Budget{WarmupCycles: 2000, MeasureCycles: 6000, Seed: 11},
	})
	if err := plan.Execute(context.Background(), Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	pts, err := h.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestParallelSweepDeterministic runs the same sweep through the
// worker pool twice and requires identical points: results must be
// independent of goroutine scheduling. CI runs this package under
// -race, so this test also exercises the pool for data races.
func TestParallelSweepDeterministic(t *testing.T) {
	first, second := paperSweep(t, 4), paperSweep(t, 4)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("points differ between identical parallel sweeps:\n%+v\n%+v", first, second)
	}
	if first[0].Messages == 0 {
		t.Error("sweep delivered nothing; the comparison is vacuous")
	}
}

// TestDeterministicAcrossWorkers: a sweep and a saturation search give
// identical results on one worker and on four — every point owns its
// engine and seed, so the worker count cannot leak into a result.
func TestDeterministicAcrossWorkers(t *testing.T) {
	cells := []RunSpec{tinyCell(16, 500, 3000, 7), tinyCell(64, 500, 3000, 8), tinyCell(32, 500, 3000, 9)}
	search := func(workers int) []Saturation {
		res, _, err := FindSaturation(context.Background(), cells, 0.02, 1.0, 0.02, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := paperSweep(t, 1), paperSweep(t, 4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweep differs between 1 and 4 workers:\n%+v\n%+v", a, b)
	}
	if a[0].Messages == 0 {
		t.Error("sweep delivered nothing; the comparison is vacuous")
	}
	if s1, s4 := search(1), search(4); !reflect.DeepEqual(s1, s4) {
		t.Errorf("saturation differs between 1 and 4 workers:\n%+v\n%+v", s1, s4)
	}
}

// TestFindSaturationWarmRerun: every probe is a keyed point, so a
// second search against the same store executes nothing and returns
// the first search's results.
func TestFindSaturationWarmRerun(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := []RunSpec{tinyCell(16, 500, 3000, 7), tinyCell(64, 500, 3000, 8)}
	run := func() ([]Saturation, Counters) {
		res, c, err := FindSaturation(context.Background(), cells, 0.02, 1.0, 0.02, Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return res, c
	}
	cold, c1 := run()
	warm, c2 := run()
	if c1.Executed == 0 || c1.Executed != c1.Requested {
		t.Errorf("cold search: %+v, want every probe executed", c1)
	}
	if c2.Executed != 0 || c2.Cached != c1.Requested {
		t.Errorf("warm search: %+v, want 0 executed and %d cached", c2, c1.Requested)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm search differs:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// TestFindSaturationSharesProbes: equal cells probe equal loads in the
// same round, so the plan runs each shared probe once.
func TestFindSaturationSharesProbes(t *testing.T) {
	cell := tinyCell(16, 500, 3000, 7)
	res, c, err := FindSaturation(context.Background(), []RunSpec{cell, tinyCell(64, 500, 3000, 8), cell}, 0.02, 1.0, 0.02, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Unique >= c.Requested || c.Executed != c.Unique {
		t.Errorf("counters %+v: want equal cells to share their probes", c)
	}
	if !reflect.DeepEqual(res[0], res[2]) {
		t.Errorf("equal cells searched differently: %+v vs %+v", res[0], res[2])
	}
}

// TestFindSaturationCancelsWithinALeg: cancelling a search mid-probe
// returns ctx's error within one cancelQuantum leg, not one probe. The
// lower-bound probe is served from the store, so the cancel lands in
// the second round, on a probe that would run for seconds.
func TestFindSaturationCancelsWithinALeg(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := tinyCell(8, 0, 50_000_000, 7)
	lo := cell
	lo.Load = 0.02
	key, err := lo.Key()
	if err != nil {
		t.Fatal(err)
	}
	store.Put(key, lo.String(), metrics.Point{Offered: 0.02, OfferedMeasured: 0.02, Throughput: 0.02, Sustainable: true})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	_, c, err := FindSaturation(ctx, []RunSpec{cell}, 0.02, 1.0, 0.02, Options{Store: store, Progress: func(c Counters) {
		if c.Running > 0 && cancelled.IsZero() {
			cancelled = time.Now()
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FindSaturation returned %v, want context.Canceled", err)
	}
	if c.Cached != 1 {
		t.Errorf("counters %+v: want the lower bound served from the store", c)
	}
	if d := time.Since(cancelled); d > time.Second {
		t.Errorf("search returned %v after cancellation; a leg is milliseconds", d)
	}
}
