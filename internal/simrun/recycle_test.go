package simrun

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"minsim/internal/metrics"
	"minsim/internal/topology"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestRecyclingAcrossWorkers: every point gives its engine and workload
// back for the next point to reuse, so on four workers a 256-node
// point's memory goes on to a 16-node one and back, on any goroutine.
// The points must be bit-identical to the same plan run on one worker.
func TestRecyclingAcrossWorkers(t *testing.T) {
	nets := []NetworkSpec{
		{Kind: topology.TMIN, K: 2, Stages: 4},
		{Kind: topology.VMIN, K: 4, Stages: 4},
		{Kind: topology.TMIN, K: 4, Stages: 4},
		{Kind: topology.VMIN, K: 2, Stages: 4},
	}
	run := func(workers int) [][]metrics.Point {
		plan := NewPlan()
		var hs []*Handle
		for round := range 2 {
			for i, net := range nets {
				hs = append(hs, plan.AddSweep(SweepSpec{
					Net:    net,
					Work:   WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}},
					Loads:  []float64{0.1, 0.5, 0.9},
					Budget: Budget{WarmupCycles: 300, MeasureCycles: 1200, Seed: uint64(10*round + i)},
				}))
			}
		}
		if err := plan.Execute(context.Background(), Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		var out [][]metrics.Point
		for _, h := range hs {
			pts, err := h.Points()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, pts)
		}
		return out
	}
	one, four := run(1), run(4)
	for i := range one {
		for j := range one[i] {
			if !samePointBits(one[i][j], four[i][j]) {
				t.Errorf("sweep %d point %d differs between 1 and 4 workers:\n%+v\n%+v", i, j, one[i][j], four[i][j])
			}
		}
	}
	if one[1][2].Messages == 0 {
		t.Error("the saturated 256-node point delivered nothing; the comparison is vacuous")
	}
}

// samePointBits reports whether two points agree field for field, each
// float compared by its bits.
func samePointBits(a, b metrics.Point) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// TestPointReusesEngineMemory: the second run of a point reuses the
// memory the first gave back — the engine's channel owners, queues and
// worms and the workload's per-node streams — and allocates at most a
// tenth of the first run's bytes. Measured on a saturated 64-node TMIN
// point: 62 KB for the first run, under 1 KB for the second.
func TestPointReusesEngineMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled engines at random")
	}
	spec := RunSpec{
		Net:     NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3},
		Work:    WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}},
		Load:    0.9,
		Warmup:  1000,
		Measure: 4000,
		Seed:    DeriveSeed(1995, 0),
	}
	net, err := spec.Net.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Point(net)
	// Two collections empty the pools, so the first run starts cold.
	runtime.GC()
	runtime.GC()
	var first, second uint64
	var p [2]metrics.Point
	for i, bytes := range []*uint64{&first, &second} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p[i], err = cfg.Simulate()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		*bytes = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("the first run allocated %d bytes, the second %d", first, second)
	if p[0].Throughput > p[0].Offered/2 {
		t.Fatalf("the point delivers %v of %v offered; it should saturate", p[0].Throughput, p[0].Offered)
	}
	if p[0] != p[1] {
		t.Errorf("the second run differs:\n%+v\n%+v", p[0], p[1])
	}
	if second*10 > first {
		t.Errorf("the second run allocated %d bytes, more than a tenth of the first run's %d", second, first)
	}
}
