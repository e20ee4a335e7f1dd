package simrun

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

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

// TestPointReusesEngineMemory: a finished point's engine and workload
// outlive garbage collections, so a point repeated after two GCs reuses
// the first run's channel owners, queues, worms and per-node streams
// and allocates a bounded amount, not the megabytes a 4K-node point's
// arrays take: nothing of it grows with the node count. TotalAlloc
// counts the whole process, and on a loaded machine one repeat has read
// 5 KB more with no other goroutine of the test alive, so the point's
// own figure is the least of three repeats; a per-node table shows in
// every one.
func TestPointReusesEngineMemory(t *testing.T) {
	const bound = 4 << 10
	spec := RunSpec{
		Net:     NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 6},
		Work:    WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}},
		Load:    0.5,
		Warmup:  200,
		Measure: 800,
		Seed:    DeriveSeed(1995, 0),
	}
	net, err := spec.Net.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.Nodes < 4096 {
		t.Fatalf("the network has %d nodes; the bound needs at least 4096 to mean anything", net.Nodes)
	}
	cfg := spec.Point(net)
	var bytes [4]uint64
	var p [4]metrics.Point
	for i := range p {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p[i], err = cfg.Simulate()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes[i] = after.TotalAlloc - before.TotalAlloc
		runtime.GC()
		runtime.GC()
	}
	repeat := slices.Min(bytes[1:])
	t.Logf("the first run allocated %d bytes, the repeats after two GCs %v", bytes[0], bytes[1:])
	if p[0].Messages == 0 {
		t.Fatal("the point delivered nothing; the comparison is vacuous")
	}
	for _, q := range p[1:] {
		if q != p[0] {
			t.Errorf("a repeat differs:\n%+v\n%+v", p[0], q)
		}
	}
	if repeat > bound {
		t.Errorf("every repeat after two GCs allocated more than %d bytes, the least %d", bound, repeat)
	}
}

// TestRecycledPointPinsNothing: the spares a finished point leaves
// behind live as long as the process, so they must hold nothing the
// caller built. After the point and a GC, its network, its source's
// pattern and its clustering are gone.
func TestRecycledPointPinsNothing(t *testing.T) {
	netRef, patRef, clusterRef := runAndForget(t)
	runtime.GC()
	runtime.GC()
	if netRef.Value() != nil {
		t.Error("a recycled point still pins its network")
	}
	if patRef.Value() != nil {
		t.Error("a recycled point still pins its source's pattern")
	}
	if clusterRef.Value() != nil {
		t.Error("a recycled point still pins its clustering")
	}
}

// runAndForget simulates one point whose network, pattern and
// clustering (two halves, so not Global's shared tables) only the point
// holds, and returns weak pointers to them.
func runAndForget(t *testing.T) (weak.Pointer[topology.Network], weak.Pointer[traffic.Permutation], weak.Pointer[int]) {
	net, err := NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pat := &traffic.Permutation{P: traffic.ShufflePattern(net.R).P}
	c := traffic.Halves(net.Nodes)
	cfg := PointConfig{
		Net: net,
		Factory: func(load float64, seed uint64) (engine.Source, error) {
			return traffic.NewWorkload(traffic.Config{Clusters: c, Pattern: pat, Lengths: traffic.PaperLengths, Load: load, Ratios: []float64{3, 1}, Seed: seed})
		},
		Load:    0.5,
		Seed:    1,
		Warmup:  100,
		Measure: 400,
	}
	if p, err := cfg.Simulate(); err != nil || p.Messages == 0 {
		t.Fatalf("the point delivered %d messages (%v)", p.Messages, err)
	}
	return weak.Make(net), weak.Make(pat), weak.Make(&c.Of[0])
}
