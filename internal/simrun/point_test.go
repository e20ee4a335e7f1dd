package simrun

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/metrics"
)

// TestScalarCancellationMidRun pins the preemption granularity of the
// executor: PointConfig.simulate must advance a point in cancelQuantum
// legs so canceling the plan does not wait for a whole warmup+measure
// run, and the point cancelled mid-run counts as executed and failed.
// The budget (~3M cycles over two points) is far more simulation than
// the cancellation should ever allow to run.
func TestScalarCancellationMidRun(t *testing.T) {
	s := tinySweep([]float64{0.1, 0.2})
	s.Budget.MeasureCycles = 1_500_000

	plan := NewPlan()
	h := plan.AddSweep(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := plan.Execute(ctx, Options{Workers: 1, Progress: func(c Counters) {
		if c.Running > 0 {
			cancel() // fires as soon as the first point is picked up
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
	if _, err := h.Points(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Points after mid-run cancellation returned %v, want context.Canceled", err)
	}
	if c := plan.Counters(); c.Executed == 0 || c.Failed == 0 {
		t.Errorf("counters %+v: a point cancelled mid-run should be counted as executed-and-failed", c)
	}
}

// TestCancelledPointsRerun: a point cut off by cancellation holds an
// error but keeps its key, so a re-Execute runs every cut-off point
// again and the plan completes as if never interrupted.
func TestCancelledPointsRerun(t *testing.T) {
	s := tinySweep([]float64{0.1, 0.2, 0.3})
	s.Budget.MeasureCycles = 50_000

	plan := NewPlan()
	h := plan.AddSweep(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := plan.Execute(ctx, Options{Workers: 1, Progress: func(c Counters) {
		if c.Running > 0 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
	if c := plan.Counters(); c.Failed == 0 {
		t.Fatalf("counters %+v: no point was cut off", c)
	}
	if err := plan.Execute(context.Background(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if c := plan.Counters(); c.Executed != 3 || c.Failed != 0 || c.Done != 3 {
		t.Errorf("resumed counters %+v, want all 3 points executed", c)
	}
	got, err := h.Points()
	if err != nil {
		t.Fatalf("Points after the resume: %v", err)
	}
	fresh := NewPlan()
	fh := fresh.AddSweep(s)
	if err := fresh.Execute(context.Background(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if want, _ := fh.Points(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed points differ from an uninterrupted plan's:\n got  %+v\n want %+v", got, want)
	}
}

// TestSimulateChunkedMatchesFull pins the bit-exactness contract the
// chunked scalar path relies on: driving the engine in cancelQuantum
// legs produces exactly the statistics of one uninterrupted run, so
// the cancellation plumbing cannot shift any cached result.
func TestSimulateChunkedMatchesFull(t *testing.T) {
	spec := tinySpec(0.3, 42)
	spec.Measure = cancelQuantum + cancelQuantum/2 // straddle a leg boundary

	net, err := spec.Net.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := PointConfig{
		Net:     net,
		Factory: spec.Work.Factory(net),
		Load:    spec.Load,
		Seed:    spec.Seed,
		Warmup:  spec.Warmup,
		Measure: spec.Measure,
	}
	chunked, err := cfg.Simulate() // chunked internally
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same engine driven by a single full Run call.
	src, err := cfg.Factory(cfg.Load, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: cfg.Seed ^ 0xd1b54a32d192ed03})
	if err != nil {
		t.Fatal(err)
	}
	e.SetMeasureFrom(cfg.Warmup)
	e.Run(cfg.Warmup + cfg.Measure)
	full := metrics.FromStats(cfg.Load, net.Nodes, e.Stats())

	if chunked != full {
		t.Fatalf("chunked simulate diverges from one full run:\nchunked: %+v\nfull:    %+v", chunked, full)
	}
}

// TestSimulatePreCanceled: an already-canceled context never starts
// the simulation.
func TestSimulatePreCanceled(t *testing.T) {
	spec := tinySpec(0.1, 1)
	net, err := spec.Net.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = PointConfig{
		Net:     net,
		Factory: spec.Work.Factory(net),
		Load:    spec.Load,
		Seed:    spec.Seed,
		Warmup:  spec.Warmup,
		Measure: spec.Measure,
	}.simulate(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("simulate on a canceled context returned %v, want context.Canceled", err)
	}
}

// TestHashStatsCoversEveryField guards the fingerprint's canonical
// Stats encoding: every field of engine.Stats must appear by name (a
// new field of an unsupported kind fails loudly in hashStats itself,
// and this test fails if a field is silently skipped).
func TestHashStatsCoversEveryField(t *testing.T) {
	var sb strings.Builder
	if err := hashStats(&sb, engine.Stats{}); err != nil {
		t.Fatal(err)
	}
	enc := sb.String()
	rt := reflect.TypeOf(engine.Stats{})
	for i := 0; i < rt.NumField(); i++ {
		if !strings.Contains(enc, rt.Field(i).Name+"=") {
			t.Errorf("hashStats encoding omits field %s: %q", rt.Field(i).Name, enc)
		}
	}
}

// TestHashStatsFloatBits pins the float encoding to IEEE-754 bit
// patterns: two floats that format identically under %v but differ in
// the last bit must hash differently.
func TestHashStatsFloatBits(t *testing.T) {
	a := engine.Stats{LatencySumSq: 0.1}
	b := engine.Stats{LatencySumSq: 0.1 + 0x1p-56}
	var ea, eb strings.Builder
	if err := hashStats(&ea, a); err != nil {
		t.Fatal(err)
	}
	if err := hashStats(&eb, b); err != nil {
		t.Fatal(err)
	}
	if ea.String() == eb.String() {
		t.Fatalf("hashStats conflates floats differing in the last bit: %q", ea.String())
	}
	if fmt.Sprintf("%v", a.LatencySumSq) != fmt.Sprintf("%v", b.LatencySumSq) {
		t.Log("note: default float formatting distinguishes these floats on this platform; the bit-pattern encoding is still required")
	}
}
