package simrun

import (
	"context"
	"errors"
	"testing"

	"minsim/internal/metrics"
	"minsim/internal/topology"
)

// replicatedSweep is tinySweep with R replications per load point.
func replicatedSweep(loads []float64, replicas int) SweepSpec {
	s := tinySweep(loads)
	s.Budget.Replicas = replicas
	return s
}

// TestDeriveReplicaSeedCompat pins the compatibility contract: replica
// 0 of any point is the point's single-run seed, so turning
// replication on extends a sweep instead of reshuffling it, and every
// replica of a point gets a distinct seed.
func TestDeriveReplicaSeedCompat(t *testing.T) {
	for i := 0; i < 5; i++ {
		if got, want := DeriveReplicaSeed(7, i, 0), DeriveSeed(7, i); got != want {
			t.Errorf("replica 0 of point %d: seed %d, want DeriveSeed %d", i, got, want)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		for r := 0; r < 4; r++ {
			s := DeriveReplicaSeed(7, i, r)
			if seen[s] {
				t.Fatalf("seed collision at point %d replica %d", i, r)
			}
			seen[s] = true
		}
	}
}

// TestReplicatedSweep checks the full replication path: R replicas per
// load point execute (batched into ReplicaSets by the executor),
// Points() merges them into mean + CI, and the merged points are
// bit-equal to merging R scalar single-engine runs — the batched
// executor must be invisible in the results.
func TestReplicatedSweep(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3}
	const reps = 4

	plan := NewPlan()
	h := plan.AddSweep(replicatedSweep(loads, reps))
	if err := plan.Execute(context.Background(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	merged, err := h.Points()
	if err != nil {
		t.Fatal(err)
	}
	if c := plan.Counters(); c.Requested != len(loads)*reps || c.Executed != len(loads)*reps {
		t.Errorf("counters %+v, want requested = executed = %d", c, len(loads)*reps)
	}

	// Scalar reference: every replica simulated on its own engine.
	nets := &NetCache{}
	for i, load := range loads {
		pts := make([]metrics.Point, reps)
		for rep := 0; rep < reps; rep++ {
			pt, err := tinySpec(load, DeriveReplicaSeed(7, i, rep)).run(context.Background(), nets)
			if err != nil {
				t.Fatal(err)
			}
			pts[rep] = pt
		}
		if want := metrics.MergeReplicas(pts); merged[i] != want {
			t.Errorf("load %g: batched merge diverges from scalar merge:\nbatched: %+v\nscalar:  %+v", load, merged[i], want)
		}
	}

	for i, m := range merged {
		if m.Replicas != reps {
			t.Errorf("point %d: Replicas = %d, want %d", i, m.Replicas, reps)
		}
		if m.LatencyCILo > m.LatencyCyc || m.LatencyCIHi < m.LatencyCyc {
			t.Errorf("point %d: CI [%v, %v] does not bracket mean %v", i, m.LatencyCILo, m.LatencyCIHi, m.LatencyCyc)
		}
		if m.Messages == 0 {
			t.Errorf("point %d measured nothing", i)
		}
	}
}

// TestReplicationReusesSingleRunCache pins the cache-compatibility
// property bought by DeriveReplicaSeed's r = 0 identity: a replicated
// sweep served from a store primed by the plain single-run sweep gets
// every replica-0 point as a cache hit and only executes the extra
// replicas.
func TestReplicationReusesSingleRunCache(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.1, 0.2}

	single := NewPlan()
	sh := single.AddSweep(tinySweep(loads))
	if err := single.Execute(context.Background(), Options{Store: store}); err != nil {
		t.Fatal(err)
	}
	singlePts, err := sh.Points()
	if err != nil {
		t.Fatal(err)
	}

	const reps = 3
	repl := NewPlan()
	rh := repl.AddSweep(replicatedSweep(loads, reps))
	if err := repl.Execute(context.Background(), Options{Store: store}); err != nil {
		t.Fatal(err)
	}
	c := repl.Counters()
	if c.Cached != len(loads) {
		t.Errorf("replicated sweep got %d cache hits, want %d (one per replica-0 point)", c.Cached, len(loads))
	}
	if c.Executed != len(loads)*(reps-1) {
		t.Errorf("replicated sweep executed %d points, want %d", c.Executed, len(loads)*(reps-1))
	}
	replPts, err := rh.Points()
	if err != nil {
		t.Fatal(err)
	}
	for i := range replPts {
		// The single-run estimate is replica 0's result, so the merged
		// mean moves but stays in the same regime; the real contract
		// checked here is that merging happened over reps replicas.
		if replPts[i].Replicas != reps {
			t.Errorf("point %d: Replicas = %d, want %d", i, replPts[i].Replicas, reps)
		}
		if singlePts[i].Replicas != 0 {
			t.Errorf("single-run point %d unexpectedly marked replicated: %+v", i, singlePts[i])
		}
	}
}

// TestBatchUnits exercises the grouping rules directly: same-key specs
// batch, different budgets split, opaque points stay singletons, the
// per-set lane cap holds, and scarce units split for parallelism.
func TestBatchUnits(t *testing.T) {
	mk := func(load float64, seed uint64) *pointRun {
		return &pointRun{spec: tinySpec(load, seed)}
	}
	var pending []*pointRun
	for i := 0; i < 20; i++ {
		pending = append(pending, mk(0.1+float64(i)*0.01, uint64(i)))
	}
	other := mk(0.1, 99)
	other.spec.Measure = 600 // different budget: separate batch
	opaque := &pointRun{fn: func() (metrics.Point, error) { return metrics.Point{}, nil }}
	pending = append(pending, other, opaque)

	units := batchUnits(pending, 1)
	if len(units) != 4 { // 16 + 4 (lane cap) + other + opaque
		t.Fatalf("got %d units, want 4", len(units))
	}
	if len(units[0]) != maxLanesPerSet || len(units[1]) != 4 {
		t.Errorf("cap split wrong: %d + %d", len(units[0]), len(units[1]))
	}
	if len(units[2]) != 1 || units[2][0] != other {
		t.Errorf("different-budget point not isolated")
	}
	if len(units[3]) != 1 || units[3][0] != opaque {
		t.Errorf("opaque point not a singleton")
	}
	total := 0
	for _, u := range units {
		total += len(u)
	}
	if total != len(pending) {
		t.Errorf("units cover %d points, want %d", total, len(pending))
	}

	// Few units, many workers: oversized units split to feed the pool.
	var big []*pointRun
	for i := 0; i < 16; i++ {
		big = append(big, mk(0.1+float64(i)*0.01, uint64(i)))
	}
	split := batchUnits(big, 4)
	if len(split) < 4 {
		t.Errorf("got %d units for 4 workers, want >= 4", len(split))
	}
	total = 0
	for _, u := range split {
		total += len(u)
	}
	if total != len(big) {
		t.Errorf("split units cover %d points, want %d", total, len(big))
	}
}

// TestLaneWidth pins the per-family/per-size lane heuristic: BMIN
// points opt out of batching entirely (the replica benchmarks measure
// lockstep a wash there), paper-scale unidirectional nets batch at
// the full width, and large-N nets narrow to hold the node budget.
func TestLaneWidth(t *testing.T) {
	cases := []struct {
		name string
		net  NetworkSpec
		want int
	}{
		{"bmin", NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3}, 1},
		{"tmin-64", NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 3}, maxLanesPerSet},
		{"vmin-64", NetworkSpec{Kind: topology.VMIN, K: 4, Stages: 3, VCs: 2}, maxLanesPerSet},
		{"tmin-16k", NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 14}, maxLanesPerSet},
		{"tmin-64k", NetworkSpec{Kind: topology.TMIN, K: 2, Stages: 16}, 4},
		{"degenerate", NetworkSpec{Kind: topology.TMIN, K: 0, Stages: 0}, 1},
	}
	for _, c := range cases {
		if got := laneWidth(c.net); got != c.want {
			t.Errorf("%s: laneWidth = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestBatchUnitsBMINSingletons: BMIN replications must come out as
// singleton units (which the executor runs on scalar engines), even
// when they share every batch-key field.
func TestBatchUnitsBMINSingletons(t *testing.T) {
	var pending []*pointRun
	for i := 0; i < 6; i++ {
		r := &pointRun{spec: tinySpec(0.2, uint64(i))}
		r.spec.Net = NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3}
		pending = append(pending, r)
	}
	units := batchUnits(pending, 1)
	if len(units) != len(pending) {
		t.Fatalf("got %d units for %d BMIN points, want all singletons", len(units), len(pending))
	}
	for i, u := range units {
		if len(u) != 1 {
			t.Errorf("unit %d has %d lanes, want 1", i, len(u))
		}
	}
}

// TestBatchCancellationMidRun pins the preemption granularity of the
// batched executor: a batch is up to maxLanesPerSet points fused into
// one lockstep run, so runBatch must check the context between cycle
// chunks (cancelQuantum) rather than only between units — otherwise
// canceling a plan would wait for the whole batch to finish. The
// budget here (~3M cycles across two batched lanes) is far more
// simulation than the cancellation should ever allow to run.
func TestBatchCancellationMidRun(t *testing.T) {
	s := tinySweep([]float64{0.1, 0.2})
	s.Budget.MeasureCycles = 1_500_000

	plan := NewPlan()
	h := plan.AddSweep(s)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := plan.Execute(ctx, Options{Workers: 1, Progress: func(c Counters) {
		if c.Running > 0 {
			cancel() // fires as soon as the batch is picked up
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
	if _, err := h.Points(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Points after mid-batch cancellation returned %v, want context.Canceled", err)
	}
	if c := plan.Counters(); c.Executed == 0 || c.Failed == 0 {
		t.Errorf("counters %+v: canceled batch should be counted as executed-and-failed", c)
	}
}
