package simrun

import (
	"context"
	"testing"

	"minsim/internal/metrics"
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
// load point execute as ordinary points on the plan's pool, Points()
// merges them into mean + CI, and the merged points are bit-equal to
// merging R runs of the same specs made one by one — the pool must be
// invisible in the results.
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

	// Reference: every replica run directly, outside the plan.
	for i, load := range loads {
		pts := make([]metrics.Point, reps)
		for rep := 0; rep < reps; rep++ {
			pt, err := tinySpec(load, DeriveReplicaSeed(7, i, rep)).run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			pts[rep] = pt
		}
		if want := metrics.MergeReplicas(pts); merged[i] != want {
			t.Errorf("load %g: plan merge diverges from direct merge:\nplan:   %+v\ndirect: %+v", load, merged[i], want)
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
