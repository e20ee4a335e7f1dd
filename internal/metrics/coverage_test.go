package metrics_test

import (
	"context"
	"math"
	"testing"

	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// TestReplicaIntervalCoverage checks that a replicated point's "95%
// CI" covers as often as it says. It runs G = 200 groups of R = 3
// replicas of one small point (the 64-node cube TMIN, uniform traffic,
// U{8..32} lengths, load 0.2, 500 + 2,000 cycles, fixed seeds), takes
// the mean of all 600 runs as the reference, and counts the groups
// whose latency interval, and those whose throughput interval, holds
// it. Each count must lie in the band that holds 99.9% of
// Binomial(200, 0.95), [179, 198]. With R = 3 the interval is
// mean ± 4.30·s/√3 (Student's t, 2 degrees of freedom); the normal
// quantile 1.96 in its place covers about 81% of the time in theory,
// about 162 groups, far below the band. Seeds are fixed, so the counts
// are too: a failure is a changed interval or a changed simulation,
// never chance.
func TestReplicaIntervalCoverage(t *testing.T) {
	const groups, replicas = 200, 3
	loads := make([]float64, groups) // a repeated load is a point of its own, with its own seeds
	for i := range loads {
		loads[i] = 0.2
	}
	plan := simrun.NewPlan()
	h := plan.AddSweep(simrun.SweepSpec{
		Net:    simrun.NetworkSpec{Kind: topology.TMIN, Pattern: topology.Cube, K: 4, Stages: 3},
		Work:   simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Uniform}, Lengths: &traffic.Lengths{Kind: "uniform", Min: 8, Max: 32}},
		Loads:  loads,
		Budget: simrun.Budget{WarmupCycles: 500, MeasureCycles: 2000, Seed: 1995, Replicas: replicas},
	})
	if err := plan.Execute(context.Background(), simrun.Options{}); err != nil {
		t.Fatal(err)
	}
	pts, err := h.Points()
	if err != nil {
		t.Fatal(err)
	}
	var latency, throughput float64 // pooled means: every group has R runs
	for _, p := range pts {
		if p.Replicas != replicas {
			t.Fatalf("a point merged %d replicas, want %d", p.Replicas, replicas)
		}
		latency += p.LatencyCyc / groups
		throughput += p.Throughput / groups
	}
	var coverLatency, coverThroughput int
	for _, p := range pts {
		if p.LatencyCILo <= latency && latency <= p.LatencyCIHi {
			coverLatency++
		}
		if p.ThroughputCILo <= throughput && throughput <= p.ThroughputCIHi {
			coverThroughput++
		}
	}
	lo, hi := binomialBand(groups, 0.95, 0.0005)
	t.Logf("latency intervals cover the pooled mean %.2f in %d of %d groups, throughput intervals the pooled %.4f in %d; band [%d, %d]",
		latency, coverLatency, groups, throughput, coverThroughput, lo, hi)
	for _, c := range []struct {
		name  string
		cover int
	}{{"latency", coverLatency}, {"throughput", coverThroughput}} {
		if c.cover < lo || c.cover > hi {
			t.Errorf("%s intervals cover the pooled mean in %d of %d groups, outside [%d, %d], the 99.9%% band of Binomial(%d, 0.95)",
				c.name, c.cover, groups, lo, hi, groups)
		}
	}
}

// binomialBand returns the narrowest band [lo, hi] with P(X < lo) ≤
// tail and P(X > hi) ≤ tail, X ~ Binomial(n, p).
func binomialBand(n int, p, tail float64) (lo, hi int) {
	lgn, _ := math.Lgamma(float64(n + 1))
	pmf := func(k int) float64 {
		lgk, _ := math.Lgamma(float64(k + 1))
		lgr, _ := math.Lgamma(float64(n - k + 1))
		return math.Exp(lgn - lgk - lgr + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	for below := pmf(0); below <= tail; below += pmf(lo) {
		lo++
	}
	hi = n
	for above := pmf(n); above <= tail; above += pmf(hi) {
		hi--
	}
	return lo, hi
}
