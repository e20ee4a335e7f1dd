package simrun_test

import (
	"context"
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/traffic"
)

// askedStore answers every Get with a hit and records the keys asked
// for, so a plan executes without simulating and shows its keys.
type askedStore struct{ keys []string }

func (s *askedStore) Get(key string) (metrics.Point, bool) {
	s.keys = append(s.keys, key)
	return metrics.Point{}, true
}
func (s *askedStore) Put(string, string, metrics.Point) {}
func (s *askedStore) Stats() simrun.StoreStats          { return simrun.StoreStats{} }

// TestSweepKeysEqualRunSpecKeys holds AddSweep's keys — one prefix per
// sweep, one point line per load and replica — to RunSpec.Key() over
// the paper's networks and workloads, every arrival process, and the
// pattern kinds with a key line of their own.
func TestSweepKeysEqualRunSpecKeys(t *testing.T) {
	var works []simrun.WorkloadSpec
	for _, nw := range experiments.StandardWorkloads() {
		for _, a := range []simrun.ArrivalSpec{{}, experiments.BurstyMMPP, experiments.BurstyOnOff} {
			w := nw.Work
			w.Arrival = a
			works = append(works, w)
		}
	}
	works = append(works,
		simrun.WorkloadSpec{
			Cluster: simrun.Cluster16,
			Pattern: simrun.PatternSpec{Kind: simrun.Uniform},
			Ratios:  []float64{2, 1, 1, 1},
			Lengths: &traffic.Lengths{Kind: "bimodal", Short: 8, Long: 512, PShort: 0.8},
		},
		simrun.WorkloadSpec{Pattern: simrun.PatternSpec{
			Kind:  simrun.TraceReplay,
			Trace: []traffic.Pair{{Src: 0, Dst: 5}, {Src: 3, Dst: 12}, {Src: 7, Dst: 1}},
		}},
		simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Adversarial, AdvIters: 64}},
	)
	loads := []float64{0.05, 0.35, 0.35, 1.2} // a repeated load is its own point: the seed differs
	for _, ns := range experiments.PaperSpecs() {
		for wi, work := range works {
			for _, replicas := range []int{0, 3} {
				sweep := simrun.SweepSpec{
					Net: ns.Spec, Work: work, Loads: loads,
					Budget:      simrun.Budget{WarmupCycles: 1000, MeasureCycles: 5000, Seed: 1995, Replicas: replicas},
					BufferDepth: wi % 3,
				}
				var want []string
				for i, load := range loads {
					for rep := 0; rep < max(replicas, 1); rep++ {
						key, err := simrun.RunSpec{
							Net: ns.Spec, Work: work, Load: load,
							Warmup: 1000, Measure: 5000, Seed: simrun.DeriveReplicaSeed(1995, i, rep),
							BufferDepth: sweep.BufferDepth,
						}.Key()
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, key)
					}
				}
				plan, store := simrun.NewPlan(), &askedStore{}
				plan.AddSweep(sweep)
				if err := plan.Execute(context.Background(), simrun.Options{Store: store}); err != nil {
					t.Fatal(err)
				}
				if len(store.keys) != len(want) {
					t.Fatalf("%s workload %d replicas %d: the plan asked for %d keys, want %d", ns.Name, wi, replicas, len(store.keys), len(want))
				}
				for i := range want {
					if store.keys[i] != want[i] {
						t.Errorf("%s workload %d replicas %d: key %d of the sweep is %s, RunSpec.Key() says %s", ns.Name, wi, replicas, i, store.keys[i], want[i])
					}
				}
			}
		}
	}
}
