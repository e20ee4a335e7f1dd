package fleet

import (
	"encoding/json"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// roundTripSpecs is the wire-schema torture set: every paper network
// under every standard workload, plus each arrival process, each
// stock length distribution, trace replay, the adversarial search,
// and non-default point parameters.
func roundTripSpecs(t *testing.T) []simrun.RunSpec {
	t.Helper()
	var specs []simrun.RunSpec
	for _, ns := range experiments.PaperSpecs() {
		for _, nw := range experiments.StandardWorkloads() {
			specs = append(specs, simrun.RunSpec{
				Net:     ns.Spec,
				Work:    nw.Work,
				Load:    0.35,
				Warmup:  1000,
				Measure: 5000,
				Seed:    simrun.DeriveSeed(1995, len(specs)),
			})
		}
	}
	base := simrun.NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2}
	specs = append(specs,
		simrun.RunSpec{
			Net: base,
			Work: simrun.WorkloadSpec{
				Pattern: simrun.PatternSpec{Kind: simrun.Uniform},
				Arrival: experiments.BurstyMMPP,
				Lengths: &traffic.Lengths{Kind: "fixed", L: 32},
			},
			Load: 0.2, Warmup: 500, Measure: 2000, Seed: 7,
		},
		simrun.RunSpec{
			Net: base,
			Work: simrun.WorkloadSpec{
				Cluster: simrun.Cluster16,
				Pattern: simrun.PatternSpec{Kind: simrun.HotSpot, HotX: 0.05},
				Arrival: experiments.BurstyOnOff,
				Ratios:  []float64{2, 1, 1, 1},
				Lengths: &traffic.Lengths{Kind: "bimodal", Short: 8, Long: 512, PShort: 0.8},
			},
			Load: 0.15, Warmup: 500, Measure: 2000, Seed: 8,
			BufferDepth: 4,
			Arbitration: engine.ArbitrateOldestFirst,
		},
		simrun.RunSpec{
			Net: base,
			Work: simrun.WorkloadSpec{
				Pattern: simrun.PatternSpec{
					Kind:  simrun.TraceReplay,
					Trace: []traffic.Pair{{Src: 0, Dst: 5}, {Src: 3, Dst: 12}, {Src: 7, Dst: 1}},
				},
				Lengths: &traffic.Lengths{Kind: "uniform", Min: 8, Max: 64},
			},
			Load: 0.1, Warmup: 500, Measure: 2000, Seed: 9,
		},
		simrun.RunSpec{
			Net: base,
			Work: simrun.WorkloadSpec{
				Pattern: simrun.PatternSpec{Kind: simrun.Adversarial, AdvIters: 64},
			},
			Load: 0.1, Warmup: 500, Measure: 2000, Seed: 10,
		},
	)
	return specs
}

// TestWireSpecRoundTripKeyIdentical proves the fleet's core safety
// property: encode → JSON → decode leaves the content key unchanged,
// so a worker always computes the same key the coordinator leased and
// the shared store can never be poisoned by an encoding drift.
func TestWireSpecRoundTripKeyIdentical(t *testing.T) {
	for i, rs := range roundTripSpecs(t) {
		wantKey, err := rs.Key()
		if err != nil {
			t.Fatalf("spec %d (%s): Key: %v", i, rs, err)
		}
		w, err := EncodeSpec(rs)
		if err != nil {
			t.Fatalf("spec %d (%s): EncodeSpec: %v", i, rs, err)
		}
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		var w2 WireSpec
		if err := json.Unmarshal(data, &w2); err != nil {
			t.Fatalf("spec %d: unmarshal: %v", i, err)
		}
		rs2, err := DecodeSpec(w2)
		if err != nil {
			t.Fatalf("spec %d: DecodeSpec: %v", i, err)
		}
		gotKey, err := rs2.Key()
		if err != nil {
			t.Fatalf("spec %d: decoded Key: %v", i, err)
		}
		if gotKey != wantKey {
			t.Errorf("spec %d (%s): key drifted over the wire:\n  sent %s\n  got  %s", i, rs, wantKey, gotKey)
		}
	}
}

// FuzzWireSpecRoundTrip: any unit body that decodes into a RunSpec
// with a key encodes, crosses JSON and decodes back to the same key,
// and no body panics the decoder, the key or the validators. The
// corpus is every distinct registry unit.
func FuzzWireSpecRoundTrip(f *testing.F) {
	seen := map[string]bool{}
	for _, u := range registryUnits(f) {
		if !seen[u.Key] {
			seen[u.Key] = true
			data, err := json.Marshal(u.Spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireSpec
		if json.Unmarshal(data, &w) != nil {
			return
		}
		rs, err := DecodeSpec(w)
		if err != nil {
			return
		}
		rs.Net.Check()
		rs.Work.Validate()
		key, err := rs.Key()
		if err != nil {
			return
		}
		w2, err := EncodeSpec(rs)
		if err != nil {
			t.Fatalf("EncodeSpec of a decoded spec: %v", err)
		}
		data2, err := json.Marshal(w2)
		if err != nil {
			t.Fatal(err)
		}
		var w3 WireSpec
		if err := json.Unmarshal(data2, &w3); err != nil {
			t.Fatal(err)
		}
		rs2, err := DecodeSpec(w3)
		if err != nil {
			t.Fatalf("DecodeSpec of %s: %v", data2, err)
		}
		if key2, err := rs2.Key(); err != nil || key2 != key {
			t.Fatalf("key drifted over the wire: %s, then %s (%v)\n in  %s\n out %s", key, key2, err, data, data2)
		}
	})
}

// TestEncodeSpecRejectsExoticLengths pins the invariant that the wire
// schema and the cache key reject the same spec: one naming a length
// kind neither knows.
func TestEncodeSpecRejectsExoticLengths(t *testing.T) {
	rs := simrun.RunSpec{
		Net:  simrun.NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
		Work: simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Uniform}, Lengths: &traffic.Lengths{Kind: "pareto", Min: 8}},
		Load: 0.1, Warmup: 100, Measure: 100, Seed: 1,
	}
	if _, err := rs.Key(); err == nil {
		t.Fatal("Key accepted an unknown length kind")
	}
	if _, err := EncodeSpec(rs); err == nil {
		t.Fatal("EncodeSpec accepted a spec Key rejects")
	}
}
