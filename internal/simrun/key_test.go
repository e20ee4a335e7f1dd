package simrun

import (
	"testing"

	"minsim/internal/engine"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// pinnedFingerprint is simrun.Fingerprint() at the commit the keys
// below were generated at. The fingerprint is hashed into every key,
// so the literals hold only while it does.
const pinnedFingerprint = "169700feae508f9b8db5faa2150d1f99"

// pinnedKeys holds content keys as literals: "byte-stable content
// keys" means a store filled by an earlier binary still answers, which
// comparing keys with each other inside one process cannot show.
var pinnedKeys = []struct {
	name string
	spec RunSpec
	key  string
}{
	{"tmin-cube", RunSpec{
		Net:  NetworkSpec{Kind: topology.TMIN, Pattern: topology.Cube, K: 4, Stages: 3},
		Work: WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}},
		Load: 0.35, Warmup: 40_000, Measure: 120_000, Seed: DeriveSeed(1995, 3),
	}, "19a0fadfeb0be73bcb294ecb023d7ac90dd59fb5a34f6458064342ca5c0ddf89"},
	{"dmin-cube", RunSpec{
		Net:  NetworkSpec{Kind: topology.DMIN, Pattern: topology.Cube, K: 4, Stages: 3, Dilation: 2},
		Work: WorkloadSpec{Pattern: PatternSpec{Kind: ShufflePerm}},
		Load: 0.5, Warmup: 5_000, Measure: 15_000, Seed: DeriveSeed(1995, 0),
	}, "e22e5b5c7339b12b76f0f4ae9d8ae0489e249323b1947157d717465bbe922bf3"},
	{"vmin-cube", RunSpec{
		Net:  NetworkSpec{Kind: topology.VMIN, Pattern: topology.Cube, K: 4, Stages: 3, VCs: 2},
		Work: WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}},
		Load: 0.2, Warmup: 5_000, Measure: 15_000, Seed: DeriveReplicaSeed(1995, 2, 1),
	}, "bbe8892064bcf1bc63d91958cf5d78f9f37646cdf9aa22941f701574c48c8cf2"},
	{"bmin-butterfly", RunSpec{
		Net:  NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3},
		Work: WorkloadSpec{Pattern: PatternSpec{Kind: ButterflyPerm, Butterfly: 2}},
		Load: 0.9, Warmup: 1_000, Measure: 5_000, Seed: 7,
	}, "e9c94d32b76433e0cd25d32b1276c030a7cf26c2cbce199aaafe328d2da8f1a2"},
	{"hot-spot", RunSpec{
		Net:  NetworkSpec{Kind: topology.TMIN, Pattern: topology.Butterfly, K: 4, Stages: 3},
		Work: WorkloadSpec{Pattern: PatternSpec{Kind: HotSpot, HotX: 0.05}, Lengths: &traffic.Lengths{Kind: "bimodal", Short: 8, Long: 512, PShort: 0.8}},
		Load: 0.15, Warmup: 1_000, Measure: 5_000, Seed: 8,
	}, "54907e505f04308cfd9f7f9a2bfc1693360162802b350ed3b9dd4e6680c3efb2"},
	{"mmpp", RunSpec{
		Net: NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
		Work: WorkloadSpec{
			Pattern: PatternSpec{Kind: Uniform},
			Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 8, DwellHi: 500, DwellLo: 2000},
			Lengths: &traffic.Lengths{Kind: "fixed", L: 32},
		},
		Load: 0.2, Warmup: 500, Measure: 2_000, Seed: 9,
	}, "a077aab4f83805eed0e69c54a80add524b410f633b7682a545ae462eb8db7b1e"},
	{"trace", RunSpec{
		Net: NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
		Work: WorkloadSpec{
			Pattern: PatternSpec{Kind: TraceReplay, Trace: []traffic.Pair{{Src: 0, Dst: 5}, {Src: 3, Dst: 12}, {Src: 7, Dst: 1}}},
			Lengths: &traffic.Lengths{Kind: "uniform", Min: 8, Max: 64},
		},
		Load: 0.1, Warmup: 500, Measure: 2_000, Seed: 10,
	}, "892100b30744dff6412bb2d8f322fb11ae7ebebb6513c71aa5481abe822909c9"},
	{"adversarial", RunSpec{
		Net:  NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
		Work: WorkloadSpec{Pattern: PatternSpec{Kind: Adversarial}},
		Load: 0.1, Warmup: 500, Measure: 2_000, Seed: 11,
	}, "e936bfff82eec14d37879e8c9eb9c89fe2323b71554694ad482887541f33e5f2"},
	{"depth-2-oldest-first", RunSpec{
		Net:  NetworkSpec{Kind: topology.BMIN, K: 4, Stages: 3, VCs: 2},
		Work: WorkloadSpec{Pattern: PatternSpec{Kind: NamedPerm, Name: "bitreverse"}},
		Load: 0.4, Warmup: 500, Measure: 2_000, Seed: 12,
		BufferDepth: 2, Arbitration: engine.ArbitrateOldestFirst,
	}, "3651f5cf659382475b9ded03413f19cd7e6834b5fa81812310509c877f7c1284"},
}

// TestPinnedKeys fails in one of two ways. A changed fingerprint is a
// deliberate break of every cached result (an engine behaviour
// change): regenerate the table. The same fingerprint with a
// different key is a regression in the key encoding itself, which
// silently orphans every store.
func TestPinnedKeys(t *testing.T) {
	fp, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != pinnedFingerprint {
		t.Fatalf("fingerprint changed — regenerate pinnedFingerprint and pinnedKeys: Fingerprint() = %s, pinned %s", fp, pinnedFingerprint)
	}
	for _, c := range pinnedKeys {
		got, err := c.spec.Key()
		if err != nil {
			t.Errorf("%s: Key: %v", c.name, err)
			continue
		}
		if got != c.key {
			t.Errorf("%s: key regression under an unchanged fingerprint:\n  got  %s\n  want %s", c.name, got, c.key)
		}
	}
}
