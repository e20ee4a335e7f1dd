package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// pinnedWireDigest is the first 16 hex digits of the SHA-256 over the
// JSON of every registry unit and one of each worker request (see
// wireMessages). Unit keys hash the engine fingerprint, so the digest
// holds only while simrun's pinned fingerprint does.
const pinnedWireDigest = "08be1d2bf7a311e0"

// registryUnits is every point of the paper figures and extensions as
// `figures -quick -extensions -warmup 100 -measure 300 -seed 777`
// requests it, duplicates included, as the unit a coordinator leases.
func registryUnits(t testing.TB) []Unit {
	t.Helper()
	var units []Unit
	for _, e := range append(experiments.Figures(), experiments.Extensions()...) {
		for _, c := range e.Curves {
			for i, load := range e.Loads {
				rs := simrun.RunSpec{
					Net: c.Net, Work: c.Work, Load: load,
					Warmup: 100, Measure: 300, Seed: simrun.DeriveSeed(777, i),
					BufferDepth: c.BufferDepth, Arbitration: c.Arbitration,
				}
				key, err := rs.Key()
				if err != nil {
					t.Fatalf("%s/%s: Key: %v", e.ID, c.Label, err)
				}
				w, err := EncodeSpec(rs)
				if err != nil {
					t.Fatalf("%s/%s: EncodeSpec: %v", e.ID, c.Label, err)
				}
				units = append(units, Unit{Key: key, Spec: w})
			}
		}
	}
	return units
}

// wireMessages is one of each request a worker sends.
var wireMessages = []any{
	RegisterRequest{Name: "worker-a"},
	LeaseRequest{WorkerID: "w-1"},
	HeartbeatRequest{WorkerID: "w-1", LeaseID: "l-7"},
	CompleteRequest{WorkerID: "w-1", LeaseID: "l-7", Results: []UnitResult{
		{Key: "k1", Executed: true, Point: metrics.Point{
			Offered: 0.35, OfferedMeasured: 0.3481, Throughput: 0.3125, LatencyCyc: 612.5,
			LatencyMs: 0.0245, LatencyP0: 11, LatencyP100: 4096, StdDev: 301.25, Messages: 1234, Sustainable: true,
		}},
		{Key: "k2", Error: "simrun: bad spec"},
	}},
}

// TestWireBytesPinned holds the fleet's wire bytes: the JSON of every
// registry unit (content key and encoded spec) and of each worker
// request. A changed digest means a worker built from an earlier
// commit would no longer read this coordinator's units, or the other
// way round.
func TestWireBytesPinned(t *testing.T) {
	units := registryUnits(t)
	if len(units) != 1028 {
		t.Fatalf("%d registry units, want 1028", len(units))
	}
	h := sha256.New()
	for _, u := range units {
		writeJSONLine(t, h, u)
	}
	for _, m := range wireMessages {
		writeJSONLine(t, h, m)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != pinnedWireDigest {
		t.Errorf("wire digest %s, pinned %s", got, pinnedWireDigest)
	}
}

func writeJSONLine(t testing.TB, w io.Writer, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(append(data, '\n'))
}
