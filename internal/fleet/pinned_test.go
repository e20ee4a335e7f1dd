package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// pinnedWireDigest is the first 16 hex digits of the SHA-256 over the
// JSON of every registry unit and one of each worker request (see
// wireMessages). Unit keys hash the engine fingerprint, so the digest
// holds only while simrun's pinned fingerprint does.
const pinnedWireDigest = "08be1d2bf7a311e0"

// pinnedReplyDigest is the first 16 hex digits of the SHA-256 over the
// coordinator's replies in TestCoordinatorRepliesPinned. Its units'
// keys hash the engine fingerprint too.
const pinnedReplyDigest = "90f6d36be1bf9848"

// registryUnits is every point of the paper figures and extensions as
// `minsim figures -quick -extensions -warmup 100 -measure 300 -seed 777`
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

// extraUnits are three units the registry lacks: a trace replay, an
// adversarial search with its iteration count set, and a fixed message
// length.
func extraUnits(t *testing.T) []simrun.DispatchUnit {
	t.Helper()
	net := simrun.NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2}
	works := []simrun.WorkloadSpec{
		{Pattern: simrun.PatternSpec{Kind: simrun.TraceReplay, Trace: []traffic.Pair{{Src: 1, Dst: 2}, {Src: 7, Dst: 0}}}},
		{Pattern: simrun.PatternSpec{Kind: simrun.Adversarial, AdvIters: 64}},
		{Pattern: simrun.PatternSpec{Kind: simrun.Uniform}, Lengths: &traffic.Lengths{Kind: "fixed", L: 32}},
	}
	units := make([]simrun.DispatchUnit, len(works))
	for i, w := range works {
		rs := simrun.RunSpec{Net: net, Work: w, Load: 0.25, Warmup: 100, Measure: 300, Seed: simrun.DeriveSeed(777, i)}
		key, err := rs.Key()
		if err != nil {
			t.Fatalf("unit %d: Key: %v", i, err)
		}
		units[i] = simrun.DispatchUnit{Key: key, Spec: rs}
	}
	return units
}

// TestCoordinatorRepliesPinned holds what the coordinator answers a
// worker: the registration, a lease granting the three extraUnits, a
// shared-store entry and a draining coordinator's back-off, each status
// and body in the digest. TestWireBytesPinned holds what workers send.
func TestCoordinatorRepliesPinned(t *testing.T) {
	c, _ := testCoordinator(t, Config{ChunkSize: 4})
	h := c.Handler()
	var replies bytes.Buffer
	serve := func(method, path string, body any, wantCode int) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data)))
		if rec.Code != wantCode {
			t.Fatalf("%s %s: code %d, want %d: %s", method, path, rec.Code, wantCode, rec.Body)
		}
		fmt.Fprintf(&replies, "%s %s %d %s\n", method, path, rec.Code, strings.TrimSuffix(rec.Body.String(), "\n"))
		return rec.Body.Bytes()
	}
	decode := func(data []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatal(err)
		}
	}

	var reg RegisterResponse
	decode(serve("POST", "/fleet/v1/register", RegisterRequest{Name: "pin"}, http.StatusOK), &reg)
	units := extraUnits(t)
	done := dispatchAsync(c, context.Background(), units, newSink())
	var lease LeaseResponse
	decode(serve("POST", "/fleet/v1/lease", LeaseRequest{WorkerID: reg.WorkerID}, http.StatusOK), &lease)
	if len(lease.Units) != len(units) {
		t.Fatalf("lease granted %d units, want %d", len(lease.Units), len(units))
	}
	key := units[0].Key
	pt := metrics.Point{Offered: 0.25, OfferedMeasured: 0.2481, Throughput: 0.2375, LatencyCyc: 301.5, LatencyMs: 0.012, LatencyP0: 9, LatencyP100: 880, StdDev: 120.25, Messages: 321, Sustainable: true}
	serve("PUT", "/fleet/v1/store/"+key, StoreEntry{Key: key, Spec: units[0].Spec.String(), Point: pt}, http.StatusNoContent)
	serve("GET", "/fleet/v1/store/"+key, nil, http.StatusOK)
	serve("POST", "/fleet/v1/complete", CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lease.LeaseID, Results: leaseResults(lease)}, http.StatusNoContent)
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	c.Release()
	serve("POST", "/fleet/v1/lease", LeaseRequest{WorkerID: reg.WorkerID}, http.StatusOK)

	sum := sha256.Sum256(replies.Bytes())
	if got := hex.EncodeToString(sum[:])[:16]; got != pinnedReplyDigest {
		t.Errorf("reply digest %s, pinned %s; the replies:\n%s", got, pinnedReplyDigest, replies.Bytes())
	}
}
