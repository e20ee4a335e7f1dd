// Package fleet is the distributed execution layer over the simrun
// plan: a Coordinator decomposes a plan's hashable points into
// content-key work units and leases them in chunks to registered
// Workers over HTTP, with heartbeat-based lease expiry and requeue on
// worker loss. The cache topology is a single shared simrun.Store
// owned by the coordinator and exposed over HTTP (RemoteStore), so a
// key warm anywhere in the fleet executes nowhere: workers consult
// the shared store before simulating and write fresh results back
// through it before reporting completion.
//
// The protocol is pull-based — workers ask for leases, the
// coordinator never dials out — and worker death is a purely passive
// event: a lease whose heartbeats stop simply expires and its units
// requeue. A lease call that finds nothing queued is held by the
// coordinator until there is something to grant (or a hold shorter
// than the client's timeout runs out), so an idle worker is a parked
// call, woken by the unit that needs it, not a poll loop.
//
// Endpoints (mounted by internal/server under /fleet/v1/):
//
//	POST /fleet/v1/register    join the fleet, get a worker id
//	POST /fleet/v1/lease       pull a chunk of units (held while there are none)
//	POST /fleet/v1/heartbeat   keep a lease alive (410 = lease gone)
//	POST /fleet/v1/complete    deliver unit results
//	GET  /fleet/v1/store/{key} shared-store lookup
//	PUT  /fleet/v1/store/{key} shared-store write-through
package fleet

import (
	"fmt"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// WireSpec is the explicit JSON mirror of simrun.RunSpec. Every field
// that feeds RunSpec.Key appears here under a stable tag, so a unit's
// content key can be recomputed — and verified — on the far side of
// the wire. Enum fields travel as their integer values; the schema
// lock (docs/wire.lock) pins the layout.
//
//simvet:wire
type WireSpec struct {
	NetKind    int `json:"net_kind"`
	NetPattern int `json:"net_pattern,omitempty"`
	K          int `json:"k"`
	Stages     int `json:"stages"`
	Dilation   int `json:"dilation,omitempty"`
	VCs        int `json:"vcs,omitempty"`
	Extra      int `json:"extra,omitempty"`

	Cluster     int            `json:"cluster,omitempty"`
	PatternKind int            `json:"pattern_kind,omitempty"`
	HotX        float64        `json:"hot_x,omitempty"`
	Butterfly   int            `json:"butterfly,omitempty"`
	PermName    string         `json:"perm_name,omitempty"`
	Trace       []traffic.Pair `json:"trace,omitempty"`
	AdvIters    int            `json:"adv_iters,omitempty"`

	ArrivalKind int     `json:"arrival_kind,omitempty"`
	Burst       float64 `json:"burst,omitempty"`
	DwellHi     float64 `json:"dwell_hi,omitempty"`
	DwellLo     float64 `json:"dwell_lo,omitempty"`

	Ratios  []float64        `json:"ratios,omitempty"`
	Lengths *traffic.Lengths `json:"lengths,omitempty"` // nil = the paper's U{8..1024}

	Load        float64 `json:"load"`
	Warmup      int64   `json:"warmup"`
	Measure     int64   `json:"measure"`
	Seed        uint64  `json:"seed"`
	BufferDepth int     `json:"buffer_depth,omitempty"`
	Arbitration int     `json:"arbitration,omitempty"`
}

// EncodeSpec converts a RunSpec to its wire form. It fails on a length
// distribution Validate rejects, which includes every unknown kind
// Key rejects.
func EncodeSpec(rs simrun.RunSpec) (WireSpec, error) {
	w := WireSpec{
		NetKind:    int(rs.Net.Kind),
		NetPattern: int(rs.Net.Pattern),
		K:          rs.Net.K,
		Stages:     rs.Net.Stages,
		Dilation:   rs.Net.Dilation,
		VCs:        rs.Net.VCs,
		Extra:      rs.Net.Extra,

		Cluster:     int(rs.Work.Cluster),
		PatternKind: int(rs.Work.Pattern.Kind),
		HotX:        rs.Work.Pattern.HotX,
		Butterfly:   rs.Work.Pattern.Butterfly,
		PermName:    rs.Work.Pattern.Name,
		Trace:       rs.Work.Pattern.Trace,
		AdvIters:    rs.Work.Pattern.AdvIters,

		ArrivalKind: int(rs.Work.Arrival.Kind),
		Burst:       rs.Work.Arrival.Burst,
		DwellHi:     rs.Work.Arrival.DwellHi,
		DwellLo:     rs.Work.Arrival.DwellLo,

		Ratios:  rs.Work.Ratios,
		Lengths: rs.Work.Lengths,

		Load:        rs.Load,
		Warmup:      rs.Warmup,
		Measure:     rs.Measure,
		Seed:        rs.Seed,
		BufferDepth: rs.BufferDepth,
		Arbitration: int(rs.Arbitration),
	}
	if w.Lengths != nil {
		if err := w.Lengths.Validate(); err != nil {
			return WireSpec{}, fmt.Errorf("fleet: %w", err)
		}
	}
	return w, nil
}

// DecodeSpec converts a wire spec back to a RunSpec, failing on a
// length distribution Validate rejects. The pair (EncodeSpec,
// DecodeSpec) round-trips every encodable spec key-identically: the
// worker recomputes RunSpec.Key on the decoded spec and refuses a unit
// whose key does not match.
func DecodeSpec(w WireSpec) (simrun.RunSpec, error) {
	rs := simrun.RunSpec{
		Net: simrun.NetworkSpec{
			Kind:     topology.Kind(w.NetKind),
			Pattern:  topology.Pattern(w.NetPattern),
			K:        w.K,
			Stages:   w.Stages,
			Dilation: w.Dilation,
			VCs:      w.VCs,
			Extra:    w.Extra,
		},
		Work: simrun.WorkloadSpec{
			Cluster: simrun.ClusterSpec(w.Cluster),
			Pattern: simrun.PatternSpec{
				Kind:      simrun.PatternKind(w.PatternKind),
				HotX:      w.HotX,
				Butterfly: w.Butterfly,
				Name:      w.PermName,
				Trace:     w.Trace,
				AdvIters:  w.AdvIters,
			},
			Arrival: simrun.ArrivalSpec{
				Kind:    simrun.ArrivalKind(w.ArrivalKind),
				Burst:   w.Burst,
				DwellHi: w.DwellHi,
				DwellLo: w.DwellLo,
			},
			Ratios:  w.Ratios,
			Lengths: w.Lengths,
		},
		Load:        w.Load,
		Warmup:      w.Warmup,
		Measure:     w.Measure,
		Seed:        w.Seed,
		BufferDepth: w.BufferDepth,
		Arbitration: engine.Arbitration(w.Arbitration),
	}
	if w.Lengths != nil {
		if err := w.Lengths.Validate(); err != nil {
			return simrun.RunSpec{}, fmt.Errorf("fleet: %w", err)
		}
	}
	return rs, nil
}

// Unit is one leased work item: a content key and the spec that
// produces it.
//
//simvet:wire
type Unit struct {
	Key  string   `json:"key"`
	Spec WireSpec `json:"spec"`
}

// RegisterRequest is the body of POST /fleet/v1/register.
//
//simvet:wire
type RegisterRequest struct {
	Name string `json:"name"` // human-readable worker name for metrics
}

// RegisterResponse tells the worker its id and the protocol
// parameters the coordinator runs with.
//
//simvet:wire
type RegisterResponse struct {
	WorkerID   string `json:"worker_id"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"` // heartbeat at least 3x faster than this
	Chunk      int    `json:"chunk"`        // max units per lease
}

// LeaseRequest is the body of POST /fleet/v1/lease.
//
//simvet:wire
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse carries a granted lease. With Units empty the held
// call ended with nothing to grant: ask again — at once, unless WaitMs
// is set, which only a draining coordinator does (it no longer holds
// calls, so the worker must supply the pause itself).
//
//simvet:wire
type LeaseResponse struct {
	LeaseID string `json:"lease_id,omitempty"`
	Units   []Unit `json:"units,omitempty"`
	WaitMs  int64  `json:"wait_ms,omitempty"` // back-off before the next call; 0 = none
}

// HeartbeatRequest is the body of POST /fleet/v1/heartbeat. A 410
// response means the lease already expired; the worker abandons its
// units (they have been requeued).
//
//simvet:wire
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// UnitResult is one unit's outcome inside a CompleteRequest. Executed
// distinguishes a fresh simulation from a shared-store hit, which is
// what lets the coordinator prove no key executed twice. Error is a
// deterministic failure (bad spec, key mismatch, simulation error);
// the coordinator fails the unit without retry, because a
// deterministic error will not pass on another worker.
//
//simvet:wire
type UnitResult struct {
	Key      string        `json:"key"`
	Point    metrics.Point `json:"point"`
	Executed bool          `json:"executed"`
	Error    string        `json:"error,omitempty"`
}

// CompleteRequest is the body of POST /fleet/v1/complete. Results
// from an expired lease are still salvaged for units nobody else
// finished first.
//
//simvet:wire
type CompleteRequest struct {
	WorkerID string       `json:"worker_id"`
	LeaseID  string       `json:"lease_id"`
	Results  []UnitResult `json:"results"`
}

// StoreEntry is the GET/PUT body of the shared-store endpoints. Key
// is repeated inside the body so a response routed to the wrong key
// can never be trusted, mirroring the on-disk entry layout.
//
//simvet:wire
type StoreEntry struct {
	Key   string        `json:"key"`
	Spec  string        `json:"spec"`
	Point metrics.Point `json:"point"`
}
