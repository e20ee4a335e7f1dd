package engine

// Batched-replica execution: a ReplicaSet steps R independent
// simulations ("lanes") of one network configuration in lockstep
// through a single clock loop. The lanes differ only in their traffic
// source and PRNG seed (different replication seeds, or adjacent load
// points of one sweep); everything that is a pure function of the
// configuration — the topology, the flattened route table, the
// channel->link map, the fault mask — is built once and shared, and
// the per-lane mutable state (channel ownership, link epochs, source
// queues, pending arrivals, worm pools) is carved out
// of contiguous structure-of-arrays slabs indexed [replica][...]
// (see replica_slabs.go).
//
// Each lane runs the exact scalar engine code (Engine.Step via
// Engine.runTo), so every replica is bit-exact with a standalone
// Engine built from the same Config and seed: identical Stats,
// identical per-channel flit counts, identical random streams. What
// the batching buys is amortization of everything outside the cycle
// loop — one route-table build and verification instead of R, one
// shared read-only arena in cache instead of R copies, R× fewer
// construction allocations — plus the dense slab layout for the
// per-lane state. See DESIGN.md §11 for the measured amortization
// curve.

import (
	"fmt"

	"minsim/internal/routing"
	"minsim/internal/topology"
)

// LaneConfig is the per-replica slice of a ReplicaConfig: the traffic
// source and the seed of the lane's arbitration PRNG stream. A lane
// with Source s and Seed x behaves bit-exactly like New(Config{...,
// Source: s, Seed: x}).
type LaneConfig struct {
	Source Source
	Seed   uint64
}

// ReplicaConfig parameterizes a ReplicaSet: one engine configuration
// (shared by every lane) plus R per-lane sources and seeds.
type ReplicaConfig struct {
	Net    *topology.Network
	Router routing.Router
	// QueueLimit, BufferDepth, Arbitration and FailedChannels have the
	// same meaning and defaults as in Config and apply to every lane.
	QueueLimit     int
	BufferDepth    int
	Arbitration    Arbitration
	FailedChannels []int
	Lanes          []LaneConfig
}

// runQuantum bounds how far one lane may run ahead of another inside
// ReplicaSet.Run: lanes advance in lockstep legs of at most this many
// cycles. The quantum trades lockstep granularity against cache
// residency — a lane's working set stays hot for the whole leg — and
// has no observable effect on results: lanes are independent, and the
// idle-skip accounting is additive over adjacent legs (see
// Engine.runTo). Step remains strictly cycle-by-cycle.
const runQuantum = 1024

// ReplicaSet runs R replicas of one configuration in lockstep. Create
// with NewReplicaSet, then call Step or Run; read each replica's
// results with Stats. Like Engine, a ReplicaSet is not safe for
// concurrent use.
type ReplicaSet struct {
	lanes []Engine // contiguous lane headers; state aliases slabs
	now   int64
	slabs replicaSlabs
}

// NewReplicaSet builds a lockstep engine over the configuration with
// one lane per entry of cfg.Lanes.
func NewReplicaSet(cfg ReplicaConfig) (*ReplicaSet, error) {
	if len(cfg.Lanes) == 0 {
		return nil, fmt.Errorf("engine: replica set needs at least one lane")
	}
	sh, err := buildShared(Config{
		Net:            cfg.Net,
		Router:         cfg.Router,
		QueueLimit:     cfg.QueueLimit,
		BufferDepth:    cfg.BufferDepth,
		Arbitration:    cfg.Arbitration,
		FailedChannels: cfg.FailedChannels,
	})
	if err != nil {
		return nil, err
	}
	rs := &ReplicaSet{
		lanes: make([]Engine, len(cfg.Lanes)),
		slabs: newReplicaSlabs(cfg.Net, sh.sharedLinks, len(cfg.Lanes)),
	}
	for i := range rs.lanes {
		rs.lanes[i].init(sh, rs.slabs.lane(i), cfg.Lanes[i].Source, cfg.Lanes[i].Seed, nil)
		rs.slabs.prime(&rs.lanes[i], i)
	}
	return rs, nil
}

// Replicas returns the number of lanes.
func (rs *ReplicaSet) Replicas() int { return len(rs.lanes) }

// Now returns the current cycle of the shared clock.
func (rs *ReplicaSet) Now() int64 { return rs.now }

// Stats returns a snapshot of replica r's accumulated statistics —
// bit-exact with the Stats of a standalone Engine run over the same
// source, seed and cycle count.
func (rs *ReplicaSet) Stats(r int) Stats { return rs.lanes[r].Stats() }

// SetMeasureFrom sets the measurement start cycle of every lane.
func (rs *ReplicaSet) SetMeasureFrom(cycle int64) {
	for i := range rs.lanes {
		rs.lanes[i].SetMeasureFrom(cycle)
	}
}

// EnableChannelStats turns on per-channel flit counting in every
// lane. Call before running.
func (rs *ReplicaSet) EnableChannelStats() {
	for i := range rs.lanes {
		rs.lanes[i].EnableChannelStats()
	}
}

// ChannelFlits returns replica r's per-channel flit counts, or nil if
// channel statistics were never enabled. The slice is live.
func (rs *ReplicaSet) ChannelFlits(r int) []int64 { return rs.lanes[r].ChannelFlits() }

// TableBytes returns the memory footprint of the shared routing
// structure (stage-factored tables or the dense fallback table) —
// a per-engine cost the lanes split R ways.
func (rs *ReplicaSet) TableBytes() int { return rs.lanes[0].RoutingBytes() }

// Step advances every lane by exactly one cycle, in lane order — the
// strict per-cycle lockstep loop. The steady-state per-lane cost must
// match the scalar Step contract: 0 allocations per cycle.
//
//simvet:hotpath
func (rs *ReplicaSet) Step() {
	for i := range rs.lanes {
		rs.lanes[i].Step()
	}
	rs.now++
}

// Run advances every lane by the given number of cycles through the
// shared clock loop: lanes proceed in lockstep legs of at most
// runQuantum cycles, each leg skipping a lane's provably idle
// stretches exactly like the scalar Run. After Run returns, every
// lane's clock equals the shared clock. Compute is proportional to
// cycles x lanes with no internal cancellation point; callers chunk
// (cancelQuantum legs).
//
//simvet:hotpath
//simvet:blocking — compute proportional to cycles x lanes, no cancellation point
func (rs *ReplicaSet) Run(cycles int64) {
	target := rs.now + cycles
	for rs.now < target {
		leg := rs.now + runQuantum
		if leg > target {
			leg = target
		}
		for i := range rs.lanes {
			rs.lanes[i].runTo(leg)
		}
		rs.now = leg
	}
}

// CheckInvariants verifies the internal consistency of every lane; it
// returns the first violation or nil.
func (rs *ReplicaSet) CheckInvariants() error {
	for i := range rs.lanes {
		if err := rs.lanes[i].CheckInvariants(); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		if rs.lanes[i].Now() != rs.now {
			return fmt.Errorf("replica %d: clock %d, set clock %d", i, rs.lanes[i].Now(), rs.now)
		}
	}
	return nil
}
