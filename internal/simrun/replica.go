package simrun

// Replica-aware execution: plan points that share a topology and a
// cycle budget — the R replications of one load point, and adjacent
// load points of one sweep alike — batch into a single lockstep
// engine.ReplicaSet instead of R independent scalar engines. The
// batching is purely an execution-layer concern: every point keeps
// its own RunSpec, content key and Store entry, every lane of the
// ReplicaSet is bit-exact with the scalar engine for the same spec
// (the repo's replica bit-exactness suite pins this), so cache
// entries written by either path are interchangeable.

import (
	"context"
	"fmt"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/topology"
)

// maxLanesPerSet caps the lanes batched into one ReplicaSet. Past
// ~16 lanes the amortization of shared construction and read-only
// state has flattened out (see DESIGN.md §11) while the unit — the
// worker pool's scheduling granule — keeps getting coarser, so larger
// groups split into several sets that can run on different workers.
const maxLanesPerSet = 16

// laneNodeBudget bounds lanes × nodes per ReplicaSet. Slab memory
// grows with lanes × channels, so wide sets of large-N points would
// trade a few percent of throughput for hundreds of megabytes of
// mutable state; 2^18 node-lanes keeps a set's slabs in the tens of
// megabytes at any size while leaving every paper-scale (64-node)
// group at the full maxLanesPerSet width.
const laneNodeBudget = 1 << 18

// laneWidth returns the widest ReplicaSet points over this network
// should join. Two inputs. Family: BMIN lockstep batching measured a
// wash at commit c46d25e (replica speedups 0.93–1.05x vs scalar, where
// the unidirectional families gain up to 11% at R >= 4 — the
// turnaround candidate sets make lockstep lanes diverge too much for
// the SoA slabs to pay), so BMIN points run scalar and skip the
// ReplicaSet overhead entirely. Size: the node budget above caps the
// width of large-N groups.
func laneWidth(net NetworkSpec) int {
	if net.Kind == topology.BMIN {
		return 1
	}
	nodes := net.Nodes()
	if nodes <= 0 {
		return 1
	}
	w := laneNodeBudget / nodes
	switch {
	case w < 1:
		return 1
	case w > maxLanesPerSet:
		return maxLanesPerSet
	}
	return w
}

// batchKey identifies the plan points that may share one ReplicaSet:
// everything engine lanes share must be equal — the network, the
// buffer depth, the arbitration policy, the queue watermark — plus
// the cycle budget, because lanes of one set advance to the same
// target on one clock. Load, workload and seed may differ per lane.
type batchKey struct {
	net             NetworkSpec // canonical
	warmup, measure int64
	queueLimit      int
	bufferDepth     int
	arbitration     engine.Arbitration
}

// batchUnits partitions the pending point-runs into scheduling units:
// spec-described points grouped by batchKey (split at the network's
// laneWidth — maxLanesPerSet for paper-scale unidirectional nets,
// narrower for large-N, singleton for BMIN), opaque points as
// singletons. Units come out in first-appearance order and each unit
// preserves plan order, so execution results are independent of how
// the map buckets — every point's result is a pure function of its
// spec anyway, this just keeps scheduling and progress reporting
// deterministic.
func batchUnits(pending []*pointRun, workers int) [][]*pointRun {
	var units [][]*pointRun
	groupOf := map[batchKey]int{}
	for _, r := range pending {
		if r.fn != nil {
			units = append(units, []*pointRun{r})
			continue
		}
		key := batchKey{
			net:         r.spec.Net.canon(),
			warmup:      r.spec.Warmup,
			measure:     r.spec.Measure,
			queueLimit:  r.spec.QueueLimit,
			bufferDepth: r.spec.BufferDepth,
			arbitration: r.spec.Arbitration,
		}
		if gi, ok := groupOf[key]; ok && len(units[gi]) < laneWidth(key.net) {
			units[gi] = append(units[gi], r)
			continue
		}
		groupOf[key] = len(units)
		units = append(units, []*pointRun{r})
	}
	// With fewer units than workers, halving oversized units (down to
	// 2 lanes) trades some amortization back for parallelism.
	for len(units) < workers {
		widest := 0
		for i, u := range units {
			if len(u) > len(units[widest]) {
				widest = i
			}
		}
		if len(units[widest]) < 4 {
			break
		}
		mid := len(units[widest]) / 2
		units = append(units, units[widest][mid:])
		units[widest] = units[widest][:mid]
	}
	return units
}

// cancelQuantum bounds how many cycles a batch simulates between
// context checks. A single scalar point has always been
// non-preemptible for its whole run; a batch is up to maxLanesPerSet
// points, so without a mid-run check, cancellation latency would grow
// with the batch width. At ~2 µs per replica-cycle, 8192 cycles x 16
// lanes keeps the worst case around a quarter second.
const cancelQuantum = 8192

// runBatch simulates a same-key batch of spec points in lockstep on
// one ReplicaSet. Per-lane failures (a workload that cannot realize
// its load on this network) stay per-point: the healthy lanes still
// run batched. Cancellation mid-run marks every lane of the batch
// with the context error — none of them has a complete result — so a
// re-Execute re-runs them.
func runBatch(ctx context.Context, unit []*pointRun, nets *NetCache) {
	net, err := nets.get(unit[0].spec.Net)
	if err != nil {
		for _, r := range unit {
			r.err = fmt.Errorf("simrun: %s: %w", r.spec, err)
		}
		return
	}
	live := unit[:0:0]
	cfg := engine.ReplicaConfig{
		Net:         net,
		QueueLimit:  unit[0].spec.QueueLimit,
		BufferDepth: unit[0].spec.BufferDepth,
		Arbitration: unit[0].spec.Arbitration,
	}
	for _, r := range unit {
		src, err := r.spec.Work.Factory(net)(r.spec.Load, r.spec.Seed)
		if err != nil {
			r.err = fmt.Errorf("simrun: %s: %w", r.spec, err)
			continue
		}
		// The same (seed -> engine stream) derivation as the scalar
		// PointConfig.Simulate — lane r must consume the exact random
		// stream of a scalar run of the same spec.
		cfg.Lanes = append(cfg.Lanes, engine.LaneConfig{Source: src, Seed: r.spec.Seed ^ 0xd1b54a32d192ed03})
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	rs, err := engine.NewReplicaSet(cfg)
	if err != nil {
		for _, r := range live {
			r.err = fmt.Errorf("simrun: %s: %w", r.spec, err)
		}
		return
	}
	warmup, measure := unit[0].spec.Warmup, unit[0].spec.Measure
	rs.SetMeasureFrom(warmup)
	for left := warmup + measure; left > 0; {
		if err := ctx.Err(); err != nil {
			for _, r := range live {
				r.err = fmt.Errorf("simrun: %s: %w", r.spec, err)
			}
			return
		}
		leg := int64(cancelQuantum)
		if left < leg {
			leg = left
		}
		rs.Run(leg)
		left -= leg
	}
	for i, r := range live {
		r.pt = metrics.FromStats(r.spec.Load, net.Nodes, rs.Stats(i))
	}
}
