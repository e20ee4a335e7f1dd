package fleet

import (
	"bytes"
	"io"
	"maps"
	"slices"
	"strings"

	"minsim/internal/metrics"
)

// WriteMetrics renders the coordinator's fleet state in the
// Prometheus text format; internal/server appends it to /metrics.
// The per-worker executed/cached counters and the duplicate counter
// are the observables the fleet e2e gate asserts on: a clean cold run
// shows every worker executing and zero duplicates.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	// Rendered into memory under the lock, so a slow reader of w never holds it.
	var buf bytes.Buffer
	p := metrics.Prom{W: &buf}
	c.mu.Lock()
	c.expireLocked(c.now())
	pending := 0
	for _, u := range c.queue {
		if !u.done {
			pending++
		}
	}
	leased := 0
	for _, l := range c.leases {
		for _, u := range l.units {
			if !u.done {
				leased++
			}
		}
	}
	p.Gauge("fleet_workers_registered", "Workers that have joined the fleet.", int64(len(c.workers)))
	p.Gauge("fleet_units_pending", "Units queued waiting for a lease.", int64(pending))
	p.Gauge("fleet_units_leased", "Units currently out on live leases.", int64(leased))
	p.Gauge("fleet_lease_waiters", "Lease calls held waiting for a unit: idle workers.", c.waiters.Load())
	p.Counter("fleet_leases_granted_total", "Leases handed to workers.", c.leasesGranted)
	p.Counter("fleet_leases_expired_total", "Leases that missed their heartbeat window.", c.leasesExpired)
	p.Counter("fleet_units_requeued_total", "Units re-leased after worker loss.", c.unitsRequeued)
	p.Counter("fleet_units_completed_total", "Units finished successfully.", c.unitsCompleted)
	p.Counter("fleet_units_failed_total", "Units failed (deterministic error or attempts exhausted).", c.unitsFailed)
	p.Counter("fleet_duplicate_executions_total", "Executed results delivered for already-completed units.", c.duplicates)
	p.Counter("fleet_store_gets_total", "Shared-store lookups served to workers.", c.storeGets)
	p.Counter("fleet_store_puts_total", "Shared-store write-throughs from workers.", c.storePuts)

	rows := slices.SortedFunc(maps.Values(c.workers), func(a, b *workerState) int { return strings.Compare(a.name, b.name) })
	p.Family("fleet_worker_points_executed_total", "counter", "Units freshly simulated, by worker.")
	for _, r := range rows {
		p.Sample("fleet_worker_points_executed_total", "worker", r.name, r.executed)
	}
	p.Family("fleet_worker_points_cached_total", "counter", "Units served from the shared store, by worker.")
	for _, r := range rows {
		p.Sample("fleet_worker_points_cached_total", "worker", r.name, r.cached)
	}
	p.Family("fleet_worker_active_leases", "gauge", "Live leases held, by worker.")
	for _, r := range rows {
		p.Sample("fleet_worker_active_leases", "worker", r.name, int64(r.activeLeases))
	}
	c.mu.Unlock()
	w.Write(buf.Bytes())
}

// WriteMetrics renders the worker-side counters; cmd/simd appends
// them to its own /metrics when running in fleet mode.
func (wk *Worker) WriteMetrics(w io.Writer) {
	p := metrics.Prom{W: w}
	p.Counter("simd_worker_leases_total", "Leases this worker has executed.", wk.leases.Load())
	p.Counter("simd_worker_points_executed_total", "Units freshly simulated by this worker.", wk.executed.Load())
	p.Counter("simd_worker_points_cached_total", "Units this worker served from the shared store.", wk.cachedPts.Load())
	p.Counter("simd_worker_units_failed_total", "Units that failed on this worker.", wk.failedUnits.Load())
	p.Counter("simd_worker_heartbeat_lost_total", "Leases lost to a 410 heartbeat.", wk.heartbeatLost.Load())
	p.Counter("simd_worker_complete_failures_total", "Result deliveries abandoned after retries.", wk.completeFails.Load())
	st := wk.store.Stats()
	p.Counter("simd_worker_store_hits_total", "Shared-store lookups that hit.", st.Hits)
	p.Counter("simd_worker_store_misses_total", "Shared-store lookups that missed.", st.Misses)
	p.Counter("simd_worker_store_write_failures_total", "Shared-store write-throughs that failed.", st.WriteFails)
}
