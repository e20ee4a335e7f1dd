package fleet

import (
	"fmt"
	"io"
	"sort"
)

// WriteMetrics renders the coordinator's fleet state in the
// Prometheus text format; internal/server appends it to /metrics.
// The per-worker executed/cached counters and the duplicate counter
// are the observables the fleet e2e gate asserts on: a clean cold run
// shows every worker executing and zero duplicates.
func (c *Coordinator) WriteMetrics(w io.Writer) {
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
	type row struct {
		name             string
		executed, cached int64
		activeLeases     int
	}
	rows := make([]row, 0, len(c.workers))
	for _, ws := range c.workers {
		rows = append(rows, row{ws.name, ws.executed, ws.cached, ws.activeLeases})
	}
	snap := struct {
		workers                                             int
		pending, leased                                     int
		granted, expired, requeued, completed, failed, dups int64
		gets, puts                                          int64
	}{
		len(c.workers), pending, leased,
		c.leasesGranted, c.leasesExpired, c.unitsRequeued, c.unitsCompleted, c.unitsFailed, c.duplicates,
		c.storeGets, c.storePuts,
	}
	c.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("fleet_workers_registered", "Workers that have joined the fleet.", int64(snap.workers))
	gauge("fleet_units_pending", "Units queued waiting for a lease.", int64(snap.pending))
	gauge("fleet_units_leased", "Units currently out on live leases.", int64(snap.leased))
	gauge("fleet_lease_waiters", "Lease calls held waiting for a unit: idle workers.", c.waiters.Load())
	counter("fleet_leases_granted_total", "Leases handed to workers.", snap.granted)
	counter("fleet_leases_expired_total", "Leases that missed their heartbeat window.", snap.expired)
	counter("fleet_units_requeued_total", "Units re-leased after worker loss.", snap.requeued)
	counter("fleet_units_completed_total", "Units finished successfully.", snap.completed)
	counter("fleet_units_failed_total", "Units failed (deterministic error or attempts exhausted).", snap.failed)
	counter("fleet_duplicate_executions_total", "Executed results delivered for already-completed units.", snap.dups)
	counter("fleet_store_gets_total", "Shared-store lookups served to workers.", snap.gets)
	counter("fleet_store_puts_total", "Shared-store write-throughs from workers.", snap.puts)

	fmt.Fprintf(w, "# HELP fleet_worker_points_executed_total Units freshly simulated, by worker.\n# TYPE fleet_worker_points_executed_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "fleet_worker_points_executed_total{worker=%q} %d\n", r.name, r.executed)
	}
	fmt.Fprintf(w, "# HELP fleet_worker_points_cached_total Units served from the shared store, by worker.\n# TYPE fleet_worker_points_cached_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "fleet_worker_points_cached_total{worker=%q} %d\n", r.name, r.cached)
	}
	fmt.Fprintf(w, "# HELP fleet_worker_active_leases Live leases held, by worker.\n# TYPE fleet_worker_active_leases gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "fleet_worker_active_leases{worker=%q} %d\n", r.name, r.activeLeases)
	}
}

// WriteMetrics renders the worker-side counters; cmd/simd appends
// them to its own /metrics when running in fleet mode.
func (wk *Worker) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("simd_worker_leases_total", "Leases this worker has executed.", wk.leases.Load())
	counter("simd_worker_points_executed_total", "Units freshly simulated by this worker.", wk.executed.Load())
	counter("simd_worker_points_cached_total", "Units this worker served from the shared store.", wk.cachedPts.Load())
	counter("simd_worker_units_failed_total", "Units that failed on this worker.", wk.failedUnits.Load())
	counter("simd_worker_heartbeat_lost_total", "Leases lost to a 410 heartbeat.", wk.heartbeatLost.Load())
	counter("simd_worker_complete_failures_total", "Result deliveries abandoned after retries.", wk.completeFails.Load())
	st := wk.store.Stats()
	counter("simd_worker_store_hits_total", "Shared-store lookups that hit.", st.Hits)
	counter("simd_worker_store_misses_total", "Shared-store lookups that missed.", st.Misses)
	counter("simd_worker_store_write_failures_total", "Shared-store write-throughs that failed.", st.WriteFails)
}
