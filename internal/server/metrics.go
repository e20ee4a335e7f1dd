package server

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"minsim/internal/metrics"
)

// registry holds the service counters exported on /metrics. Plain
// atomics — the counter set is small and fixed, so pulling in a
// metrics dependency would buy nothing.
type registry struct {
	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64
	jobsRejected atomic.Int64 // admission-control 429s

	pointsExecuted atomic.Int64
	pointsCached   atomic.Int64

	jobDurationMicros atomic.Int64 // sum over finished jobs
	jobsFinished      atomic.Int64

	http [4]atomic.Int64 // responses by status class, 2xx to 5xx
}

// countHTTP counts a response in its status class; codes outside 2xx to
// 5xx are not counted.
func (r *registry) countHTTP(code int) {
	if class := code/100 - 2; class >= 0 && class < len(r.http) {
		r.http[class].Add(1)
	}
}

// recordJob accumulates a finished job's outcome into the registry.
func (r *registry) recordJob(s jobSnapshot) {
	switch s.Status {
	case statusDone:
		r.jobsDone.Add(1)
	case statusFailed:
		r.jobsFailed.Add(1)
	case statusCanceled:
		r.jobsCanceled.Add(1)
	}
	r.pointsExecuted.Add(int64(s.Counters.Executed))
	r.pointsCached.Add(int64(s.Counters.Cached))
	r.jobDurationMicros.Add(s.DurationMs * 1000)
	r.jobsFinished.Add(1)
}

// writePrometheus renders the counters in the Prometheus text
// exposition format (text/plain; version=0.0.4).
func (r *registry) writePrometheus(w io.Writer, m *manager) {
	p := metrics.Prom{W: w}
	up := int64(1)
	if m.draining.Load() {
		up = 0
	}
	p.Gauge("simd_ready", "1 while accepting jobs, 0 while draining.", up)
	p.Gauge("simd_queue_depth", "Jobs waiting in the admission queue.", int64(m.queueDepth()))
	p.Gauge("simd_queue_capacity", "Admission queue bound; a full queue rejects with 429.", int64(cap(m.queue)))
	p.Gauge("simd_jobs_inflight", "Jobs currently executing.", m.inflight.Load())

	p.Family("simd_jobs_total", "counter", "Jobs by terminal outcome (rejected = refused at admission).")
	p.Sample("simd_jobs_total", "status", "done", r.jobsDone.Load())
	p.Sample("simd_jobs_total", "status", "failed", r.jobsFailed.Load())
	p.Sample("simd_jobs_total", "status", "canceled", r.jobsCanceled.Load())
	p.Sample("simd_jobs_total", "status", "rejected", r.jobsRejected.Load())

	p.Counter("simd_points_executed_total", "Load points simulated by finished jobs.", r.pointsExecuted.Load())
	p.Counter("simd_points_cached_total", "Load points served from the result store by finished jobs.", r.pointsCached.Load())

	st := m.store.Stats()
	p.Counter("simd_cache_hits_total", "Result-store lookups answered from memory or disk.", st.Hits)
	p.Counter("simd_cache_memory_hits_total", "Result-store lookups answered from memory (a share of simd_cache_hits_total).", m.store.memHits.Load())
	p.Counter("simd_cache_misses_total", "Result-store lookups that fell through to simulation.", st.Misses)
	p.Counter("simd_cache_write_failures_total", "Result-store writes that could not be persisted.", st.WriteFails)

	p.Family("simd_job_duration_seconds", "summary", "Wall-clock time of finished jobs.")
	fmt.Fprintf(w, "simd_job_duration_seconds_sum %g\n", float64(r.jobDurationMicros.Load())/1e6)
	fmt.Fprintf(w, "simd_job_duration_seconds_count %d\n", r.jobsFinished.Load())

	p.Family("simd_http_requests_total", "counter", "HTTP responses by status class.")
	for class := range r.http {
		p.Sample("simd_http_requests_total", "class", strconv.Itoa(class+2)+"xx", r.http[class].Load())
	}
}
