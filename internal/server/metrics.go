package server

import (
	"fmt"
	"io"
	"sync/atomic"
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

	http2xx   atomic.Int64
	http3xx   atomic.Int64
	http4xx   atomic.Int64
	http5xx   atomic.Int64
	httpOther atomic.Int64
}

// countHTTP buckets a response code into its class counter.
func (r *registry) countHTTP(code int) {
	switch {
	case code >= 200 && code < 300:
		r.http2xx.Add(1)
	case code >= 300 && code < 400:
		r.http3xx.Add(1)
	case code >= 400 && code < 500:
		r.http4xx.Add(1)
	case code >= 500 && code < 600:
		r.http5xx.Add(1)
	default:
		r.httpOther.Add(1)
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
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	up := int64(1)
	if m.draining.Load() {
		up = 0
	}
	gauge("simd_ready", "1 while accepting jobs, 0 while draining.", up)
	gauge("simd_queue_depth", "Jobs waiting in the admission queue.", int64(m.queueDepth()))
	gauge("simd_queue_capacity", "Admission queue bound; a full queue rejects with 429.", int64(cap(m.queue)))
	gauge("simd_jobs_inflight", "Jobs currently executing.", m.inflight.Load())

	fmt.Fprintf(w, "# HELP simd_jobs_total Jobs by terminal outcome (rejected = refused at admission).\n# TYPE simd_jobs_total counter\n")
	fmt.Fprintf(w, "simd_jobs_total{status=\"done\"} %d\n", r.jobsDone.Load())
	fmt.Fprintf(w, "simd_jobs_total{status=\"failed\"} %d\n", r.jobsFailed.Load())
	fmt.Fprintf(w, "simd_jobs_total{status=\"canceled\"} %d\n", r.jobsCanceled.Load())
	fmt.Fprintf(w, "simd_jobs_total{status=\"rejected\"} %d\n", r.jobsRejected.Load())

	counter("simd_points_executed_total", "Load points simulated by finished jobs.", r.pointsExecuted.Load())
	counter("simd_points_cached_total", "Load points served from the result store by finished jobs.", r.pointsCached.Load())

	st := m.store.Stats()
	counter("simd_cache_hits_total", "Result-store lookups answered from memory or disk.", st.Hits)
	counter("simd_cache_memory_hits_total", "Result-store lookups answered from memory (a share of simd_cache_hits_total).", m.store.memHits.Load())
	counter("simd_cache_misses_total", "Result-store lookups that fell through to simulation.", st.Misses)
	counter("simd_cache_write_failures_total", "Result-store writes that could not be persisted.", st.WriteFails)

	fmt.Fprintf(w, "# HELP simd_job_duration_seconds Wall-clock time of finished jobs.\n# TYPE simd_job_duration_seconds summary\n")
	fmt.Fprintf(w, "simd_job_duration_seconds_sum %g\n", float64(r.jobDurationMicros.Load())/1e6)
	fmt.Fprintf(w, "simd_job_duration_seconds_count %d\n", r.jobsFinished.Load())

	fmt.Fprintf(w, "# HELP simd_http_requests_total HTTP responses by status class.\n# TYPE simd_http_requests_total counter\n")
	fmt.Fprintf(w, "simd_http_requests_total{class=\"2xx\"} %d\n", r.http2xx.Load())
	fmt.Fprintf(w, "simd_http_requests_total{class=\"3xx\"} %d\n", r.http3xx.Load())
	fmt.Fprintf(w, "simd_http_requests_total{class=\"4xx\"} %d\n", r.http4xx.Load())
	fmt.Fprintf(w, "simd_http_requests_total{class=\"5xx\"} %d\n", r.http5xx.Load())
}
