// Package server implements simd, the HTTP simulation service over
// the simrun run-plan layer. It accepts sweep/figure requests in the
// repo's existing JSON experiment vocabulary, schedules them as
// deduplicated simrun plans on a bounded job queue sharing one
// content-addressed result store, and streams progress snapshots.
//
// The service is hardened the way an inference server is hardened:
//
//   - admission control with backpressure — a bounded queue; a full
//     queue rejects with 429 and a Retry-After hint, and request
//     bodies and cycle budgets are capped before any work is queued;
//   - per-job timeouts and per-request body limits;
//   - graceful shutdown — Shutdown stops admission, cancels queued
//     jobs, gives running jobs a drain window, then cuts their
//     contexts; every completed point is already flushed to the store;
//   - observability — /healthz, /metrics in Prometheus text format,
//     and structured JSON request logs.
//
// Endpoints:
//
//	POST   /v1/run              synchronous: run and return figures
//	POST   /v1/jobs             asynchronous: enqueue, 202 + job id
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        status + progress counters
//	GET    /v1/jobs/{id}/result figures of a finished job
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/figures          known experiment ids
//	GET    /healthz             200 ok / 503 draining
//	GET    /metrics             Prometheus text format
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/fleet"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// Config parameterizes the service. Zero values take the documented
// defaults; Store is required.
type Config struct {
	// Store is the shared content-addressed result store. Required.
	// The server reads it through an in-memory front, so a point it
	// has read or written is answered from memory from then on.
	Store simrun.Store
	// QueueDepth bounds the admission queue (default 16). A full
	// queue rejects new jobs with 429.
	QueueDepth int
	// JobWorkers is the number of jobs executing concurrently
	// (default 1; each job parallelizes internally).
	JobWorkers int
	// SimWorkers bounds concurrent simulations within one job
	// (0 = GOMAXPROCS).
	SimWorkers int
	// JobTimeout caps one job's wall-clock time (default 15m).
	JobTimeout time.Duration
	// DrainTimeout is how long Shutdown waits for running jobs
	// before cutting their contexts (default 30s).
	DrainTimeout time.Duration
	// RetryAfter is the backpressure hint on 429 responses
	// (default 5s).
	RetryAfter time.Duration
	// MaxPoints caps requested load points per job, pre-dedup
	// (default 20000).
	MaxPoints int
	// MaxCycles caps warmup+measure cycles per point (default 10M).
	MaxCycles int64
	// LogWriter receives one JSON line per request (nil = no logs).
	LogWriter io.Writer
	// Fleet, when non-nil, turns this server into a fleet coordinator:
	// the /fleet/v1/ endpoints are mounted, fleet metrics join
	// /metrics, and every job's hashable points dispatch to registered
	// workers instead of the local pool.
	Fleet *fleet.Coordinator
	// FleetWorker, when non-nil, is this process's worker client:
	// Serve runs it for as long as it serves, and its counters join
	// /metrics.
	FleetWorker *fleet.Worker
}

// withDefaults fills in the documented defaults.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Second
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 20000
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 10_000_000
	}
	return c
}

// Server is the simd HTTP service.
type Server struct {
	cfg     Config
	mgr     *manager
	reg     *registry
	handler http.Handler
}

// New builds a server and starts its job workers.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reg: &registry{}}
	s.mgr = newManager(cfg, s.reg)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/figures", s.handleFigures)
	if cfg.Fleet != nil {
		mux.Handle("/fleet/v1/", cfg.Fleet.Handler())
	}
	s.handler = s.withLogging(mux)
	return s, nil
}

// Handler returns the fully wired HTTP handler (routing + logging +
// metrics middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the service: admission stops (submissions get 503,
// /healthz flips to 503), queued jobs are canceled, running jobs get
// the drain window, then their contexts are cut. It returns once all
// workers have exited. Completed points are flushed to the store as
// they finish, so nothing completed is ever lost. A fleet
// coordinator's held lease calls are released first, so the HTTP
// server that closes next never waits out a hold.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.cfg.Fleet != nil {
		s.cfg.Fleet.Release()
	}
	s.mgr.shutdown(ctx)
	return ctx.Err()
}

// Serve serves Handler on ln, and runs Config.FleetWorker, until ctx
// ends. Then it drains in the one order the service keeps: the fleet
// worker stops (an abandoned lease expires at the coordinator and its
// units requeue to surviving workers), Shutdown drains the jobs, and
// HTTP closes last, so synchronous requests waiting on those jobs get
// their replies. It returns the error that stopped the listener early,
// else that of closing HTTP within the drain window.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var worker sync.WaitGroup
	if w := s.cfg.FleetWorker; w != nil {
		worker.Add(1)
		go func() { defer worker.Done(); w.Run(ctx) }()
	}
	// No WriteTimeout: synchronous /v1/run responses legitimately take
	// as long as the job; the per-job timeout bounds them.
	hs := &http.Server{Handler: s.handler, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
	}
	stop()
	worker.Wait()
	drain, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout+10*time.Second)
	defer cancel()
	s.Shutdown(drain)
	if herr := hs.Shutdown(drain); err == nil {
		err = herr
	}
	return err
}

// writeJSON marshals v with a status code. Marshal failures are
// programming errors; they surface as a 500 with a plain message.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// replyBufs holds writeSnapshot's buffers between replies: a fresh
// 16 KB buffer per reply was 15% of a warm run request's allocation. A
// buffer grown past maxPooledReply is dropped, so one huge reply is
// not kept for good.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

const maxPooledReply = 1 << 20

// writeSnapshot writes a job snapshot byte for byte as writeJSON
// would, appended by hand: reflection was a fifth of a warm run reply.
// A figure holding NaN or ±Inf goes to writeJSON and its 500.
func writeSnapshot(w http.ResponseWriter, code int, s jobSnapshot) {
	buf := replyBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledReply {
			replyBufs.Put(buf)
		}
	}()
	b := metrics.AppendJSONString(append((*buf)[:0], `{"id":`...), s.ID)
	b = metrics.AppendJSONString(append(b, `,"status":`...), s.Status)
	if s.Error != "" {
		b = metrics.AppendJSONString(append(b, `,"error":`...), s.Error)
	}
	b = strconv.AppendInt(append(b, `,"counters":{"requested":`...), int64(s.Counters.Requested), 10)
	b = strconv.AppendInt(append(b, `,"unique":`...), int64(s.Counters.Unique), 10)
	b = strconv.AppendInt(append(b, `,"cached":`...), int64(s.Counters.Cached), 10)
	b = strconv.AppendInt(append(b, `,"executed":`...), int64(s.Counters.Executed), 10)
	b = strconv.AppendInt(append(b, `,"running":`...), int64(s.Counters.Running), 10)
	b = strconv.AppendInt(append(b, `,"failed":`...), int64(s.Counters.Failed), 10)
	b = strconv.AppendInt(append(b, `,"done":`...), int64(s.Counters.Done), 10)
	b = s.Created.AppendFormat(append(b, `},"created":"`...), time.RFC3339Nano)
	b = strconv.AppendInt(append(b, `","duration_ms":`...), s.DurationMs, 10)
	if len(s.Figures) > 0 {
		b = append(b, `,"figures":[`...)
		for _, f := range s.Figures {
			if b = f.AppendJSON(b); b == nil {
				writeJSON(w, code, s)
				return
			}
			b = append(b, ',')
		}
		b[len(b)-1] = ']'
	}
	b = append(b, "}\n"...)
	*buf = b[:0]
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// submitResponse is the 202 body of POST /v1/jobs.
type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	URL    string `json:"url"`
}

// jobListResponse is the body of GET /v1/jobs.
type jobListResponse struct {
	Jobs []jobSnapshot `json:"jobs"`
}

// figureInfo is one experiment id/title pair in GET /v1/figures.
type figureInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// figuresResponse is the body of GET /v1/figures.
type figuresResponse struct {
	Figures []figureInfo `json:"figures"`
}

// healthResponse is the 200 body of GET /healthz.
type healthResponse struct {
	Status string `json:"status"`
	Queue  int    `json:"queue_depth"`
}

// drainResponse is the 503 body of GET /healthz during shutdown; it
// deliberately omits queue_depth, matching the pre-drain contract.
type drainResponse struct {
	Status string `json:"status"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// readRequest reads and validates a run/jobs request body.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) ([]experiments.Experiment, experiments.Budget, bool) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, experiments.Budget{}, false
	}
	exps, budget, err := parseRunRequest(data, limits{
		maxExperiments: maxExperiments,
		maxPoints:      s.cfg.MaxPoints,
		maxCycles:      s.cfg.MaxCycles,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, experiments.Budget{}, false
	}
	return exps, budget, true
}

// submit applies admission control and maps its failures to HTTP:
// queue full -> 429 + Retry-After, draining -> 503.
func (s *Server) submit(w http.ResponseWriter, exps []experiments.Experiment, budget experiments.Budget) (*job, bool) {
	j, err := s.mgr.submit(exps, budget)
	switch {
	case errors.Is(err, errQueueFull):
		s.reg.jobsRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued); retry later", s.mgr.queueDepth())
		return nil, false
	case err != nil: // errDraining, the only other error submit returns
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	return j, true
}

// handleRun is the synchronous path: admission, then wait for the job
// to finish (or for the client to go away, which cancels it).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	exps, budget, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	j, ok := s.submit(w, exps, budget)
	if !ok {
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone: cancel so the worker frees up, then wait for
		// the terminal state so the snapshot below is final.
		j.cancel(context.Canceled)
		<-j.done
	}
	snap := j.snapshot(true)
	switch snap.Status {
	case statusDone:
		writeSnapshot(w, http.StatusOK, snap)
	case statusCanceled:
		writeSnapshot(w, http.StatusServiceUnavailable, snap)
	default:
		writeSnapshot(w, http.StatusInternalServerError, snap)
	}
}

// handleSubmit is the asynchronous path: admission, then 202 with the
// job id and polling URL.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	exps, budget, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	j, ok := s.submit(w, exps, budget)
	if !ok {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, submitResponse{j.id, statusQueued, "/v1/jobs/" + j.id})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, jobListResponse{s.mgr.list()})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeSnapshot(w, http.StatusOK, j.snapshot(false))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	snap := j.snapshot(true)
	if !j.terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; poll /v1/jobs/%s", j.id, snap.Status, j.id)
		return
	}
	writeSnapshot(w, http.StatusOK, snap)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.cancel(context.Canceled)
	s.mgr.record(j) // records immediately if it was canceled while queued
	writeJSON(w, http.StatusOK, j.snapshot(false))
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	var out []figureInfo
	for id, title := range experiments.Titles() {
		out = append(out, figureInfo{id, title})
	}
	writeJSON(w, http.StatusOK, figuresResponse{out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, drainResponse{"draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{"ok", s.mgr.queueDepth()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.writePrometheus(w, s.mgr)
	if s.cfg.Fleet != nil {
		s.cfg.Fleet.WriteMetrics(w)
	}
	if s.cfg.FleetWorker != nil {
		s.cfg.FleetWorker.WriteMetrics(w)
	}
}
