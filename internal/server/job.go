package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// Job states. A job moves queued -> running -> {done, failed,
// canceled}; a queued job can be canceled without ever running.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
)

// Admission errors, mapped to HTTP codes by the handlers.
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("server is draining")
)

// job is one accepted simulation request and its lifecycle state.
// The zero duration fields stay zero until the transition happens.
type job struct {
	id     string
	exps   []experiments.Experiment
	budget experiments.Budget

	mu       sync.Mutex
	status   string
	err      error
	canceled bool // cancel requested (by client or shutdown)
	counters simrun.Counters
	figures  []metrics.Figure
	created  time.Time
	started  time.Time
	finished time.Time
	cancelFn context.CancelFunc // set while running

	recorded atomic.Bool   // terminal state accumulated into the registry
	done     chan struct{} // closed on reaching a terminal state
}

// jobSnapshot is the externally visible state of a job, safe to
// marshal after the job mutex is released.
//
//simvet:wire — the body of every job status/result response.
type jobSnapshot struct {
	ID         string           `json:"id"`
	Status     string           `json:"status"`
	Error      string           `json:"error,omitempty"`
	Counters   simrun.Counters  `json:"counters"`
	Created    time.Time        `json:"created"`
	DurationMs int64            `json:"duration_ms"`
	Figures    []metrics.Figure `json:"figures,omitempty"`
}

// snapshot copies the job state; figures are included only for
// finished jobs when withFigures is set (they can be large).
func (j *job) snapshot(withFigures bool) jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := jobSnapshot{
		ID:       j.id,
		Status:   j.status,
		Counters: j.counters,
		Created:  j.created,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		s.DurationMs = end.Sub(j.started).Milliseconds()
	}
	if withFigures && j.status == statusDone {
		s.Figures = j.figures
	}
	return s
}

// observe is the simrun progress callback; calls are serialized by
// the plan, so this only guards against concurrent snapshot readers.
func (j *job) observe(c simrun.Counters) {
	j.mu.Lock()
	j.counters = c
	j.mu.Unlock()
}

// start transitions queued -> running. It returns false if the job
// was canceled while waiting in the queue, in which case the worker
// must skip it.
func (j *job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return false
	}
	j.status = statusRunning
	j.started = time.Now()
	j.cancelFn = cancel
	return true
}

// finish records the terminal state. It does not wake the waiters:
// the worker closes done once its own bookkeeping is finished too.
func (j *job) finish(figs []metrics.Figure, c simrun.Counters, err error) {
	j.mu.Lock()
	j.counters = c
	j.figures = figs
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = statusDone
	case j.canceled || errors.Is(err, context.Canceled):
		j.status = statusCanceled
		j.err = err
	case errors.Is(err, context.DeadlineExceeded):
		j.status = statusFailed
		j.err = fmt.Errorf("job timeout: %w", err)
	default:
		j.status = statusFailed
		j.err = err
	}
	j.mu.Unlock()
}

// cancel requests cancellation: a queued job terminates immediately,
// a running job's context is cut and the worker finishes it shortly.
// It reports whether the request changed anything.
func (j *job) cancel(reason error) bool {
	j.mu.Lock()
	if j.canceled || j.status == statusDone || j.status == statusFailed || j.status == statusCanceled {
		j.mu.Unlock()
		return false
	}
	j.canceled = true
	if j.status == statusQueued {
		j.status = statusCanceled
		j.err = reason
		j.finished = time.Now()
		j.mu.Unlock()
		close(j.done)
		return true
	}
	cancel := j.cancelFn
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == statusDone || j.status == statusFailed || j.status == statusCanceled
}

// maxRetainedJobs bounds the finished-job registry; the oldest
// finished jobs are evicted first so the service cannot leak memory
// under sustained traffic.
const maxRetainedJobs = 256

// maxBodyBytes caps a request body (413 beyond it) and maxExperiments
// the figure panels of one job (400 beyond it).
const maxBodyBytes, maxExperiments = 1 << 20, 64

// manager owns the bounded admission queue, the job workers and the
// job registry. Every job executes as one simrun plan against the
// shared content-addressed store, through the service's front on it.
type manager struct {
	cfg   Config
	store *front
	// dispatcher, when non-nil, ships each job's hashable points to
	// the fleet instead of the local pool (set by New from Config.Fleet;
	// typed as the simrun interface so this file stays fleet-agnostic).
	dispatcher simrun.Dispatcher
	reg        *registry

	queue    chan *job
	quit     chan struct{} // closed at shutdown: workers stop picking up jobs
	draining atomic.Bool
	inflight atomic.Int64
	wg       sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for listing and eviction
	nextID int
}

// dispatcherFor avoids assigning a non-nil interface wrapping a nil
// coordinator pointer when the server runs fleet-less.
func dispatcherFor(cfg Config) simrun.Dispatcher {
	if cfg.Fleet == nil {
		return nil
	}
	return cfg.Fleet
}

func newManager(cfg Config, reg *registry) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		cfg:        cfg,
		store:      newFront(cfg.Store, frontCap),
		dispatcher: dispatcherFor(cfg),
		reg:        reg,
		queue:      make(chan *job, cfg.QueueDepth),
		quit:       make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*job{},
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// submit applies admission control: reject during drain, reject when
// the bounded queue is full (backpressure), otherwise register and
// enqueue the job.
func (m *manager) submit(exps []experiments.Experiment, budget experiments.Budget) (*job, error) {
	if m.draining.Load() {
		return nil, errDraining
	}
	m.mu.Lock()
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("j-%06d", m.nextID),
		exps:    exps,
		budget:  budget,
		status:  statusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	m.mu.Unlock()

	select {
	case m.queue <- j:
	default:
		return nil, errQueueFull
	}

	m.mu.Lock()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.mu.Unlock()
	return j, nil
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
// Queued and running jobs are never evicted.
func (m *manager) evictLocked() {
	for len(m.order) > maxRetainedJobs {
		evicted := false
		for i, id := range m.order {
			if j, ok := m.jobs[id]; ok && j.terminal() {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything over the cap is still live
		}
	}
}

// get looks up a job by id.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list snapshots every retained job in submission order.
func (m *manager) list() []jobSnapshot {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]jobSnapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot(false)
	}
	return out
}

// queueDepth reports jobs waiting for a worker.
func (m *manager) queueDepth() int { return len(m.queue) }

// worker pulls jobs until shutdown.
func (m *manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job as a deduplicated simrun plan sharing the
// service-wide store. Cache entries are flushed point by point, so
// even a job cut off by timeout or shutdown keeps everything it
// completed. The job's registry record and the inflight gauge are
// settled before done is closed, so a synchronous reply and every
// /metrics read after it agree on the finished job.
func (m *manager) run(j *job) {
	ctx, cancel := context.WithTimeout(m.baseCtx, m.cfg.JobTimeout)
	defer cancel()
	if !j.start(cancel) {
		m.record(j) // canceled while queued
		return
	}
	m.inflight.Add(1)

	plan := simrun.NewPlan()
	handles := make([]*experiments.FigureHandle, len(j.exps))
	for i, e := range j.exps {
		handles[i] = experiments.AddToPlan(plan, e, j.budget)
	}
	err := plan.Execute(ctx, simrun.Options{
		Workers:    m.cfg.SimWorkers,
		Store:      m.store,
		Dispatcher: m.dispatcher,
		Progress:   j.observe,
	})
	var figs []metrics.Figure
	if err == nil {
		figs = make([]metrics.Figure, len(handles))
		for i, fh := range handles {
			fig, ferr := fh.Figure()
			if ferr != nil {
				err = ferr
				figs = nil
				break
			}
			figs[i] = fig
		}
	}
	j.finish(figs, plan.Counters(), err)
	m.record(j)
	m.inflight.Add(-1)
	close(j.done)
}

// record accumulates a job's terminal state into the metrics registry
// exactly once, whichever of the worker, a cancel handler or the
// shutdown drain reaches the terminal job first.
func (m *manager) record(j *job) {
	if !j.terminal() || !j.recorded.CompareAndSwap(false, true) {
		return
	}
	m.reg.recordJob(j.snapshot(false))
}

// shutdown stops admission, cancels every queued job, and gives
// running jobs the drain window to finish before cutting their
// contexts. It returns once every worker has exited; by then every
// completed point is flushed to the store.
func (m *manager) shutdown(ctx context.Context) {
	if !m.draining.CompareAndSwap(false, true) {
		m.wg.Wait()
		return
	}
	close(m.quit)
	// Drain the queue: anything a worker has not picked up is canceled.
	for {
		select {
		case j := <-m.queue:
			j.cancel(errDraining)
			m.record(j)
		default:
			goto drained
		}
	}
drained:
	workersIdle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersIdle)
	}()
	drain := time.NewTimer(m.cfg.DrainTimeout)
	defer drain.Stop()
	select {
	case <-workersIdle:
	case <-drain.C:
		m.baseCancel()
		<-workersIdle
	case <-ctx.Done():
		m.baseCancel()
		<-workersIdle
	}
}
