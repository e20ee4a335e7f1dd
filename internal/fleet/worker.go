package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"minsim/internal/simrun"
)

// WorkerConfig parameterizes a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Name labels this worker in coordinator metrics (default: the
	// assigned worker id).
	Name string
	// SimWorkers bounds concurrent simulations per lease
	// (0 = GOMAXPROCS).
	SimWorkers int
	// Client overrides the HTTP client (nil = 30s timeout default). Its
	// Timeout must outlast the coordinator's lease hold (20 s), or idle
	// lease calls end as transport errors instead of empty replies.
	Client *http.Client
}

// Worker is the pull side of the fleet protocol: register, ask for a
// lease (the coordinator holds the call until it has units), execute
// the units through an ordinary simrun plan backed by the
// coordinator's shared store, heartbeat while executing, and deliver
// results. A worker that dies mid-lease simply stops heartbeating;
// the coordinator requeues its units.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	store  *RemoteStore

	leases        atomic.Int64
	executed      atomic.Int64
	cachedPts     atomic.Int64
	failedUnits   atomic.Int64
	heartbeatLost atomic.Int64
	completeFails atomic.Int64
}

// NewWorker builds a worker client for a coordinator.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: WorkerConfig.Coordinator is required")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		store:  NewRemoteStore(cfg.Coordinator, client),
	}, nil
}

// errGone marks a definitive 410 from the coordinator: the worker or
// lease is unknown there and retrying the same id is pointless.
var errGone = errors.New("fleet: gone")

// postJSON posts body to path and decodes the response into out (out
// nil skips decoding). A 410 maps to errGone, other non-2xx to plain
// errors; transport errors pass through for the caller's backoff.
func (w *Worker) postJSON(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return errGone
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx waits d or until ctx is cancelled, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// register joins the fleet, retrying with backoff until it succeeds
// or ctx ends — a worker booted before its coordinator just waits.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	backoff := 200 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return RegisterResponse{}, err
		}
		var resp RegisterResponse
		err := w.postJSON(ctx, "/fleet/v1/register", RegisterRequest{Name: w.cfg.Name}, &resp)
		if err == nil {
			return resp, nil
		}
		sleepCtx(ctx, backoff)
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

// Run is the worker loop; it returns when ctx is cancelled. Every
// wait inside — registration backoff, held lease calls, heartbeats,
// the simulations themselves — observes ctx, so shutdown latency is
// one cancellation quantum, not one lease.
func (w *Worker) Run(ctx context.Context) error {
	reg, err := w.register(ctx)
	if err != nil {
		return err
	}
	ttl := time.Duration(reg.LeaseTTLMs) * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		err := w.postJSON(ctx, "/fleet/v1/lease", LeaseRequest{WorkerID: reg.WorkerID}, &lr)
		switch {
		case errors.Is(err, errGone):
			// Coordinator restarted and forgot us: rejoin.
			if reg, err = w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			sleepCtx(ctx, time.Second)
			continue
		}
		if len(lr.Units) == 0 {
			// A hold that ran out: ask again at once. Only a draining
			// coordinator sends a back-off.
			if lr.WaitMs > 0 {
				sleepCtx(ctx, time.Duration(lr.WaitMs)*time.Millisecond)
			}
			continue
		}
		w.leases.Add(1)
		w.runLease(ctx, reg.WorkerID, lr, ttl)
	}
}

// runLease executes one chunk: all units in a single plan on the
// worker's pool, one point each exactly as they would run locally,
// with the shared store consulted per unit and written through per
// fresh result, then one complete call. Losing
// the heartbeat cancels the simulations and abandons the chunk — the
// coordinator has already requeued it.
func (w *Worker) runLease(ctx context.Context, workerID string, lr LeaseResponse, ttl time.Duration) {
	leaseCtx, cancelLease := context.WithCancelCause(ctx)
	defer cancelLease(nil)
	hbDone := make(chan struct{})
	go w.heartbeatLoop(leaseCtx, cancelLease, workerID, lr.LeaseID, ttl, hbDone)

	plan := simrun.NewPlan()
	results := make([]UnitResult, len(lr.Units))
	handles := make([]*simrun.Handle, len(lr.Units))
	for i, u := range lr.Units {
		results[i] = UnitResult{Key: u.Key}
		rs, err := DecodeSpec(u.Spec)
		if err == nil {
			var key string
			if key, err = rs.Key(); err == nil && key != u.Key {
				err = fmt.Errorf("key mismatch: coordinator sent %s, spec hashes to %s", u.Key, key)
			}
		}
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		handles[i] = plan.AddSpec(rs)
	}
	plan.Execute(leaseCtx, simrun.Options{Workers: w.cfg.SimWorkers, Store: w.store})
	cancelLease(nil)
	<-hbDone
	if ctx.Err() != nil {
		return // shutting down: no complete, the lease expires and requeues
	}
	if context.Cause(leaseCtx) == errGone {
		// Heartbeat got a 410 mid-execution: the units are requeued
		// elsewhere; completing now would be the duplicate path.
		return
	}

	for i, h := range handles {
		if h == nil {
			w.failedUnits.Add(1)
			continue // decode/key error already recorded
		}
		pts, err := h.Points()
		if err != nil {
			results[i].Error = err.Error()
			w.failedUnits.Add(1)
			continue
		}
		results[i].Point = pts[0]
		results[i].Executed = !h.FromCache(0)
		if results[i].Executed {
			w.executed.Add(1)
		} else {
			w.cachedPts.Add(1)
		}
	}
	w.complete(ctx, CompleteRequest{WorkerID: workerID, LeaseID: lr.LeaseID, Results: results})
}

// heartbeatLoop keeps the lease alive at ttl/3 until leaseCtx ends;
// a definitive 410 cancels execution with errGone as the cause.
func (w *Worker) heartbeatLoop(leaseCtx context.Context, cancelLease context.CancelCauseFunc, workerID, leaseID string, ttl time.Duration, done chan<- struct{}) {
	defer close(done)
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-leaseCtx.Done():
			return
		case <-t.C:
			err := w.postJSON(leaseCtx, "/fleet/v1/heartbeat", HeartbeatRequest{WorkerID: workerID, LeaseID: leaseID}, nil)
			if errors.Is(err, errGone) {
				w.heartbeatLost.Add(1)
				cancelLease(errGone)
				return
			}
			// Transport errors: keep trying; if the coordinator is
			// really gone the lease expires there and the next
			// heartbeat (or lease call) answers 410.
		}
	}
}

// complete delivers results with bounded retries; a chunk that cannot
// be delivered is abandoned to the requeue path. A worker shutting
// down mid-delivery abandons it too, but that is not a failed delivery:
// the coordinator may well have taken the results.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) {
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			sleepCtx(ctx, 300*time.Millisecond)
		}
		err := w.postJSON(ctx, "/fleet/v1/complete", req, nil)
		if err == nil || errors.Is(err, errGone) || ctx.Err() != nil {
			return
		}
	}
	w.completeFails.Add(1)
}
