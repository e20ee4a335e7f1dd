package fleet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// Config parameterizes a Coordinator. Zero values take the documented
// defaults; Store is required.
type Config struct {
	// Store is the fleet-wide shared result store: the coordinator
	// serves it over HTTP, so one warm key anywhere means no execution
	// anywhere. Required.
	Store simrun.Store
	// ChunkSize is the maximum units granted per lease (default 4).
	// Small chunks spread a panel across workers; large chunks
	// amortize HTTP round-trips.
	ChunkSize int
	// LeaseTTL is how long a lease survives without a heartbeat
	// (default 10s). Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times a unit is re-leased after
	// worker loss before it fails (default 3).
	MaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	return c
}

// subscriber is one dispatching plan's interest in a unit. Delivery
// happens under the coordinator mutex; the owner's cancelled flag is
// how a cancelled Dispatch detaches without racing a delivery.
type subscriber struct {
	owner *dispatchState
	index int // unit index within the owner's Dispatch call
}

// dispatchState tracks one Dispatch call's undelivered units.
type dispatchState struct {
	report    func(i int, pt metrics.Point, executed bool, err error)
	remaining int
	cancelled bool
	done      chan struct{} // closed when remaining hits 0
}

// unit is one content-keyed work item in coordinator state.
type unit struct {
	key      string
	wire     WireSpec
	spec     string // human-readable, for store write-through
	attempts int    // lease grants so far
	done     bool
	subs     []subscriber
}

// lease is a chunk of units granted to one worker, alive until
// expires unless heartbeaten.
type lease struct {
	id       string
	seq      int // grant order; expiry sweeps in it
	workerID string
	units    []*unit
	expires  time.Time
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id           string
	name         string
	executed     int64 // units this worker freshly simulated
	cached       int64 // units this worker served from the shared store
	activeLeases int
}

// Coordinator owns fleet state: registered workers, the FIFO unit
// queue, active leases and the cross-job dedup index. It implements
// simrun.Dispatcher, so a server job's plan hands its hashable points
// here instead of the local pool. All state lives under one mutex;
// lease expiry is lazy — every mutating call first expires overdue
// leases — so there is no background sweeper to leak. A lease call
// that finds the queue empty is held (grantLease) until a unit is
// queued, and while held it keeps a timer on the earliest live
// lease's expiry, so the parked workers are what drive requeue
// forward.
type Coordinator struct {
	cfg Config
	now func() time.Time // injectable for expiry tests

	waiters atomic.Int64 // lease calls parked right now

	mu         sync.Mutex
	workers    map[string]*workerState
	queue      []*unit          // FIFO; done units are skipped lazily
	byKey      map[string]*unit // in-flight (not done) units
	leases     map[string]*lease
	wake       chan struct{} // closed and replaced when the queue gains a unit
	released   bool          // Release was called: lease calls no longer park
	nextWorker int
	nextLease  int

	// counters for /metrics (all under mu)
	leasesGranted  int64
	leasesExpired  int64
	unitsRequeued  int64
	unitsCompleted int64
	unitsFailed    int64
	duplicates     int64 // executed results for already-done units
	storeGets      int64
	storePuts      int64
}

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: Config.Store is required")
	}
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		workers: map[string]*workerState{},
		byKey:   map[string]*unit{},
		leases:  map[string]*lease{},
		wake:    make(chan struct{}),
	}, nil
}

// Dispatch implements simrun.Dispatcher: it enqueues every unit
// (deduplicating against units already in flight from other jobs),
// then blocks until all are delivered or ctx is cancelled. report is
// invoked under the coordinator mutex, so it must not call back into
// the coordinator — the plan layer's callback only touches plan
// state, which satisfies that.
func (c *Coordinator) Dispatch(ctx context.Context, units []simrun.DispatchUnit, report func(i int, pt metrics.Point, executed bool, err error)) error {
	if len(units) == 0 {
		return nil
	}
	state := &dispatchState{report: report, remaining: len(units), done: make(chan struct{})}

	c.mu.Lock()
	for i, du := range units {
		sub := subscriber{owner: state, index: i}
		if existing, ok := c.byKey[du.Key]; ok {
			existing.subs = append(existing.subs, sub)
			continue
		}
		wire, err := EncodeSpec(du.Spec)
		if err != nil {
			// Unreachable for units with a valid key (Key and
			// EncodeSpec reject the same specs), but fail loudly
			// rather than strand the dispatch.
			c.mu.Unlock()
			return fmt.Errorf("fleet: unit %s: %w", du.Key, err)
		}
		u := &unit{key: du.Key, wire: wire, spec: du.Spec.String(), subs: []subscriber{sub}}
		c.byKey[du.Key] = u
		c.queue = append(c.queue, u)
	}
	c.wakeLocked()
	c.mu.Unlock()

	select {
	case <-state.done:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		state.cancelled = true
		c.mu.Unlock()
		// The units stay queued: another job may want them, and a
		// completed result still lands in the shared store.
		return ctx.Err()
	}
}

// deliverLocked notifies every subscriber of a finished unit and
// updates dispatch completion state. Caller holds c.mu.
func (c *Coordinator) deliverLocked(u *unit, pt metrics.Point, executed bool, err error) {
	//simvet:bounded — one entry per concurrently dispatching job
	for _, s := range u.subs {
		if s.owner.cancelled {
			continue
		}
		s.owner.report(s.index, pt, executed, err)
		s.owner.remaining--
		if s.owner.remaining == 0 {
			close(s.owner.done)
		}
	}
	u.subs = nil
}

// wakeLocked ends every held lease call's wait; each takes the lock
// and tries its grant again. Caller holds c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Release ends every held lease call with an empty reply carrying a
// back-off, and makes later calls that find the queue empty answer
// the same without parking, so closing the HTTP server never waits
// out a hold. Queued units are still granted: running jobs finish
// inside the server's drain window. There is no way back.
func (c *Coordinator) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.released = true
	c.wakeLocked()
}

// expireLocked requeues or fails the units of every overdue lease, in
// grant order so the queue that results does not depend on map order,
// and returns the earliest expiry among the leases still live (zero
// if none). Caller holds c.mu.
func (c *Coordinator) expireLocked(now time.Time) (next time.Time) {
	var due []*lease
	for _, l := range c.leases {
		switch {
		case !now.Before(l.expires):
			due = append(due, l)
		case next.IsZero() || l.expires.Before(next):
			next = l.expires
		}
	}
	slices.SortFunc(due, func(a, b *lease) int { return a.seq - b.seq })
	requeued := false
	for _, l := range due {
		delete(c.leases, l.id)
		c.leasesExpired++
		if w, ok := c.workers[l.workerID]; ok {
			w.activeLeases--
		}
		//simvet:bounded — at most ChunkSize units per lease
		for _, u := range l.units {
			if u.done {
				continue
			}
			if u.attempts >= c.cfg.MaxAttempts {
				u.done = true
				delete(c.byKey, u.key)
				c.unitsFailed++
				c.deliverLocked(u, metrics.Point{}, false,
					fmt.Errorf("fleet: unit %s failed after %d lease attempts (workers lost)", u.key, u.attempts))
				continue
			}
			c.queue = append(c.queue, u)
			c.unitsRequeued++
			requeued = true
		}
	}
	if requeued {
		c.wakeLocked()
	}
	return next
}

// register admits a worker and returns its protocol parameters.
func (c *Coordinator) register(name string) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{id: fmt.Sprintf("w-%04d", c.nextWorker), name: name}
	if w.name == "" {
		w.name = w.id
	}
	c.workers[w.id] = w
	return RegisterResponse{
		WorkerID:   w.id,
		LeaseTTLMs: c.cfg.LeaseTTL.Milliseconds(),
		Chunk:      c.cfg.ChunkSize,
	}
}

// leaseHold is the longest a lease call is held on an empty queue
// before it answers empty and the worker asks again. It must end,
// reply delivered, inside the worker client's 30 s timeout, or every
// idle hold would surface there as a transport error and a 1 s
// back-off; 20 s leaves a wide margin for a slow link and still costs
// an idle worker only three calls a minute.
const leaseHold = 20 * time.Second

// drainWaitMs is the back-off a released coordinator sends with an
// empty reply: the same second a worker waits after a transport
// error, which is what it will meet next.
const drainWaitMs = 1000

// grantLease answers a lease call: at once when units are queued (or
// the coordinator is released), otherwise it parks — outside c.mu —
// until Dispatch or a requeue wakes it, the earliest live lease's
// expiry passes (the sweep that follows requeues a dead worker's
// units to this very call), ctx ends or leaseHold runs out. An empty
// reply without WaitMs means "ask again now".
//
//simvet:ctxbound
func (c *Coordinator) grantLease(ctx context.Context, workerID string) (LeaseResponse, error) {
	var hold <-chan time.Time // started by the first park: a call that grants at once pays for no timer
	//simvet:blocking — one iteration per wake-up, each observing ctx and the hold
	for {
		resp, wake, expired, err := c.tryGrant(workerID)
		if wake == nil {
			return resp, err
		}
		if hold == nil {
			hold = time.After(leaseHold)
		}
		over := false
		c.waiters.Add(1)
		select {
		case <-wake:
		case <-expired:
		case <-hold:
			over = true
		case <-ctx.Done():
			over = true
		}
		c.waiters.Add(-1)
		if over {
			return LeaseResponse{}, nil
		}
	}
}

// tryGrant pops up to ChunkSize pending units for the worker. When
// there is nothing to grant and the call should park, it returns the
// channel the next queued unit closes — taken under the same lock hold
// as the empty look, so no wake-up falls between the two — and one
// that fires when the earliest live lease expires (nil, so never, when
// no lease is live).
func (c *Coordinator) tryGrant(workerID string) (resp LeaseResponse, wake <-chan struct{}, expired <-chan time.Time, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	next := c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return LeaseResponse{}, nil, nil, fmt.Errorf("unknown worker %q", workerID)
	}
	var granted []*unit
	for len(granted) < c.cfg.ChunkSize && len(c.queue) > 0 {
		u := c.queue[0]
		c.queue = c.queue[1:]
		if u.done {
			continue // finished (or failed) while queued elsewhere
		}
		u.attempts++
		granted = append(granted, u)
	}
	if len(granted) == 0 {
		if c.released {
			return LeaseResponse{WaitMs: drainWaitMs}, nil, nil, nil
		}
		if !next.IsZero() {
			expired = time.After(next.Sub(now))
		}
		return LeaseResponse{}, c.wake, expired, nil
	}
	c.nextLease++
	l := &lease{
		id:       fmt.Sprintf("l-%06d", c.nextLease),
		seq:      c.nextLease,
		workerID: workerID,
		units:    granted,
		expires:  now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	c.leasesGranted++
	w.activeLeases++
	resp = LeaseResponse{LeaseID: l.id, Units: make([]Unit, len(granted))}
	for i, u := range granted {
		resp.Units[i] = Unit{Key: u.key, Spec: u.wire}
	}
	return resp, nil, nil, nil
}

// heartbeat extends a lease. ok=false means the lease is gone — the
// worker must abandon the chunk, its units are already requeued.
func (c *Coordinator) heartbeat(workerID, leaseID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	if !ok || l.workerID != workerID {
		return false
	}
	l.expires = now.Add(c.cfg.LeaseTTL)
	return true
}

// complete ingests a chunk of results. Results for units nobody else
// finished are accepted even from an expired lease (the work is done
// and correct — content addressing makes it indistinguishable from
// the re-leased copy); an executed result for an already-done unit
// increments the duplicate counter the e2e gate asserts to be zero in
// an orderly cold run.
func (c *Coordinator) complete(req CompleteRequest) {
	// Write-through repairs touch the store (disk or worse); collect
	// them under the mutex, run them after it drops, so a slow store
	// never stalls the lease/heartbeat path.
	type repair struct {
		key, spec string
		pt        metrics.Point
	}
	var repairs []repair
	c.mu.Lock()
	now := c.now()
	c.expireLocked(now)
	if l, ok := c.leases[req.LeaseID]; ok && l.workerID == req.WorkerID {
		delete(c.leases, req.LeaseID)
		if w, ok := c.workers[req.WorkerID]; ok {
			w.activeLeases--
		}
	}
	w := c.workers[req.WorkerID] // nil for a forgotten worker; counters just drop
	//simvet:bounded — at most ChunkSize results per completion
	for _, res := range req.Results {
		u, ok := c.byKey[res.Key]
		if !ok || u.done {
			if res.Executed {
				c.duplicates++
			}
			continue
		}
		u.done = true
		delete(c.byKey, res.Key)
		if res.Error != "" {
			// Deterministic failure: retrying on another worker would
			// reproduce it, so fail the unit now.
			c.unitsFailed++
			c.deliverLocked(u, metrics.Point{}, false, fmt.Errorf("fleet: unit %s: %s", res.Key, res.Error))
			continue
		}
		c.unitsCompleted++
		if w != nil {
			if res.Executed {
				w.executed++
			} else {
				w.cached++
			}
		}
		if res.Executed {
			repairs = append(repairs, repair{res.Key, u.spec, res.Point})
		}
		c.deliverLocked(u, res.Point, res.Executed, nil)
	}
	c.mu.Unlock()

	// The worker wrote through the shared store before completing;
	// re-persist only where that write was lost, so the warm path
	// stays warm even across a flaky worker store connection. (A
	// concurrent cache scan racing this repair can at worst re-execute
	// the point — wasted work, never a wrong result.)
	for _, r := range repairs {
		if _, hit := c.cfg.Store.Get(r.key); !hit {
			c.cfg.Store.Put(r.key, r.spec, r.pt)
		}
	}
}

// storeGet serves the shared store to workers.
func (c *Coordinator) storeGet(key string) (metrics.Point, bool) {
	c.mu.Lock()
	c.storeGets++
	c.mu.Unlock()
	return c.cfg.Store.Get(key)
}

// storePut is the worker write-through path.
func (c *Coordinator) storePut(key, spec string, p metrics.Point) {
	c.mu.Lock()
	c.storePuts++
	c.mu.Unlock()
	c.cfg.Store.Put(key, spec, p)
}
