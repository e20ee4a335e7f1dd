package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minsim/internal/simrun"
)

// parked waits until n lease calls are held in the coordinator.
func parked(t *testing.T, c *Coordinator, n int64) {
	t.Helper()
	waitUntil(t, func() bool { return c.waiters.Load() == n })
}

// leaseTap records the lease calls a coordinator handler receives, in
// arrival order, and each one's reply once it has answered.
type leaseTap struct {
	inner http.Handler
	mu    sync.Mutex
	calls []*tappedCall
}

type tappedCall struct {
	answered bool
	reply    string
}

type teeWriter struct {
	http.ResponseWriter
	body *bytes.Buffer
}

func (w teeWriter) Write(p []byte) (int, error) {
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}

func (lt *leaseTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/lease") {
		lt.inner.ServeHTTP(w, r)
		return
	}
	call := &tappedCall{}
	lt.mu.Lock()
	lt.calls = append(lt.calls, call)
	lt.mu.Unlock()
	var reply bytes.Buffer
	lt.inner.ServeHTTP(teeWriter{w, &reply}, r)
	lt.mu.Lock()
	call.answered, call.reply = true, reply.String()
	lt.mu.Unlock()
}

// TestHeldLeaseCarriesTheFirstUnits: over real HTTP, the reply that
// brings a job's units is the call that was already parked when the
// job was dispatched, not a later poll.
func TestHeldLeaseCarriesTheFirstUnits(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Store: store, ChunkSize: 4, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tap := &leaseTap{inner: coord.Handler()}
	srv := httptest.NewServer(tap)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "w", SimWorkers: 1, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	parked(t, coord, 1)

	const n = 3 // one chunk
	plan, h := e2ePlan(n)
	if err := plan.Execute(ctx, simrun.Options{Store: store, Dispatcher: coord}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if _, err := h.Points(); err != nil {
		t.Fatalf("Points: %v", err)
	}
	// The job is done, so the worker is parked again: two calls in all,
	// the first answered with the units, the second still held.
	parked(t, coord, 1)
	waitUntil(t, func() bool { tap.mu.Lock(); defer tap.mu.Unlock(); return tap.calls[0].answered })
	tap.mu.Lock()
	calls, first, second := len(tap.calls), tap.calls[0].reply, tap.calls[len(tap.calls)-1].answered
	tap.mu.Unlock()
	if calls != 2 || !strings.Contains(first, `"units"`) || second {
		t.Fatalf("%d lease calls, the first answered %q, the last answered=%v; want 2, the first carrying the units, the second held", calls, first, second)
	}
	coord.mu.Lock()
	granted, requeued, dups := coord.leasesGranted, coord.unitsRequeued, coord.duplicates
	coord.mu.Unlock()
	if granted != 1 || requeued != 0 || dups != 0 {
		t.Fatalf("granted=%d requeued=%d duplicates=%d; want 1, 0, 0", granted, requeued, dups)
	}
	cancel()
	recv(t, stopped)
}

// TestNoLostWakeup races dispatches against parked lease calls: every
// unit must reach a waiter (a lost wake-up would strand its dispatch
// until the hold runs out, long after this test's deadline) and be
// leased exactly once.
func TestNoLostWakeup(t *testing.T) {
	c, _ := testCoordinator(t, Config{ChunkSize: 1, LeaseTTL: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const waiters, jobs, perJob = 4, 8, 5
	units := testUnits(t, jobs*perJob)
	var mu sync.Mutex
	leased := map[string]int{}
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		id := c.register("").WorkerID
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				lr, err := c.grantLease(ctx, id)
				if err != nil {
					t.Errorf("grantLease: %v", err)
					return
				}
				mu.Lock()
				for _, u := range lr.Units {
					leased[u.Key]++
				}
				mu.Unlock()
				if len(lr.Units) > 0 {
					c.complete(CompleteRequest{WorkerID: id, LeaseID: lr.LeaseID, Results: leaseResults(lr)})
				}
			}
		}()
	}
	parked(t, c, waiters)

	errs := make(chan error, jobs)
	for j := 0; j < jobs; j++ {
		go func() {
			errs <- c.Dispatch(ctx, units[j*perJob:(j+1)*perJob], newSink().report)
		}()
	}
	for j := 0; j < jobs; j++ {
		if err := recv(t, errs); err != nil {
			t.Fatalf("Dispatch: %v (a waiter slept through its wake-up)", err)
		}
	}
	cancel()
	wg.Wait()
	for _, u := range units {
		if leased[u.Key] != 1 {
			t.Fatalf("unit %s leased %d times; want 1", u.Key, leased[u.Key])
		}
	}
	if n := c.waiters.Load(); n != 0 {
		t.Fatalf("%d waiters left after every call returned", n)
	}
}

// TestParkedSurvivorInheritsDeadWorkersLease: with the only live
// worker parked and no other call arriving, it is the parked call's
// own expiry timer that requeues the dead worker's units — well
// inside the hold.
func TestParkedSurvivorInheritsDeadWorkersLease(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(Config{Store: store, ChunkSize: 4, LeaseTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	victim, survivor := c.register("victim").WorkerID, c.register("survivor").WorkerID
	sink := newSink()
	done := dispatchAsync(c, context.Background(), testUnits(t, 2), sink)
	if lr, err := tryLease(c, victim); err != nil || len(lr.Units) != 2 {
		t.Fatalf("victim lease = %+v, %v; want both units", lr, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), leaseHold/2)
	defer cancel()
	lr, err := c.grantLease(ctx, survivor)
	if err != nil || len(lr.Units) != 2 {
		t.Fatalf("survivor lease = %+v, %v; want the 2 requeued units", lr, err)
	}
	c.complete(CompleteRequest{WorkerID: survivor, LeaseID: lr.LeaseID, Results: leaseResults(lr)})
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leasesExpired != 1 || c.unitsRequeued != 2 {
		t.Fatalf("expired=%d requeued=%d; want 1, 2", c.leasesExpired, c.unitsRequeued)
	}
}

// TestRequeueInGrantOrder: leases that expire in one sweep hand their
// units back in the order they were granted, not in map order.
func TestRequeueInGrantOrder(t *testing.T) {
	c, clk := testCoordinator(t, Config{ChunkSize: 1, LeaseTTL: 10 * time.Second})
	id := c.register("w").WorkerID
	const n = 8
	done := dispatchAsync(c, context.Background(), testUnits(t, n), newSink())
	waitUntil(t, func() bool { c.mu.Lock(); defer c.mu.Unlock(); return len(c.queue) == n })
	var want []string
	for i := 0; i < n; i++ {
		lr, err := tryLease(c, id)
		if err != nil || len(lr.Units) != 1 {
			t.Fatalf("lease %d = %+v, %v", i, lr, err)
		}
		want = append(want, lr.Units[0].Key)
	}
	clk.advance(11 * time.Second)
	c.mu.Lock()
	next := c.expireLocked(c.now())
	var got []string
	for _, u := range c.queue {
		got = append(got, u.key)
	}
	c.mu.Unlock()
	if !next.IsZero() {
		t.Fatalf("next expiry = %v with no lease left", next)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("requeue order\n got %v\nwant %v", got, want)
	}
	// Drain so the dispatch goroutine ends.
	for i := 0; i < n; i++ {
		lr, _ := tryLease(c, id)
		c.complete(CompleteRequest{WorkerID: id, LeaseID: lr.LeaseID, Results: leaseResults(lr)})
	}
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
}

// postLease is one lease call over HTTP, outside any worker loop.
func postLease(ctx context.Context, srv *httptest.Server, workerID string) (LeaseResponse, error) {
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Client: srv.Client()})
	if err != nil {
		return LeaseResponse{}, err
	}
	var lr LeaseResponse
	err = w.postJSON(ctx, "/fleet/v1/lease", LeaseRequest{WorkerID: workerID}, &lr)
	return lr, err
}

// TestCancelledRequestFreesTheHandler: a client that goes away takes
// its parked call with it.
func TestCancelledRequestFreesTheHandler(t *testing.T) {
	c, _ := testCoordinator(t, Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	id := c.register("w").WorkerID

	ctx, cancel := context.WithCancel(context.Background())
	failed := make(chan error, 1)
	go func() {
		_, err := postLease(ctx, srv, id)
		failed <- err
	}()
	parked(t, c, 1)
	cancel()
	if err := recv(t, failed); err == nil {
		t.Fatal("cancelled lease call returned a reply")
	}
	parked(t, c, 0)
}

// TestOldStyleWorkerInteroperates: a worker written against the
// polling protocol — it sleeps WaitMs after an empty reply, 100 ms if
// there is none — still gets its units (its poll is simply answered
// late), and a released coordinator still tells it how long to sleep.
func TestOldStyleWorkerInteroperates(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(Config{Store: store, ChunkSize: 4, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id := c.register("old").WorkerID

	replies := make(chan LeaseResponse)
	go func() {
		for ctx.Err() == nil {
			lr, err := postLease(ctx, srv, id)
			if err != nil {
				return
			}
			select {
			case replies <- lr:
			case <-ctx.Done():
				return
			}
			if len(lr.Units) == 0 {
				wait := time.Duration(lr.WaitMs) * time.Millisecond
				if wait <= 0 {
					wait = 100 * time.Millisecond
				}
				sleepCtx(ctx, wait)
			}
		}
	}()
	parked(t, c, 1)
	done := dispatchAsync(c, ctx, testUnits(t, 2), newSink())
	lr := recv(t, replies)
	if len(lr.Units) != 2 {
		t.Fatalf("old-style poll answered %+v; want the 2 units", lr)
	}
	c.complete(CompleteRequest{WorkerID: id, LeaseID: lr.LeaseID, Results: leaseResults(lr)})
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}

	parked(t, c, 1)
	c.Release()
	if lr = recv(t, replies); len(lr.Units) != 0 || lr.WaitMs <= 0 {
		t.Fatalf("released coordinator answered the parked poll %+v; want empty with a back-off", lr)
	}
	// Later calls get the same answer without being held.
	if lr, err = postLease(ctx, srv, id); err != nil || len(lr.Units) != 0 || lr.WaitMs <= 0 {
		t.Fatalf("released coordinator answered %+v, %v; want empty with a back-off", lr, err)
	}
}
