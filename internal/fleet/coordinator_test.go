package fleet

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
	"minsim/internal/topology"
)

// fakeClock drives the coordinator's lazy expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func testCoordinator(t *testing.T, cfg Config) (*Coordinator, *fakeClock) {
	t.Helper()
	if cfg.Store == nil {
		s, err := simrun.NewStore(t.TempDir())
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		cfg.Store = s
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	c.now = clk.now
	return c, clk
}

// testUnits builds n distinct, hashable dispatch units.
func testUnits(t *testing.T, n int) []simrun.DispatchUnit {
	t.Helper()
	units := make([]simrun.DispatchUnit, n)
	for i := range units {
		rs := simrun.RunSpec{
			Net:     simrun.NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
			Work:    simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Uniform}},
			Load:    0.1 + 0.05*float64(i),
			Warmup:  100,
			Measure: 500,
			Seed:    simrun.DeriveSeed(1995, i),
		}
		key, err := rs.Key()
		if err != nil {
			t.Fatalf("unit %d: Key: %v", i, err)
		}
		units[i] = simrun.DispatchUnit{Key: key, Spec: rs}
	}
	return units
}

// tryLease is one lease attempt that never parks.
func tryLease(c *Coordinator, workerID string) (LeaseResponse, error) {
	resp, _, _, err := c.tryGrant(workerID)
	return resp, err
}

// reportSink collects dispatch reports thread-safely.
type reportSink struct {
	mu   sync.Mutex
	got  map[int]bool
	errs map[int]error
	exec map[int]bool
}

func newSink() *reportSink {
	return &reportSink{got: map[int]bool{}, errs: map[int]error{}, exec: map[int]bool{}}
}

func (s *reportSink) report(i int, pt metrics.Point, executed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.got[i] {
		panic("unit reported twice")
	}
	s.got[i] = true
	s.errs[i] = err
	s.exec[i] = executed
}

// results fabricates executed results for a granted lease.
func leaseResults(lr LeaseResponse) []UnitResult {
	out := make([]UnitResult, len(lr.Units))
	for i, u := range lr.Units {
		out[i] = UnitResult{Key: u.Key, Point: metrics.Point{Offered: 0.1}, Executed: true}
	}
	return out
}

// dispatchAsync runs Dispatch in a goroutine, returning its error
// channel.
func dispatchAsync(c *Coordinator, ctx context.Context, units []simrun.DispatchUnit, sink *reportSink) chan error {
	done := make(chan error, 1)
	go func() { done <- c.Dispatch(ctx, units, sink.report) }()
	// Wait for the units to be enqueued so subsequent lease calls see
	// them.
	for i := 0; i < 100; i++ {
		c.mu.Lock()
		n := len(c.byKey)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// waitUntil polls cond briefly; the coordinator has no hooks to block
// on, so tests that need a second dispatcher attached spin instead.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 1s")
}

// recvTimeout bounds every wait on a channel in this package's tests.
const recvTimeout = 30 * time.Second

// recv returns the next value from ch. After recvTimeout it fails the
// test with every goroutine's stack, so a hang names the wait it is
// stuck in instead of running the test binary into its own timeout.
func recv[T any](t testing.TB, ch <-chan T) T {
	t.Helper()
	timer := time.NewTimer(recvTimeout)
	defer timer.Stop()
	select {
	case v := <-ch:
		return v
	case <-timer.C:
		buf := make([]byte, 1<<20)
		t.Fatalf("nothing received within %v; goroutines:\n%s", recvTimeout, buf[:runtime.Stack(buf, true)])
		panic("unreachable")
	}
}

func TestLeaseExpiryRequeuesToSurvivor(t *testing.T) {
	c, clk := testCoordinator(t, Config{ChunkSize: 4, LeaseTTL: 10 * time.Second})
	w1 := c.register("w1")
	w2 := c.register("w2")
	sink := newSink()
	units := testUnits(t, 2)
	done := dispatchAsync(c, context.Background(), units, sink)

	lr1, err := tryLease(c, w1.WorkerID)
	if err != nil || len(lr1.Units) != 2 {
		t.Fatalf("w1 lease = %+v, %v; want 2 units", lr1, err)
	}

	// w1 dies: no heartbeats. TTL passes; w2's next poll must inherit
	// the units.
	clk.advance(11 * time.Second)
	lr2, err := tryLease(c, w2.WorkerID)
	if err != nil || len(lr2.Units) != 2 {
		t.Fatalf("w2 lease after expiry = %+v, %v; want the 2 requeued units", lr2, err)
	}

	c.complete(CompleteRequest{WorkerID: w2.WorkerID, LeaseID: lr2.LeaseID, Results: leaseResults(lr2)})
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	for i := range units {
		if sink.errs[i] != nil {
			t.Fatalf("unit %d reported error %v", i, sink.errs[i])
		}
		if !sink.exec[i] {
			t.Fatalf("unit %d not reported executed", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leasesExpired != 1 || c.unitsRequeued != 2 || c.duplicates != 0 {
		t.Fatalf("counters expired=%d requeued=%d dups=%d; want 1, 2, 0",
			c.leasesExpired, c.unitsRequeued, c.duplicates)
	}
}

func TestUnitFailsAfterMaxAttempts(t *testing.T) {
	c, clk := testCoordinator(t, Config{ChunkSize: 4, LeaseTTL: 10 * time.Second, MaxAttempts: 2})
	w1 := c.register("w1")
	sink := newSink()
	done := dispatchAsync(c, context.Background(), testUnits(t, 1), sink)

	for attempt := 0; attempt < 2; attempt++ {
		lr, err := tryLease(c, w1.WorkerID)
		if err != nil || len(lr.Units) != 1 {
			t.Fatalf("attempt %d: lease = %+v, %v", attempt, lr, err)
		}
		clk.advance(11 * time.Second)
	}
	// Third poll triggers expiry of the second lease; the unit is out
	// of attempts and must fail rather than requeue.
	lr, err := tryLease(c, w1.WorkerID)
	if err != nil {
		t.Fatalf("final lease: %v", err)
	}
	if len(lr.Units) != 0 {
		t.Fatalf("exhausted unit was re-leased: %+v", lr)
	}
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if sink.errs[0] == nil || !strings.Contains(sink.errs[0].Error(), "lease attempts") {
		t.Fatalf("unit error = %v; want an attempts-exhausted error", sink.errs[0])
	}
}

func TestDuplicateCompletionIsIdempotent(t *testing.T) {
	c, clk := testCoordinator(t, Config{ChunkSize: 4, LeaseTTL: 10 * time.Second})
	w1 := c.register("w1")
	w2 := c.register("w2")
	sink := newSink()
	done := dispatchAsync(c, context.Background(), testUnits(t, 1), sink)

	lr1, _ := tryLease(c, w1.WorkerID)
	clk.advance(11 * time.Second)
	lr2, _ := tryLease(c, w2.WorkerID)
	if len(lr2.Units) != 1 {
		t.Fatalf("w2 did not inherit the unit: %+v", lr2)
	}

	// w1 was slow, not dead: its results arrive on the expired lease
	// and are salvaged (the work is correct; content addressing makes
	// it identical to w2's copy).
	c.complete(CompleteRequest{WorkerID: w1.WorkerID, LeaseID: lr1.LeaseID, Results: leaseResults(lr1)})
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	// w2 finishes the same unit: delivered exactly once (the sink
	// panics on a double report), counted as a duplicate execution.
	c.complete(CompleteRequest{WorkerID: w2.WorkerID, LeaseID: lr2.LeaseID, Results: leaseResults(lr2)})
	// And a full replay of the same completion changes nothing.
	c.complete(CompleteRequest{WorkerID: w2.WorkerID, LeaseID: lr2.LeaseID, Results: leaseResults(lr2)})

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.unitsCompleted != 1 {
		t.Fatalf("unitsCompleted = %d; want 1", c.unitsCompleted)
	}
	if c.duplicates != 2 {
		t.Fatalf("duplicates = %d; want 2", c.duplicates)
	}
}

func TestCrossJobDedupSharesOneExecution(t *testing.T) {
	c, _ := testCoordinator(t, Config{ChunkSize: 4, LeaseTTL: 10 * time.Second})
	w1 := c.register("w1")
	units := testUnits(t, 1)
	sinkA, sinkB := newSink(), newSink()
	doneA := dispatchAsync(c, context.Background(), units, sinkA)
	doneB := dispatchAsync(c, context.Background(), units, sinkB)
	waitUntil(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		u := c.byKey[units[0].Key]
		return u != nil && len(u.subs) == 2
	})

	lr, _ := tryLease(c, w1.WorkerID)
	if len(lr.Units) != 1 {
		t.Fatalf("two jobs enqueued %d copies of one key; want a single shared unit", len(lr.Units))
	}
	c.complete(CompleteRequest{WorkerID: w1.WorkerID, LeaseID: lr.LeaseID, Results: leaseResults(lr)})
	if err := recv(t, doneA); err != nil {
		t.Fatalf("Dispatch A: %v", err)
	}
	if err := recv(t, doneB); err != nil {
		t.Fatalf("Dispatch B: %v", err)
	}
	if !sinkA.got[0] || !sinkB.got[0] {
		t.Fatal("both jobs must observe the shared unit's completion")
	}
}

func TestDispatchCancelDetachesSubscribers(t *testing.T) {
	c, _ := testCoordinator(t, Config{ChunkSize: 4, LeaseTTL: 10 * time.Second})
	w1 := c.register("w1")
	sink := newSink()
	ctx, cancel := context.WithCancel(context.Background())
	done := dispatchAsync(c, ctx, testUnits(t, 1), sink)

	lr, _ := tryLease(c, w1.WorkerID)
	cancel()
	if err := recv(t, done); err != context.Canceled {
		t.Fatalf("Dispatch after cancel = %v; want context.Canceled", err)
	}
	// The completion still lands (store write-through, duplicate
	// accounting) but must not report into the dead dispatch.
	c.complete(CompleteRequest{WorkerID: w1.WorkerID, LeaseID: lr.LeaseID, Results: leaseResults(lr)})
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.got) != 0 {
		t.Fatal("cancelled dispatch received a report")
	}
}

func TestCompletionWriteThroughRepairsStore(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := testCoordinator(t, Config{Store: store, ChunkSize: 4, LeaseTTL: 10 * time.Second})
	w1 := c.register("w1")
	sink := newSink()
	done := dispatchAsync(c, context.Background(), testUnits(t, 1), sink)

	lr, _ := tryLease(c, w1.WorkerID)
	// The worker claims execution but its store write-through was
	// lost (flaky network): the coordinator must repair the entry so
	// the warm path stays warm.
	c.complete(CompleteRequest{WorkerID: w1.WorkerID, LeaseID: lr.LeaseID, Results: leaseResults(lr)})
	if err := recv(t, done); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if _, ok := store.Get(lr.Units[0].Key); !ok {
		t.Fatal("completed unit's result missing from the shared store")
	}
}
