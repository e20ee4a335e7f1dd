package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"minsim/internal/simrun"
	"minsim/internal/topology"
)

// e2ePlan builds a small but real sweep: one TMIN network, n load
// points, budgets tiny enough to simulate in milliseconds.
func e2ePlan(n int) (*simrun.Plan, *simrun.Handle) {
	p := simrun.NewPlan()
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = 0.05 + 0.04*float64(i)
	}
	h := p.AddSweep(simrun.SweepSpec{
		Net:    simrun.NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2},
		Work:   simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Uniform}},
		Loads:  loads,
		Budget: simrun.Budget{WarmupCycles: 50, MeasureCycles: 300, Seed: 1995},
	})
	return p, h
}

// TestFleetEndToEnd runs the whole pipeline in one process: a
// coordinator over a disk store, two workers polling it over real
// HTTP, and a plan executed through the Dispatcher hook. Cold run:
// every point executes somewhere in the fleet, exactly once. Warm
// run: the shared store answers everything and no worker executes
// anything.
func TestFleetEndToEnd(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Store: store, ChunkSize: 2, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerDone := make(chan struct{})
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var workers []*Worker
	for _, name := range []string{"w1", "w2"} {
		w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: name, SimWorkers: 2, Client: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		go func() {
			defer func() { workerDone <- struct{}{} }()
			w.Run(workerCtx)
		}()
	}

	const n = 6
	plan, h := e2ePlan(n)
	if err := plan.Execute(ctx, simrun.Options{Store: store, Dispatcher: coord}); err != nil {
		t.Fatalf("cold Execute: %v", err)
	}
	if _, err := h.Points(); err != nil {
		t.Fatalf("cold Points: %v", err)
	}
	cold := plan.Counters()
	if cold.Executed != n || cold.Cached != 0 || cold.Failed != 0 {
		t.Fatalf("cold counters = %+v; want all %d points executed", cold, n)
	}
	coord.mu.Lock()
	dups, completed := coord.duplicates, coord.unitsCompleted
	var fleetExecuted int64
	for _, ws := range coord.workers {
		fleetExecuted += ws.executed
	}
	coord.mu.Unlock()
	if dups != 0 {
		t.Fatalf("cold run recorded %d duplicate executions; want 0", dups)
	}
	if completed != int64(n) || fleetExecuted != int64(n) {
		t.Fatalf("fleet completed=%d executed=%d; want %d each (no key may execute twice)",
			completed, fleetExecuted, n)
	}

	// Warm run: a fresh plan over the same specs must be served
	// entirely by the store — no dispatch, no execution anywhere.
	plan2, h2 := e2ePlan(n)
	if err := plan2.Execute(ctx, simrun.Options{Store: store, Dispatcher: coord}); err != nil {
		t.Fatalf("warm Execute: %v", err)
	}
	warmPts, err := h2.Points()
	if err != nil {
		t.Fatalf("warm Points: %v", err)
	}
	warm := plan2.Counters()
	if warm.Executed != 0 || warm.Cached != n {
		t.Fatalf("warm counters = %+v; want all %d points cached", warm, n)
	}
	coldPts, _ := h.Points()
	for i := range coldPts {
		if coldPts[i] != warmPts[i] {
			t.Fatalf("point %d differs between cold and warm runs:\n  cold %+v\n  warm %+v",
				i, coldPts[i], warmPts[i])
		}
	}

	stopWorkers()
	for range workers {
		recv(t, workerDone)
	}
}

// TestFleetWorkerLossMidJob kills one worker's polling loop mid-job
// (the in-process stand-in for kill -9; the shell e2e does it for
// real) and checks the survivor finishes everything after the lease
// expires.
func TestFleetWorkerLossMidJob(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Short TTL so the abandoned lease requeues quickly.
	coord, err := NewCoordinator(Config{Store: store, ChunkSize: 2, LeaseTTL: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The victim registers and takes one lease, then vanishes without
	// completing it — exactly what a SIGKILL mid-chunk looks like to
	// the coordinator.
	victim, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "victim", SimWorkers: 1, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := victim.register(ctx)
	if err != nil {
		t.Fatalf("victim register: %v", err)
	}

	const n = 4
	plan, h := e2ePlan(n)
	execDone := make(chan error, 1)
	go func() {
		execDone <- plan.Execute(ctx, simrun.Options{Store: store, Dispatcher: coord})
	}()
	// Wait for units to be queued, then let the victim grab a chunk
	// and abandon it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.mu.Lock()
		queued := len(coord.byKey)
		coord.mu.Unlock()
		if queued == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("units never enqueued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	lr, err := tryLease(coord, reg.WorkerID)
	if err != nil || len(lr.Units) == 0 {
		t.Fatalf("victim lease = %+v, %v; want a non-empty chunk", lr, err)
	}

	// The survivor joins late and must complete the whole job,
	// including the victim's requeued units.
	workerCtx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	survivorDone := make(chan struct{})
	survivor, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "survivor", SimWorkers: 2, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(survivorDone)
		survivor.Run(workerCtx)
	}()

	if err := recv(t, execDone); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if _, err := h.Points(); err != nil {
		t.Fatalf("Points: %v", err)
	}
	c := plan.Counters()
	if c.Failed != 0 || c.Done != n {
		t.Fatalf("counters = %+v; want all %d done, none failed", c, n)
	}
	coord.mu.Lock()
	expired, requeued := coord.leasesExpired, coord.unitsRequeued
	coord.mu.Unlock()
	if expired == 0 || requeued == 0 {
		t.Fatalf("expired=%d requeued=%d; the victim's lease must have expired and requeued", expired, requeued)
	}

	stopWorker()
	recv(t, survivorDone)
}
