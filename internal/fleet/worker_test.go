package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minsim/internal/simrun"
	"minsim/internal/topology"
)

// TestLostLeaseIsForgotten: a lease whose heartbeat answers 410 is
// abandoned without a completion, and the note that says so does not
// outlive the lease.
func TestLostLeaseIsForgotten(t *testing.T) {
	units := testUnits(t, 2)
	// The first lease is long enough to need a heartbeat (TTL/3 = 10 ms);
	// the 410 cancels it.
	units[0].Spec.Measure = 1 << 40
	key, err := units[0].Spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	units[0].Key = key
	var wire [2]Unit
	for i, u := range units {
		ws, err := EncodeSpec(u.Spec)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = Unit{Key: u.Key, Spec: ws}
	}

	var mu sync.Mutex
	leases := 0
	var completed []string
	secondDone := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, RegisterResponse{WorkerID: "w-1", LeaseTTLMs: 30, Chunk: 1})
	})
	mux.HandleFunc("POST /fleet/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		leases++
		n := leases
		mu.Unlock()
		switch n {
		case 1:
			writeFleetJSON(w, LeaseResponse{LeaseID: "l-1", Units: wire[:1]})
		case 2:
			writeFleetJSON(w, LeaseResponse{LeaseID: "l-2", Units: wire[1:]})
		default:
			<-r.Context().Done() // held, as the coordinator would
		}
	})
	mux.HandleFunc("POST /fleet/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "lease gone", http.StatusGone)
	})
	mux.HandleFunc("POST /fleet/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeBody(w, r, &req) {
			return
		}
		mu.Lock()
		completed = append(completed, req.LeaseID)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		if req.LeaseID == "l-2" {
			close(secondDone)
		}
	})
	mux.HandleFunc("/fleet/v1/store/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, SimWorkers: 1, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	select {
	case <-secondDone:
	case <-ctx.Done():
		t.Fatal("second lease never completed")
	}
	cancel()
	recv(t, stopped)

	mu.Lock()
	defer mu.Unlock()
	if len(completed) != 1 || completed[0] != "l-2" {
		t.Fatalf("completions %v; want only l-2 (l-1 was lost to a 410 heartbeat)", completed)
	}
	if n := w.heartbeatLost.Load(); n != 1 {
		t.Fatalf("heartbeatLost = %d; want 1", n)
	}
	w.lostMu.Lock()
	defer w.lostMu.Unlock()
	if len(w.lost) != 0 {
		t.Fatalf("lost map still holds %v after both leases ended", w.lost)
	}
}

// TestWorkerLeasesMatchLocalRun: three leases over one network compute
// what the same plan run locally computes, point for point.
func TestWorkerLeasesMatchLocalRun(t *testing.T) {
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, SimWorkers: 1, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()

	// Two spellings of one DMIN: the default dilation and the explicit 2.
	sweep := func(p *simrun.Plan, dilation int, loads ...float64) *simrun.Handle {
		return p.AddSweep(simrun.SweepSpec{
			Net:    simrun.NetworkSpec{Kind: topology.DMIN, K: 4, Stages: 2, Dilation: dilation},
			Work:   simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Uniform}},
			Loads:  loads,
			Budget: simrun.Budget{WarmupCycles: 50, MeasureCycles: 300, Seed: 1995},
		})
	}
	build := func() (*simrun.Plan, []*simrun.Handle) {
		p := simrun.NewPlan()
		return p, []*simrun.Handle{sweep(p, 0, 0.1, 0.2, 0.3), sweep(p, 2, 0.4, 0.5, 0.6)}
	}
	fleetPlan, fleetHandles := build()
	if err := fleetPlan.Execute(ctx, simrun.Options{Store: store, Dispatcher: coord}); err != nil {
		t.Fatalf("fleet Execute: %v", err)
	}
	twinPlan, twinHandles := build()
	if err := twinPlan.Execute(ctx, simrun.Options{Workers: 1}); err != nil {
		t.Fatalf("twin Execute: %v", err)
	}
	for i := range fleetHandles {
		got, err := fleetHandles[i].Points()
		if err != nil {
			t.Fatalf("fleet Points: %v", err)
		}
		want, err := twinHandles[i].Points()
		if err != nil {
			t.Fatalf("twin Points: %v", err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sweep %d point %d:\n fleet %+v\n local %+v", i, j, got[j], want[j])
			}
		}
	}
	if leases := w.leases.Load(); leases != 3 {
		t.Fatalf("%d leases; want 3", leases)
	}
	cancel()
	recv(t, stopped)
}

// TestBadLengthsFailTheUnit: a unit whose length range is empty
// (min > max) fails with a unit error instead of panicking the worker
// inside the first length draw.
func TestBadLengthsFailTheUnit(t *testing.T) {
	got := completeOneUnit(t, `{"net_kind":0,"k":4,"stages":2,"lengths":{"kind":"uniform","min":10,"max":5},"load":0.3,"warmup":100,"measure":300,"seed":1}`)
	if len(got) != 1 || !strings.Contains(got[0].Error, "bad uniform lengths {Kind:uniform Min:10 Max:5") || got[0].Executed {
		t.Errorf("results %+v; want one unexecuted unit failing on its length range", got)
	}
}

// TestHugeLoadFailsTheUnit: a load whose per-node rate overflows fails
// its unit with the error, where it used to panic the worker's first
// arrival draw.
func TestHugeLoadFailsTheUnit(t *testing.T) {
	got := completeOneUnit(t, `{"net_kind":0,"k":4,"stages":2,"load":1e308,"warmup":100,"measure":300,"seed":1}`)
	if len(got) != 1 || !strings.Contains(got[0].Error, "per-node rate of +Inf") || got[0].Executed {
		t.Errorf("results %+v; want one unexecuted unit failing on its load", got)
	}
}

// completeOneUnit leases the unit of the given wire body to a real
// worker through a stub coordinator and returns what the worker reports
// completing.
func completeOneUnit(t *testing.T, body string) []UnitResult {
	t.Helper()
	var spec WireSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	key := "k" // what a spec that cannot be keyed is sent under
	if rs, err := DecodeSpec(spec); err == nil {
		if k, err := rs.Key(); err == nil {
			key = k
		}
	}
	var leased atomic.Bool
	results := make(chan []UnitResult, 1)
	closing := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, RegisterResponse{WorkerID: "w-1", LeaseTTLMs: 5000, Chunk: 1})
	})
	mux.HandleFunc("POST /fleet/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if leased.Swap(true) {
			// Held, as the coordinator would. net/http notices the
			// worker hanging up only once the body is read; closing
			// ends the hold before srv.Close waits for it regardless.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-closing:
			}
			return
		}
		writeFleetJSON(w, LeaseResponse{LeaseID: "l-1", Units: []Unit{{Key: key, Spec: spec}}})
	})
	mux.HandleFunc("POST /fleet/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeBody(w, r, &req) {
			return
		}
		w.WriteHeader(http.StatusNoContent)
		results <- req.Results
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(closing)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, SimWorkers: 1, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	defer func() { cancel(); recv(t, stopped) }()
	select {
	case got := <-results:
		return got
	case <-ctx.Done():
		t.Fatal("the lease never completed")
		return nil
	}
}

// TestShutdownIsNotAFailedDelivery: a delivery the worker's own
// shutdown cuts short leaves simd_worker_complete_failures_total
// alone, since the coordinator may have taken the results; three
// refused deliveries count once.
func TestShutdownIsNotAFailedDelivery(t *testing.T) {
	// deliver runs one complete call under ctx against a coordinator
	// serving handler, calling during while the call is out.
	deliver := func(t *testing.T, ctx context.Context, handler http.HandlerFunc, during func()) *Worker {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /fleet/v1/complete", handler)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Client: srv.Client()})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.complete(ctx, CompleteRequest{WorkerID: "w-1", LeaseID: "l-1"})
		}()
		during()
		recv(t, done)
		return w
	}

	t.Run("shutdown", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		took := make(chan struct{}, 1)
		w := deliver(t, ctx, func(w http.ResponseWriter, r *http.Request) {
			var req CompleteRequest
			if !decodeBody(w, r, &req) {
				return
			}
			took <- struct{}{}
			select { // held until the worker shuts down
			case <-ctx.Done():
			case <-r.Context().Done():
			}
		}, func() {
			recv(t, took)
			cancel()
		})
		if n := w.completeFails.Load(); n != 0 {
			t.Errorf("completeFails = %d after a shutdown mid-delivery; want 0", n)
		}
	})

	t.Run("refused", func(t *testing.T) {
		var calls atomic.Int64
		w := deliver(t, context.Background(), func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, "down", http.StatusInternalServerError)
		}, func() {})
		if n := calls.Load(); n != 3 {
			t.Errorf("%d delivery attempts; want 3", n)
		}
		if n := w.completeFails.Load(); n != 1 {
			t.Errorf("completeFails = %d after three refused deliveries; want 1", n)
		}
	})
}
