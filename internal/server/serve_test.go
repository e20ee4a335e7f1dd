package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"minsim/internal/fleet"
	"minsim/internal/simrun"
)

// serveOnLoopback starts s.Serve on a fresh loopback port and returns
// the base URL, the cancel that starts the drain, and the channel
// Serve's result arrives on.
func serveOnLoopback(t *testing.T, s *Server) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), cancel, served
}

// syncRun posts body to /v1/run in the background and waits until its
// job is running; the reply arrives on the returned channel.
func syncRun(t *testing.T, base, body string) <-chan jobSnapshot {
	t.Helper()
	reply := make(chan jobSnapshot, 1)
	go func() {
		var snap jobSnapshot
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
		}
		if err != nil {
			t.Errorf("/v1/run: %v", err)
		}
		reply <- snap
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var list jobListResponse
		getJSON(t, base+"/v1/jobs", &list)
		if len(list.Jobs) == 1 && list.Jobs[0].Status == statusRunning {
			return reply
		}
		if time.Now().After(deadline) {
			t.Fatalf("the /v1/run job never started: %+v", list.Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDrainsARunningJob: ending the context lets a running job
// finish inside DrainTimeout, its synchronous reply arrives, the fleet
// worker Serve started stops, and Serve returns nil.
func TestServeDrainsARunningJob(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv, err := New(Config{Store: store, Fleet: coord})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coordSrv.Handler())
	defer cs.Close()
	defer coordSrv.Shutdown(context.Background())
	worker, err := fleet.NewWorker(fleet.WorkerConfig{Coordinator: cs.URL, Client: cs.Client()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, DrainTimeout: time.Minute, FleetWorker: worker})
	if err != nil {
		t.Fatal(err)
	}
	base, cancel, served := serveOnLoopback(t, s)

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(cs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if metricValue(t, string(text), "fleet_workers_registered") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Serve never started the fleet worker:\n%s", text)
		}
	}

	reply := syncRun(t, base, `{"experiments":[`+tinyExperimentJSON+`],"budget":{"warmup":200,"measure":2000000}}`)
	cancel()
	if snap := <-reply; snap.Status != statusDone {
		t.Fatalf("the running job's reply after the drain: %+v", snap)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServeCutsALongJob: with a short DrainTimeout a long job is cut
// off, its synchronous reply says so, and Serve still returns.
func TestServeCutsALongJob(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	base, cancel, served := serveOnLoopback(t, s)

	reply := syncRun(t, base, `{"experiments":[`+tinyExperimentJSON+`],"budget":{"warmup":200,"measure":9000000}}`)
	start := time.Now()
	cancel()
	if snap := <-reply; snap.Status != statusCanceled {
		t.Fatalf("the cut job's reply: %+v", snap)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Serve took %v to return with a 100ms drain window", d)
	}
}
