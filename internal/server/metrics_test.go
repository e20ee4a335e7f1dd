package server

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minsim/internal/fleet"
	"minsim/internal/simrun"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current code")

// TestMetricsTextPinned renders /metrics for a coordinator with one
// worker of its own, after a cold run went through the fleet, and holds
// the text to testdata/metrics.golden byte for byte: every HELP and TYPE
// line, every label and every sample line of the three writers. The
// counters that depend on the clock or on how often the test polled (job
// duration, HTTP classes, rejections) are set to fixed non-zero values
// before the render.
func TestMetricsTextPinned(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var s *Server
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.Handler().ServeHTTP(w, r) }))
	defer ts.Close()
	wk, err := fleet.NewWorker(fleet.WorkerConfig{Coordinator: ts.URL, Name: "w0", SimWorkers: 1, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(Config{Store: store, QueueDepth: 1, JobWorkers: 1, Fleet: coord, FleetWorker: wk, LogWriter: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { wk.Run(ctx); close(stopped) }()
	waitLeaseWaiters(t, coord, 1)
	if resp, body := postJSON(t, ts.URL+"/v1/run", fastRunBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: code %d body %s", resp.StatusCode, body)
	}
	waitLeaseWaiters(t, coord, 1) // the worker has delivered and asks again
	cancel()
	<-stopped
	waitLeaseWaiters(t, coord, 0)
	ts.Close() // waits for the cancelled lease call's reply to be counted

	for i, c := range []*atomic.Int64{&s.reg.jobsRejected, &s.reg.http[0], &s.reg.http[1], &s.reg.http[2], &s.reg.http[3]} {
		c.Store(int64(i + 3))
	}
	s.reg.jobDurationMicros.Store(1_250_000)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := rec.Body.Bytes()
	file := filepath.Join("testdata", "metrics.golden")
	if *updateMetrics {
		if err := os.WriteFile(file, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics differs from %s:\n%s", file, got)
	}
}

// waitLeaseWaiters polls the coordinator's own metrics, not /metrics, so
// that the polling counts no HTTP response.
func waitLeaseWaiters(t *testing.T, coord *fleet.Coordinator, want int) {
	t.Helper()
	line := fmt.Sprintf("fleet_lease_waiters %d\n", want)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var buf bytes.Buffer
		coord.WriteMetrics(&buf)
		if strings.Contains(buf.String(), line) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease waiters never reached %d:\n%s", want, buf.String())
		}
	}
}

// TestCountHTTPClasses: a response code is counted in its class, and a
// code outside 2xx to 5xx in none.
func TestCountHTTPClasses(t *testing.T) {
	var r registry
	for _, code := range []int{-250, -1, 0, 101, 199, 200, 299, 302, 404, 499, 500, 599, 600, 1000} {
		r.countHTTP(code)
	}
	want := [...]int64{2, 1, 2, 2}
	for class := range r.http {
		if got := r.http[class].Load(); got != want[class] {
			t.Errorf("%dxx counted %d responses, want %d", class+2, got, want[class])
		}
	}
}
