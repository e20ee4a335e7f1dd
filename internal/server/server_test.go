package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"minsim/internal/fleet"
	"minsim/internal/simrun"
)

// newTestServer builds a server over a scratch store with tight,
// test-friendly hardening knobs, plus overrides.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *bytes.Buffer) {
	t.Helper()
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	logs := &bytes.Buffer{}
	cfg := Config{
		Store:        store,
		QueueDepth:   1,
		JobWorkers:   1,
		JobTimeout:   time.Minute,
		DrainTimeout: 300 * time.Millisecond,
		RetryAfter:   2 * time.Second,
		LogWriter:    logs,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts, logs
}

// fastRunBody requests the tiny 16-node experiment with a very small
// cycle budget; slowRunBody makes the same experiment's first point
// take seconds, keeping its worker busy.
const (
	fastBudget  = `"budget":{"warmup":200,"measure":1000}`
	slowBudget  = `"budget":{"warmup":200,"measure":3000000}`
	fastRunBody = `{"experiments":[` + tinyExperimentJSON + `],` + fastBudget + `}`
	slowRunBody = `{"experiments":[` + tinyExperimentJSON + `],` + slowBudget + `}`
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// waitStatus polls a job until it reaches want (or fails the test).
func waitStatus(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var snap jobSnapshot
		getJSON(t, base+"/v1/jobs/"+id, &snap)
		if snap.Status == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %q", id, want)
}

func TestHTTPValidationErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cases := []struct {
		body     string
		wantCode int
		wantMsg  string
	}{
		{`{`, http.StatusBadRequest, "invalid request JSON"},
		{`{}`, http.StatusBadRequest, "no experiments requested"},
		{`{"figures":["nope"]}`, http.StatusBadRequest, "unknown figure id"},
		{`{"figures":["fig16a"],"budget":{"measure":99999999999}}`, http.StatusBadRequest, "per-point limit"},
	}
	for _, path := range []string{"/v1/run", "/v1/jobs"} {
		for _, tc := range cases {
			resp, body := postJSON(t, ts.URL+path, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Errorf("POST %s %q: code %d, want %d", path, tc.body, resp.StatusCode, tc.wantCode)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, tc.wantMsg) {
				t.Errorf("POST %s %q: body %q lacks %q", path, tc.body, body, tc.wantMsg)
			}
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", resp.StatusCode)
	}

	// Body cap: a request over maxBodyBytes is refused with 413.
	resp, _ := postJSON(t, ts.URL+"/v1/run", fastRunBody+strings.Repeat(" ", maxBodyBytes))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code %d, want 413", resp.StatusCode)
	}
}

// TestOversizeNetworkRefused: a network description is free to parse
// whatever size it names, so the request path must refuse one no run
// could hold before anything is sized by it — 400, naming the count,
// and far from the terabytes an engine over it would ask for.
func TestOversizeNetworkRefused(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	body := `{"experiments":[{"id":"huge","loads":[0.1],"curves":[{"label":"h",
	  "network":{"kind":"tmin","k":2,"stages":40},"workload":{"pattern":"uniform"}}]}],` + fastBudget + `}`
	postJSON(t, ts.URL+"/v1/run", `{}`) // connection and handler warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, out := postJSON(t, ts.URL+"/v1/run", body)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code %d, want 400; body %s", resp.StatusCode, out)
	}
	var eb errorBody
	if err := json.Unmarshal(out, &eb); err != nil || !strings.Contains(eb.Error, "45079976738816 channels") {
		t.Errorf("body %q does not name the channel count", out)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the request allocated %d bytes, want < 1 MB", got)
	}
}

// TestHugeLoadFailsTheJob: a load so large that its per-node rate
// overflows fails its job with the point's error, and the server goes on
// serving. It used to panic in the first arrival draw and take the whole
// process down.
func TestHugeLoadFailsTheJob(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	body := `{"experiments":[{"id":"x","loads":[1e308],"curves":[{"label":"t",
	  "network":{"kind":"tmin","wiring":"cube","k":4,"stages":3},"workload":{"cluster":"global","pattern":"uniform"}}]}],
	  "budget":{"warmup":10,"measure":10,"seed":1}}`
	resp, out := postJSON(t, ts.URL+"/v1/run", body)
	var snap jobSnapshot
	if err := json.Unmarshal(out, &snap); err != nil {
		t.Fatalf("code %d body %s: %v", resp.StatusCode, out, err)
	}
	if snap.Status != statusFailed || !strings.Contains(snap.Error, "per-node rate of +Inf") {
		t.Fatalf("code %d, job %+v; want it failed on its per-node rate", resp.StatusCode, snap)
	}
	if resp, out := postJSON(t, ts.URL+"/v1/run", fastRunBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("next run: code %d body %s", resp.StatusCode, out)
	}
}

// TestWrappingBudgetsRefused: a replica count or cycle budget whose
// product or sum wraps past the admission caps is refused with a 400
// naming the cap, and the server goes on serving. Admitted, a replica
// count panicked the job's goroutine sizing a slice of 2^62 point-runs,
// taking the process down, and a cycle budget ran no cycle and
// answered 200 with all-zero points, stored under their keys.
func TestWrappingBudgetsRefused(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for _, b := range wrappingBudgets {
		resp, out := postJSON(t, ts.URL+"/v1/run", `{"figures":["fig17a"],"budget":{`+b+`}}`)
		var eb errorBody
		if err := json.Unmarshal(out, &eb); err != nil || resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(eb.Error, "limit is 20000 load points") && !strings.Contains(eb.Error, "per-point limit 10000000") {
			t.Errorf("%s: code %d body %s; want 400 naming the cap", b, resp.StatusCode, out)
		}
		if resp, out := postJSON(t, ts.URL+"/v1/run", fastRunBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("after %s: next run code %d body %s", b, resp.StatusCode, out)
		}
	}
}

func TestSyncRunWarmCache(t *testing.T) {
	_, ts, logs := newTestServer(t, nil)

	resp, body := postJSON(t, ts.URL+"/v1/run", fastRunBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: code %d body %s", resp.StatusCode, body)
	}
	var cold jobSnapshot
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Status != statusDone || cold.Counters.Executed != cold.Counters.Unique || cold.Counters.Executed == 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	if len(cold.Figures) != 1 || len(cold.Figures[0].Series) != 1 || len(cold.Figures[0].Series[0].Points) != 2 {
		t.Fatalf("cold run figures: %+v", cold.Figures)
	}

	resp, body = postJSON(t, ts.URL+"/v1/run", fastRunBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: code %d body %s", resp.StatusCode, body)
	}
	var warm jobSnapshot
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Counters.Executed != 0 || warm.Counters.Cached != cold.Counters.Unique {
		t.Fatalf("warm run did not hit the cache: %+v", warm.Counters)
	}
	if fmt.Sprint(warm.Figures) != fmt.Sprint(cold.Figures) {
		t.Fatal("warm figures differ from cold figures")
	}

	// Structured request log: one JSON line per request.
	var entry logEntry
	line, _, _ := strings.Cut(logs.String(), "\n")
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("request log line %q: %v", line, err)
	}
	if entry.Method != "POST" || entry.Path != "/v1/run" || entry.Status != http.StatusOK {
		t.Fatalf("request log entry: %+v", entry)
	}
}

func TestBackpressure429(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	// Occupy the single worker with a slow job...
	resp, body := postJSON(t, ts.URL+"/v1/jobs", slowRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow job: code %d body %s", resp.StatusCode, body)
	}
	var slow struct{ ID string }
	json.Unmarshal(body, &slow)
	waitStatus(t, ts.URL, slow.ID, statusRunning)

	// ...fill the depth-1 queue...
	resp, body = postJSON(t, ts.URL+"/v1/jobs", fastRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: code %d body %s", resp.StatusCode, body)
	}
	var queued struct{ ID string }
	json.Unmarshal(body, &queued)

	// ...and the next submission must be rejected with backpressure.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", fastRunBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: code %d body %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// Canceling the queued job is immediate; canceling the running job
	// cuts its context and the worker finishes it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %v %v", resp.StatusCode, err)
	}
	waitStatus(t, ts.URL, queued.ID, statusCanceled)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+slow.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: %v %v", resp.StatusCode, err)
	}
	waitStatus(t, ts.URL, slow.ID, statusCanceled)
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", slowRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow job: code %d body %s", resp.StatusCode, body)
	}
	var running struct{ ID string }
	json.Unmarshal(body, &running)
	waitStatus(t, ts.URL, running.ID, statusRunning)

	resp, body = postJSON(t, ts.URL+"/v1/jobs", fastRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: code %d body %s", resp.StatusCode, body)
	}
	var queued struct{ ID string }
	json.Unmarshal(body, &queued)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Queued work was canceled, the running job was cut at the drain
	// deadline, and both are terminal.
	var snap jobSnapshot
	getJSON(t, ts.URL+"/v1/jobs/"+queued.ID, &snap)
	if snap.Status != statusCanceled {
		t.Fatalf("queued job after drain: %+v", snap)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+running.ID, &snap)
	if snap.Status != statusCanceled && snap.Status != statusDone {
		t.Fatalf("running job after drain: %+v", snap)
	}

	// The service reports draining and refuses new work with 503.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: code %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", fastRunBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: code %d, want 503", resp.StatusCode)
	}
}

// metricValue extracts a sample value from Prometheus text output.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("metric %s: bad value %q", name, rest)
		}
		return v
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

func TestMetricsCounters(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	for i := 0; i < 2; i++ { // cold then warm
		if resp, body := postJSON(t, ts.URL+"/v1/run", fastRunBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: code %d body %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	checks := map[string]float64{
		"simd_ready":                            1,
		"simd_queue_depth":                      0,
		"simd_queue_capacity":                   1,
		"simd_jobs_inflight":                    0,
		`simd_jobs_total{status="done"}`:        2,
		`simd_jobs_total{status="failed"}`:      0,
		"simd_points_executed_total":            2, // tiny = 2 unique points, cold run only
		"simd_points_cached_total":              2, // warm run served both from the store
		"simd_cache_hits_total":                 2,
		"simd_cache_misses_total":               2,
		"simd_job_duration_seconds_count":       2,
		`simd_http_requests_total{class="2xx"}`: 2,
	}
	for name, want := range checks {
		if got := metricValue(t, text, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// TestReplicatedRunWarmCache drives a replicated panel (replicas > 1)
// through the service end to end: the cold request executes
// loads x curves x replicas points and reports CI-bearing figure
// points; the warm repeat of the same request is served entirely from
// the cache with consistent counters.
func TestReplicatedRunWarmCache(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	body := `{"experiments":[` + tinyExperimentJSON + `],"budget":{"warmup":200,"measure":1000,"replicas":3}}`

	resp, raw := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: code %d body %s", resp.StatusCode, raw)
	}
	var cold jobSnapshot
	if err := json.Unmarshal(raw, &cold); err != nil {
		t.Fatal(err)
	}
	// 2 loads x 1 curve x 3 replicas.
	if cold.Counters.Requested != 6 || cold.Counters.Executed != 6 || cold.Counters.Cached != 0 {
		t.Fatalf("cold replicated run counters: %+v", cold.Counters)
	}
	pts := cold.Figures[0].Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("cold replicated run points: %+v", pts)
	}
	for i, p := range pts {
		if p.Replicas != 3 {
			t.Errorf("point %d: Replicas = %d, want 3", i, p.Replicas)
		}
		if p.LatencyCILo > p.LatencyCyc || p.LatencyCIHi < p.LatencyCyc {
			t.Errorf("point %d: CI [%v, %v] does not bracket mean %v", i, p.LatencyCILo, p.LatencyCIHi, p.LatencyCyc)
		}
	}

	resp, raw = postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: code %d body %s", resp.StatusCode, raw)
	}
	var warm jobSnapshot
	if err := json.Unmarshal(raw, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Counters.Executed != 0 || warm.Counters.Cached != 6 {
		t.Fatalf("warm replicated run did not hit the cache: %+v", warm.Counters)
	}
	if fmt.Sprint(warm.Figures) != fmt.Sprint(cold.Figures) {
		t.Fatal("warm replicated figures differ from cold")
	}

	// The replica-0 cache entries double as the single-run entries: a
	// plain run of the same panel executes nothing.
	resp, raw = postJSON(t, ts.URL+"/v1/run", `{"experiments":[`+tinyExperimentJSON+`],"budget":{"warmup":200,"measure":1000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single run: code %d body %s", resp.StatusCode, raw)
	}
	var single jobSnapshot
	if err := json.Unmarshal(raw, &single); err != nil {
		t.Fatal(err)
	}
	if single.Counters.Executed != 0 || single.Counters.Cached != 2 {
		t.Fatalf("single run after replicated run should be fully cached: %+v", single.Counters)
	}
}

// TestShutdownReleasesParkedLeaseCalls: idle fleet workers are parked
// inside the coordinator's lease handler; Shutdown must answer them
// rather than wait out their hold, closing the HTTP server must then
// be prompt, and the workers must back off — no errors, no spinning.
func TestShutdownReleasesParkedLeaseCalls(t *testing.T) {
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, Fleet: coord, LogWriter: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	leaseReplies := map[int]int{} // status -> count
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.Handler().ServeHTTP(rec, r)
		if r.URL.Path == "/fleet/v1/lease" {
			mu.Lock()
			leaseReplies[rec.code]++
			mu.Unlock()
		}
	}))

	const workers = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopped := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{Coordinator: ts.URL, Client: ts.Client()})
		if err != nil {
			t.Fatal(err)
		}
		go func() { w.Run(ctx); stopped <- struct{}{} }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if metricValue(t, string(text), "fleet_lease_waiters") == workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never parked:\n%s", text)
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ts.Close() // waits for every outstanding request
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown and Close took %v with %d lease calls parked; want well under the hold", d, workers)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(leaseReplies) != 1 || leaseReplies[http.StatusOK] != workers {
		t.Fatalf("lease replies by status = %v; want %d answers, all 200, and no re-poll inside the back-off", leaseReplies, workers)
	}
	cancel()
	for i := 0; i < workers; i++ {
		<-stopped
	}
}
