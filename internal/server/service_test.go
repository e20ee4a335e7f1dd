package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/fleet"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// recvTimeout bounds every wait on a channel in this package's tests.
const recvTimeout = 30 * time.Second

// recv returns the next value from ch. After recvTimeout it fails the
// test with every goroutine's stack, so a hang names the wait it is
// stuck in instead of running into the package timeout.
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

// registryRequest asks for every paper figure and extension at the
// budget TestRegistryDigests runs.
func registryRequest(t *testing.T) string {
	t.Helper()
	var ids []string
	for id := range experiments.Titles() {
		ids = append(ids, id)
	}
	if len(ids) != 29 {
		t.Fatalf("%d registry ids, want 29", len(ids))
	}
	data, err := json.Marshal(ids)
	if err != nil {
		t.Fatal(err)
	}
	return `{"figures":` + string(data) + `,"budget":{"preset":"quick","warmup":100,"measure":300,"seed":777}}`
}

// gateStore holds the first Get after arm until release, so the job
// that makes it stays running while the test fills the queue behind it.
type gateStore struct {
	simrun.Store
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateStore) Get(key string) (metrics.Point, bool) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Store.Get(key)
}

// masks blank what differs from run to run: when a job was created and
// how long it ran, and the request log's clock and peer address.
var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(created|time|remote)":"[^"]*"`), `"$1":"*"`},
	{regexp.MustCompile(`"duration_ms":[-+.0-9eE]+`), `"duration_ms":*`},
}

func mask(b []byte) []byte {
	for _, m := range masks {
		b = m.re.ReplaceAll(b, []byte(m.with))
	}
	return b
}

// exchanges serves requests straight into a handler, one at a time,
// and writes each reply to a readable transcript: the status, every
// header the handler set and the masked body, or the digest of the
// masked body where it is a job result. It keeps each body's length for
// checking the request log.
type exchanges struct {
	t     *testing.T
	h     http.Handler
	out   strings.Builder
	sizes []int
}

// do serves one request, fails the test unless it is answered wantCode,
// and returns the body unmasked.
func (x *exchanges) do(method, path, label, body string, wantCode int) []byte {
	x.t.Helper()
	rec := httptest.NewRecorder()
	x.h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	got := mask(rec.Body.Bytes())
	if rec.Code != wantCode {
		x.t.Fatalf("%s %s%s: code %d, want %d: %s", method, path, label, rec.Code, wantCode, got)
	}
	x.sizes = append(x.sizes, rec.Body.Len())
	fmt.Fprintf(&x.out, "> %s %s%s\n< %d\n", method, path, label, rec.Code)
	for _, k := range slices.Sorted(maps.Keys(rec.Header())) {
		fmt.Fprintf(&x.out, "< %s: %s\n", k, strings.Join(rec.Header()[k], ", "))
	}
	if strings.HasSuffix(path, "/result") && rec.Code == http.StatusOK {
		sum := sha256.Sum256(got)
		fmt.Fprintf(&x.out, "sha256:%s (%d bytes)\n\n", hex.EncodeToString(sum[:]), len(got))
	} else {
		fmt.Fprintf(&x.out, "%s\n", got)
	}
	return rec.Body.Bytes()
}

// logLines masks the request log. Each line's "bytes" must be the
// length of the reply it logs; it is masked after that check, since a
// job snapshot's length moves with its masked clock fields.
func (x *exchanges) logLines(log []byte) []byte {
	x.t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(log), "\n"), "\n")
	if len(lines) != len(x.sizes) {
		x.t.Fatalf("%d request log lines for %d requests:\n%s", len(lines), len(x.sizes), log)
	}
	var out []byte
	for i, line := range lines {
		var e struct{ Bytes int }
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Bytes != x.sizes[i] {
			x.t.Errorf("request log line %d logs %d bytes (%v) for a %d-byte reply: %s", i+1, e.Bytes, err, x.sizes[i], line)
		}
		out = append(out, logBytes.ReplaceAllString(string(mask([]byte(line))), `"bytes":*`)+"\n"...)
	}
	return out
}

var logBytes = regexp.MustCompile(`"bytes":[0-9]+`)

// waitJob waits for a job's terminal state.
func waitJob(t *testing.T, s *Server, id string) {
	t.Helper()
	j, ok := s.mgr.get(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	recv(t, (<-chan struct{})(j.done))
}

// TestServiceRepliesPinned serves the whole registry through simd, cold
// then warm, and through a coordinator with two fleet workers, and holds
// what the service sends to testdata/service.golden: the reply of every
// route (status, headers, body), one body of each error status
// writeError answers, and the request log. A job result is held by its
// digest; its points must equal experiments.RunAll's bit for bit, and
// the fleet must reply with the very bytes simd does. Repin only on
// purpose, with -update.
func TestServiceRepliesPinned(t *testing.T) {
	registry := registryRequest(t)
	disk, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{Store: disk, entered: make(chan struct{}), release: make(chan struct{})}
	logs := &bytes.Buffer{}
	s, err := New(Config{Store: gate, QueueDepth: 1, JobWorkers: 1, LogWriter: logs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // before Shutdown, which waits for the held job
	x := &exchanges{t: t, h: s.Handler()}

	x.do("GET", "/healthz", "", "", http.StatusOK)
	x.do("GET", "/v1/figures", "", "", http.StatusOK)
	x.do("POST", "/v1/run", " (an experiment spelling hotx the fleet's way)",
		`{"experiments":[{"id":"x","loads":[0.1],"curves":[{"label":"a","workload":{"pattern":"hotspot","hot_x":0.2}}]}]}`, http.StatusBadRequest)
	x.do("POST", "/v1/jobs", " (a body over the cap)", fastRunBody+strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge)

	x.do("POST", "/v1/jobs", " (the registry, cold)", registry, http.StatusAccepted)
	waitJob(t, s, "j-000001")
	x.do("GET", "/v1/jobs/j-000001", "", "", http.StatusOK)
	cold := x.do("GET", "/v1/jobs/j-000001/result", "", "", http.StatusOK)
	x.do("GET", "/v1/jobs", "", "", http.StatusOK)

	x.do("POST", "/v1/jobs", " (the registry, warm)", registry, http.StatusAccepted)
	waitJob(t, s, "j-000002")
	x.do("GET", "/v1/jobs/j-000002", "", "", http.StatusOK)
	warm := x.do("GET", "/v1/jobs/j-000002/result", "", "", http.StatusOK)

	// A job held at its first store read keeps the one job worker busy,
	// so the next job waits in the queue and the one after finds it full.
	gate.armed.Store(true)
	x.do("POST", "/v1/jobs", " (a job held at its first store read)", fastRunBody, http.StatusAccepted)
	recv(t, (<-chan struct{})(gate.entered))
	x.do("POST", "/v1/jobs", " (queued behind it)", fastRunBody, http.StatusAccepted)
	x.do("GET", "/healthz", "", "", http.StatusOK)
	x.do("POST", "/v1/jobs", " (the queue is full)", fastRunBody, http.StatusTooManyRequests)
	x.do("GET", "/v1/jobs/j-000004/result", "", "", http.StatusConflict)
	x.do("GET", "/v1/jobs/j-000004", "", "", http.StatusOK)
	x.do("DELETE", "/v1/jobs/j-000004", "", "", http.StatusOK)
	x.do("GET", "/v1/jobs/nope", "", "", http.StatusNotFound)
	release()
	waitJob(t, s, "j-000003")

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	x.do("GET", "/healthz", " (draining)", "", http.StatusServiceUnavailable)
	x.do("POST", "/v1/jobs", " (draining)", registry, http.StatusServiceUnavailable)
	x.out.WriteString("# request log\n")
	x.out.Write(x.logLines(logs.Bytes()))

	file := filepath.Join("testdata", "service.golden")
	if *updateMetrics {
		if err := os.WriteFile(file, []byte(x.out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.out.String(); got != string(want) {
		t.Errorf("the service's replies differ from %s:\n%s", file, got)
	}

	figs := resultFigures(t, cold)
	if !reflect.DeepEqual(figs, resultFigures(t, warm)) {
		t.Error("the warm registry job replied with other figures than the cold one")
	}
	var exps []experiments.Experiment
	for id := range experiments.Titles() {
		e, _ := experiments.ByID(id)
		exps = append(exps, e)
	}
	budget := experiments.QuickBudget
	budget.WarmupCycles, budget.MeasureCycles, budget.Seed = 100, 300, 777
	direct, err := experiments.RunAll(context.Background(), exps, budget, simrun.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstFigureDiff(figs, direct); diff != "" {
		t.Errorf("simd's registry result differs from experiments.RunAll: %s", diff)
	}

	if fleetReply := fleetRegistryResult(t, registry); !bytes.Equal(mask(fleetReply), mask(cold)) {
		t.Errorf("the fleet's registry result differs from simd's:\n%s\nsimd:\n%s", fleetReply, cold)
	}
}

// fleetRegistryResult serves the registry request through a coordinator
// with two workers of its own, over a fresh store, and returns the
// result body.
func fleetRegistryResult(t *testing.T, registry string) []byte {
	t.Helper()
	store, err := simrun.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, Fleet: coord})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopped := make(chan struct{}, 2)
	for i := range 2 {
		w, err := fleet.NewWorker(fleet.WorkerConfig{Coordinator: ts.URL, Name: fmt.Sprintf("w%d", i), SimWorkers: 1, Client: ts.Client()})
		if err != nil {
			t.Fatal(err)
		}
		go func() { w.Run(ctx); stopped <- struct{}{} }()
	}
	x := &exchanges{t: t, h: s.Handler()}
	x.do("POST", "/v1/jobs", "", registry, http.StatusAccepted)
	waitJob(t, s, "j-000001")
	got := x.do("GET", "/v1/jobs/j-000001/result", "", "", http.StatusOK)
	cancel()
	recv(t, stopped)
	recv(t, stopped)
	return got
}

func resultFigures(t *testing.T, body []byte) []metrics.Figure {
	t.Helper()
	var snap struct{ Figures []metrics.Figure }
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("result body: %v", err)
	}
	return snap.Figures
}

// firstFigureDiff names the first figure, series and point where got
// differs from want, comparing floats by their bits; "" if none.
func firstFigureDiff(got, want []metrics.Figure) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d figures, want %d", len(got), len(want))
	}
	for i, wf := range want {
		gf := got[i]
		if gf.ID != wf.ID || gf.Title != wf.Title || len(gf.Series) != len(wf.Series) {
			return fmt.Sprintf("figure %d is %s %q with %d series, want %s %q with %d", i, gf.ID, gf.Title, len(gf.Series), wf.ID, wf.Title, len(wf.Series))
		}
		for j, ws := range wf.Series {
			gs := gf.Series[j]
			if gs.Label != ws.Label || len(gs.Points) != len(ws.Points) {
				return fmt.Sprintf("%s series %d is %q with %d points, want %q with %d", wf.ID, j, gs.Label, len(gs.Points), ws.Label, len(ws.Points))
			}
			for k, wp := range ws.Points {
				gv, wv := reflect.ValueOf(gs.Points[k]), reflect.ValueOf(wp)
				for f := range wv.NumField() {
					a, b := gv.Field(f), wv.Field(f)
					same := a.Equal(b)
					if b.Kind() == reflect.Float64 {
						same = math.Float64bits(a.Float()) == math.Float64bits(b.Float())
					}
					if !same {
						return fmt.Sprintf("%s/%s point %d: %s is %v, want %v", wf.ID, ws.Label, k, wv.Type().Field(f).Name, a, b)
					}
				}
			}
		}
	}
	return ""
}
