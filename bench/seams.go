package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// The seams below are the interfaces the code under test already
// exposes; wrapping them is how the benchmark sees inside a unit
// without touching any file outside bench/. Layer names are the
// repository's module names.
const (
	layerBench       = "bench"
	layerClient      = "client"
	layerExperiments = "experiments"
	layerMetrics     = "metrics"
	layerSimrun      = "simrun"
	layerEngine      = "engine"
	layerServer      = "server"
	layerFleet       = "fleet"
	layerFleetIdle   = "fleet.idle"
)

// spanHeader carries the caller's span id across an HTTP hop, so a
// handler span can name the client span that caused it.
const spanHeader = "X-Bench-Span"

// seamStore wraps a simrun.Store: exact operation counts always, a
// span per operation when tracing.
type seamStore struct {
	inner  simrun.Store
	tr     *tracer
	parent func(key string) int

	gets, hits, puts atomic.Int64
}

func (s *seamStore) Get(key string) (metrics.Point, bool) {
	id := s.tr.begin("Store.Get", layerSimrun, s.parentOf(key))
	pt, ok := s.inner.Get(key)
	s.tr.end(id)
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return pt, ok
}

func (s *seamStore) Put(key, spec string, p metrics.Point) {
	id := s.tr.begin("Store.Put", layerSimrun, s.parentOf(key))
	s.inner.Put(key, spec, p)
	s.tr.end(id)
	s.puts.Add(1)
}

func (s *seamStore) Stats() simrun.StoreStats { return s.inner.Stats() }

// counts returns the operations seen so far.
func (s *seamStore) counts() seamCounts {
	return seamCounts{gets: int(s.gets.Load()), hits: int(s.hits.Load()), puts: int(s.puts.Load())}
}

func (s *seamStore) parentOf(key string) int {
	if s.tr == nil || s.parent == nil {
		return 0
	}
	return s.parent(key)
}

// planWatch is a simrun.Options.Progress callback. The plan reports a
// counter snapshot at every state change, which is enough to recover,
// from outside, when the plan was live and when its worker pool was
// simulating (Running > 0).
type planWatch struct {
	mu          sync.Mutex
	last        simrun.Counters
	first, end  time.Time
	busyFrom    time.Time
	busy        [][2]time.Time
	wasRunning  bool
	sawProgress bool
}

func (w *planWatch) observe(c simrun.Counters) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.sawProgress {
		w.first, w.sawProgress = now, true
	}
	w.end = now
	if running := c.Running > 0; running != w.wasRunning {
		if running {
			w.busyFrom = now
		} else {
			w.busy = append(w.busy, [2]time.Time{w.busyFrom, now})
		}
		w.wasRunning = running
	}
	w.last = c
}

func (w *planWatch) counters() simrun.Counters {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// emit turns what the watch saw into spans under parent: one for the
// plan's live interval (from its first store lookup, which precedes
// the first progress report, to its last report) and one per busy
// interval of the worker pool. Store.Put spans that began inside a
// busy interval become its children — a put runs on the worker that
// just finished simulating.
func (w *planWatch) emit(tr *tracer, parent int) {
	if tr == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.sawProgress {
		return
	}
	isStoreOp := func(s span) bool { return s.Layer == layerSimrun && s.Parent == parent }
	from := w.first
	if t, ok := tr.earliest(isStoreOp); ok && t.Before(from) {
		from = t
	}
	plan := tr.add("Plan.Execute", layerSimrun, parent, from, w.end)
	tr.reparent(plan, from, w.end, isStoreOp)
	for _, b := range w.busy {
		id := tr.add("worker pool simulating", layerEngine, plan, b[0], b[1])
		tr.reparent(id, b[0], b[1], func(s span) bool { return s.Name == "Store.Put" && s.Parent == plan })
	}
}

// httpCall is what the round-tripper seam keeps of one request.
type httpCall struct {
	method, path string
	start, end   time.Time
	status       int
	bytes        int64 // request body + response body
	granted      bool  // a lease reply that carried units
	span         int
}

// seamTransport wraps an http.RoundTripper: it times every call, counts
// bytes both ways, and tags the request with its span id. Response
// bodies are read in full inside the timed interval (the caller would
// read them next anyway) and handed on from memory.
type seamTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	layer  string
	parent func() int

	mu    sync.Mutex
	calls []httpCall
}

func (t *seamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call := httpCall{method: req.Method, path: req.URL.Path, start: time.Now()}
	call.span = t.tr.begin(req.Method+" "+routeOf(req.URL.Path), t.layer, t.parent())
	if call.span != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(call.span))
	}
	if req.ContentLength > 0 {
		call.bytes = req.ContentLength
	}
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			resp.Body = io.NopCloser(bytes.NewReader(body))
			call.status = resp.StatusCode
			call.bytes += int64(len(body))
			call.granted = strings.HasSuffix(call.path, "/lease") && bytes.Contains(body, []byte(`"units"`))
		}
	}
	t.tr.end(call.span)
	call.end = time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, call)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// take returns the calls recorded since the last take.
func (t *seamTransport) take() []httpCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.calls
	t.calls = nil
	return c
}

// routeOf collapses the one path with a parameter in it, so calls
// group by route.
func routeOf(path string) string {
	if strings.HasPrefix(path, "/fleet/v1/store/") {
		return "/fleet/v1/store/{key}"
	}
	return path
}

// seamHandler is middleware around server.Handler(): it times every
// request as the server sees it and keeps track of the open ones, so
// store operations inside the server can name the request they serve.
type seamHandler struct {
	inner http.Handler
	tr    *tracer

	mu      sync.Mutex
	open    []openRequest
	handled []handled
	lastRun int // span of the latest run request, open or not
}

type openRequest struct {
	span        int
	route, path string
}

type handled struct {
	route  string
	d      time.Duration
	status int
}

func (h *seamHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r.URL.Path)
	layer := layerServer
	if strings.HasPrefix(route, "/fleet/") {
		layer = layerFleet
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	start := time.Now()
	id := h.tr.begin("handle "+r.Method+" "+route, layer, parent)
	h.mu.Lock()
	h.open = append(h.open, openRequest{span: id, route: route, path: r.URL.Path})
	if route == "/v1/run" {
		h.lastRun = id
	}
	h.mu.Unlock()

	rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.inner.ServeHTTP(rec, r)

	h.tr.end(id)
	h.mu.Lock()
	for i, o := range h.open {
		if o.span == id && o.path == r.URL.Path {
			h.open = append(h.open[:i], h.open[i+1:]...)
			break
		}
	}
	h.handled = append(h.handled, handled{route: route, d: time.Since(start), status: rec.status})
	h.mu.Unlock()
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// storeParent names the open request a store operation on key belongs
// to: the worker's store call for that very key if one is open, else a
// completion being ingested (the coordinator re-checks the store
// there), else the oldest open run request — jobs leave the admission
// queue in arrival order, so the oldest open run is the one executing.
func (h *seamHandler) storeParent(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, o := range h.open {
		if o.route == "/fleet/v1/store/{key}" && strings.HasSuffix(o.path, key) {
			return o.span
		}
	}
	for _, o := range h.open {
		if o.route == "/fleet/v1/complete" {
			return o.span
		}
	}
	for _, o := range h.open {
		if o.route == "/v1/run" {
			return o.span
		}
	}
	return 0
}

// runSpan returns the span of the oldest open run request.
func (h *seamHandler) runSpan() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, o := range h.open {
		if o.route == "/v1/run" {
			return o.span
		}
	}
	return 0
}

func (h *seamHandler) take() []handled {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.handled
	h.handled = nil
	return out
}
