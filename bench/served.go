package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/fleet"
	"minsim/internal/metrics"
	"minsim/internal/server"
	"minsim/internal/simrun"
)

// runReply is the part of a /v1/run response the benchmark checks.
type runReply struct {
	Status   string           `json:"status"`
	Counters simrun.Counters  `json:"counters"`
	Figures  []metrics.Figure `json:"figures"`
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	d      time.Duration
	err    error
}

// check decodes a run reply and compares its figures with the
// reference; a transport error or a non-2xx status fails the request.
func (r reply) check(e *env, ref *reference, order []string, o *outcome) (runReply, bool) {
	var rr runReply
	switch {
	case r.err != nil:
		o.fail(1, "%s: request: %v", ref.name, r.err)
		return rr, false
	case r.status/100 != 2:
		o.fail(1, "%s: HTTP %d: %s", ref.name, r.status, bytes.TrimSpace(r.body))
		return rr, false
	}
	if err := json.Unmarshal(r.body, &rr); err != nil {
		o.fail(1, "%s: reply: %v", ref.name, err)
		return rr, false
	}
	csvs := make(map[string]string, len(rr.Figures))
	for _, f := range rr.Figures {
		csvs[f.ID] = f.CSV()
	}
	before := o.failed
	ref.check(e, order, csvs, o)
	return rr, o.failed == before
}

func runBody(figures []string, panels []json.RawMessage, b experiments.Budget) []byte {
	body, err := json.Marshal(map[string]any{
		"figures":     figures,
		"experiments": panels,
		"budget":      map[string]any{"warmup": b.WarmupCycles, "measure": b.MeasureCycles, "seed": b.Seed},
	})
	if err != nil {
		panic(err) // strings and integers always encode
	}
	return body
}

// frontDoor is a simd service on a loopback listener with a client
// for it, both wrapped in seams when the env observes.
type frontDoor struct {
	srv       *server.Server
	ts        *httptest.Server
	handler   *seamHandler
	transport *http.Transport
	rt        *seamTransport
	client    *http.Client
	parent    int // span the client's calls belong to
}

func openFrontDoor(e *env, cfg server.Config) (*frontDoor, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	f := &frontDoor{srv: srv, transport: &http.Transport{MaxIdleConnsPerHost: httpClients}}
	h := srv.Handler()
	var rt http.RoundTripper = f.transport
	if e.obs {
		f.handler = &seamHandler{inner: h, tr: e.tr}
		h = f.handler
		f.rt = &seamTransport{inner: f.transport, tr: e.tr, layer: layerClient, parent: func() int { return f.parent }}
		rt = f.rt
	}
	f.ts = httptest.NewServer(h)
	f.client = &http.Client{Transport: rt, Timeout: 60 * time.Second}
	return f, nil
}

func (f *frontDoor) do(method, path string, body []byte) reply {
	start := time.Now()
	req, err := http.NewRequest(method, f.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return reply{err: err, d: time.Since(start)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: data, d: time.Since(start), err: err}
}

// scrape reads /metrics into a name -> value map (label sets stay
// part of the name).
func (f *frontDoor) scrape() (map[string]float64, error) {
	r := f.do(http.MethodGet, "/metrics", nil)
	if r.err != nil {
		return nil, r.err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func (f *frontDoor) close() {
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx) //nolint:errcheck // only reports the timeout we set
	f.transport.CloseIdleConnections()
}

// simd is the served warm workload: a closed loop of httpClients
// clients, each sending its next request for one paper figure when
// the previous reply arrives, against a store filled in set-up.
type simd struct {
	e        *env
	ref      reference
	ids      []string
	budget   experiments.Budget
	requests int
	dir      string
	door     *frontDoor
	store    *seamStore

	order   []int
	replies []reply
	base    seamCounts
}

func newSimd(e *env, requests int) (*simd, error) {
	s := &simd{e: e, ref: reference{name: "simd-warm"}, budget: tinyBudget(e.seed), requests: requests}
	exps := experiments.Figures()
	for _, x := range exps {
		s.ids = append(s.ids, x.ID)
	}
	var err error
	if s.dir, err = e.mkdir("simd-"); err != nil {
		return nil, err
	}
	if s.ref.twin, _, err = runLocal(e.quiet(), 0, exps, s.budget, s.dir, s.dir); err != nil {
		return nil, err
	}
	disk, err := simrun.NewStore(s.dir)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Store: disk, SimWorkers: planWorkers}
	if e.obs {
		s.store = &seamStore{inner: disk, tr: e.tr, parent: func(key string) int { return s.door.handler.storeParent(key) }}
		cfg.Store = s.store
	}
	s.door, err = openFrontDoor(e, cfg)
	return s, err
}

// prepare draws the unit's request order from the seed.
func (s *simd) prepare(unit int) error {
	rng := rand.New(rand.NewPCG(s.e.seed, uint64(unit)))
	s.order = make([]int, s.requests)
	for i := range s.order {
		s.order[i] = rng.IntN(len(s.ids))
	}
	s.replies = make([]reply, s.requests)
	s.base = s.counts()
	return nil
}

func (s *simd) run(parent int) error {
	s.door.parent = parent
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= s.requests {
					return
				}
				s.replies[i] = s.door.do(http.MethodPost, "/v1/run", runBody([]string{s.ids[s.order[i]]}, nil, s.budget))
			}
		}()
	}
	wg.Wait()
	return nil
}

func (s *simd) finish() outcome {
	o := outcome{attempted: s.requests}
	for i, r := range s.replies {
		id := s.ids[s.order[i]]
		rr, ok := r.check(s.e, &s.ref, s.ids, &o)
		if ok && (rr.Counters.Executed != 0 || len(rr.Figures) != 1 || rr.Figures[0].ID != id) {
			o.fail(1, "simd-warm: request for %s simulated %d points and returned %d figures", id, rr.Counters.Executed, len(rr.Figures))
		}
	}
	return o
}

func (s *simd) counts() seamCounts {
	if s.store == nil {
		return seamCounts{}
	}
	return s.store.counts()
}

func (s *simd) seam() seamCounts {
	c := s.counts()
	return seamCounts{gets: c.gets - s.base.gets, hits: c.hits - s.base.hits, puts: c.puts - s.base.puts}
}

func (s *simd) close() { s.door.close() }

// latencies returns the last unit's request latencies in microseconds.
func (s *simd) latencies() []float64 {
	out := make([]float64, len(s.replies))
	for i, r := range s.replies {
		out[i] = float64(r.d.Nanoseconds()) / 1e3
	}
	return out
}

// memStore is the fleet workload's shared result store: a map. The
// fleet's own costs — leases, the wire, the workers' store calls over
// HTTP, pickup — are what the workload is for, and a DiskStore behind
// the coordinator drowned them: 500 file creations a unit on this
// box's disk made the unit a third slower and twice as unsteady
// (README.md). The cold figure workloads keep the disk.
type memStore struct {
	mu     sync.Mutex
	points map[string]metrics.Point
	stats  simrun.StoreStats
}

func newMemStore() *memStore { return &memStore{points: map[string]metrics.Point{}} }

func (s *memStore) Get(key string) (metrics.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.points[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return p, ok
}

func (s *memStore) Put(key, _ string, p metrics.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points[key] = p
}

func (s *memStore) Stats() simrun.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// fleetRun is the distributed cold workload, the cmd/simfleet shape
// in one process: a coordinator behind the service's front door and
// fleetWorkers workers pulling leases over loopback HTTP. A unit is
// one run request for the panel against a fresh store; the fleet is
// stood up before it and torn down after it, untimed.
type fleetRun struct {
	e      *env
	ref    reference
	exps   []experiments.Experiment
	body   []byte
	points int

	door    *frontDoor
	store   *seamStore
	cancel  context.CancelFunc
	stopped chan error
	workers []*fleetWorkerSeam

	sent  time.Time
	reply reply
	last  fleetUnit
}

type fleetWorkerSeam struct {
	name      string
	transport *http.Transport
	rt        *seamTransport
}

// fleetUnit is what the seams saw during one fleet unit.
type fleetUnit struct {
	calls      [][]httpCall // per worker, within the timed request
	boot       []httpCall   // before it: registration and the first empty polls
	counts     seamCounts
	pickup     time.Duration // request sent -> first lease that carried units
	duplicates int
	requeued   int
}

func newFleet(e *env, panel string) (*fleetRun, error) {
	exps, err := loadPanel(panel)
	if err != nil {
		return nil, err
	}
	raw, err := assets.ReadFile(panel)
	if err != nil {
		return nil, err
	}
	b := tinyBudget(e.seed)
	f := &fleetRun{e: e, ref: reference{name: "fleet-cold"}, exps: exps, points: countPoints(exps, b),
		body: runBody(nil, []json.RawMessage{raw}, b)}
	// The twin needs no store.
	figs, err := experiments.RunAll(context.Background(), exps, b, simrun.Options{Workers: fleetWorkers})
	if err != nil {
		return nil, err
	}
	f.ref.twin = map[string]string{}
	for _, fig := range figs {
		f.ref.twin[fig.ID] = fig.CSV()
	}
	return f, nil
}

func (f *fleetRun) prepare(int) (err error) {
	var store simrun.Store = newMemStore()
	f.store = nil
	if f.e.obs {
		f.store = &seamStore{inner: store, tr: f.e.tr, parent: func(key string) int { return f.door.handler.storeParent(key) }}
		store = f.store
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Store: store})
	if err != nil {
		return err
	}
	if f.door, err = openFrontDoor(f.e, server.Config{Store: store, Fleet: coord}); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.stopped = make(chan error, fleetWorkers)
	f.workers = nil
	for i := 0; i < fleetWorkers; i++ {
		ws := &fleetWorkerSeam{name: fmt.Sprintf("w%d", i), transport: &http.Transport{}}
		var rt http.RoundTripper = ws.transport
		if f.e.obs {
			ws.rt = &seamTransport{inner: ws.transport, tr: f.e.tr, layer: layerFleet, parent: f.door.handler.runSpan}
			rt = ws.rt
		}
		w, err := fleet.NewWorker(fleet.WorkerConfig{Coordinator: f.door.ts.URL, Name: ws.name, SimWorkers: 1,
			Client: &http.Client{Transport: rt, Timeout: 30 * time.Second}})
		if err != nil {
			return err
		}
		f.workers = append(f.workers, ws)
		go func() { f.stopped <- w.Run(ctx) }()
	}
	// Wait for every registration. A worker polls for a lease right
	// after registering, finds nothing and sleeps its poll interval, so
	// the request that follows always waits most of one interval for
	// pickup: the idle-poll cost is in every unit, not in some.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := f.door.scrape()
		if err != nil {
			return err
		}
		if m["fleet_workers_registered"] == fleetWorkers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet-cold: workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fleetRun) run(parent int) error {
	f.door.parent = parent
	f.sent = time.Now()
	f.reply = f.door.do(http.MethodPost, "/v1/run", f.body)
	return nil
}

func (f *fleetRun) finish() outcome {
	done := f.sent.Add(f.reply.d)
	o := outcome{attempted: f.points}
	order := []string{f.exps[0].ID}
	rr, ok := f.reply.check(f.e, &f.ref, order, &o)
	if ok && rr.Counters.Executed != rr.Counters.Unique {
		o.fail(rr.Counters.Unique-rr.Counters.Executed, "fleet-cold: %d of %d unique points executed", rr.Counters.Executed, rr.Counters.Unique)
	}
	f.last = fleetUnit{counts: seamCounts{executed: rr.Counters.Executed}}
	if m, err := f.door.scrape(); err != nil {
		o.fail(1, "fleet-cold: metrics: %v", err)
	} else {
		f.last.duplicates = int(m["fleet_duplicate_executions_total"])
		f.last.requeued = int(m["fleet_units_requeued_total"])
		o.fail(f.last.duplicates, "fleet-cold: %d duplicate executions", f.last.duplicates)
		o.fail(f.last.requeued, "fleet-cold: %d units requeued", f.last.requeued)
	}

	f.cancel()
	for range f.workers {
		<-f.stopped // Run returns the context's error: the stop we asked for
	}
	f.door.close()
	for _, w := range f.workers {
		w.transport.CloseIdleConnections()
	}

	if f.e.obs {
		f.observe(done)
	}
	return o
}

// observe reduces what the worker seams recorded to the unit's fleet
// counts and, when tracing, rebuilds each worker's timeline under the
// run request: a span for the worker over the whole request (its self
// time is waiting — poll sleeps, pickup, the idle tail), with its HTTP
// calls and, between a granted lease and the completion that follows,
// a span for the simulation of that lease.
func (f *fleetRun) observe(done time.Time) {
	tr, run := f.e.tr, f.door.handler.lastRun
	f.last.counts.add(f.store.counts())
	for _, w := range f.workers {
		var calls []httpCall
		for _, c := range w.rt.take() {
			switch {
			case c.start.Before(f.sent):
				f.last.boot = append(f.last.boot, c)
			case !c.end.After(done):
				calls = append(calls, c)
			}
		}
		f.last.calls = append(f.last.calls, calls)
		mine := map[int]bool{}
		for _, c := range calls {
			mine[c.span] = true
			if c.granted && (f.last.pickup == 0 || c.start.Sub(f.sent) < f.last.pickup) {
				f.last.pickup = c.start.Sub(f.sent)
			}
		}
		if tr == nil {
			continue
		}
		timeline := tr.add("worker "+w.name, layerFleetIdle, run, f.sent, done)
		tr.reparent(timeline, f.sent, done, func(s span) bool { return mine[s.ID] })
		var granted *httpCall
		for i := range calls {
			c := &calls[i]
			switch {
			case c.granted:
				granted = c
			case granted != nil && strings.HasSuffix(c.path, "/complete"):
				sim := tr.add("worker simulating a lease", layerEngine, timeline, granted.end, c.start)
				tr.reparent(sim, granted.end, c.start, func(s span) bool { return mine[s.ID] && s.ID != c.span })
				granted = nil
			}
		}
	}
}

func (f *fleetRun) seam() seamCounts { return f.last.counts }

func (f *fleetRun) close() {}
