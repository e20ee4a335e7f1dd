package simrun

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"minsim/internal/engine"
	"minsim/internal/metrics"
)

// SweepSpec requests one load sweep: a network under a workload
// across a set of offered loads, with a cycle budget. Each load point
// becomes a RunSpec whose seed is derived from Budget.Seed and the
// point's index (DeriveSeed).
type SweepSpec struct {
	Net         NetworkSpec
	Work        WorkloadSpec
	Loads       []float64
	Budget      Budget
	BufferDepth int
	Arbitration engine.Arbitration
}

// pointRun is one deduplicated unit of work. Several sweeps (and
// several positions within one sweep) may share a pointRun; it is
// executed at most once per plan. Within a sweep only the load and the
// seed differ from point to point, so a point holds those two and a
// pointer to its sweep's spec, not a copy of the whole RunSpec.
type pointRun struct {
	key    string   // content hash; "" for AddFunc points and failed registrations
	base   *RunSpec // the sweep's spec with Load and Seed zero; nil for AddFunc points
	load   float64
	seed   uint64
	fn     func() (metrics.Point, error)
	pt     metrics.Point
	err    error
	done   bool
	cached bool
}

// spec returns the point's full RunSpec. Valid when fn == nil.
func (r *pointRun) spec() RunSpec {
	rs := *r.base
	rs.Load, rs.Seed = r.load, r.seed
	return rs
}

// Plan is a deduplicated DAG of point-runs assembled from requested
// sweeps. Build it single-threaded (AddSweep/AddFunc), execute it
// once with Execute, then read results from the returned Handles.
type Plan struct {
	mu        sync.Mutex
	runs      []*pointRun
	index     map[string]*pointRun
	requested int
	counters  Counters
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{index: map[string]*pointRun{}}
}

// Handle addresses one requested sweep's results inside a plan. The
// points come back in load order regardless of execution scheduling.
// A replicated sweep (Budget.Replicas > 1) holds one group of
// point-runs per load; Points merges each group into a single
// mean-with-confidence-interval point.
type Handle struct {
	groups [][]*pointRun
}

// AddSweep registers a spec-described sweep and returns its handle.
// Points whose content hash matches an already-registered point share
// that point's single execution (and cache entry). A sweep whose spec
// has no key (an unknown pattern, arrival or length kind) registers
// failed points that never run: Handle.Points reports the error. With
// Budget.Replicas > 1 every load point expands into that many
// replica runs with seeds derived per (point, replica) — each replica
// is an ordinary single-run point-run with its own content key and
// Store entry, so caching, dedup and execution are untouched by
// replication; only Handle.Points merges them.
func (p *Plan) AddSweep(s SweepSpec) *Handle {
	reps := s.Budget.Replicas
	if reps < 1 {
		reps = 1
	}
	h := &Handle{groups: make([][]*pointRun, len(s.Loads))}
	// One key prefix serves the whole sweep: only the point line
	// differs between its keys. An error fails every point.
	prefix, prefixErr := keyPrefix(s.Net, s.Work)
	base := &RunSpec{
		Net:         s.Net,
		Work:        s.Work,
		Warmup:      s.Budget.WarmupCycles,
		Measure:     s.Budget.MeasureCycles,
		BufferDepth: s.BufferDepth,
		Arbitration: s.Arbitration,
	}
	for i, load := range s.Loads {
		group := make([]*pointRun, reps)
		for rep := 0; rep < reps; rep++ {
			seed := DeriveReplicaSeed(s.Budget.Seed, i, rep)
			if prefixErr != nil {
				group[rep] = p.add(base, load, seed, "", prefixErr)
				continue
			}
			rs := *base
			rs.Load, rs.Seed = load, seed
			group[rep] = p.add(base, load, seed, rs.keyAfter(prefix), nil)
		}
		h.groups[i] = group
	}
	return h
}

// AddSpec registers a single fully-derived RunSpec — seed already
// final, no load-sweep expansion — and returns its one-point handle.
// It shares the dedup index with AddSweep, so a spec already on the
// plan resolves to the existing point-run. This is how a fleet worker
// replays a leased unit through the plan layer: the unit's spec goes
// straight in, and execution reuses the same cache check and chunked
// cancellation as any locally planned point.
func (p *Plan) AddSpec(rs RunSpec) *Handle {
	key, err := rs.Key()
	base := rs
	base.Load, base.Seed = 0, 0
	return &Handle{groups: [][]*pointRun{{p.add(&base, rs.Load, rs.Seed, key, err)}}}
}

// add registers the spec point (base with load and seed) under its key,
// or returns the point-run already registered under that key. keyErr,
// the error of a spec with no key (key is ""), makes a failed point: it
// has neither fn nor key, is never indexed or run, and Handle.Points
// reports keyErr.
func (p *Plan) add(base *RunSpec, load float64, seed uint64, key string, keyErr error) *pointRun {
	p.requested++
	if r, ok := p.index[key]; ok {
		return r
	}
	r := &pointRun{key: key, base: base, load: load, seed: seed, err: keyErr}
	p.runs = append(p.runs, r)
	if keyErr == nil {
		p.index[key] = r
	}
	return r
}

// AddFunc registers n opaque points executed by fn(i). Opaque points
// cannot be hashed, deduplicated or cached — they exist so callers
// with work no RunSpec describes (the benchmark's probes) still share
// the plan's worker pool, cancellation and progress accounting.
func (p *Plan) AddFunc(n int, fn func(i int) (metrics.Point, error)) *Handle {
	h := &Handle{groups: make([][]*pointRun, n)}
	for i := 0; i < n; i++ {
		i := i
		r := &pointRun{fn: func() (metrics.Point, error) { return fn(i) }}
		p.runs = append(p.runs, r)
		p.requested++
		h.groups[i] = []*pointRun{r}
	}
	return h
}

// Points assembles the sweep's results in load order, merging the
// replicas of each load point (mean + confidence interval) when the
// sweep was replicated. It returns the first point error, or an error
// if the plan was cancelled before every point of this sweep
// completed.
func (h *Handle) Points() ([]metrics.Point, error) {
	out := make([]metrics.Point, len(h.groups))
	for i, group := range h.groups {
		for _, r := range group {
			if r.err != nil {
				return nil, r.err
			}
			if !r.done {
				return nil, fmt.Errorf("simrun: point %d not executed (plan cancelled or Execute not called)", i)
			}
		}
		if len(group) == 1 {
			out[i] = group[0].pt // single-run point estimate, unchanged
			continue
		}
		pts := make([]metrics.Point, len(group))
		for r := range group {
			pts[r] = group[r].pt
		}
		out[i] = metrics.MergeReplicas(pts)
	}
	return out, nil
}

// FromCache reports whether load point i completed entirely from the
// store (every replica backing it was a cache hit rather than a fresh
// simulation). Only meaningful after Execute; a fleet worker uses it
// to report per-unit executed-vs-cached truthfully to the coordinator.
func (h *Handle) FromCache(i int) bool {
	for _, r := range h.groups[i] {
		if !r.cached {
			return false
		}
	}
	return true
}

// Counters snapshots plan progress for observability. The JSON tags
// are the wire format of the simd service's progress snapshots
// (internal/server), so renaming them is an API change.
type Counters struct {
	Requested int `json:"requested"` // points requested across all sweeps, duplicates included
	Unique    int `json:"unique"`    // deduplicated point-runs the plan will actually execute or fetch
	Cached    int `json:"cached"`    // served from the result store
	Executed  int `json:"executed"`  // simulated during this execution
	Running   int `json:"running"`   // currently simulating
	Failed    int `json:"failed"`    // completed with an error
	Done      int `json:"done"`      // cached + executed (failures included)
}

// Options parameterizes one Execute call.
type Options struct {
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// Store, when non-nil, serves hashable points from the cache and
	// persists freshly computed ones (written as each point finishes,
	// so an interrupted run keeps everything it completed).
	Store Store
	// Dispatcher, when non-nil, executes the plan's spec points
	// remotely instead of on the local worker pool; AddFunc's points
	// still run locally. Persistence of dispatched results is the
	// dispatcher's responsibility (fleet workers write through the
	// shared store), so Execute does not re-Put them.
	Dispatcher Dispatcher
	// Progress, when non-nil, is called with a counter snapshot after
	// every state change (cache hit, start, finish). Calls are
	// serialized and in order: each runs under the plan's mutex, so
	// Progress must not call back into the plan (Counters would
	// deadlock). A fleet Dispatch reports under the coordinator's
	// mutex, so the lock order is coordinator, plan, then whatever
	// Progress takes.
	Progress func(Counters)
}

// Counters returns the current progress snapshot.
func (p *Plan) Counters() Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// Execute runs every not-yet-done point: cache lookups first (serial,
// so cached counts are deterministic), then the remainder on a worker
// pool. Point results and errors land in the runs and are read
// through Handles; Execute itself only fails on context cancellation,
// in which case completed cache entries have already been flushed and
// a re-Execute (same plan or a rebuilt one) resumes where it stopped.
func (p *Plan) Execute(ctx context.Context, opts Options) error {
	p.mu.Lock()
	p.counters = Counters{Requested: p.requested, Unique: len(p.runs)}
	p.mu.Unlock()

	var pending []*pointRun
	for _, r := range p.runs {
		// The scan hits the store's disk once per hashable point; on a
		// large cold plan that is the longest pre-worker stretch, so it
		// honors cancellation too.
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.done {
			// Re-execution after a cancelled run: keep prior results.
			p.bump(func(c *Counters) { c.Done++ }, opts.Progress)
			continue
		}
		if r.fn == nil && r.key == "" {
			// A registration failure (add) never runs. A point cut off
			// by cancellation also holds an error, but keeps its key
			// and runs again.
			p.bump(func(c *Counters) { c.Failed++; c.Done++ }, opts.Progress)
			continue
		}
		if opts.Store != nil && r.fn == nil {
			if pt, ok := opts.Store.Get(r.key); ok {
				r.pt, r.cached, r.done = pt, true, true
				p.bump(func(c *Counters) { c.Cached++; c.Done++ }, opts.Progress)
				continue
			}
		}
		pending = append(pending, r)
	}

	// With a dispatcher, spec points ship out as units; only AddFunc's
	// points stay on the local pool.
	var remote []*pointRun
	if opts.Dispatcher != nil {
		local := pending[:0]
		for _, r := range pending {
			if r.fn == nil {
				remote = append(remote, r)
			} else {
				local = append(local, r)
			}
		}
		pending = local
	}
	var dispatchWG sync.WaitGroup
	if len(remote) > 0 {
		units := make([]DispatchUnit, len(remote))
		for i, r := range remote {
			units[i] = DispatchUnit{Key: r.key, Spec: r.spec()}
		}
		dispatchWG.Add(1)
		go func() {
			defer dispatchWG.Done()
			err := opts.Dispatcher.Dispatch(ctx, units, func(i int, pt metrics.Point, executed bool, uerr error) {
				r := remote[i]
				r.pt, r.err = pt, uerr
				r.done = uerr == nil
				r.cached = uerr == nil && !executed
				p.bump(func(c *Counters) {
					c.Done++
					switch {
					case uerr != nil:
						c.Executed++
						c.Failed++
					case executed:
						c.Executed++
					default:
						c.Cached++
					}
				}, opts.Progress)
			})
			if err == nil || ctx.Err() != nil {
				// Cancellation leaves unreported units undone, exactly
				// like local points never fed to the pool.
				return
			}
			// A fatal dispatch error (coordinator unreachable, job
			// rejected): surface it through every unit it stranded so
			// Handle.Points reports the cause.
			for _, r := range remote {
				if !r.done && r.err == nil {
					r.err = fmt.Errorf("simrun: dispatch: %w", err)
					p.bump(func(c *Counters) { c.Failed++; c.Done++ }, opts.Progress)
				}
			}
		}()
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	// Every point — each replica of a replicated one included — is one
	// engine run and the scheduling granule of the worker pool.
	work := make(chan *pointRun)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				if ctx.Err() != nil {
					continue // drain without simulating
				}
				p.bump(func(c *Counters) { c.Running++ }, opts.Progress)
				// A spec point simulates in cancelQuantum legs
				// (PointConfig.simulate), so cancellation waits one
				// quantum, not a run; an opaque fn point cannot be cut.
				if r.fn != nil {
					r.pt, r.err = r.fn()
				} else {
					rs := r.spec()
					if r.pt, r.err = rs.run(ctx); r.err != nil {
						r.err = fmt.Errorf("simrun: %s: %w", rs, r.err)
					} else if opts.Store != nil {
						opts.Store.Put(r.key, rs.String(), r.pt)
					}
				}
				r.done = r.err == nil
				p.bump(func(c *Counters) {
					c.Running--
					c.Executed++
					c.Done++
					if r.err != nil {
						c.Failed++
					}
				}, opts.Progress)
			}
		}()
	}
feed:
	for _, r := range pending {
		select {
		case work <- r:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	dispatchWG.Wait()
	return ctx.Err()
}

// bump applies a counter update and emits a progress snapshot, both
// under the plan mutex, so observers see consistent counts in order.
func (p *Plan) bump(update func(*Counters), progress func(Counters)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	update(&p.counters)
	if progress != nil {
		progress(p.counters)
	}
}
