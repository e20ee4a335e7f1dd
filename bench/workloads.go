package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"minsim/internal/experiments"
	"minsim/internal/simrun"
)

// planWorkers is the simulation parallelism of every plan the
// benchmark runs, httpClients the closed-loop client count of the
// served workload and fleetWorkers the worker count of the fleet
// workload. All are one: the benchmark runs on one processor
// (oneProcessor in main.go), so a second of any of them would only
// queue behind the first. Measured before that rule, with both of this
// box's vCPUs in use: unit_rel rose with a neighbour's load, +16% (two
// clients) and +21% (two workers) under a one-thread hog against -3%
// and -8% with one (README.md), and with two plan workers a unit was
// bimodal, the pool packing a panel's few uneven batches onto them in
// one of two ways, 25% apart. The pool's parallel gain is reported as a
// probe instead.
const (
	planWorkers  = 1
	httpClients  = 1
	fleetWorkers = 1
)

// tinyBudget makes points of about a millisecond: the warm, served and
// fleet workloads are about everything except the engine.
func tinyBudget(seed uint64) experiments.Budget {
	return experiments.Budget{WarmupCycles: 200, MeasureCycles: 800, Seed: seed}
}

// env is what a workload is given: the seed its inputs derive from, a
// scratch directory, and whether to observe the seams (obs) and record
// spans (tr). The timed run has neither.
type env struct {
	seed    uint64
	workers int // simulation workers of the plans it runs
	tmp     string
	obs     bool
	tr      *tracer
	update  bool // rewrite golden files instead of checking them
}

func (e *env) mkdir(pattern string) (string, error) { return os.MkdirTemp(e.tmp, pattern) }

// quiet returns a copy of e that neither observes nor traces, for the
// runs that only prepare a workload (store fills, twins).
func (e *env) quiet() *env {
	q := *e
	q.obs, q.tr = false, nil
	return &q
}

// outcome counts the operations of one unit (points, requests) and how
// many of them failed; note describes the first failure.
type outcome struct {
	attempted, failed int
	note              string
}

func (o *outcome) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	if o.failed == 0 {
		o.note = fmt.Sprintf(format, args...)
	}
	o.failed += n
}

// workload is one set of inputs. Only run is timed: prepare and finish
// hold what a unit needs around it (scratch directories, standing a
// fleet up and down, verifying outputs).
type workload interface {
	prepare(unit int) error
	run(parent int) error
	finish() outcome
	// seam reports what the observed seams counted over the last unit.
	seam() seamCounts
	close()
}

type seamCounts struct {
	executed, gets, hits, puts int
}

func (c *seamCounts) add(d seamCounts) {
	c.executed += d.executed
	c.gets += d.gets
	c.hits += d.hits
	c.puts += d.puts
}

type workloadDef struct {
	name, why string
	setup     func(e *env) (workload, error)
}

var workloads = []workloadDef{
	{"figures-cold", "closed loop, 1 plan at a time: a cold 20-point panel; the engine does >90% of the work across idle, mid-load and saturated points, plan and store almost none",
		func(e *env) (workload, error) {
			return newLocal(e, "figures-cold", "panels/five-families.json",
				experiments.Budget{WarmupCycles: 2500, MeasureCycles: 7500, Seed: e.seed}, false, 1)
		}},
	{"figures-warm", "closed loop: the ten paper figures from a filled disk store, 40 plans a unit; the engine must do nothing, so key hashing, store reads, plan bookkeeping and CSV do everything",
		func(e *env) (workload, error) { return newLocal(e, "figures-warm", "", tinyBudget(e.seed), true, 40) }},
	{"replicas-cold", "closed loop: eight replicas per point, asked for only through Budget.Replicas; the lockstep replica path, so either ending of ROADMAP item 2 shows here alone",
		func(e *env) (workload, error) {
			return newLocal(e, "replicas-cold", "panels/five-families-2.json",
				experiments.Budget{WarmupCycles: 1000, MeasureCycles: 3000, Seed: e.seed, Replicas: 8}, false, 1)
		}},
	{"large-n", "closed loop: one 16384-node network; topology build and engine construction are a large share and the working set is far outside cache, where a 64-node win can lose",
		func(e *env) (workload, error) {
			return newLocal(e, "large-n", "panels/tmin-16k.json",
				experiments.Budget{WarmupCycles: 300, MeasureCycles: 900, Seed: e.seed}, false, 1)
		}},
	{"simd-warm", "closed loop, 1 client: HTTP run requests for warm figures; request parse, admission queue, job lifecycle and response encoding with the engine idle",
		func(e *env) (workload, error) { return newSimd(e, 400) }},
	{"fleet-cold", "closed loop, 1 request, 1 worker: 500 millisecond-sized points through coordinator leases; the wire, the worker's store calls over HTTP and the 100 ms poll pickup are a visible share",
		func(e *env) (workload, error) { return newFleet(e, "panels/many-tiny.json") }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// loadPanel parses an embedded panel; the empty name means the ten
// paper figures.
func loadPanel(panel string) ([]experiments.Experiment, error) {
	if panel == "" {
		return experiments.Figures(), nil
	}
	data, err := assets.ReadFile(panel)
	if err != nil {
		return nil, err
	}
	exp, err := experiments.ParseJSON(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", panel, err)
	}
	return []experiments.Experiment{exp}, nil
}

func countPoints(exps []experiments.Experiment, b experiments.Budget) int {
	n := 0
	for _, e := range exps {
		n += len(e.Loads) * len(e.Curves)
	}
	return n * max(b.Replicas, 1)
}

// reference holds what a unit's figure CSVs are checked against: the
// twin (the same plan run cold and locally, which every unit must
// reproduce byte for byte) and, at the golden seed, the committed
// golden statistics the twin itself must match.
type reference struct {
	name    string
	twin    map[string]string // figure id -> CSV
	checked bool
}

// check compares a unit's CSVs with the reference and returns how many
// rows are wrong. The first cold unit of a run becomes the twin.
func (r *reference) check(e *env, order []string, csvs map[string]string, o *outcome) {
	if r.twin == nil {
		r.twin = csvs
	} else {
		for id, got := range csvs {
			want, ok := r.twin[id]
			if !ok {
				o.fail(1, "%s: figure %s has no twin", r.name, id)
				continue
			}
			n, first := diffRows(got, want)
			o.fail(n, "%s: %s differs from its twin: %s", r.name, id, first)
		}
	}
	if r.checked || (e.seed != goldenSeed && !e.update) {
		return
	}
	r.checked = true
	docs := make([]string, 0, len(order))
	for _, id := range order {
		if c, ok := r.twin[id]; ok {
			docs = append(docs, c)
		}
	}
	projected, err := projectAll(docs)
	if err != nil {
		o.fail(1, "%s: %v", r.name, err)
		return
	}
	n, first, err := checkGolden(r.name, projected, e.update)
	if err != nil {
		o.fail(1, "%s: %v", r.name, err)
		return
	}
	o.fail(n, "%s: differs from golden statistics: %s", r.name, first)
}

// runLocal executes exps as one plan against the store in dir and
// renders every figure to CSV, writing the files under csvDir unless
// it is empty — the cmd/figures path. Store operations and plan
// progress are observed when e asks for it.
func runLocal(e *env, parent int, exps []experiments.Experiment, b experiments.Budget, dir, csvDir string) (map[string]string, seamCounts, error) {
	disk, err := simrun.NewStore(dir)
	if err != nil {
		return nil, seamCounts{}, err
	}
	runSpan := e.tr.begin("experiments.RunAll", layerExperiments, parent)
	var store simrun.Store = disk
	var seam *seamStore
	if e.obs {
		seam = &seamStore{inner: store, tr: e.tr, parent: func(string) int { return runSpan }}
		store = seam
	}
	watch := &planWatch{}
	figs, err := experiments.RunAll(context.Background(), exps, b, simrun.Options{Workers: e.workers, Store: store, Progress: watch.observe})
	e.tr.end(runSpan)
	if err != nil {
		return nil, seamCounts{}, err
	}
	watch.emit(e.tr, runSpan)

	csvSpan := e.tr.begin("Figure.CSV", layerMetrics, parent)
	csvs := make(map[string]string, len(figs))
	for _, f := range figs {
		c := f.CSV()
		csvs[f.ID] = c
		if csvDir == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(csvDir, f.ID+".csv"), []byte(c), 0o644); err != nil {
			return nil, seamCounts{}, err
		}
	}
	e.tr.end(csvSpan)

	var sc seamCounts
	if seam != nil {
		sc = seam.counts()
	}
	sc.executed = watch.counters().Executed
	return csvs, sc, nil
}

// local is the in-process figure workloads: plans per unit, cold (a
// fresh empty store for every plan) or warm (one store filled in
// set-up and re-opened by every plan, as each new CLI invocation
// would).
type local struct {
	e      *env
	ref    reference
	exps   []experiments.Experiment
	order  []string
	budget experiments.Budget
	warm   string // filled store directory; "" = cold
	plans  int
	points int

	dir    string
	csvs   []map[string]string
	counts seamCounts
}

func newLocal(e *env, name, panel string, b experiments.Budget, warm bool, plans int) (workload, error) {
	exps, err := loadPanel(panel)
	if err != nil {
		return nil, err
	}
	l := &local{e: e, ref: reference{name: name}, exps: exps, budget: b, plans: plans, points: countPoints(exps, b)}
	for _, x := range exps {
		l.order = append(l.order, x.ID)
	}
	if !warm {
		return l, nil
	}
	// Fill the store: this cold run is also the warm units' twin.
	if l.warm, err = e.mkdir("warm-"); err != nil {
		return nil, err
	}
	if l.ref.twin, _, err = runLocal(e.quiet(), 0, exps, b, l.warm, l.warm); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *local) prepare(int) (err error) {
	l.csvs, l.counts = nil, seamCounts{}
	l.dir, err = l.e.mkdir("unit-")
	return err
}

func (l *local) run(parent int) error {
	for i := 0; i < l.plans; i++ {
		// A warm plan renders its CSVs without writing them: file
		// creation on this box's disk is the noisiest thing a unit can
		// do, and the cold units already cover it.
		dir, csvDir := l.warm, ""
		if dir == "" {
			dir = filepath.Join(l.dir, "cache")
			csvDir = l.dir
		}
		csvs, sc, err := runLocal(l.e, parent, l.exps, l.budget, dir, csvDir)
		if err != nil {
			return err
		}
		l.csvs = append(l.csvs, csvs)
		l.counts.add(sc)
	}
	return nil
}

func (l *local) finish() outcome {
	o := outcome{attempted: l.points * l.plans}
	if l.warm != "" {
		o.fail(l.counts.executed, "%s: a warm unit simulated %d points", l.ref.name, l.counts.executed)
	}
	for _, csvs := range l.csvs {
		l.ref.check(l.e, l.order, csvs, &o)
	}
	return o
}

func (l *local) seam() seamCounts { return l.counts }

func (l *local) close() {}
