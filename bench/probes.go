package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/fleet"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// The probes time calls into each layer's public functions, the same
// way on every traced run whatever the workload, so a per-layer number
// means one thing. Raw times are the minimum of a few repeats (the
// least disturbed one); host.ref_ms beside them says how fast the box
// was.

// sample is one reported metric value.
type sample struct {
	value float64
	unit  string
	n     int // samples behind the value, 0 where it is a single exact reading
}

type samples map[string]sample

func (s samples) set(name string, v float64, unit string, n int) {
	s[name] = sample{value: v, unit: unit, n: n}
}

// minTime returns the shortest of k timings of f.
func minTime(k int, f func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < k; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Engine probe loads: idle-skip and admission dominate at lo,
// allocation and arbitration at sat.
var engineLoads = []struct {
	name string
	load float64
}{{"lo", 0.05}, {"mid", 0.4}, {"sat", 0.9}}

const (
	probeWarmup  = 2000
	probeMeasure = 10000
)

// newEngine builds a warmed-up engine for one curve at one load.
func newEngine(c experiments.Curve, load float64, seed uint64) (*engine.Engine, error) {
	net, err := c.Net.Build()
	if err != nil {
		return nil, err
	}
	src, err := c.Work.Factory(net)(load, seed)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(engine.Config{Net: net, Source: src, Seed: seed})
	if err != nil {
		return nil, err
	}
	e.SetMeasureFrom(probeWarmup)
	e.Run(probeWarmup)
	return e, nil
}

// probeEngine measures stepping cost per family and load regime, the
// allocation count per cycle, and the simulated flits per cycle that
// the golden file pins.
func probeEngine(e *env, fams []experiments.Curve, out samples, o *outcome) error {
	var golden strings.Builder
	golden.WriteString("family,load,delivered_flits,measured_cycles,measured_messages\n")
	var mallocs, cycles uint64
	for _, fam := range fams {
		for _, l := range engineLoads {
			var st engine.Stats
			d, err := minTime(3, func() (time.Duration, error) {
				eng, err := newEngine(fam, l.load, e.seed)
				if err != nil {
					return 0, err
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				start := time.Now()
				eng.Run(probeMeasure)
				d := time.Since(start)
				runtime.ReadMemStats(&m1)
				if l.name == "mid" {
					mallocs += m1.Mallocs - m0.Mallocs
					cycles += probeMeasure
				}
				st = eng.Stats()
				return d, nil
			})
			if err != nil {
				return fmt.Errorf("engine probe %s: %w", fam.Label, err)
			}
			out.set("engine.ns_per_cycle."+fam.Label+"."+l.name, float64(d.Nanoseconds())/probeMeasure, "ns", 3)
			fmt.Fprintf(&golden, "%s,%g,%d,%d,%d\n", fam.Label, l.load, st.DeliveredFlits, st.MeasuredCycles, st.MeasuredMsgs)
			if l.name == "mid" {
				out.set("engine.flits_per_cycle."+fam.Label, float64(st.DeliveredFlits)/float64(st.MeasuredCycles), "1/cycle", 0)
			}
		}
	}
	out.set("engine.allocs_per_cycle", float64(mallocs)/float64(cycles), "1/cycle", 0)
	o.attempted += len(fams) * len(engineLoads)
	if e.seed == goldenSeed || e.update {
		n, first, err := checkGolden("probes", golden.String(), e.update)
		if err != nil {
			return err
		}
		o.fail(n, "engine probes differ from golden statistics: %s", first)
	}
	return nil
}

// probeBuild measures topology construction and engine construction
// at paper scale (all families) and at 16K nodes.
func probeBuild(e *env, fams []experiments.Curve, big experiments.Curve, out samples) error {
	build := func(curves []experiments.Curve) (time.Duration, time.Duration, error) {
		var tb, te time.Duration
		for _, c := range curves {
			start := time.Now()
			net, err := c.Net.Build()
			if err != nil {
				return 0, 0, err
			}
			tb += time.Since(start)
			src, err := c.Work.Factory(net)(0.02, e.seed)
			if err != nil {
				return 0, 0, err
			}
			start = time.Now()
			if _, err := engine.New(engine.Config{Net: net, Source: src, Seed: e.seed}); err != nil {
				return 0, 0, err
			}
			te += time.Since(start)
		}
		return tb, te, nil
	}
	for _, size := range []struct {
		name   string
		curves []experiments.Curve
		k      int
	}{{"paper", fams, 5}, {"16k", []experiments.Curve{big}, 3}} {
		var bestB, bestE time.Duration
		for i := 0; i < size.k; i++ {
			tb, te, err := build(size.curves)
			if err != nil {
				return fmt.Errorf("build probe %s: %w", size.name, err)
			}
			if i == 0 || tb < bestB {
				bestB = tb
			}
			if i == 0 || te < bestE {
				bestE = te
			}
		}
		out.set("topology.build_ms."+size.name, ms(bestB), "ms", size.k)
		out.set("engine.new_ms."+size.name, ms(bestE), "ms", size.k)
	}

	// Live heap of one 16K engine: forced-GC HeapAlloc with the engine
	// held, minus the same with only its network and source held.
	net, err := big.Net.Build()
	if err != nil {
		return err
	}
	src, err := big.Work.Factory(net)(0.02, e.seed)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng, err := engine.New(engine.Config{Net: net, Source: src, Seed: e.seed})
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(eng)
	out.set("engine.live_heap_mb.16k", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/1e6, "MB", 0)
	return nil
}

// probeTraffic measures source construction and the per-message draw
// for three workload kinds on one paper network.
func probeTraffic(e *env, fam experiments.Curve, out samples) error {
	net, err := fam.Net.Build()
	if err != nil {
		return err
	}
	const draws = 200_000
	kinds := []struct {
		name string
		work simrun.WorkloadSpec
	}{
		{"uniform", simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Uniform}}},
		{"hotspot", simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.HotSpot, HotX: 0.05}}},
		{"mmpp", simrun.WorkloadSpec{Pattern: simrun.PatternSpec{Kind: simrun.Uniform},
			Arrival: simrun.ArrivalSpec{Kind: simrun.ArrivalMMPP, Burst: 8, DwellHi: 500, DwellLo: 2000}}},
	}
	for i, k := range kinds {
		factory := k.work.Factory(net)
		if i == 0 {
			d, err := minTime(5, func() (time.Duration, error) {
				start := time.Now()
				_, err := factory(0.4, e.seed)
				return time.Since(start), err
			})
			if err != nil {
				return err
			}
			out.set("traffic.source_new_us", us(d), "us", 5)
		}
		d, err := minTime(3, func() (time.Duration, error) {
			src, err := factory(0.4, e.seed)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for n := 0; n < draws; n++ {
				src.Next(n % net.Nodes)
			}
			return time.Since(start), nil
		})
		if err != nil {
			return fmt.Errorf("traffic probe %s: %w", k.name, err)
		}
		out.set("traffic.next_ns."+k.name, float64(d.Nanoseconds())/draws, "ns", 3)
	}
	return nil
}

// probeSimrun measures one point through PointConfig against the bare
// engine run inside it, key hashing, plan scheduling, and the disk
// store's three operations.
func probeSimrun(e *env, fam experiments.Curve, out samples) error {
	net, err := fam.Net.Build()
	if err != nil {
		return err
	}
	const load = 0.4
	pc := simrun.PointConfig{Net: net, Factory: fam.Work.Factory(net), Load: load, Seed: e.seed, Warmup: probeWarmup, Measure: probeMeasure}
	point, err := minTime(5, func() (time.Duration, error) {
		start := time.Now()
		_, err := pc.Simulate()
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	bare, err := minTime(5, func() (time.Duration, error) {
		src, err := pc.Factory(load, e.seed)
		if err != nil {
			return 0, err
		}
		eng, err := engine.New(engine.Config{Net: net, Source: src, Seed: e.seed})
		if err != nil {
			return 0, err
		}
		eng.SetMeasureFrom(probeWarmup)
		start := time.Now()
		eng.Run(probeWarmup + probeMeasure)
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out.set("simrun.point_ms", ms(point), "ms", 5)
	out.set("simrun.point_overhead_frac", 1-float64(bare)/float64(point), "frac", 5)

	const nKeys = 400
	specs := make([]simrun.RunSpec, nKeys)
	keys := make([]string, nKeys)
	for i := range specs {
		specs[i] = simrun.RunSpec{Net: fam.Net, Work: fam.Work, Load: load, Warmup: probeWarmup, Measure: probeMeasure, Seed: e.seed + uint64(i)}
	}
	d, err := minTime(3, func() (time.Duration, error) {
		start := time.Now()
		for i, rs := range specs {
			if keys[i], err = rs.Key(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out.set("simrun.key_us", us(d)/nKeys, "us", 3)

	const nFuncs = 1000
	d, err = minTime(3, func() (time.Duration, error) {
		plan := simrun.NewPlan()
		plan.AddFunc(nFuncs, func(int) (metrics.Point, error) { return metrics.Point{}, nil })
		start := time.Now()
		err := plan.Execute(context.Background(), simrun.Options{Workers: planWorkers})
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	out.set("simrun.plan_sched_us_per_point", us(d)/nFuncs, "us", 3)

	dir, err := e.mkdir("store-")
	if err != nil {
		return err
	}
	store, err := simrun.NewStore(dir)
	if err != nil {
		return err
	}
	half := nKeys / 2
	start := time.Now()
	for _, k := range keys[:half] {
		store.Put(k, "probe", metrics.Point{Offered: load})
	}
	out.set("simrun.store_put_us", us(time.Since(start))/float64(half), "us", half)
	start = time.Now()
	for _, k := range keys[:half] {
		store.Get(k)
	}
	out.set("simrun.store_get_us", us(time.Since(start))/float64(half), "us", half)
	start = time.Now()
	for _, k := range keys[half:] {
		store.Get(k)
	}
	out.set("simrun.store_miss_us", us(time.Since(start))/float64(half), "us", half)
	if st := store.Stats(); st.Hits != int64(half) || st.Misses != int64(half) || st.WriteFails != 0 {
		return fmt.Errorf("store probe: %d hits, %d misses, %d write failures; want %d, %d, 0", st.Hits, st.Misses, st.WriteFails, half, half)
	}
	return nil
}

// probeReplicas compares eight lockstep replicas of each point with
// the same number of cycles run as single scalar points, one worker
// each way: below one, the replica path pays.
func probeReplicas(e *env, fams []experiments.Curve, out samples) error {
	const warm, meas, reps = 500, 2500, 8
	exp := experiments.Experiment{ID: "replica-probe", Curves: fams, Loads: []float64{0.3}}
	batched, err := minTime(3, func() (time.Duration, error) {
		b := experiments.Budget{WarmupCycles: warm, MeasureCycles: meas, Seed: e.seed, Replicas: reps}
		start := time.Now()
		_, err := experiments.RunAll(context.Background(), []experiments.Experiment{exp}, b, simrun.Options{Workers: 1})
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	// One plan per point keeps every point on the scalar path: a plan
	// batches only points it holds together.
	scalar, err := minTime(3, func() (time.Duration, error) {
		b := experiments.Budget{WarmupCycles: warm, MeasureCycles: meas, Seed: e.seed}
		var total time.Duration
		for _, c := range fams {
			one := experiments.Experiment{ID: "scalar-probe", Curves: []experiments.Curve{c}, Loads: exp.Loads}
			start := time.Now()
			if _, err := experiments.RunAll(context.Background(), []experiments.Experiment{one}, b, simrun.Options{Workers: 1}); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	out.set("simrun.replica_ratio", float64(batched)/(reps*float64(scalar)), "ratio", 3)
	return nil
}

// probePool measures what a second pool worker buys on a cold panel:
// wall time with one worker over wall time with two. The timed
// workloads run their plans on one worker (see planWorkers), so this
// is where the pool's parallel path shows. It is the one place that
// lifts the benchmark's one-processor rule (see oneProcessor).
func probePool(e *env, fams []experiments.Curve, out samples) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	exp := experiments.Experiment{ID: "pool-probe", Curves: fams, Loads: []float64{0.1, 0.3, 0.5, 0.7}}
	b := experiments.Budget{WarmupCycles: 500, MeasureCycles: 1500, Seed: e.seed}
	var wall [3]time.Duration
	for workers := 1; workers <= 2; workers++ {
		d, err := minTime(3, func() (time.Duration, error) {
			start := time.Now()
			_, err := experiments.RunAll(context.Background(), []experiments.Experiment{exp}, b, simrun.Options{Workers: workers})
			return time.Since(start), err
		})
		if err != nil {
			return err
		}
		wall[workers] = d
	}
	out.set("simrun.pool_speedup_2w", float64(wall[1])/float64(wall[2]), "ratio", 3)
	return nil
}

// probeFigures measures what surrounds the engine on a figure's way
// out: panel parse, plan assembly, a warm plan, CSV rendering.
func probeFigures(e *env, out samples) error {
	raw, err := assets.ReadFile("panels/five-families.json")
	if err != nil {
		return err
	}
	d, err := minTime(5, func() (time.Duration, error) {
		start := time.Now()
		_, err := experiments.ParseJSON(raw)
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	out.set("experiments.parse_us", us(d), "us", 5)

	dir, err := e.mkdir("warmplan-")
	if err != nil {
		return err
	}
	store, err := simrun.NewStore(dir)
	if err != nil {
		return err
	}
	exps, b := experiments.Figures(), tinyBudget(e.seed)
	figs, err := experiments.RunAll(context.Background(), exps, b, simrun.Options{Workers: planWorkers, Store: store})
	if err != nil {
		return err
	}
	requested := countPoints(exps, b)
	var add, exec time.Duration
	for i := 0; i < 5; i++ {
		plan := simrun.NewPlan()
		start := time.Now()
		for _, x := range exps {
			experiments.AddToPlan(plan, x, b)
		}
		a := time.Since(start)
		start = time.Now()
		if err := plan.Execute(context.Background(), simrun.Options{Workers: planWorkers, Store: store}); err != nil {
			return err
		}
		x := time.Since(start)
		if c := plan.Counters(); c.Executed != 0 {
			return fmt.Errorf("warm plan probe simulated %d points", c.Executed)
		}
		if i == 0 || a < add {
			add = a
		}
		if i == 0 || x < exec {
			exec = x
		}
	}
	out.set("experiments.addtoplan_us_per_point", us(add)/float64(requested), "us", 5)
	out.set("simrun.plan_warm_us_per_point", us(exec)/float64(requested), "us", 5)
	d, _ = minTime(5, func() (time.Duration, error) {
		start := time.Now()
		for _, f := range figs {
			_ = f.CSV()
		}
		return time.Since(start), nil
	})
	out.set("metrics.csv_us_per_figure", us(d)/float64(len(figs)), "us", 5)
	return nil
}

// probeServer sends the served workload's requests through observed
// seams and adds the two floors around them: the cheapest request the
// service answers, and the same warm plan without the service.
func probeServer(e *env, out samples, o *outcome) error {
	obs := *e
	obs.obs, obs.tr = true, nil
	const requests = 1200
	s, err := newSimd(&obs, requests)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.prepare(0); err != nil {
		return err
	}
	start := time.Now()
	if err := s.run(0); err != nil {
		return err
	}
	wall := time.Since(start)
	res := s.finish()
	o.attempted += res.attempted
	o.fail(res.failed, "server probe: %s", res.note)

	lat := s.latencies()
	p50 := median(lat)
	pct, hi := eligiblePercentile(lat)
	out.set("server.req_p50_us", p50, "us", len(lat))
	out.set("server.req_hi_us", hi, "us", len(lat))
	out.set("server.req_hi_pct", pct, "%", len(lat))
	out.set("server.req_per_s", float64(requests)/wall.Seconds(), "1/s", len(lat))
	var handler []float64
	for _, h := range s.door.handler.take() {
		if h.route == "/v1/run" {
			handler = append(handler, us(h.d))
		}
	}
	out.set("server.handler_us", median(handler), "us", len(handler))

	floor := func(path string, n int) float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = us(s.door.do(http.MethodGet, path, nil).d)
		}
		return median(d)
	}
	out.set("server.healthz_us", floor("/healthz", 200), "us", 200)
	out.set("server.metrics_render_us", floor("/metrics", 100), "us", 100)

	// The same one-figure warm plans, in-process.
	disk, err := simrun.NewStore(s.dir)
	if err != nil {
		return err
	}
	inproc := make([]float64, 200)
	for i := range inproc {
		x, _ := experiments.ByID(s.ids[s.order[i]])
		start := time.Now()
		if _, err := experiments.RunAll(context.Background(), []experiments.Experiment{x}, s.budget, simrun.Options{Workers: planWorkers, Store: disk}); err != nil {
			return err
		}
		inproc[i] = us(time.Since(start))
	}
	out.set("server.overhead_us", p50-median(inproc), "us", len(inproc))

	m, err := s.door.scrape()
	if err != nil {
		return err
	}
	out.set("server.rejected", m[`simd_jobs_total{status="rejected"}`], "count", 0)
	return nil
}

// probeFleet runs one unit of the fleet workload through observed
// seams and reduces the workers' HTTP calls to per-route costs and
// per-point counts.
func probeFleet(e *env, out samples, o *outcome) error {
	obs := *e
	obs.obs, obs.tr = true, nil
	f, err := newFleet(&obs, "panels/many-tiny.json")
	if err != nil {
		return err
	}
	defer f.close()
	if err := f.prepare(0); err != nil {
		return err
	}
	if err := f.run(0); err != nil {
		return err
	}
	res := f.finish()
	o.attempted += res.attempted
	o.fail(res.failed, "fleet probe: %s", res.note)
	// The same plan without the fleet: as many simulation workers, the
	// same kind of store.
	start := time.Now()
	if _, err := experiments.RunAll(context.Background(), f.exps, tinyBudget(e.seed), simrun.Options{Workers: fleetWorkers, Store: newMemStore()}); err != nil {
		return err
	}
	local := time.Since(start)

	byRoute := map[string][]float64{}
	var calls, leases, heartbeats int
	var bytes int64
	for _, c := range f.last.boot {
		byRoute[c.method+" "+routeOf(c.path)] = append(byRoute[c.method+" "+routeOf(c.path)], us(c.end.Sub(c.start)))
	}
	for _, w := range f.last.calls {
		for _, c := range w {
			route := c.method + " " + routeOf(c.path)
			byRoute[route] = append(byRoute[route], us(c.end.Sub(c.start)))
			calls++
			bytes += c.bytes
			if c.granted {
				leases++
			}
			if strings.HasSuffix(c.path, "/heartbeat") {
				heartbeats++
			}
		}
	}
	for name, route := range map[string]string{
		"fleet.register_us":  "POST /fleet/v1/register",
		"fleet.lease_us":     "POST /fleet/v1/lease",
		"fleet.complete_us":  "POST /fleet/v1/complete",
		"fleet.store_get_us": "GET /fleet/v1/store/{key}",
		"fleet.store_put_us": "PUT /fleet/v1/store/{key}",
	} {
		out.set(name, median(byRoute[route]), "us", len(byRoute[route]))
	}
	pts := float64(f.points)
	out.set("fleet.leases", float64(leases), "count", 0)
	out.set("fleet.heartbeats", float64(heartbeats), "count", 0)
	out.set("fleet.http_calls_per_point", float64(calls)/pts, "1/point", 0)
	out.set("fleet.bytes_per_point", float64(bytes)/pts, "B/point", 0)
	out.set("fleet.pickup_ms", ms(f.last.pickup), "ms", 1)
	out.set("fleet.overhead_us_per_point", us(f.reply.d-local)/pts, "us", 1)
	out.set("fleet.duplicates", float64(f.last.duplicates), "count", 0)
	out.set("fleet.requeued", float64(f.last.requeued), "count", 0)

	// The wire codec and the key check a worker repeats per leased spec.
	c := f.exps[0].Curves[0]
	const nSpecs = 500
	d, err := minTime(3, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < nSpecs; i++ {
			rs := simrun.RunSpec{Net: c.Net, Work: c.Work, Load: 0.4, Warmup: 200, Measure: 800, Seed: e.seed + uint64(i)}
			w, err := fleet.EncodeSpec(rs)
			if err != nil {
				return 0, err
			}
			back, err := fleet.DecodeSpec(w)
			if err != nil {
				return 0, err
			}
			if _, err := back.Key(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out.set("fleet.wire_us_per_spec", us(d)/nSpecs, "us", 3)
	return nil
}

// runProbes runs every probe and returns the per-layer samples.
func runProbes(e *env, o *outcome) (samples, error) {
	five, err := loadPanel("panels/five-families.json")
	if err != nil {
		return nil, err
	}
	big, err := loadPanel("panels/tmin-16k.json")
	if err != nil {
		return nil, err
	}
	fams := five[0].Curves
	out := samples{}
	for _, probe := range []func() error{
		func() error { return probeEngine(e, fams, out, o) },
		func() error { return probeBuild(e, fams, big[0].Curves[0], out) },
		func() error { return probeTraffic(e, fams[0], out) },
		func() error { return probeSimrun(e, fams[0], out) },
		func() error { return probeReplicas(e, fams, out) },
		func() error { return probePool(e, fams, out) },
		func() error { return probeFigures(e, out) },
		func() error { return probeServer(e, out, o) },
		func() error { return probeFleet(e, out, o) },
	} {
		runtime.GC()
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
