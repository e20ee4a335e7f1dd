// Command bench is the repository's one benchmark: six workloads that
// follow a result the whole way (panel in, figure CSV out; cold and
// warm; in-process, served, distributed), each reported in units of a
// fixed reference kernel so numbers survive this box's noise, with
// per-layer probes and a span trace taken from outside the code under
// test. README.md in this directory says what each number means.
//
//	bench                       every workload, timed then traced, as child processes
//	bench -workload W -trace 0  one timed run: the end-to-end metrics
//	bench -workload W -trace 1  one traced run: the per-layer metrics
//	bench -compare A B          verdicts from two files of interleaved runs (see ab.sh)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"minsim/internal/simrun"
)

const (
	// A run sets its workload up in at least minSetups fresh processes
	// and goes on, up to maxSetups, until they have taken setupBudget:
	// a millisecond set-up needs many samples for a steady median, a
	// half-second one cannot afford them.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 500 * time.Millisecond
	// nominalPass is the length of a reference pass that setup_s is
	// reported at: a set-up is measured in the passes around it, like a
	// unit, and 0.05 s a pass turns that into the seconds it takes on
	// this box in one of its faster hours.
	nominalPass = 0.05
	// minUnits is the fewest units a run measures, however short
	// -seconds is: a median of fewer says little.
	minUnits = 5
	// zeroSeed stands in for -seed 0.
	zeroSeed = 0x5eed
	// tracedShare is the part of a traced run's -seconds spent on
	// units; the probes, which are fixed work, take the rest.
	tracedShare = 0.4
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed    = flag.Uint64("seed", goldenSeed, "seed of the generated inputs (Budget.Seed and request order)")
		seconds = flag.Float64("seconds", 16, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = timed run reporting end-to-end metrics")
		outDir  = flag.String("out", "out", "directory for scratch files, traces and results")
		update  = flag.Bool("update-golden", false, "rewrite golden/*.csv from this run instead of checking (run from bench/ at the golden seed)")
		compare = flag.Bool("compare", false, "compare two files of runs: bench -compare A.json B.json")
		setup   = flag.Bool("setup-only", false, "set the workload up and exit at once (how a timed run measures setup_s)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	oneProcessor()
	if *seed == 0 {
		// The service reads a zero budget seed as "not set" and would
		// simulate a different seed than the local twin.
		*seed = zeroSeed
	}
	if *name == "" {
		return runAll(*seed, *seconds, *outDir, *update)
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// Scratch is removed once, here, and nowhere earlier: on this box's
	// ext4 (mounted with discard) deleting files slows the creation of
	// the next ones severalfold, which would land in the next unit.
	defer os.RemoveAll(tmp)

	e := &env{seed: *seed, workers: planWorkers, tmp: tmp, update: *update}
	if *setup {
		if _, err = simrun.Fingerprint(); err == nil {
			_, err = def.setup(e)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", def.name, err)
			os.Exit(1)
		}
		os.Exit(0) // without the deferred clean-up: the parent owns the scratch directory
	}
	var res result
	var values samples
	if *trace == 0 {
		values, res, err = timedRun(def, e, *seconds)
	} else {
		values, res, err = tracedRun(def, e, *seconds, filepath.Join(*outDir, "trace-"+def.name+".json"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		return 1
	}
	printSamples(def, values)
	res.Metrics = map[string]reported{}
	for k, v := range values {
		res.Metrics[k] = reported{Value: v.value, Unit: v.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// oneProcessor makes the Go scheduler run everything in this process —
// the code under test with its clients, servers, fleet workers and
// collector, and the reference pass — on one processor at a time. A
// unit then is the work on its blocking path plus its fixed sleeps, and
// a neighbour that takes processor time away takes it from the unit and
// from the pass alike. With both of this box's vCPUs in use a unit also
// paid for wake-ups across them, whose cost follows the neighbours'
// load and which the one-thread pass does not feel: fleet-cold's
// unit_rel spread 6.3% over twelve runs under four kinds of neighbour
// on two processors and 2.5% on one, and its unit was a sixth longer
// (README.md, "The unit of time").
func oneProcessor() { runtime.GOMAXPROCS(1) }

// printSamples lists every metric by name with its unit and sample
// count, for people; the JSON line that follows is for the driver.
func printSamples(def workloadDef, values samples) {
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s — %s\n", def.name, def.why)
	for _, k := range names {
		v := values[k]
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("  (n=%d)", v.n)
		}
		fmt.Printf("%-44s %14.6g %-8s%s\n", k, v.value, v.unit, n)
	}
}

// timeSetups measures set-up the way a user pays for it: a fresh
// process (this binary with -setup-only) from its start to the moment
// its first unit could begin — runtime start, the behaviour
// fingerprint, input parse, store fill, service and fleet boot. The
// child exits there without cleaning up; what it leaves is under
// scratch, which the caller removes. Like a unit, each set-up is
// bracketed by two reference passes, because on this box's clock the
// same set-up reads a fifth longer half an hour later (README.md,
// "Set-up time"); it returns the set-ups in seconds and in passes.
func timeSetups(ref *refKernel, def workloadDef, seed uint64, scratch string) (secs, rel []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var before, after []float64
	var total time.Duration
	pass := ref.run().Seconds()
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		cmd := exec.Command(self, "-workload", def.name, "-seed", fmt.Sprint(seed), "-out", scratch, "-setup-only")
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil { // Run waits for the child to exit
			return nil, nil, fmt.Errorf("set-up process: %w", err)
		}
		d := time.Since(start)
		total += d
		secs = append(secs, d.Seconds())
		before = append(before, pass)
		pass = ref.run().Seconds()
		after = append(after, pass)
	}
	return secs, relTimes(secs, before, after), nil
}

// measurement is what one loop of units recorded.
type measurement struct {
	unitS, allocMB, cpuS, gcs []float64
	refBefore, refAfter       []float64 // the reference passes around each unit, seconds
	spans                     []int     // unit span ids, traced loops only
	seams                     []seamCounts
	total                     outcome
}

func (m *measurement) rel() []float64 { return relTimes(m.unitS, m.refBefore, m.refAfter) }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureUnit runs unit number i of w and then the reference kernel;
// before is the pass that preceded the unit, and the pass after it is
// returned to bracket the next one.
func measureUnit(ref *refKernel, before float64, w workload, e *env, i int, m *measurement) (float64, error) {
	e.tr.setUnit(i + 1)
	if err := w.prepare(i); err != nil {
		return 0, fmt.Errorf("unit %d: %w", i, err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	span := e.tr.begin("unit", layerBench, 0)
	start := time.Now()
	err := w.run(span)
	d := time.Since(start)
	e.tr.end(span)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, fmt.Errorf("unit %d: %w", i, err)
	}
	res := w.finish()
	m.total.attempted += res.attempted
	m.total.fail(res.failed, "%s", res.note)
	m.unitS = append(m.unitS, d.Seconds())
	m.allocMB = append(m.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	m.cpuS = append(m.cpuS, cpu1-cpu0)
	m.gcs = append(m.gcs, float64(m1.NumGC-m0.NumGC))
	m.spans = append(m.spans, span)
	m.seams = append(m.seams, w.seam())
	after := ref.run().Seconds()
	m.refBefore = append(m.refBefore, before)
	m.refAfter = append(m.refAfter, after)
	return after, nil
}

// preamble is everything a run does before its first set-up: the
// reference kernel's tables and the behaviour fingerprint every content
// key needs. It returns the kernel and the fingerprint's cost.
func preamble() (*refKernel, time.Duration, error) {
	ref, err := newRefKernel()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := simrun.Fingerprint(); err != nil {
		return nil, 0, err
	}
	return ref, time.Since(start), nil
}

// timedRun is the run the end-to-end metrics come from: no seams, no
// spans, units until the time is up.
func timedRun(def workloadDef, e *env, seconds float64) (samples, result, error) {
	ref, _, err := preamble()
	if err != nil {
		return nil, result{}, err
	}
	setupS, setups, err := timeSetups(ref, def, e.seed, e.tmp)
	if err != nil {
		return nil, result{}, err
	}
	w, err := def.setup(e)
	if err != nil {
		return nil, result{}, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	var m measurement
	pass := ref.run().Seconds()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		if pass, err = measureUnit(ref, pass, w, e, i, &m); err != nil {
			return nil, result{}, err
		}
	}
	n := len(m.unitS)
	out := samples{}
	out.set("setup_s", median(setups)*nominalPass, "s", len(setups))
	out.set("unit_rel", median(m.rel()), "ref", n)
	out.set("alloc_mb", median(m.allocMB), "MB", n)
	fmt.Fprintf(os.Stderr, "bench: %s: %d units; unit %.4g s (IQR %.1f%%), reference pass %.4g ms (IQR %.1f%%), unit_rel IQR %.1f%%; %d set-ups of %.4g s on the clock\n",
		def.name, n, median(m.unitS), 100*iqrFrac(m.unitS), 1e3*median(m.refAfter), 100*iqrFrac(m.refAfter), 100*iqrFrac(m.rel()), len(setupS), median(setupS))
	if m.total.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", def.name, m.total.failed, m.total.attempted, m.total.note)
	}
	return out, result{Correct: m.total.failed == 0, Attempted: m.total.attempted, Failed: m.total.failed}, nil
}

// tracedRun is the run the per-layer metrics come from. It alternates
// plain units with traced ones (two instances of the workload, so the
// plain ones carry no seam at all), then runs the probes, and writes
// the spans to tracePath.
func tracedRun(def workloadDef, e *env, seconds float64, tracePath string) (samples, result, error) {
	ref, fingerprint, err := preamble()
	if err != nil {
		return nil, result{}, err
	}
	plain, err := def.setup(e)
	if err != nil {
		return nil, result{}, err
	}
	defer plain.close()
	te := *e
	te.obs, te.tr = true, newTracer()
	traced, err := def.setup(&te)
	if err != nil {
		return nil, result{}, err
	}
	defer traced.close()

	var pm, tm measurement
	pass := ref.run().Seconds()
	deadline := time.Now().Add(time.Duration(seconds * tracedShare * float64(time.Second)))
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		if pass, err = measureUnit(ref, pass, plain, e, i, &pm); err != nil {
			return nil, result{}, err
		}
		if pass, err = measureUnit(ref, pass, traced, &te, i, &tm); err != nil {
			return nil, result{}, err
		}
	}
	total := outcome{attempted: pm.total.attempted + tm.total.attempted}
	total.fail(pm.total.failed, "%s", pm.total.note)
	total.fail(tm.total.failed, "%s", tm.total.note)

	out, err := runProbes(e, &total)
	if err != nil {
		return nil, result{}, err
	}
	out.set("simrun.fingerprint_ms", ms(fingerprint), "ms", 1)
	hostSamples(out, ref, &pm, &tm)
	traceSamples(out, te.tr.snapshot(), &tm)
	if err := te.tr.write(tracePath); err != nil {
		return nil, result{}, err
	}
	if total.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", def.name, total.failed, total.attempted, total.note)
	}
	return out, result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed}, nil
}

// hostSamples says whether the run was disturbed: the reference
// pass's level and spread, whole and part by part (which part moved
// says what kind of disturbance it was), the units' raw and normalised
// spread, and what the process cost the box.
func hostSamples(out samples, ref *refKernel, plain, traced *measurement) {
	n := len(plain.unitS)
	rel := plain.rel()
	refs := append(append([]float64(nil), plain.refBefore...), traced.refBefore...)
	out.set("host.ref_ms", median(refs)*1e3, "ms", len(refs))
	out.set("host.ref_iqr_frac", iqrFrac(refs), "frac", len(refs))
	for i, name := range refParts {
		part := make([]float64, len(ref.parts))
		for j, p := range ref.parts {
			part[j] = p[i] * 1e3
		}
		out.set("host.ref_"+name+"_ms", median(part), "ms", len(part))
	}
	out.set("host.unit_s_min", minOf(plain.unitS), "s", n)
	out.set("host.unit_s_med", median(plain.unitS), "s", n)
	out.set("host.unit_s_iqr_frac", iqrFrac(plain.unitS), "frac", n)
	out.set("host.unit_rel_iqr_frac", iqrFrac(rel), "frac", n)
	pct, hi := eligiblePercentile(rel)
	out.set("host.unit_rel_hi", hi, "ref", n)
	out.set("host.unit_rel_hi_pct", pct, "%", n)
	out.set("host.cpu_s_per_unit", median(plain.cpuS), "s", n)
	out.set("host.gc_cycles_per_unit", median(plain.gcs), "count", n)
	out.set("host.peak_rss_mb", peakRSSMB(), "MB", 0)
	out.set("host.trace_overhead_frac", median(traced.rel())/median(rel)-1, "frac", len(traced.unitS))
}

// tracedLayers are the layers a unit's self time is split over; every
// traced run reports all of them, zero where the workload has none.
var tracedLayers = []string{layerBench, layerClient, layerServer, layerExperiments, layerMetrics, layerSimrun, layerEngine, layerFleet, layerFleetIdle}

// traceSamples reduces the traced units: each layer's share of self
// time over all spans that descend from a unit span, and the seam
// counts per unit.
func traceSamples(out samples, spans []span, m *measurement) {
	shares := layerShares(descendants(spans, m.spans))
	for _, l := range tracedLayers {
		out.set("trace.share."+l, shares[l], "frac", len(m.spans))
	}
	var executed, gets, puts, hits []float64
	for _, c := range m.seams {
		executed = append(executed, float64(c.executed))
		gets = append(gets, float64(c.gets))
		puts = append(puts, float64(c.puts))
		hits = append(hits, float64(c.hits))
	}
	n := len(m.seams)
	out.set("trace.executed_points", median(executed), "count", n)
	out.set("simrun.store_gets", median(gets), "count", n)
	out.set("simrun.store_puts", median(puts), "count", n)
	ratio := 0.0
	if g := median(gets); g > 0 {
		ratio = median(hits) / g
	}
	out.set("simrun.store_hit_ratio", ratio, "frac", n)
}

// runAll runs every workload, timed then traced, each in a child
// process (a fresh fingerprint, a clean heap and peak RSS), prints
// every metric and writes the collected results to out/results.json.
func runAll(seed uint64, seconds float64, outDir string, update bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	type entry struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		Result   result `json:"result"`
	}
	var all []entry
	status := 0
	for _, def := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir}
			if update {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to exit
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", def.name, trace, err)
				status = 1
				continue
			}
			os.Stdout.Write(stdout)
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if json.Unmarshal(lines[len(lines)-1], &res) != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): no result line\n", def.name, trace)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			all = append(all, entry{def.name, trace, res})
		}
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return status
}
