package simrun

import (
	"context"
	"testing"

	"minsim/internal/metrics"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

// TestUnknownKindsError pins that a typo'd pattern, arrival or length
// kind is a loud error at canonicalization and validation
// time, never an unstably hashed key.
func TestUnknownKindsError(t *testing.T) {
	p := PatternSpec{Kind: PatternKind(99)}
	if _, err := p.canon(); err == nil {
		t.Error("unknown pattern kind canonicalized")
	}
	if err := p.Validate(); err == nil {
		t.Error("unknown pattern kind validated")
	}
	s := tinySpec(0.3, 42)
	s.Work.Pattern = p
	if _, err := s.Key(); err == nil {
		t.Error("unknown pattern kind produced a key")
	}
	if _, err := s.Work.Factory(mustBuild(t, s.Net))(0.3, 42); err == nil {
		t.Error("unknown pattern kind produced a source")
	}

	a := ArrivalSpec{Kind: ArrivalKind(99)}
	if _, err := a.canon(); err == nil {
		t.Error("unknown arrival kind canonicalized")
	}
	if err := a.Validate(); err == nil {
		t.Error("unknown arrival kind validated")
	}
	s = tinySpec(0.3, 42)
	s.Work.Arrival = a
	if _, err := s.Key(); err == nil {
		t.Error("unknown arrival kind produced a key")
	}

	s = tinySpec(0.3, 42)
	s.Work.Lengths = &traffic.Lengths{Kind: "zipf", L: 8}
	if _, err := s.Key(); err == nil {
		t.Error("unknown length kind produced a key")
	}
	if err := s.Work.Validate(); err == nil {
		t.Error("unknown length kind validated")
	}

	bad := WorkloadSpec{Pattern: PatternSpec{Kind: Uniform}, Arrival: ArrivalSpec{Kind: ArrivalMMPP, Burst: 0.5}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid MMPP parameters validated")
	}
	if err := (WorkloadSpec{Pattern: PatternSpec{Kind: TraceReplay}}).Validate(); err == nil {
		t.Error("empty trace validated")
	}
}

func mustBuild(t *testing.T, n NetworkSpec) *topology.Network {
	t.Helper()
	net, err := n.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestArrivalKeyCompat pins the cache-compatibility contract: the
// arrival line is emitted only for non-Poisson processes, so every
// spec expressible before the arrival axis existed keys exactly as if
// the field were absent — and the new kinds get distinct keys.
func TestArrivalKeyCompat(t *testing.T) {
	base := tinySpec(0.3, 42)
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	explicit := base
	explicit.Work.Arrival = ArrivalSpec{Kind: ArrivalExponential}
	// Stray parameters on the exponential kind canonicalize away.
	explicit.Work.Arrival.Burst = 99
	if k, _ := explicit.Key(); k != k0 {
		t.Error("explicit exponential arrival changed the key")
	}

	mmpp := base
	mmpp.Work.Arrival = ArrivalSpec{Kind: ArrivalMMPP, Burst: 8, DwellHi: 500, DwellLo: 2000}
	km, _ := mmpp.Key()
	if km == k0 {
		t.Error("MMPP arrival did not change the key")
	}
	mmpp2 := mmpp
	mmpp2.Work.Arrival.Burst = 9
	if k, _ := mmpp2.Key(); k == km {
		t.Error("MMPP burst parameter did not change the key")
	}

	onoff := base
	onoff.Work.Arrival = ArrivalSpec{Kind: ArrivalOnOff, DwellHi: 500, DwellLo: 2000}
	ko, _ := onoff.Key()
	if ko == k0 || ko == km {
		t.Error("on-off arrival key collides")
	}
	// OnOff ignores Burst; the spellings must collide.
	onoffB := onoff
	onoffB.Work.Arrival.Burst = 3
	if k, _ := onoffB.Key(); k != ko {
		t.Error("on-off Burst parameter (ignored) changed the key")
	}

	// Trace and adversarial patterns key on their own parameters.
	tr := base
	tr.Work.Pattern = PatternSpec{Kind: TraceReplay, Trace: []traffic.Pair{{Src: 0, Dst: 1}}}
	kt1, err := tr.Key()
	if err != nil {
		t.Fatal(err)
	}
	tr.Work.Pattern.Trace = []traffic.Pair{{Src: 0, Dst: 2}}
	if kt2, _ := tr.Key(); kt2 == kt1 {
		t.Error("trace pairs did not change the key")
	}
	adv := base
	adv.Work.Pattern = PatternSpec{Kind: Adversarial}
	ka1, _ := adv.Key()
	advD := base
	advD.Work.Pattern = PatternSpec{Kind: Adversarial, AdvIters: defaultAdvIters}
	if k, _ := advD.Key(); k != ka1 {
		t.Error("default-iters spellings of the adversarial pattern hashed differently")
	}
	adv.Work.Pattern.AdvIters = 128
	if k, _ := adv.Key(); k == ka1 {
		t.Error("adversarial iterations did not change the key")
	}
}

// TestTraceFactoryFreshCursors: the factory must hand every engine its
// own replay cursors — a second source starts the trace from the top
// even after the first has advanced.
func TestTraceFactoryFreshCursors(t *testing.T) {
	net := mustBuild(t, NetworkSpec{Kind: topology.TMIN, K: 4, Stages: 2})
	w := WorkloadSpec{
		Cluster: Global,
		Pattern: PatternSpec{Kind: TraceReplay, Trace: []traffic.Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}}},
		Lengths: &traffic.Lengths{Kind: "fixed", L: 8},
	}
	f := w.Factory(net)
	a, err := f(0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	for i := 0; i < 4; i++ {
		m, ok := a.Next(0)
		if !ok {
			t.Fatal("trace source refused")
		}
		first = append(first, m.Dst)
	}
	b, err := f(0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m, ok := b.Next(0)
		if !ok || m.Dst != first[i] {
			t.Fatalf("second source draw %d: dst %d ok=%t, want a fresh cursor replaying dst %d", i, m.Dst, ok, first[i])
		}
	}
}

// burstySweep is tinySweep under MMPP arrivals.
func burstySweep(loads []float64, replicas int) SweepSpec {
	s := tinySweep(loads)
	s.Work.Arrival = ArrivalSpec{Kind: ArrivalMMPP, Burst: 8, DwellHi: 200, DwellLo: 800}
	s.Budget.Replicas = replicas
	return s
}

// TestReplicatedSweepBursty extends TestReplicatedSweep's contract to
// the bursty arrival processes: an MMPP sweep replicated through the
// plan merges to exactly what R direct runs of the same specs produce.
func TestReplicatedSweepBursty(t *testing.T) {
	loads := []float64{0.1, 0.25}
	const reps = 3

	plan := NewPlan()
	h := plan.AddSweep(burstySweep(loads, reps))
	if err := plan.Execute(context.Background(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	merged, err := h.Points()
	if err != nil {
		t.Fatal(err)
	}

	for i, load := range loads {
		pts := make([]metrics.Point, reps)
		for rep := 0; rep < reps; rep++ {
			spec := tinySpec(load, DeriveReplicaSeed(7, i, rep))
			spec.Work.Arrival = ArrivalSpec{Kind: ArrivalMMPP, Burst: 8, DwellHi: 200, DwellLo: 800}
			pt, err := spec.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			pts[rep] = pt
		}
		if want := metrics.MergeReplicas(pts); merged[i] != want {
			t.Errorf("load %g: plan bursty merge diverges from direct merge:\nplan:   %+v\ndirect: %+v", load, merged[i], want)
		}
		if merged[i].Messages == 0 {
			t.Errorf("load %g measured nothing", load)
		}
	}
}

// TestAdversarialSpecDeterministic: the adversarial pattern resolves
// inside the factory, so two independent plans must land on identical
// results — the search is a pure function of the spec and network.
func TestAdversarialSpecDeterministic(t *testing.T) {
	run := func() metrics.Point {
		s := tinySpec(0.2, 42)
		s.Work.Pattern = PatternSpec{Kind: Adversarial, AdvIters: 256}
		pt, err := s.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("adversarial point not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Messages == 0 {
		t.Error("adversarial point measured nothing")
	}
}
