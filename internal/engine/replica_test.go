// Bit-exactness suite for the batched-replica engine: a ReplicaSet
// must be observationally identical to R independent scalar engines —
// same Stats, same per-channel flit counts, same clocks — for every
// replica, on every paper network, under both arbitration modes,
// whether driven by the chunked lockstep Run or the strict per-cycle
// Step. The suite also machine-checks the 0 allocs/cycle contract of
// the lockstep hot path.
package engine_test

import (
	"reflect"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/traffic"
	"minsim/internal/xrand"
)

// uniformSource builds a fresh uniform workload over net with the
// given offered load and seed. Sources are stateful, so the replica
// lane and its scalar reference each need their own instance.
func uniformSource(t testing.TB, nodes int, load float64, seed uint64) engine.Source {
	t.Helper()
	c := traffic.Global(nodes)
	rates, err := traffic.NodeRates(c, load, traffic.PaperLengths.Mean(), nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewWorkload(traffic.Config{
		Nodes:   nodes,
		Pattern: traffic.Uniform{C: c},
		Lengths: traffic.PaperLengths,
		Rates:   rates,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// laneParams is one replica's inputs: every lane of a set may carry
// its own seed and its own load point (the two batching use cases:
// multi-seed replication and adjacent-load batching).
type laneParams struct {
	load      float64
	trafSeed  uint64
	engSeed   uint64
	warmup    int64
	measure   int64
	arb       engine.Arbitration
	stepwise  bool // drive via Step instead of Run
	chanStats bool
}

// runReplicaSet runs all lanes through one ReplicaSet and returns each
// replica's Stats and channel flit counts.
func runReplicaSet(t testing.TB, spec experiments.NetworkSpec, lanes []laneParams) ([]engine.Stats, [][]int64) {
	t.Helper()
	net, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.ReplicaConfig{Net: net, Arbitration: lanes[0].arb}
	for _, p := range lanes {
		cfg.Lanes = append(cfg.Lanes, engine.LaneConfig{
			Source: uniformSource(t, net.Nodes, p.load, p.trafSeed),
			Seed:   p.engSeed,
		})
	}
	rs, err := engine.NewReplicaSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lanes[0].chanStats {
		rs.EnableChannelStats()
	}
	rs.SetMeasureFrom(lanes[0].warmup)
	total := lanes[0].warmup + lanes[0].measure
	if lanes[0].stepwise {
		for i := int64(0); i < total; i++ {
			rs.Step()
		}
	} else {
		rs.Run(total)
	}
	if rs.Now() != total {
		t.Fatalf("replica-set clock at %d, want %d", rs.Now(), total)
	}
	if err := rs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := make([]engine.Stats, rs.Replicas())
	flits := make([][]int64, rs.Replicas())
	for r := 0; r < rs.Replicas(); r++ {
		stats[r] = rs.Stats(r)
		flits[r] = append([]int64(nil), rs.ChannelFlits(r)...)
	}
	return stats, flits
}

// runScalars runs each lane through its own independent scalar engine
// — the reference the ReplicaSet must match bit for bit.
func runScalars(t testing.TB, spec experiments.NetworkSpec, lanes []laneParams) ([]engine.Stats, [][]int64) {
	t.Helper()
	stats := make([]engine.Stats, len(lanes))
	flits := make([][]int64, len(lanes))
	for r, p := range lanes {
		net, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(engine.Config{
			Net:         net,
			Source:      uniformSource(t, net.Nodes, p.load, p.trafSeed),
			Seed:        p.engSeed,
			Arbitration: p.arb,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.chanStats {
			e.EnableChannelStats()
		}
		e.SetMeasureFrom(p.warmup)
		e.Run(p.warmup + p.measure)
		stats[r] = e.Stats()
		flits[r] = append([]int64(nil), e.ChannelFlits()...)
	}
	return stats, flits
}

func compareLanes(t *testing.T, name string, bs []engine.Stats, bf [][]int64, ss []engine.Stats, sf [][]int64) {
	t.Helper()
	delivered := int64(0)
	for r := range bs {
		if bs[r] != ss[r] {
			t.Errorf("%s replica %d: Stats diverge from scalar engine:\nbatched: %+v\nscalar:  %+v", name, r, bs[r], ss[r])
		}
		if !reflect.DeepEqual(bf[r], sf[r]) {
			t.Errorf("%s replica %d: per-channel flit counts diverge from scalar engine", name, r)
		}
		delivered += bs[r].Delivered
	}
	if delivered == 0 {
		t.Errorf("%s: no replica delivered anything; the comparison is vacuous", name)
	}
}

// TestReplicaBitExactPaperSpecs checks the central contract on all
// five paper networks under both arbitration modes: R=3 lanes with
// distinct seeds AND distinct adjacent load points, batched vs scalar.
func TestReplicaBitExactPaperSpecs(t *testing.T) {
	for _, ns := range experiments.PaperSpecs() {
		for _, arb := range []engine.Arbitration{engine.ArbitrateRandom, engine.ArbitrateOldestFirst} {
			lanes := []laneParams{
				{load: 0.30, trafSeed: 7, engSeed: 42, warmup: 2000, measure: 6000, arb: arb, chanStats: true},
				{load: 0.35, trafSeed: 8, engSeed: 43, warmup: 2000, measure: 6000, arb: arb, chanStats: true},
				{load: 0.40, trafSeed: 9, engSeed: 44, warmup: 2000, measure: 6000, arb: arb, chanStats: true},
			}
			bs, bf := runReplicaSet(t, ns.Spec, lanes)
			ss, sf := runScalars(t, ns.Spec, lanes)
			compareLanes(t, ns.Name, bs, bf, ss, sf)
		}
	}
}

// TestReplicaStepMatchesRun pins the two lockstep drivers to each
// other: driving a ReplicaSet cycle-by-cycle through Step must yield
// the same per-replica results as the chunked Run (modulo the
// idle-skip counter, which Step never uses), and both must match the
// scalar reference.
func TestReplicaStepMatchesRun(t *testing.T) {
	spec := experiments.PaperSpecs()[0].Spec
	mk := func(stepwise bool) []laneParams {
		return []laneParams{
			// Low load so the Run driver actually exercises idle skipping.
			{load: 0.002, trafSeed: 3, engSeed: 9, warmup: 1000, measure: 9000, stepwise: stepwise},
			{load: 0.004, trafSeed: 4, engSeed: 10, warmup: 1000, measure: 9000, stepwise: stepwise},
		}
	}
	rs, _ := runReplicaSet(t, spec, mk(false))
	st, _ := runReplicaSet(t, spec, mk(true))
	skipped := int64(0)
	for r := range rs {
		skipped += rs[r].IdleSkipped
		rs[r].IdleSkipped = 0
		if st[r].IdleSkipped != 0 {
			t.Fatalf("replica %d: Step path skipped %d cycles", r, st[r].IdleSkipped)
		}
		if rs[r] != st[r] {
			t.Errorf("replica %d: Run and Step lockstep drivers disagree:\nRun:  %+v\nStep: %+v", r, rs[r], st[r])
		}
	}
	if skipped == 0 {
		t.Error("low-load lockstep Run skipped no idle cycles; the chunked fast path was not exercised")
	}
}

// TestReplicaStepAllocs machine-checks the 0 allocs/cycle contract of
// the lockstep hot path, complementing the static simvet hotalloc
// gate with a dynamic measurement. The cases reach every helper of the
// advance kernel: private links (tmin-cube) take the train path with
// no per-hop work, shared links (vmin-cube) claim link stamps hop by
// hop and fall back to the per-hop loop, and channel statistics add
// the per-hop flit counts to both.
func TestReplicaStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		spec      experiments.NetworkSpec
		chanStats bool
	}{
		{experiments.TMINCube, false},
		{experiments.TMINCube, true},
		{experiments.VMINCube, false},
		{experiments.VMINCube, true},
	} {
		net, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.ReplicaConfig{Net: net}
		for r := 0; r < 4; r++ {
			// A clearly sustainable load: at saturation the source queues
			// grow without bound and their append-doubling would charge
			// (amortized, legitimate) allocations to the measurement.
			cfg.Lanes = append(cfg.Lanes, engine.LaneConfig{
				Source: uniformSource(t, net.Nodes, 0.2, uint64(7+r)),
				Seed:   uint64(42 + r),
			})
		}
		rs, err := engine.NewReplicaSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.chanStats {
			rs.EnableChannelStats()
		}
		// Warm up past the transient so scratch buffers and source queues
		// reach their steady-state capacities.
		rs.Run(50_000)
		if allocs := testing.AllocsPerRun(200, rs.Step); allocs != 0 {
			t.Errorf("%s stats=%v: lockstep Step allocates %.1f times per cycle, want 0", net.Name(), tc.chanStats, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { rs.Run(100) }); allocs != 0 {
			t.Errorf("%s stats=%v: lockstep Run allocates %.1f times per 100 cycles, want 0", net.Name(), tc.chanStats, allocs)
		}
	}
}

// FuzzReplicaBitExact randomizes the replica count, per-lane seeds and
// per-lane load points within one topology and checks batched-vs-
// scalar bit-exactness for every replica.
func FuzzReplicaBitExact(f *testing.F) {
	f.Add(uint64(1), uint8(2), false)
	f.Add(uint64(42), uint8(5), true)
	f.Add(uint64(1995), uint8(16), false)
	f.Fuzz(func(t *testing.T, seed uint64, rRaw uint8, oldest bool) {
		specs := experiments.PaperSpecs()
		rng := xrand.New(seed)
		spec := specs[rng.Intn(len(specs))].Spec
		arb := engine.ArbitrateRandom
		if oldest {
			arb = engine.ArbitrateOldestFirst
		}
		r := int(rRaw)%6 + 1
		lanes := make([]laneParams, r)
		for i := range lanes {
			lanes[i] = laneParams{
				load:     0.05 + 0.5*rng.Float64(),
				trafSeed: rng.Uint64(),
				engSeed:  rng.Uint64(),
				warmup:   500,
				measure:  1500,
				arb:      arb,
			}
		}
		bs, bf := runReplicaSet(t, spec, lanes)
		ss, sf := runScalars(t, spec, lanes)
		for i := range bs {
			if bs[i] != ss[i] {
				t.Fatalf("replica %d/%d: Stats diverge:\nbatched: %+v\nscalar:  %+v", i, r, bs[i], ss[i])
			}
			if !reflect.DeepEqual(bf[i], sf[i]) {
				t.Fatalf("replica %d/%d: channel flits diverge", i, r)
			}
		}
	})
}
