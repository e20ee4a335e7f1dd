package minsim

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"minsim/internal/simrun"
)

func TestNewNetworkDefaults(t *testing.T) {
	cases := []struct {
		cfg      NetworkConfig
		nodes    int
		channels int
		name     string
	}{
		{NetworkConfig{Kind: TMIN}, 64, 256, "TMIN(cube) 64 nodes 4x4"},
		{NetworkConfig{Kind: DMIN}, 64, 384, "DMIN(cube,d=2) 64 nodes 4x4"},
		{NetworkConfig{Kind: VMIN}, 64, 384, "VMIN(cube,vc=2) 64 nodes 4x4"},
		{NetworkConfig{Kind: BMIN}, 64, 384, "BMIN 64 nodes 4x4"},
	}
	for _, c := range cases {
		net, err := NewNetwork(c.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if net.Nodes() != c.nodes {
			t.Errorf("%s: %d nodes, want %d", net.Name(), net.Nodes(), c.nodes)
		}
		if net.Channels() != c.channels {
			t.Errorf("%s: %d channels, want %d", net.Name(), net.Channels(), c.channels)
		}
		if net.Name() != c.name {
			t.Errorf("name %q, want %q", net.Name(), c.name)
		}
	}
}

func TestNewNetworkErrors(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{Kind: Kind(99)}); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := NewNetwork(NetworkConfig{Kind: TMIN, K: 3}); err == nil {
		t.Error("non-power-of-two k accepted")
	}
}

// TestNewNetworkBoundsChannels: the facade refuses a network too large
// to run, as every other entry point does, and the refusal costs the
// description, not the network (2^26 nodes is 1.8 G channels).
func TestNewNetworkBoundsChannels(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewNetwork(NetworkConfig{Kind: TMIN, K: 2, Stages: 26})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(simrun.MaxChannels)) {
		t.Errorf("NewNetwork at 2^26 nodes returned %v, want the %d-channel bound", err, simrun.MaxChannels)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a 2^26-node network allocated %d bytes, want < 1 MB", got)
	}
}

func TestRunLowLoad(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Kind: TMIN})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Network:       net,
		Workload:      Workload{Pattern: Uniform, MinLen: 16, MaxLen: 64},
		Load:          0.1,
		WarmupCycles:  2000,
		MeasureCycles: 10000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesMeasured == 0 {
		t.Fatal("no messages measured")
	}
	if math.Abs(res.Throughput-0.1) > 0.03 {
		t.Errorf("throughput %v at offered 0.1", res.Throughput)
	}
	if !res.Sustainable {
		t.Error("low load should be sustainable")
	}
	if res.MeanLatencyCycles <= 0 || res.MeanLatencyMs != res.MeanLatencyCycles/20 {
		t.Errorf("latency fields inconsistent: %v cycles, %v ms", res.MeanLatencyCycles, res.MeanLatencyMs)
	}
}

// TestRunBurstyArrival: the facade's arrival axis reaches the engine —
// same mean load, but the modulated processes produce a different
// (deterministic) message stream than Poisson.
func TestRunBurstyArrival(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Kind: TMIN})
	if err != nil {
		t.Fatal(err)
	}
	run := func(a Arrival) Result {
		res, err := Run(RunConfig{
			Network:       net,
			Workload:      Workload{Pattern: Uniform, MinLen: 16, MaxLen: 64, Arrival: a},
			Load:          0.1,
			WarmupCycles:  2000,
			MeasureCycles: 10000,
			Seed:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MessagesMeasured == 0 {
			t.Fatalf("arrival %d measured nothing", a)
		}
		return res
	}
	poisson, mmpp, onoff := run(Poisson), run(MMPP), run(OnOff)
	if mmpp == poisson || onoff == poisson {
		t.Error("bursty arrivals reproduced the Poisson result exactly; the axis is not reaching the engine")
	}
	if again := run(MMPP); again != mmpp {
		t.Error("MMPP run not deterministic")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("nil network accepted")
	}
	net, _ := NewNetwork(NetworkConfig{Kind: TMIN})
	if _, err := Run(RunConfig{Network: net, Workload: Workload{Pattern: Pattern(42)}, Load: 0.1}); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := Run(RunConfig{Network: net, Workload: Workload{Arrival: Arrival(42)}, Load: 0.1, WarmupCycles: 1, MeasureCycles: 1}); err == nil {
		t.Error("bad arrival process accepted")
	}
	if _, err := Run(RunConfig{Network: net, Load: -1, WarmupCycles: 1, MeasureCycles: 1}); err == nil {
		t.Error("negative load accepted")
	}
}

func TestSweepOrdering(t *testing.T) {
	// A coarse end-to-end shape check: DMIN sustains more load than
	// TMIN under global uniform traffic.
	loads := []float64{0.2, 0.5}
	sat := map[Kind]float64{}
	for _, kind := range []Kind{TMIN, DMIN} {
		net, err := NewNetwork(NetworkConfig{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Sweep(SweepConfig{
			Network:       net,
			Workload:      Workload{Pattern: Uniform},
			Loads:         loads,
			WarmupCycles:  5000,
			MeasureCycles: 20000,
			Seed:          2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(loads) {
			t.Fatalf("%d results", len(res))
		}
		sat[kind] = res[1].Throughput
	}
	if sat[DMIN] <= sat[TMIN] {
		t.Errorf("DMIN throughput %v should exceed TMIN %v at load 0.5", sat[DMIN], sat[TMIN])
	}
}

func TestSweepNilNetwork(t *testing.T) {
	if _, err := Sweep(SweepConfig{Loads: []float64{0.1}}); err == nil {
		t.Error("nil network accepted")
	}
}

func TestPathCountAndLength(t *testing.T) {
	bmin, _ := NewNetwork(NetworkConfig{Kind: BMIN})
	// Theorem 1: FirstDifference(0, 63) = 2 -> 16 paths, length 6.
	if n, err := bmin.PathCount(0, 63); err != nil || n != 16 {
		t.Errorf("PathCount(0,63) = %d, %v; want 16", n, err)
	}
	if l, err := bmin.PathLength(0, 63); err != nil || l != 6 {
		t.Errorf("PathLength(0,63) = %d, %v; want 6", l, err)
	}
	if l, _ := bmin.PathLength(0, 1); l != 2 {
		t.Errorf("PathLength(0,1) = %d, want 2", l)
	}
	tmin, _ := NewNetwork(NetworkConfig{Kind: TMIN})
	if n, _ := tmin.PathCount(0, 63); n != 1 {
		t.Errorf("TMIN PathCount = %d, want 1", n)
	}
	if l, _ := tmin.PathLength(5, 6); l != 4 {
		t.Errorf("TMIN PathLength = %d, want 4", l)
	}
	if _, err := tmin.PathCount(3, 3); err == nil {
		t.Error("self path accepted")
	}
	if _, err := tmin.PathLength(0, 64); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := tmin.PathCount(-1, 5); err == nil {
		t.Error("negative node accepted")
	}
}

func TestFirstDifferenceFacade(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: BMIN, K: 2, Stages: 3})
	if tt, ok := net.FirstDifference(1, 5); !ok || tt != 2 {
		t.Errorf("FirstDifference(001, 101) = %d, %v", tt, ok)
	}
	if _, ok := net.FirstDifference(4, 4); ok {
		t.Error("equal addresses should report ok = false")
	}
}

func TestAnalyzeClusters(t *testing.T) {
	cube, _ := NewNetwork(NetworkConfig{Kind: TMIN, Wiring: Cube})
	butterfly, _ := NewNetwork(NetworkConfig{Kind: TMIN, Wiring: Butterfly})
	var topDigit [][]int
	for v := 0; v < 4; v++ {
		var c []int
		for n := v * 16; n < (v+1)*16; n++ {
			c = append(c, n)
		}
		topDigit = append(topDigit, c)
	}
	if v := cube.AnalyzeClusters(topDigit); !v.Balanced || v.SharedChannels {
		t.Errorf("cube top-digit clustering: %+v, want balanced and unshared", v)
	}
	if v := butterfly.AnalyzeClusters(topDigit); !v.Reduced {
		t.Errorf("butterfly top-digit clustering: %+v, want reduced", v)
	}
}

func TestFatTreeLevels(t *testing.T) {
	bmin, _ := NewNetwork(NetworkConfig{Kind: BMIN})
	if l, err := bmin.FatTreeLevels(); err != nil || l != 3 {
		t.Errorf("FatTreeLevels = %d, %v", l, err)
	}
	tmin, _ := NewNetwork(NetworkConfig{Kind: TMIN})
	if _, err := tmin.FatTreeLevels(); err == nil {
		t.Error("TMIN accepted as fat tree")
	}
}

func TestDumps(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: BMIN, K: 2, Stages: 2})
	if !strings.Contains(net.WiringDump(), "BMIN") {
		t.Error("WiringDump missing header")
	}
	if !strings.HasPrefix(net.DOT(), "digraph") {
		t.Error("DOT missing digraph")
	}
}

func TestWorkloadLengthDefaults(t *testing.T) {
	spec := func(w Workload) simrun.WorkloadSpec {
		s, err := w.spec()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if l := spec(Workload{}).Lengths; l != nil {
		t.Errorf("default lengths %v, want nil (simrun's paper U{8..1024})", l)
	}
	if got := spec(Workload{MinLen: 100, MaxLen: 50}).Lengths.Mean(); got != 100 { // max < min clamps to min
		t.Errorf("clamped mean %v, want 100", got)
	}
	if got := spec(Workload{MaxLen: 64}).Lengths.Mean(); got != 32.5 {
		t.Errorf("min defaulted mean %v, want 32.5", got)
	}
}

func TestHotSpotWorkloadRuns(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: DMIN})
	res, err := Run(RunConfig{
		Network:       net,
		Workload:      Workload{Pattern: HotSpot, HotX: 0.10, MinLen: 16, MaxLen: 64},
		Load:          0.2,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesMeasured == 0 {
		t.Error("hot spot run measured nothing")
	}
}

func TestPermutationWorkloadRuns(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: BMIN})
	res, err := Run(RunConfig{
		Network:       net,
		Workload:      Workload{Pattern: ShufflePerm, MinLen: 16, MaxLen: 64},
		Load:          0.3,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesMeasured == 0 {
		t.Error("permutation run measured nothing")
	}
	// Butterfly permutation with ratios through the facade.
	net2, _ := NewNetwork(NetworkConfig{Kind: TMIN})
	if _, err := Run(RunConfig{
		Network:       net2,
		Workload:      Workload{Pattern: ButterflyPerm, ButterflyI: 2, MinLen: 8, MaxLen: 32},
		Load:          0.1,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherFacade(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: BMIN})
	sources := []int{1, 2, 3, 16, 32}
	res, err := net.Gather(BinomialTree, 0, sources, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unicasts != len(sources) || res.LatencyCycles <= 64 {
		t.Errorf("gather result %+v", res)
	}
	if _, err := net.Gather(MulticastAlgorithm(9), 0, sources, 64); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestMulticastFacade(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: BMIN})
	dests := []int{1, 2, 3, 8, 16, 32, 48}
	var latencies []int64
	for _, alg := range []MulticastAlgorithm{SeparateAddressing, BinomialTree, SubtreeTree} {
		res, err := net.Multicast(alg, 0, dests, 128)
		if err != nil {
			t.Fatal(err)
		}
		if res.Unicasts != len(dests) {
			t.Errorf("%s: %d unicasts", res.Algorithm, res.Unicasts)
		}
		if res.LatencyCycles <= 128 {
			t.Errorf("%s: latency %d too fast", res.Algorithm, res.LatencyCycles)
		}
		latencies = append(latencies, res.LatencyCycles)
	}
	// The trees beat separate addressing for 7 destinations.
	if latencies[1] >= latencies[0] || latencies[2] >= latencies[0] {
		t.Errorf("tree multicast should beat separate addressing: %v", latencies)
	}
	if _, err := net.Multicast(MulticastAlgorithm(9), 0, dests, 128); err == nil {
		t.Error("bad algorithm accepted")
	}
	if _, err := net.Multicast(BinomialTree, 0, nil, 128); err == nil {
		t.Error("empty destination set accepted")
	}
}

func TestClusterRatioWorkload(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Kind: TMIN})
	res, err := Run(RunConfig{
		Network: net,
		Workload: Workload{
			Pattern: Uniform, Scope: Cluster16,
			Ratios: []float64{4, 1, 1, 1},
			MinLen: 16, MaxLen: 64,
		},
		Load:          0.2,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesMeasured == 0 {
		t.Error("ratio run measured nothing")
	}
	// Wrong ratio count errors.
	if _, err := Run(RunConfig{
		Network:       net,
		Workload:      Workload{Pattern: Uniform, Scope: Cluster16, Ratios: []float64{1, 2}},
		Load:          0.2,
		WarmupCycles:  1,
		MeasureCycles: 1,
	}); err == nil {
		t.Error("ratio count mismatch accepted")
	}
}

// TestSweepAndRunPinned holds the facade to literal results recorded
// before Sweep and Run moved onto simrun's specs: a DMIN hot-spot MMPP
// workload with a message-length range, and cluster-16 ratios under
// on-off arrivals with only MaxLen set. Every Result field is compared,
// floats by bit pattern.
func TestSweepAndRunPinned(t *testing.T) {
	dmin, _ := NewNetwork(NetworkConfig{Kind: DMIN})
	tmin, _ := NewNetwork(NetworkConfig{Kind: TMIN})
	type pinned struct {
		offered, offeredMeasured, throughput, latency, latencyMs, stdDev uint64
		messages                                                         int64
		maxQueue                                                         int
		sustainable                                                      bool
	}
	pin := func(r Result) pinned {
		return pinned{
			math.Float64bits(r.Offered), math.Float64bits(r.OfferedMeasured), math.Float64bits(r.Throughput),
			math.Float64bits(r.MeanLatencyCycles), math.Float64bits(r.MeanLatencyMs), math.Float64bits(r.LatencyStdDev),
			r.MessagesMeasured, r.MaxSourceQueue, r.Sustainable,
		}
	}
	cases := []struct {
		net   *Network
		work  Workload
		sweep [2]pinned // loads 0.1 and 0.3
		run   pinned    // load 0.2
	}{
		{
			dmin, Workload{Pattern: HotSpot, HotX: 0.1, Arrival: MMPP, MinLen: 16, MaxLen: 64},
			[2]pinned{
				{0x3fb999999999999a, 0x3fb8c9fbe76c8b44, 0x3fb88c083126e979, 0x404cf87878787878, 0x40072d2d2d2d2d2d, 0x40418ed19f51b440, 612, 0, true},
				{0x3fd3333333333333, 0x3fd3ee872b020c4a, 0x3fc5a10624dd2f1b, 0x40874e832c6e043b, 0x4042a535bd24d02f, 0x4088ba4e07a1d3c8, 968, 0, true},
			},
			pinned{0x3fc999999999999a, 0x3fcb61eb851eb852, 0x3fc54872b020c49c, 0x4077ad50abd50abd, 0x4032f10d56440897, 0x407ff8eddf7d19e0, 1025, 31, true},
		},
		{
			tmin, Workload{Pattern: Uniform, Scope: Cluster16, Ratios: []float64{4, 1, 1, 1}, Arrival: OnOff, DwellHi: 300, MaxLen: 48},
			[2]pinned{
				{0x3fb999999999999a, 0x3fb9b0a3d70a3d71, 0x3fb98d916872b021, 0x406ac105e1d27a3f, 0x40256737e7db94ff, 0x406e697f211212ad, 1001, 0, true},
				{0x3fd3333333333333, 0x3fd1b2c083126e98, 0x3fc88147ae147ae1, 0x4082685fa42f2edd, 0x403d73cc39e517c8, 0x40865e00f2e71b2b, 1606, 0, false},
			},
			pinned{0x3fc999999999999a, 0x3fca9645a1cac083, 0x3fc46a3d70a3d70a, 0x4080fabc6a7ef9db, 0x403b2ac710cb295e, 0x408809228defcf7b, 1500, 245, false},
		},
	}
	for i, c := range cases {
		res, err := Sweep(SweepConfig{Network: c.net, Workload: c.work, Loads: []float64{0.1, 0.3},
			WarmupCycles: 1000, MeasureCycles: 4000, Seed: 9, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range res {
			if got := pin(r); got != c.sweep[j] {
				t.Errorf("case %d: Sweep point %d = %#v, want %#v", i, j, got, c.sweep[j])
			}
		}
		r, err := Run(RunConfig{Network: c.net, Workload: c.work, Load: 0.2, WarmupCycles: 1000, MeasureCycles: 4000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got := pin(r); got != c.run {
			t.Errorf("case %d: Run = %#v, want %#v", i, got, c.run)
		}
	}
}
