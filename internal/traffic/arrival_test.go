package traffic

import (
	"math"
	"testing"

	"minsim/internal/xrand"
)

func TestArrivalValidate(t *testing.T) {
	bad := []ArrivalProcess{
		MMPP2{Burst: 1, DwellHi: 100, DwellLo: 100},
		MMPP2{Burst: 0.5, DwellHi: 100, DwellLo: 100},
		MMPP2{Burst: math.NaN(), DwellHi: 100, DwellLo: 100},
		MMPP2{Burst: math.Inf(1), DwellHi: 100, DwellLo: 100},
		MMPP2{Burst: 4, DwellHi: 0, DwellLo: 100},
		MMPP2{Burst: 4, DwellHi: 100, DwellLo: math.NaN()},
		OnOff{DwellOn: 0, DwellOff: 100},
		OnOff{DwellOn: 100, DwellOff: -1},
		OnOff{DwellOn: math.Inf(1), DwellOff: 100},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad process %d (%+v) accepted", i, p)
		}
	}
	good := []ArrivalProcess{Exponential{}, MMPP2{Burst: 8, DwellHi: 500, DwellLo: 2000}, OnOff{DwellOn: 100, DwellOff: 300}}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good process %d rejected: %v", i, err)
		}
	}
	// NewWorkload surfaces arrival validation.
	c := Global(4)
	_, err := NewWorkload(Config{Clusters: c, Pattern: Uniform{C: c}, Lengths: Lengths{Kind: "fixed", L: 8}, Load: 0.1, Seed: 1,
		Arrival: MMPP2{Burst: 1, DwellHi: 1, DwellLo: 1}})
	if err == nil {
		t.Error("NewWorkload accepted an invalid arrival process")
	}
}

// TestArrivalMeanPreserved pins the contract that bursty processes
// redistribute the configured mean rather than adding traffic: the
// long-run mean gap must be 1/rate for every process.
func TestArrivalMeanPreserved(t *testing.T) {
	const rate = 0.01 // mean gap 100 cycles
	const draws = 400000
	procs := map[string]ArrivalProcess{
		"exponential": Exponential{},
		"mmpp":        MMPP2{Burst: 8, DwellHi: 500, DwellLo: 2000},
		"onoff":       OnOff{DwellOn: 300, DwellOff: 900},
	}
	for name, p := range procs {
		rng := xrand.New(99)
		st := p.Start(rng)
		sum := 0.0
		for i := 0; i < draws; i++ {
			g := p.NextGap(&st, rate, rng)
			if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("%s: bad gap %v", name, g)
			}
			sum += g
		}
		mean := sum / draws
		if math.Abs(mean-1/rate) > 0.03/rate {
			t.Errorf("%s: mean gap %.2f, want about %.2f", name, mean, 1/rate)
		}
	}
}

// TestArrivalBurstiness sanity-checks that the bursty processes are
// actually burstier than Poisson: the squared coefficient of
// variation of the gaps must exceed the exponential's 1.
func TestArrivalBurstiness(t *testing.T) {
	const rate = 0.01
	const draws = 200000
	cv2 := func(p ArrivalProcess) float64 {
		rng := xrand.New(7)
		st := p.Start(rng)
		var sum, sumsq float64
		for i := 0; i < draws; i++ {
			g := p.NextGap(&st, rate, rng)
			sum += g
			sumsq += g * g
		}
		mean := sum / draws
		return (sumsq/draws - mean*mean) / (mean * mean)
	}
	if c := cv2(MMPP2{Burst: 8, DwellHi: 500, DwellLo: 2000}); c < 1.2 {
		t.Errorf("MMPP gap CV^2 = %.2f, want clearly above the Poisson 1", c)
	}
	if c := cv2(OnOff{DwellOn: 300, DwellOff: 900}); c < 1.2 {
		t.Errorf("on-off gap CV^2 = %.2f, want clearly above the Poisson 1", c)
	}
}

// TestArrivalDeterminism: same seed, same stream — for every process,
// through the full Workload path.
func TestArrivalDeterminism(t *testing.T) {
	procs := map[string]ArrivalProcess{
		"default":     nil,
		"exponential": Exponential{},
		"mmpp":        MMPP2{Burst: 8, DwellHi: 500, DwellLo: 2000},
		"onoff":       OnOff{DwellOn: 300, DwellOff: 900},
	}
	mk := func(p ArrivalProcess) *Workload {
		c := Global(8)
		w, err := NewWorkload(Config{Clusters: c, Pattern: Uniform{C: c}, Lengths: PaperLengths, Load: 0.3, Seed: 42, Arrival: p})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	streams := map[string][]int64{}
	for name, p := range procs {
		a, b := mk(p), mk(p)
		created := make([]int64, 0, 512)
		for i := 0; i < 512; i++ {
			node := i % 8
			ma, oka := a.Next(node)
			mb, okb := b.Next(node)
			if oka != okb || ma != mb {
				t.Fatalf("%s: workloads with the same seed diverged at draw %d", name, i)
			}
			created = append(created, ma.Created)
		}
		streams[name] = created
	}
	// A nil arrival is the exponential process, byte for byte.
	for i := range streams["default"] {
		if streams["default"][i] != streams["exponential"][i] {
			t.Fatalf("nil vs explicit Exponential diverged at draw %d", i)
		}
	}
	// The bursty processes actually change the stream.
	same := 0
	for i := range streams["mmpp"] {
		if streams["mmpp"][i] == streams["exponential"][i] {
			same++
		}
	}
	if same == len(streams["mmpp"]) {
		t.Error("MMPP stream identical to the exponential stream")
	}
}

// TestPatternSingleMemberClusters: a node alone in its cluster has no
// one to talk to; both random patterns must refuse rather than loop.
func TestPatternSingleMemberClusters(t *testing.T) {
	c, err := NewClustering([]int{0, 0, 1}) // cluster 1 = {2} alone
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	if _, ok := (Uniform{C: c}).Dest(2, rng); ok {
		t.Error("Uniform generated traffic from a single-member cluster")
	}
	if _, ok := (HotSpot{C: c, X: 0.05}).Dest(2, rng); ok {
		t.Error("HotSpot generated traffic from a single-member cluster")
	}
	if _, ok := (Uniform{C: c}).Dest(0, rng); !ok {
		t.Error("Uniform refused a two-member cluster")
	}
}

// TestNodeRatesNaN: NewWorkload refuses a NaN load or ratio instead of
// spreading it into NaN per-node rates. (A NaN mean length cannot get
// this far: Lengths.Validate refuses every distribution whose mean is
// not at least 1. The name is kept from the deleted traffic.NodeRates,
// as TestNodeRates' is.)
func TestNodeRatesNaN(t *testing.T) {
	c := Global(8)
	u := Uniform{C: c}
	refuses(t, []badConfig{
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: math.NaN()}, "invalid load NaN"},
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: 0.5, Ratios: []float64{math.NaN()}}, "invalid ratio NaN"},
	})
}

func TestTracePattern(t *testing.T) {
	if _, err := NewTracePattern(4, nil); err == nil {
		t.Error("empty trace accepted")
	}
	bad := [][]Pair{
		{{Src: -1, Dst: 1}},
		{{Src: 0, Dst: 4}},
		{{Src: 2, Dst: 2}},
	}
	for i, pairs := range bad {
		if _, err := NewTracePattern(4, pairs); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}

	tp, err := NewTracePattern(4, []Pair{{0, 1}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	// Source 0 cycles 1, 2, 1, 2, ...
	want := []int{1, 2, 1, 2}
	for i, w := range want {
		d, ok := tp.Dest(0, rng)
		if !ok || d != w {
			t.Fatalf("draw %d from src 0: got %d ok=%t, want %d", i, d, ok, w)
		}
	}
	// Source 2 always sends to 3; sources 1 and 3 are silent.
	if d, ok := tp.Dest(2, rng); !ok || d != 3 {
		t.Errorf("src 2: got %d ok=%t", d, ok)
	}
	if _, ok := tp.Dest(1, rng); ok {
		t.Error("unrecorded source generated traffic")
	}
	if _, ok := tp.Dest(3, rng); ok {
		t.Error("unrecorded source generated traffic")
	}
}
