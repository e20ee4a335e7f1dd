package traffic

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"minsim/internal/kary"
	"minsim/internal/xrand"
)

var r64 = kary.MustNew(4, 3)

func TestUniformPattern(t *testing.T) {
	c := Global(64)
	u := Uniform{C: c}
	rng := xrand.New(1)
	counts := make([]int, 64)
	const draws = 64000
	for i := 0; i < draws; i++ {
		d, ok := u.Dest(5, rng)
		if !ok {
			t.Fatal("uniform pattern refused to generate")
		}
		if d == 5 {
			t.Fatal("uniform pattern returned the source")
		}
		counts[d]++
	}
	want := float64(draws) / 63
	for d, cnt := range counts {
		if d == 5 {
			continue
		}
		if math.Abs(float64(cnt)-want) > 6*math.Sqrt(want) {
			t.Errorf("destination %d drawn %d times, want about %.0f", d, cnt, want)
		}
	}
}

func TestUniformRespectsClusters(t *testing.T) {
	c := Cluster16(r64)
	u := Uniform{C: c}
	rng := xrand.New(2)
	for i := 0; i < 10000; i++ {
		src := rng.Intn(64)
		d, ok := u.Dest(src, rng)
		if !ok {
			t.Fatal("refused")
		}
		if c.Of[d] != c.Of[src] {
			t.Fatalf("destination %d outside cluster of %d", d, src)
		}
	}
}

func TestHotSpotProbabilities(t *testing.T) {
	// Global cluster, x = 10%: y = 6.4, hot node probability
	// (1+y)/(N+y) = 7.4/70.4 ≈ 0.105.
	c := Global(64)
	h := HotSpot{C: c, X: 0.10}
	rng := xrand.New(3)
	const draws = 200000
	hot := 0
	src := 33 // not the hot node
	for i := 0; i < draws; i++ {
		d, ok := h.Dest(src, rng)
		if !ok {
			t.Fatal("refused")
		}
		if d == src {
			t.Fatal("returned the source")
		}
		if d == 0 {
			hot++
		}
	}
	want := 7.4 / 70.4 * draws
	if math.Abs(float64(hot)-want) > 6*math.Sqrt(want) {
		t.Errorf("hot node drawn %d times, want about %.0f", hot, want)
	}
}

func TestHotSpotZeroXIsUniform(t *testing.T) {
	c := Global(8)
	h := HotSpot{C: c, X: 0}
	rng := xrand.New(4)
	counts := make([]int, 8)
	const draws = 80000
	for i := 0; i < draws; i++ {
		d, _ := h.Dest(7, rng)
		counts[d]++
	}
	want := float64(draws) / 7
	for d := 0; d < 7; d++ {
		if math.Abs(float64(counts[d])-want) > 6*math.Sqrt(want) {
			t.Errorf("x=0 hotspot: node %d drawn %d, want about %.0f", d, counts[d], want)
		}
	}
}

func TestPermutationPatterns(t *testing.T) {
	rng := xrand.New(5)
	sh := ShufflePattern(r64)
	for s := 0; s < 64; s++ {
		d, ok := sh.Dest(s, rng)
		if ok {
			if d != r64.Shuffle(s) {
				t.Fatalf("shuffle pattern sent %d to %d", s, d)
			}
		} else if r64.Shuffle(s) != s {
			t.Fatalf("node %d refused but is not a fixed point", s)
		}
	}
	bf := ButterflyPattern(r64, 2)
	fixed := 0
	for s := 0; s < 64; s++ {
		if _, ok := bf.Dest(s, rng); !ok {
			fixed++
		}
	}
	// β_2 fixes addresses with digit 0 == digit 2: 4*4 = 16 nodes.
	if fixed != 16 {
		t.Errorf("butterfly-2 pattern has %d fixed points, want 16", fixed)
	}
}

func TestLengths(t *testing.T) {
	rng := xrand.New(6)
	u := PaperLengths
	if u.Mean() != 516 {
		t.Errorf("paper mean length %v, want 516", u.Mean())
	}
	sum := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		l := u.Draw(rng)
		if l < 8 || l > 1024 {
			t.Fatalf("length %d out of range", l)
		}
		sum += l
	}
	if mean := float64(sum) / draws; math.Abs(mean-516) > 5 {
		t.Errorf("empirical mean %v", mean)
	}
	f := Lengths{Kind: "fixed", L: 64}
	if f.Draw(rng) != 64 || f.Mean() != 64 {
		t.Error("fixed length wrong")
	}
	b := Lengths{Kind: "bimodal", Short: 16, Long: 1000, PShort: 0.75}
	if want := 0.75*16 + 0.25*1000; b.Mean() != want {
		t.Errorf("bimodal mean %v, want %v", b.Mean(), want)
	}
	short, long := 0, 0
	for i := 0; i < draws; i++ {
		switch b.Draw(rng) {
		case 16:
			short++
		case 1000:
			long++
		default:
			t.Fatal("bimodal drew an unexpected length")
		}
	}
	if math.Abs(float64(short)/draws-0.75) > 0.01 {
		t.Errorf("bimodal short fraction %v", float64(short)/draws)
	}
	_ = long
}

func TestClusterings(t *testing.T) {
	g := Global(64)
	if len(g.Members) != 1 || len(g.Members[0]) != 64 {
		t.Error("Global wrong")
	}
	c16 := Cluster16(r64)
	if len(c16.Members) != 4 {
		t.Fatalf("%d clusters", len(c16.Members))
	}
	for ci, m := range c16.Members {
		if len(m) != 16 {
			t.Fatalf("cluster %d has %d members", ci, len(m))
		}
		for _, n := range m {
			if r64.Digit(n, 2) != ci {
				t.Fatalf("node %d in cluster %d", n, ci)
			}
		}
	}
	shared := Cluster16Shared(r64)
	for ci, m := range shared.Members {
		for _, n := range m {
			if r64.Digit(n, 0) != ci {
				t.Fatalf("shared clustering wrong for node %d", n)
			}
		}
	}
	h := Halves(64)
	if len(h.Members) != 2 || len(h.Members[0]) != 32 || h.Of[31] != 0 || h.Of[32] != 1 {
		t.Error("Halves wrong")
	}
}

func TestNewClusteringErrors(t *testing.T) {
	if _, err := NewClustering([]int{0, 2}); err == nil {
		t.Error("gap in cluster ids accepted")
	}
	if _, err := NewClustering([]int{0, -1}); err == nil {
		t.Error("negative cluster id accepted")
	}
}

// TestNodeRates: a node's message rate is the load spread over the
// clusters by their ratios and evenly within a cluster.
func TestNodeRates(t *testing.T) {
	c := Cluster16(r64)
	rates := func(load float64, ratios []float64) []float64 {
		t.Helper()
		w, err := NewWorkload(Config{Clusters: c, Pattern: Uniform{C: c}, Lengths: PaperLengths, Load: load, Ratios: ratios, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(w.state))
		for n := range w.state {
			out[n] = w.state[n].rate
		}
		return out
	}
	// Equal ratios: every node gets load/meanLen messages per cycle.
	for n, rt := range rates(0.5, nil) {
		if math.Abs(rt-0.5/516) > 1e-12 {
			t.Fatalf("node %d rate %v, want %v", n, rt, 0.5/516)
		}
	}
	// 4:1:1:1: cluster 0 nodes get 16/7 of the average, others 4/7.
	rs := rates(0.7, []float64{4, 1, 1, 1})
	wantHot := 0.7 * 4 * 4 / 7 / 516
	wantCold := 0.7 * 4 / 7 / 516
	for n, rt := range rs {
		want := wantCold
		if c.Of[n] == 0 {
			want = wantHot
		}
		if math.Abs(rt-want) > 1e-12 {
			t.Fatalf("node %d rate %v, want %v", n, rt, want)
		}
	}
	// Average over nodes equals load/meanLen.
	sum := 0.0
	for _, rt := range rs {
		sum += rt
	}
	if math.Abs(sum/64-0.7/516) > 1e-12 {
		t.Errorf("average rate %v, want %v", sum/64, 0.7/516)
	}
	// 1:0:0:0 leaves other clusters silent.
	for n, rt := range rates(0.1, []float64{1, 0, 0, 0}) {
		if c.Of[n] != 0 && rt != 0 {
			t.Fatalf("silent cluster node %d has rate %v", n, rt)
		}
	}
}

func TestWorkloadArrivalProcess(t *testing.T) {
	c := Global(16)
	w, err := NewWorkload(Config{
		Clusters: c,
		Pattern:  Uniform{C: c},
		Lengths:  Lengths{Kind: "fixed", L: 100},
		Load:     0.5, // 0.005 msgs/cycle/node
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interarrival mean should be 1/rate = 200 cycles.
	const draws = 20000
	var prev int64
	sum := 0.0
	for i := 0; i < draws; i++ {
		m, ok := w.Next(3)
		if !ok {
			t.Fatal("workload refused")
		}
		if m.Created < prev {
			t.Fatal("arrivals not monotone")
		}
		if m.Src != 3 || m.Dst == 3 || m.Len != 100 {
			t.Fatalf("bad message %+v", m)
		}
		sum += float64(m.Created - prev)
		prev = m.Created
	}
	mean := sum / draws
	if math.Abs(mean-200) > 5 {
		t.Errorf("mean interarrival %v, want about 200", mean)
	}
}

func TestWorkloadZeroRateNodeSilent(t *testing.T) {
	c := Cluster16(r64)
	w, err := NewWorkload(Config{Clusters: c, Pattern: Uniform{C: c}, Lengths: PaperLengths, Load: 0.5, Ratios: []float64{1, 0, 0, 0}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Next(40); ok {
		t.Error("zero-rate node generated traffic")
	}
	if _, ok := w.Next(3); !ok {
		t.Error("active node refused to generate")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	mk := func() *Workload {
		c := Global(8)
		w, _ := NewWorkload(Config{Clusters: c, Pattern: Uniform{C: c}, Lengths: PaperLengths, Load: 0.3, Seed: 42})
		return w
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		node := i % 8
		ma, oka := a.Next(node)
		mb, okb := b.Next(node)
		if oka != okb || ma != mb {
			t.Fatalf("workloads diverged at draw %d", i)
		}
	}
}

// badConfig is a config NewWorkload must refuse and a piece of the
// error it must refuse it with.
type badConfig struct {
	cfg  Config
	want string
}

// refuses checks that NewWorkload fails each bad config on its own check.
func refuses(t *testing.T, bad []badConfig) {
	t.Helper()
	for i, b := range bad {
		_, err := NewWorkload(b.cfg)
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("bad config %d: error %v, want one naming %q", i, err, b.want)
		}
	}
}

// TestWorkloadConfigErrors: each bad config fails on its own check.
func TestWorkloadConfigErrors(t *testing.T) {
	c := Global(8)
	u := Uniform{C: c}
	refuses(t, []badConfig{
		{Config{Pattern: u, Lengths: PaperLengths, Load: 0.1}, "0 nodes"},
		{Config{Clusters: c, Lengths: PaperLengths, Load: 0.1}, "nil pattern"},
		{Config{Clusters: c, Pattern: u, Lengths: Lengths{}, Load: 0.1}, "unknown length kind"},
	})
}

// TestNodeRatesErrors: NewWorkload refuses a load or ratios from which
// no finite, non-negative per-node rate follows.
func TestNodeRatesErrors(t *testing.T) {
	c := Global(8)
	u := Uniform{C: c}
	refuses(t, []badConfig{
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: -1}, "invalid load -1"},
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: math.Inf(1)}, "invalid load +Inf"},
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: 1e308}, "per-node rate of +Inf"},
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: 1, Ratios: []float64{1, 2}}, "2 ratios for 1 clusters"},
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: 1, Ratios: []float64{0}}, "all-zero ratios"},
		{Config{Clusters: c, Pattern: u, Lengths: PaperLengths, Load: 1, Ratios: []float64{-1}}, "invalid ratio -1"},
	})
}

func TestSingletonClusterRefuses(t *testing.T) {
	of := make([]int, 4)
	of[3] = 1 // cluster 1 has a single node
	c, err := NewClustering(of)
	if err != nil {
		t.Fatal(err)
	}
	u := Uniform{C: c}
	rng := xrand.New(9)
	if _, ok := u.Dest(3, rng); ok {
		t.Error("singleton cluster generated traffic")
	}
	h := HotSpot{C: c, X: 0.1}
	if _, ok := h.Dest(3, rng); ok {
		t.Error("singleton cluster generated hotspot traffic")
	}
}

// TestSparesStayBounded: Recycle parks at most GOMAXPROCS workloads, so
// more points finishing at once than there are Ps leave exactly that
// many behind. It empties the list afterwards so that the allocation
// tests after it start cold.
func TestSparesStayBounded(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() {
		spares.Lock()
		spares.list = nil
		spares.Unlock()
	})
	c := Global(64)
	works := make([]*Workload, procs+3)
	for i := range works {
		var err error
		works[i], err = NewWorkload(Config{Clusters: c, Pattern: Uniform{C: c}, Lengths: PaperLengths, Load: 0.5, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, w := range works {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 64 {
				w.Next(n)
			}
			w.Recycle()
		}()
	}
	wg.Wait()
	spares.Lock()
	kept := len(spares.list)
	spares.Unlock()
	if kept != procs {
		t.Errorf("%d workloads recycled at once left %d spares, want GOMAXPROCS = %d", len(works), kept, procs)
	}
}
