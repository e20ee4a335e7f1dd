package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"minsim/internal/topology"
	"minsim/internal/topology/graphtest"
)

func TestNetworkSpecsBuild(t *testing.T) {
	specs := map[string]NetworkSpec{
		"TMINCube":      TMINCube,
		"TMINButterfly": TMINButterfly,
		"DMINCube":      DMINCube,
		"VMINCube":      VMINCube,
		"BMINButterfly": BMINButterfly,
	}
	for name, s := range specs {
		net, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if net.Nodes != 64 {
			t.Errorf("%s: %d nodes", name, net.Nodes)
		}
		if err := graphtest.New(net).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := (NetworkSpec{Kind: topology.Kind(9)}).Build(); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestFigureTableComplete(t *testing.T) {
	figs := Figures()
	wantIDs := []string{"fig16a", "fig16b", "fig17a", "fig17b", "fig18a", "fig18b", "fig19a", "fig19b", "fig20a", "fig20b"}
	if len(figs) != len(wantIDs) {
		t.Fatalf("%d figures, want %d", len(figs), len(wantIDs))
	}
	for i, e := range figs {
		if e.ID != wantIDs[i] {
			t.Errorf("figure %d id %q, want %q", i, e.ID, wantIDs[i])
		}
		if len(e.Curves) < 2 {
			t.Errorf("%s has %d curves", e.ID, len(e.Curves))
		}
		if len(e.Loads) < 5 {
			t.Errorf("%s has %d load points", e.ID, len(e.Loads))
		}
		if e.Expect == "" || e.Title == "" {
			t.Errorf("%s missing title or expectation", e.ID)
		}
	}
	for _, e := range Extensions() {
		if !strings.HasPrefix(e.ID, "ext-") {
			t.Errorf("extension id %q missing ext- prefix", e.ID)
		}
		for _, c := range e.Curves {
			if _, err := c.Net.Build(); err != nil {
				t.Errorf("%s/%s: %v", e.ID, c.Label, err)
			}
		}
	}
}

func TestByID(t *testing.T) {
	if e, ok := ByID("fig19b"); !ok || e.ID != "fig19b" {
		t.Error("ByID(fig19b) failed")
	}
	if e, ok := ByID("ext-cluster32"); !ok || e.ID != "ext-cluster32" {
		t.Error("ByID(ext-cluster32) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// TestByIDIsTheTables: the registry ByID and Titles read holds every
// figure, then every extension, as Figures and Extensions build them.
func TestByIDIsTheTables(t *testing.T) {
	all := append(Figures(), Extensions()...)
	for _, want := range all {
		if got, ok := ByID(want.ID); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("ByID(%s) = %+v, %v; want %+v", want.ID, got, ok, want)
		}
	}
	i := 0
	for id, title := range Titles() {
		if i >= len(all) || id != all[i].ID || title != all[i].Title {
			t.Fatalf("Titles entry %d = %q %q, want the tables' %d-th experiment", i, id, title, i)
		}
		i++
	}
	if i != len(all) {
		t.Errorf("Titles yields %d experiments, the tables hold %d", i, len(all))
	}
}

// TestByIDCallerOwnsSlices: writing a returned experiment's Loads and
// Curves leaves the next lookup as it was, and a lookup costs at most
// the two clones.
func TestByIDCallerOwnsSlices(t *testing.T) {
	want, _ := ByID("fig17a")
	e, _ := ByID("fig17a")
	e.Loads[0] = 99
	e.Curves[0].Label = "changed"
	e.Curves[1].Net.K = 8
	if got, _ := ByID("fig17a"); !reflect.DeepEqual(got, want) {
		t.Errorf("a write to a returned experiment reached the registry: %+v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { ByID("ext-adversarial") }); allocs > 2 {
		t.Errorf("ByID: %v allocations, want at most 2", allocs)
	}
}

func TestSpecStrings(t *testing.T) {
	if Global.String() != "global" || Cluster16.String() != "cluster-16" ||
		Cluster16Shared.String() != "cluster-16-shared" || Cluster32.String() != "cluster-32" {
		t.Error("ClusterSpec strings wrong")
	}
	if (PatternSpec{Kind: HotSpot, HotX: 0.05}).String() != "hotspot-5%" {
		t.Errorf("hotspot string %q", (PatternSpec{Kind: HotSpot, HotX: 0.05}).String())
	}
	if (PatternSpec{Kind: ButterflyPerm, Butterfly: 2}).String() != "butterfly-2" {
		t.Error("butterfly string wrong")
	}
	w := WorkloadSpec{Cluster: Cluster16, Pattern: PatternSpec{Kind: Uniform}, Ratios: []float64{4, 1, 1, 1}}
	if !strings.Contains(w.String(), "ratios") {
		t.Errorf("workload string %q", w.String())
	}
}

// TestRunTinyExperiment runs a reduced fig16a end to end.
func TestRunTinyExperiment(t *testing.T) {
	e, _ := ByID("fig16a")
	e.Loads = []float64{0.1, 0.3}
	fig, err := runAlone(e, Budget{WarmupCycles: 1000, MeasureCycles: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Messages == 0 {
				t.Errorf("%s: point at %v measured nothing", s.Label, p.Offered)
			}
		}
	}
	if !strings.Contains(fig.CSV(), "fig16a,cube TMIN") {
		t.Error("CSV missing series")
	}
}

// TestShapeFig16a: under global uniform traffic, cube and butterfly
// TMINs are statistically indistinguishable (the paper's Fig. 16a).
func TestShapeFig16a(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks need longer runs")
	}
	e, _ := ByID("fig16a")
	e.Loads = []float64{0.3}
	fig, err := runAlone(e, Budget{WarmupCycles: 5000, MeasureCycles: 30000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := fig.Series[0].Points[0]
	b := fig.Series[1].Points[0]
	if ratio := a.LatencyCyc / b.LatencyCyc; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("cube vs butterfly latency ratio %v under global uniform, want about 1", ratio)
	}
}

// TestShapeFig18a: DMIN beats TMIN decisively at mid load (the core
// of the paper's conclusion).
func TestShapeFig18a(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks need longer runs")
	}
	e, _ := ByID("fig18a")
	e.Loads = []float64{0.45}
	fig, err := runAlone(e, Budget{WarmupCycles: 5000, MeasureCycles: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Points[0].Throughput
	}
	if byLabel["DMIN(d=2)"] <= byLabel["TMIN"] {
		t.Errorf("DMIN %v should outdeliver TMIN %v at load 0.45", byLabel["DMIN(d=2)"], byLabel["TMIN"])
	}
	if byLabel["DMIN(d=2)"] <= byLabel["BMIN"] {
		t.Errorf("DMIN %v should outdeliver BMIN %v at load 0.45", byLabel["DMIN(d=2)"], byLabel["BMIN"])
	}
}

// TestShapeFig16b: with cluster-16 uniform traffic the cube TMIN
// outdelivers the channel-reduced butterfly clustering.
func TestShapeFig16b(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks need longer runs")
	}
	e, _ := ByID("fig16b")
	e.Loads = []float64{0.4}
	fig, err := runAlone(e, Budget{WarmupCycles: 5000, MeasureCycles: 30000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Points[0].Throughput
	}
	if byLabel["cube TMIN (balanced)"] <= byLabel["butterfly TMIN (reduced)"] {
		t.Errorf("cube %v should outdeliver channel-reduced butterfly %v",
			byLabel["cube TMIN (balanced)"], byLabel["butterfly TMIN (reduced)"])
	}
}

func TestLoadRangesSane(t *testing.T) {
	for _, loads := range [][]float64{uniformLoads, hotspotLoads, permutationLoads} {
		if loads[0] <= 0 {
			t.Error("loads must start positive")
		}
		for i := 1; i < len(loads); i++ {
			if loads[i] <= loads[i-1] {
				t.Error("loads must increase")
			}
		}
	}
}

func TestLoadRange(t *testing.T) {
	got, err := LoadRange(0.1, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("LoadRange = %v", got)
		}
	}
	for _, bad := range [][3]float64{{0.9, 0.1, 5}, {0.1, 0.9, 1}, {-1, 0.5, 3}} {
		if _, err := LoadRange(bad[0], bad[1], int(bad[2])); err == nil {
			t.Errorf("bad range %v accepted", bad)
		}
	}
}
