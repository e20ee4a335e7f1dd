package metrics

import (
	"math"
	"strings"
	"testing"

	"minsim/internal/engine"
)

func TestConversions(t *testing.T) {
	if got := CyclesToMilliseconds(20); got != 1 {
		t.Errorf("20 cycles = %v ms, want 1", got)
	}
}

func TestFromStats(t *testing.T) {
	st := engine.Stats{
		MeasuredCycles: 1000,
		DeliveredFlits: 32000,
		MeasuredMsgs:   4,
		LatencySum:     400,
		LatencySumSq:   41000, // latencies e.g. 90,95,105,110
		LatencyMin:     90,
		LatencyMax:     110,
		QueueExceeded:  false,
	}
	p := FromStats(0.6, 64, st)
	if math.Abs(p.Throughput-0.5) > 1e-9 {
		t.Errorf("throughput %v, want 0.5", p.Throughput)
	}
	if p.LatencyCyc != 100 {
		t.Errorf("latency %v, want 100", p.LatencyCyc)
	}
	if p.LatencyMs != 5 {
		t.Errorf("latency %v ms, want 5", p.LatencyMs)
	}
	if p.LatencyP0 != 90 || p.LatencyP100 != 110 {
		t.Errorf("min/max %v/%v", p.LatencyP0, p.LatencyP100)
	}
	wantStd := math.Sqrt(41000.0/4 - 100*100)
	if math.Abs(p.StdDev-wantStd) > 1e-9 {
		t.Errorf("stddev %v, want %v", p.StdDev, wantStd)
	}
	if !p.Sustainable {
		t.Error("should be sustainable")
	}
	p2 := FromStats(0.6, 64, engine.Stats{QueueExceeded: true, MeasuredCycles: 1})
	if p2.Sustainable {
		t.Error("exceeded queue should be unsustainable")
	}
	if p2.LatencyCyc != 0 || p2.StdDev != 0 {
		t.Error("no-message stats should zero latency fields")
	}
}

func TestConfidenceInterval(t *testing.T) {
	// Identical batches give a zero-width interval.
	lo, hi, ok := ConfidenceInterval([]float64{10, 10, 10, 10}, 1.96)
	if !ok || lo != 10 || hi != 10 {
		t.Errorf("constant batches: [%v, %v] ok=%v", lo, hi, ok)
	}
	// Known spread: batches {8, 12}: mean 10, s = 2*sqrt(2)... s =
	// sqrt(((8-10)^2+(12-10)^2)/1) = sqrt(8) ≈ 2.828; half-width =
	// 1.96 * 2.828 / sqrt(2) = 3.92.
	lo, hi, ok = ConfidenceInterval([]float64{8, 12}, 1.96)
	if !ok {
		t.Fatal("two batches should be ok")
	}
	if math.Abs(lo-(10-3.92)) > 1e-9 || math.Abs(hi-(10+3.92)) > 1e-9 {
		t.Errorf("interval [%v, %v], want [6.08, 13.92]", lo, hi)
	}
	// Degenerate inputs.
	if _, _, ok := ConfidenceInterval(nil, 1.96); ok {
		t.Error("empty batches should not be ok")
	}
	if lo, hi, ok := ConfidenceInterval([]float64{7}, 1.96); ok || lo != 7 || hi != 7 {
		t.Error("single batch should return point estimate, not ok")
	}
}

func sampleSeries() Series {
	return Series{
		Label: "TMIN",
		Points: []Point{
			{Offered: 0.1, Throughput: 0.1, LatencyCyc: 500, Sustainable: true},
			{Offered: 0.3, Throughput: 0.3, LatencyCyc: 700, Sustainable: true},
			{Offered: 0.5, Throughput: 0.45, LatencyCyc: 1500, Sustainable: true},
			{Offered: 0.7, Throughput: 0.47, LatencyCyc: 9000, Sustainable: false},
		},
	}
}

func TestSaturationThroughput(t *testing.T) {
	s := sampleSeries()
	sat, ok := s.SaturationThroughput()
	if !ok || sat != 0.45 {
		t.Errorf("saturation %v, %v; want 0.45, true", sat, ok)
	}
	empty := Series{Points: []Point{{Throughput: 0.9, Sustainable: false}}}
	if _, ok := empty.SaturationThroughput(); ok {
		t.Error("unsustainable-only series reported a saturation point")
	}
}

func TestPeakThroughput(t *testing.T) {
	s := sampleSeries()
	// Peak includes the unsustainable point at 0.47.
	if got := s.PeakThroughput(); got != 0.47 {
		t.Errorf("PeakThroughput = %v, want 0.47", got)
	}
	if got := (Series{}).PeakThroughput(); got != 0 {
		t.Errorf("empty series peak = %v", got)
	}
}

func TestASCIIPlot(t *testing.T) {
	f := Figure{ID: "p", Title: "plot test", Series: []Series{
		sampleSeries(),
		{Label: "DMIN", Points: []Point{
			{Throughput: 0.2, LatencyCyc: 520, Sustainable: true},
			{Throughput: 0.5, LatencyCyc: 900, Sustainable: true},
		}},
	}}
	out := f.ASCIIPlot(40, 10)
	for _, want := range []string{"p: plot test", "o = TMIN", "x = DMIN", "log scale"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// Both glyphs appear in the grid.
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
		t.Error("glyphs missing from grid")
	}
	// Degenerate inputs.
	empty := Figure{ID: "e"}
	if !strings.Contains(empty.ASCIIPlot(40, 10), "nothing to plot") {
		t.Error("empty figure should say so")
	}
	one := Figure{ID: "one", Series: []Series{{Label: "a", Points: []Point{{Throughput: 0.1, LatencyCyc: 100}}}}}
	if out := one.ASCIIPlot(5, 3); !strings.Contains(out, "one") {
		t.Error("single point plot failed")
	}
}

func TestRendering(t *testing.T) {
	f := Figure{ID: "fig18a", Title: "Four networks, global uniform", Series: []Series{sampleSeries()}}
	csv := f.CSV()
	if !strings.Contains(csv, "fig18a,TMIN,0.1000") {
		t.Errorf("CSV missing data row:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "figure,series,") {
		t.Error("CSV missing header")
	}
	if lines := strings.Count(csv, "\n"); lines != 5 {
		t.Errorf("CSV has %d lines, want 5", lines)
	}
	tab := f.Table()
	if !strings.Contains(tab, "max sustainable throughput: 45.0%") {
		t.Errorf("Table missing saturation line:\n%s", tab)
	}
	sum := f.Summary()
	if !strings.Contains(sum, "TMIN") || !strings.Contains(sum, "45.0%") {
		t.Errorf("Summary wrong:\n%s", sum)
	}
	// A series with no sustainable points renders without panicking.
	f2 := Figure{ID: "x", Series: []Series{{Label: "none", Points: []Point{{Sustainable: false}}}}}
	if !strings.Contains(f2.Table(), "no sustainable point") {
		t.Error("Table should note missing sustainable points")
	}
	if !strings.Contains(f2.Summary(), "n/a") {
		t.Error("Summary should note missing saturation")
	}
}

func TestMergeReplicas(t *testing.T) {
	mk := func(lat, thr float64, sustainable bool) Point {
		return Point{
			Offered: 0.4, OfferedMeasured: 0.39, Throughput: thr,
			LatencyCyc: lat, LatencyMs: CyclesToMilliseconds(lat),
			LatencyP0: lat - 50, LatencyP100: lat + 50,
			StdDev: 10, Messages: 1000, Sustainable: sustainable,
		}
	}
	m := MergeReplicas([]Point{mk(100, 0.30, true), mk(110, 0.32, true), mk(120, 0.34, true)})
	if m.Replicas != 3 {
		t.Errorf("Replicas = %d, want 3", m.Replicas)
	}
	if math.Abs(m.LatencyCyc-110) > 1e-9 || math.Abs(m.Throughput-0.32) > 1e-9 {
		t.Errorf("means: latency %v throughput %v, want 110 / 0.32", m.LatencyCyc, m.Throughput)
	}
	if m.Messages != 3000 || !m.Sustainable {
		t.Errorf("Messages = %d Sustainable = %t", m.Messages, m.Sustainable)
	}
	if m.LatencyP0 != 50 || m.LatencyP100 != 170 {
		t.Errorf("latency extremes [%v, %v], want [50, 170]", m.LatencyP0, m.LatencyP100)
	}
	// The CI must bracket the mean symmetrically and agree with
	// ConfidenceInterval over the replica means.
	lo, hi, ok := ConfidenceInterval([]float64{100, 110, 120}, 1.96)
	if !ok || m.LatencyCILo != lo || m.LatencyCIHi != hi {
		t.Errorf("latency CI [%v, %v], want [%v, %v]", m.LatencyCILo, m.LatencyCIHi, lo, hi)
	}
	if m.LatencyCILo >= m.LatencyCyc || m.LatencyCIHi <= m.LatencyCyc {
		t.Errorf("CI [%v, %v] does not bracket the mean %v", m.LatencyCILo, m.LatencyCIHi, m.LatencyCyc)
	}

	// One unsustainable replica poisons the merged flag.
	if MergeReplicas([]Point{mk(100, 0.3, true), mk(100, 0.3, false)}).Sustainable {
		t.Error("merged point sustainable despite an unsustainable replica")
	}

	// Single replica: identity with degenerate intervals.
	one := MergeReplicas([]Point{mk(100, 0.30, true)})
	if one.Replicas != 1 || one.LatencyCILo != 100 || one.LatencyCIHi != 100 {
		t.Errorf("single-replica merge: %+v", one)
	}

	// The CSV carries the error-bar columns for replicated points and
	// degenerate bounds for plain ones.
	f := Figure{ID: "fx", Series: []Series{{Label: "s", Points: []Point{m, mk(100, 0.30, true)}}}}
	csv := f.CSV()
	if !strings.Contains(csv, "latency_ci_lo,latency_ci_hi,throughput_ci_lo,throughput_ci_hi") {
		t.Errorf("CSV header lacks CI columns:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[1], ",3,") {
		t.Errorf("replicated row lacks replicas=3: %s", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",1,100.0,100.0,0.3000,0.3000") {
		t.Errorf("single-run row lacks degenerate CI: %s", lines[2])
	}
}
