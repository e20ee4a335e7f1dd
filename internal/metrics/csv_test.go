package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtCSV is Figure.CSV as it was written through fmt, kept as the
// reference: the strconv rendering must not move one byte of any
// committed figure CSV.
func fmtCSV(f Figure) string {
	var sb strings.Builder
	sb.WriteString(csvHeader)
	for _, s := range f.Series {
		for _, p := range s.Points {
			replicas := p.Replicas
			latLo, latHi := p.LatencyCILo, p.LatencyCIHi
			thrLo, thrHi := p.ThroughputCILo, p.ThroughputCIHi
			if replicas == 0 {
				replicas = 1
				latLo, latHi = p.LatencyCyc, p.LatencyCyc
				thrLo, thrHi = p.Throughput, p.Throughput
			}
			fmt.Fprintf(&sb, "%s,%s,%.4f,%.4f,%.1f,%.3f,%.1f,%d,%t,%d,%.1f,%.1f,%.4f,%.4f\n",
				f.ID, s.Label, p.Offered, p.Throughput, p.LatencyCyc, p.LatencyMs, p.StdDev, p.Messages, p.Sustainable,
				replicas, latLo, latHi, thrLo, thrHi)
		}
	}
	return sb.String()
}

func TestCSVMatchesFmt(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, -1e21, 5e-5, 0.00005, 0.00015, 2.5, 3.5, 0.25, 0.35, 0.0005, 0.0015,
		0.1, 0.29995, 123.45, 99999.95, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	f := Figure{ID: "figX", Series: []Series{{Label: "a series, with a comma"}, {Label: ""}}}
	for i, v := range values {
		// Every value visits every float column and precision.
		w := values[(i+1)%len(values)]
		for si, replicas := range []int{0, 8} {
			f.Series[si].Points = append(f.Series[si].Points, Point{
				Offered: v, Throughput: w, LatencyCyc: v, LatencyMs: v, StdDev: w,
				Messages: int64(i) * math.MaxInt64 / int64(len(values)), Sustainable: i%2 == 0,
				Replicas:    replicas,
				LatencyCILo: w, LatencyCIHi: v, ThroughputCILo: v, ThroughputCIHi: w,
			})
		}
	}
	f.Series[0].Points = append(f.Series[0].Points, Point{Messages: math.MinInt64, Replicas: -1})
	if got, want := f.CSV(), fmtCSV(f); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("CSV line %d differs from the fmt rendering:\n  got  %s\n  want %s", i, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("CSV has %d lines, the fmt rendering %d", len(gl), len(wl))
	}
	if got := (Figure{ID: "empty"}).CSV(); got != csvHeader {
		t.Errorf("empty figure CSV = %q, want the header alone", got)
	}
}
